/* Compiled NoC kernels: route search and packet replay.
 *
 * Built with the serving and simulation kernels into one library by
 * repro/service/native.py and called through ctypes from
 * repro/noc/fastpath.py.  Each function is a transcription of a Python
 * oracle that stays in the package:
 *
 *   noc_routes  -- repro.noc.graph.bidirectional_dijkstra, over CSR arrays
 *                  laid out in the graph's succ/pred insertion order;
 *   noc_replay  -- the per-hop recurrence of repro.noc.fastpath's Python
 *                  replay, with the same floating-point operations in the
 *                  same order.
 *
 * Node ids are 0 .. num_nodes-1 (NocTopology checks this at construction).
 */

#include <stdint.h>
#include <stdlib.h>

typedef struct {
    double dist;
    int64_t count;
    int64_t node;
} entry;

/* (dist, count) keys are unique -- count is a push counter -- so this heap
 * pops in exactly the order heapq pops (dist, count, node) tuples. */
static int before(const entry *a, const entry *b) {
    return a->dist < b->dist || (a->dist == b->dist && a->count < b->count);
}

static void heap_push(entry *heap, int64_t *size, entry item) {
    int64_t i = (*size)++;
    while (i > 0) {
        int64_t parent = (i - 1) / 2;
        if (!before(&item, &heap[parent])) break;
        heap[i] = heap[parent];
        i = parent;
    }
    heap[i] = item;
}

static entry heap_pop(entry *heap, int64_t *size) {
    entry top = heap[0];
    entry last = heap[--(*size)];
    int64_t i = 0, n = *size;
    for (;;) {
        int64_t child = 2 * i + 1;
        if (child >= n) break;
        if (child + 1 < n && before(&heap[child + 1], &heap[child])) child++;
        if (!before(&heap[child], &last)) break;
        heap[i] = heap[child];
        i = child;
    }
    if (n > 0) heap[i] = last;
    return top;
}

/* Shortest path for each (sources[k], targets[k]) pair.
 *
 * offsets[d], neighbours[d], weights[d] are the CSR adjacency of direction d
 * (0: successors, 1: predecessors), each node's neighbours in insertion
 * order.  Path k is written to paths[k * num_nodes ...] with its node count
 * in lengths[k].  Returns 0, or k + 1 when pair k has no path (the pairs
 * before it are written).  Returns -1 when workspace cannot be allocated.
 */
int64_t noc_routes(
    int64_t num_nodes,
    const int64_t *succ_offsets, const int64_t *succ_nodes, const double *succ_weights,
    const int64_t *pred_offsets, const int64_t *pred_nodes, const double *pred_weights,
    int64_t num_pairs, const int64_t *sources, const int64_t *targets,
    int64_t *paths, int64_t *lengths)
{
    const int64_t *offsets[2] = {succ_offsets, pred_offsets};
    const int64_t *neighbours[2] = {succ_nodes, pred_nodes};
    const double *weights[2] = {succ_weights, pred_weights};
    int64_t num_edges = succ_offsets[num_nodes];
    /* Each heap takes its endpoint plus at most one push per edge relaxed. */
    entry *heaps[2];
    double *seen[2];
    int64_t *preds[2];
    char *state[2]; /* bit 1: seen, bit 2: distance final */
    int64_t status = 0;
    for (int d = 0; d < 2; d++) {
        heaps[d] = malloc((size_t)(num_edges + 1) * sizeof(entry));
        seen[d] = malloc((size_t)num_nodes * sizeof(double));
        preds[d] = malloc((size_t)num_nodes * sizeof(int64_t));
        state[d] = malloc((size_t)num_nodes);
    }
    for (int d = 0; d < 2; d++) {
        if (!heaps[d] || !seen[d] || !preds[d] || !state[d]) status = -1;
    }
    for (int64_t k = 0; k < num_pairs && status == 0; k++) {
        int64_t source = sources[k], target = targets[k];
        int64_t *path = paths + k * num_nodes;
        if (source == target) {
            path[0] = source;
            lengths[k] = 1;
            continue;
        }
        int64_t size[2] = {0, 0};
        int64_t counter = 0;
        for (int d = 0; d < 2; d++) {
            for (int64_t v = 0; v < num_nodes; v++) state[d][v] = 0;
        }
        int64_t ends[2] = {source, target};
        for (int d = 0; d < 2; d++) {
            seen[d][ends[d]] = 0.0;
            preds[d][ends[d]] = -1;
            state[d][ends[d]] = 1;
            entry start = {0.0, counter++, ends[d]};
            heap_push(heaps[d], &size[d], start);
        }
        int has_final = 0;
        double finaldist = 0.0;
        int64_t meet = -1;
        int found = 0;
        int direction = 1;
        while (size[0] > 0 && size[1] > 0) {
            direction = 1 - direction;
            int other = 1 - direction;
            entry top = heap_pop(heaps[direction], &size[direction]);
            int64_t v = top.node;
            if (state[direction][v] & 2) continue;
            state[direction][v] |= 2;
            if (state[other][v] & 2) {
                found = 1;
                break;
            }
            for (int64_t j = offsets[direction][v]; j < offsets[direction][v + 1]; j++) {
                int64_t w = neighbours[direction][j];
                double length = top.dist + weights[direction][j];
                if (state[direction][w] & 2) continue;
                if (!(state[direction][w] & 1) || length < seen[direction][w]) {
                    seen[direction][w] = length;
                    state[direction][w] |= 1;
                    entry item = {length, counter++, w};
                    heap_push(heaps[direction], &size[direction], item);
                    preds[direction][w] = v;
                    if (state[other][w] & 1) {
                        double total = length + seen[other][w];
                        if (!has_final || finaldist > total) {
                            has_final = 1;
                            finaldist = total;
                            meet = w;
                        }
                    }
                }
            }
        }
        if (!found || meet < 0) {
            status = k + 1;
            break;
        }
        /* Forward half: meet back to the source, written reversed. */
        int64_t n = 0;
        for (int64_t v = meet; v != -1; v = preds[0][v]) n++;
        int64_t i = n;
        for (int64_t v = meet; v != -1; v = preds[0][v]) path[--i] = v;
        /* Backward half: meet's successor on to the target. */
        for (int64_t v = preds[1][meet]; v != -1; v = preds[1][v]) path[n++] = v;
        lengths[k] = n;
    }
    for (int d = 0; d < 2; d++) {
        free(heaps[d]);
        free(seen[d]);
        free(preds[d]);
        free(state[d]);
    }
    return status;
}

/* Deliver num_packets packets in `order`, updating the link state in place.
 *
 * Packet p takes route keys[p] (source * num_nodes + destination), whose
 * hops are entries route_start[key] .. route_start[key] + hop_count[key] - 1
 * of the hop arrays; arrival[p] receives its arrival time.
 */
void noc_replay(
    int64_t num_packets, const int64_t *order, const double *injection,
    const int64_t *flits, const int64_t *keys,
    const int64_t *route_start, const int64_t *hop_count, const int64_t *tail_pipeline,
    const int64_t *hop_pipeline, const int64_t *hop_link, const int64_t *hop_latency,
    double *next_free, int64_t *flits_carried, double *arrival)
{
    for (int64_t i = 0; i < num_packets; i++) {
        int64_t p = order[i];
        int64_t key = keys[p];
        int64_t size = flits[p];
        double time = injection[p];
        int64_t end = route_start[key] + hop_count[key];
        for (int64_t h = route_start[key]; h < end; h++) {
            int64_t link = hop_link[h];
            time += (double)hop_pipeline[h];
            double free_at = next_free[link];
            double start = time >= free_at ? time : free_at;
            next_free[link] = start + (double)size;
            flits_carried[link] += size;
            time = start + (double)hop_latency[h];
        }
        /* Two separate additions, as in the Python replay. */
        time += (double)tail_pipeline[key];
        time += (double)(size - 1);
        arrival[p] = time;
    }
}
