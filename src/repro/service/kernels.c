/* Compiled serving kernels behind repro.service.cluster.serve().
 *
 * Both kernels replay, request by request, the exact float operations of the
 * pure-Python kernels in cluster.py (which stay as fallback and oracle):
 * start = arrival >= free ? arrival : free, completion = start + service.
 * Built with -O2 -ffp-contract=off and without -ffast-math, every double is
 * rounded as Python rounds it, so completions are bitwise equal.
 *
 * Each server keeps a k-slot min-heap of unit-free times; only its minimum
 * is ever read, so any valid heap layout gives the same results.
 */
#include <stddef.h>
#include <stdint.h>

/* Replace the minimum of a k-slot min-heap with value (sift down). */
static void heap_replace_min(double *heap, int64_t size, double value)
{
    int64_t slot = 0;
    for (;;) {
        int64_t child = 2 * slot + 1;
        if (child >= size)
            break;
        if (child + 1 < size && heap[child + 1] < heap[child])
            child++;
        if (!(heap[child] < value))
            break;
        heap[slot] = heap[child];
        slot = child;
    }
    heap[slot] = value;
}

/* FCFS G/G/k stations under a fixed routing (round_robin, random). */
void fcfs_completion_times(int64_t count, const double *arrivals,
                           const double *services, const int64_t *assignment,
                           int64_t parallelism, double *unit_free,
                           double *completions)
{
    for (int64_t i = 0; i < count; i++) {
        double *heap = unit_free + assignment[i] * parallelism;
        double free = heap[0];
        double arrival = arrivals[i];
        double start = arrival >= free ? arrival : free;
        double completion = start + services[i];
        heap_replace_min(heap, parallelism, completion);
        completions[i] = completion;
    }
}

/* Queue-state-aware routing: jsq (draws == NULL) or po2 (two raw draws per
 * request, randrange(n) then randrange(n - 1), pre-drawn in Python).
 *
 * In-flight requests sit in a (completion, server) min-heap drained with a
 * strict < arrival, as the event engine sees a request completing at exactly
 * an arrival's timestamp still in the system.  JSQ scans the in-system
 * counts for the lowest-id minimum.  The in-flight heap needs `count` slots.
 */
void balanced_completion_times(int64_t count, const double *arrivals,
                               const double *services, int64_t num_servers,
                               int64_t parallelism, const int64_t *draws,
                               double *unit_free, int64_t *counts,
                               double *flight_time, int64_t *flight_server,
                               double *completions, int64_t *assignment)
{
    int64_t in_flight = 0;
    for (int64_t i = 0; i < count; i++) {
        double arrival = arrivals[i];
        while (in_flight > 0 && flight_time[0] < arrival) {
            counts[flight_server[0]]--;
            /* Pop: move the last entry to the root and sift it down. */
            in_flight--;
            double time = flight_time[in_flight];
            int64_t owner = flight_server[in_flight];
            int64_t slot = 0;
            for (;;) {
                int64_t child = 2 * slot + 1;
                if (child >= in_flight)
                    break;
                if (child + 1 < in_flight && flight_time[child + 1] < flight_time[child])
                    child++;
                if (!(flight_time[child] < time))
                    break;
                flight_time[slot] = flight_time[child];
                flight_server[slot] = flight_server[child];
                slot = child;
            }
            flight_time[slot] = time;
            flight_server[slot] = owner;
        }

        int64_t server = 0;
        if (draws == NULL) {
            for (int64_t s = 1; s < num_servers; s++)
                if (counts[s] < counts[server])
                    server = s;
        } else {
            int64_t first = draws[2 * i];
            int64_t second = draws[2 * i + 1];
            if (second >= first)
                second++;
            server = counts[second] < counts[first] ? second : first;
        }

        double *heap = unit_free + server * parallelism;
        double free = heap[0];
        double start = arrival >= free ? arrival : free;
        double completion = start + services[i];
        heap_replace_min(heap, parallelism, completion);
        completions[i] = completion;
        assignment[i] = server;
        counts[server]++;

        /* Push (completion, server) and sift it up. */
        int64_t slot = in_flight++;
        while (slot > 0) {
            int64_t parent = (slot - 1) / 2;
            if (!(completion < flight_time[parent]))
                break;
            flight_time[slot] = flight_time[parent];
            flight_server[slot] = flight_server[parent];
            slot = parent;
        }
        flight_time[slot] = completion;
        flight_server[slot] = server;
    }
}
