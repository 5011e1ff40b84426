/* Compiled measured window of repro.sim.system.SimulatedSystem.run().
 *
 * sim_run() replays, event by event, what the Python model does with
 * TraceDrivenCore.step() and SimulatedSystem.llc_request() (which stay as the
 * fallback and the oracle): the core with the smallest (clock, core id) takes
 * its next trace event, retires the instructions before it, and sends the
 * reference to its LLC bank through the network; the bank's contention, the
 * directory's snoops, the LRU bank itself and, on a miss, the memory channel
 * and the refill all update in the order the Python code updates them.
 * Built with -O2 -ffp-contract=off and without -ffast-math, every double is
 * rounded as Python rounds it, so all statistics are bitwise equal.
 *
 * The banks are the SetAssociativeCache arrays, updated in place: set s of a
 * bank holds fill_count[s] tags in tags[s * ways ...], least recently used
 * first, with their dirty bits alongside.  The directory is an open-addressed
 * table of line -> (sharer bitmask, owner) whose slots are never freed: an
 * evicted line keeps its key with no sharers and no owner, which the Python
 * directory expresses by dropping the entry.  It starts with the Python
 * directory's entries (the seeds); Python sizes it with at least twice as
 * many slots as it can ever hold keys.
 */
#include <stdint.h>
#include <string.h>

/* Sharer bitmasks are 64 bits wide. */
#define SIM_MAX_CORES 64

/* shape[] */
enum { CORES, WINDOW, LINE_BYTES, BANKS, SETS, WAYS, CHANNELS, SLOTS, SEEDS };
/* timing[] */
enum { BASE_CPI, NETWORK, BANK_ACCESS, BANK_SERVICE, CHANNEL_SERVICE, CHANNEL_ACCESS };
/* counts[]: SimulationStats, then DirectoryStats */
enum { LLC_ACCESSES, LLC_MISSES, SNOOPS, MEMORY_READS, LOOKUPS, INVALIDATIONS, FORWARDS };
/* per-bank rows of bank_stats[]: CacheStats */
enum { ACCESSES, HITS, MISSES, EVICTIONS, WRITEBACKS, BANK_STATS };

typedef struct {
    int64_t num_banks, num_sets, ways, num_channels, slot_mask;
    double network, bank_access, bank_service, channel_service, channel_access;
    int64_t *const *tags;
    uint8_t *const *dirty;
    int64_t *const *fill_count;
    int64_t *bank_stats;
    double *bank_free;
    double *channel_free, *channel_busy;
    int64_t *channel_requests;
    int64_t *dir_lines, *dir_owners;
    uint64_t *dir_masks;
    int64_t *counts;
    double *network_total;
} System;

/* The directory slot of line, inserted (no sharers, no owner) if absent and
 * insert is set; -1 if absent otherwise. */
static int64_t directory_slot(const System *s, int64_t line, int insert)
{
    uint64_t hash = (uint64_t)line * 0x9E3779B97F4A7C15ull;
    int64_t slot = (int64_t)(hash ^ (hash >> 29)) & s->slot_mask;
    while (s->dir_lines[slot] != line) {
        if (s->dir_lines[slot] < 0) {
            if (!insert)
                return -1;
            s->dir_lines[slot] = line;
            s->dir_masks[slot] = 0;
            s->dir_owners[slot] = -1;
            break;
        }
        slot = (slot + 1) & s->slot_mask;
    }
    return slot;
}

/* Directory.access: the snoops an access by core sends. */
static int64_t directory_access(System *s, int64_t core, int64_t line, int is_write)
{
    int64_t slot = directory_slot(s, line, 1);
    uint64_t me = (uint64_t)1 << core;
    uint64_t sharers = s->dir_masks[slot];
    int64_t snoops = 0;
    s->counts[LOOKUPS]++;
    if (is_write) {
        snoops = __builtin_popcountll(sharers & ~me);
        s->counts[INVALIDATIONS] += snoops;
        s->dir_masks[slot] = me;
        s->dir_owners[slot] = core;
    } else {
        int64_t owner = s->dir_owners[slot];
        if (owner >= 0 && owner != core) {
            snoops = 1;
            s->counts[FORWARDS]++;
            s->dir_owners[slot] = -1;
        }
        s->dir_masks[slot] = sharers | me;
    }
    return snoops;
}

/* Directory.evict */
static void directory_evict(System *s, int64_t line)
{
    int64_t slot = directory_slot(s, line, 0);
    if (slot >= 0) {
        s->dir_masks[slot] = 0;
        s->dir_owners[slot] = -1;
    }
}

/* SetAssociativeCache.access: 1 on a hit, which becomes the set's MRU line. */
static int bank_access(System *s, int64_t bank, int64_t set, int64_t tag, int is_write)
{
    int64_t *stats = s->bank_stats + bank * BANK_STATS;
    int64_t *row = s->tags[bank] + set * s->ways;
    uint8_t *bits = s->dirty[bank] + set * s->ways;
    int64_t count = s->fill_count[bank][set];
    int64_t way = 0;
    stats[ACCESSES]++;
    while (way < count && row[way] != tag)
        way++;
    if (way == count) {
        stats[MISSES]++;
        return 0;
    }
    uint8_t dirty = bits[way];
    memmove(row + way, row + way + 1, (size_t)(count - 1 - way) * sizeof *row);
    memmove(bits + way, bits + way + 1, (size_t)(count - 1 - way) * sizeof *bits);
    row[count - 1] = tag;
    bits[count - 1] = dirty | (uint8_t)is_write;
    stats[HITS]++;
    return 1;
}

/* SetAssociativeCache.fill of a line known to be absent: the evicted
 * bank-local line, or -1. */
static int64_t bank_fill(System *s, int64_t bank, int64_t set, int64_t tag, int dirty)
{
    int64_t *stats = s->bank_stats + bank * BANK_STATS;
    int64_t *row = s->tags[bank] + set * s->ways;
    uint8_t *bits = s->dirty[bank] + set * s->ways;
    int64_t *count = s->fill_count[bank] + set;
    int64_t victim = -1;
    if (*count >= s->ways) {
        victim = row[0] * s->num_sets + set;
        stats[EVICTIONS]++;
        if (bits[0])
            stats[WRITEBACKS]++;
        memmove(row, row + 1, (size_t)(s->ways - 1) * sizeof *row);
        memmove(bits, bits + 1, (size_t)(s->ways - 1) * sizeof *bits);
        (*count)--;
    }
    row[*count] = tag;
    bits[*count] = (uint8_t)dirty;
    (*count)++;
    return victim;
}

/* MemoryChannelSim.request: the completion time of a fetch issued at now. */
static double channel_request(System *s, int64_t channel, double now)
{
    double free = s->channel_free[channel];
    double start = now >= free ? now : free;
    s->channel_free[channel] = start + s->channel_service;
    s->channel_requests[channel]++;
    s->channel_busy[channel] += s->channel_service;
    return start + s->channel_service + s->channel_access;
}

/* SimulatedSystem.llc_request: the latency the core sees. */
static double llc_request(System *s, int64_t core, int64_t line, int is_write, double now)
{
    int64_t bank = line % s->num_banks;
    int64_t local = line / s->num_banks;
    s->counts[LLC_ACCESSES]++;
    *s->network_total += s->network;

    double arrival = now + s->network;
    double free = s->bank_free[bank];
    double start = arrival >= free ? arrival : free;
    s->bank_free[bank] = start + s->bank_service;
    double queue_delay = start - (now + s->network);

    int64_t snoops = directory_access(s, core, line, is_write);
    s->counts[SNOOPS] += snoops;
    double snoop_delay = snoops && is_write ? (double)snoops * s->network : 0.0;

    int64_t set = local % s->num_sets, tag = local / s->num_sets;
    int hit = bank_access(s, bank, set, tag, is_write);
    double latency = s->network + queue_delay + s->bank_access + snoop_delay;
    if (!hit) {
        s->counts[LLC_MISSES]++;
        s->counts[MEMORY_READS]++;
        double completion = channel_request(s, local % s->num_channels, start + s->bank_access);
        latency = (completion - now) + s->network;
        int64_t victim = bank_fill(s, bank, set, tag, is_write);
        if (victim >= 0)
            directory_evict(s, victim * s->num_banks + bank);
    }
    return latency;
}

/* Run every core's trace to completion; 0 on success, -1 on a bad shape.
 *
 * Core c's events are bounds[c] .. bounds[c + 1] - 1 of the event columns.
 * clocks[] and instructions[] come in zeroed and leave as each core's cycles
 * and committed instructions; window[] holds shape[WINDOW] doubles per core.
 * The directory table (dir_*, shape[SLOTS] slots) needs no initial contents.
 */
int64_t sim_run(const int64_t *shape, const double *timing,
                const int64_t *bounds, const int64_t *gaps, const int64_t *addresses,
                const uint8_t *fetches, const uint8_t *writes,
                int64_t *const *tags, uint8_t *const *dirty, int64_t *const *fill_count,
                int64_t *bank_stats, double *bank_free,
                double *channel_free, int64_t *channel_requests, double *channel_busy,
                const int64_t *seed_lines, const uint64_t *seed_masks,
                const int64_t *seed_owners,
                int64_t *dir_lines, uint64_t *dir_masks, int64_t *dir_owners,
                int64_t *counts, double *network_total,
                double *clocks, int64_t *instructions, double *window)
{
    int64_t num_cores = shape[CORES], window_size = shape[WINDOW];
    int64_t line_bytes = shape[LINE_BYTES];
    double base_cpi = timing[BASE_CPI];
    if (num_cores < 1 || num_cores > SIM_MAX_CORES || window_size < 1 || line_bytes < 1
        || shape[BANKS] < 1 || shape[SETS] < 1 || shape[WAYS] < 1 || shape[CHANNELS] < 1
        || shape[SLOTS] < 2 * shape[SEEDS] || (shape[SLOTS] & (shape[SLOTS] - 1)))
        return -1;
    System s = {
        shape[BANKS], shape[SETS], shape[WAYS], shape[CHANNELS], shape[SLOTS] - 1,
        timing[NETWORK], timing[BANK_ACCESS], timing[BANK_SERVICE],
        timing[CHANNEL_SERVICE], timing[CHANNEL_ACCESS],
        tags, dirty, fill_count, bank_stats, bank_free,
        channel_free, channel_busy, channel_requests,
        dir_lines, dir_owners, dir_masks, counts, network_total,
    };
    for (int64_t slot = 0; slot < shape[SLOTS]; slot++)
        dir_lines[slot] = -1;
    for (int64_t i = 0; i < shape[SEEDS]; i++) {
        int64_t slot = directory_slot(&s, seed_lines[i], 1);
        dir_masks[slot] = seed_masks[i];
        dir_owners[slot] = seed_owners[i];
    }
    int64_t next[SIM_MAX_CORES], pending[SIM_MAX_CORES];
    uint8_t running[SIM_MAX_CORES];
    for (int64_t c = 0; c < num_cores; c++) {
        next[c] = bounds[c];
        pending[c] = 0;
        running[c] = 1;
    }

    for (;;) {
        int64_t core = -1;
        for (int64_t c = 0; c < num_cores; c++)
            if (running[c] && (core < 0 || clocks[c] < clocks[core]))
                core = c;
        if (core < 0)
            break;
        double clock = clocks[core];
        double *outstanding = window + core * window_size;
        int64_t event = next[core];

        if (event >= bounds[core + 1]) {
            /* Drain the outstanding data requests, then finish. */
            if (pending[core]) {
                double until = outstanding[0];
                for (int64_t i = 1; i < pending[core]; i++)
                    if (outstanding[i] > until)
                        until = outstanding[i];
                if (until > clock)
                    clock = until;
                pending[core] = 0;
            }
            clocks[core] = clock;
            running[core] = 0;
            continue;
        }
        next[core] = event + 1;

        /* Retire the instructions between the previous reference and this one. */
        clock += (double)gaps[event] * base_cpi;
        instructions[core] += gaps[event];
        int64_t line = addresses[event] / line_bytes;

        if (fetches[event]) {
            /* L1-I misses stall the front end until the line returns. */
            clock += llc_request(&s, core, line, 0, clock);
        } else {
            /* Retire completed requests; stall only when the window is full. */
            int64_t kept = 0;
            for (int64_t i = 0; i < pending[core]; i++)
                if (outstanding[i] > clock)
                    outstanding[kept++] = outstanding[i];
            if (kept >= window_size) {
                double earliest = outstanding[0];
                for (int64_t i = 1; i < kept; i++)
                    if (outstanding[i] < earliest)
                        earliest = outstanding[i];
                clock = earliest;
                int64_t still = 0;
                for (int64_t i = 0; i < kept; i++)
                    if (outstanding[i] > clock)
                        outstanding[still++] = outstanding[i];
                kept = still;
            }
            double latency = llc_request(&s, core, line, writes[event], clock);
            outstanding[kept++] = clock + latency;
            pending[core] = kept;
        }
        clocks[core] = clock;
    }
    return 0;
}
