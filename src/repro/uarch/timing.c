/*
 * The batched kernel's compiled half (repro/uarch/kernel.py), and the
 * trace generator's row loop (repro/workloads/generator.py).
 *
 * generate_trace() writes a synthetic trace's columns, replaying the
 * generator's Python random.Random draws exactly.
 * branch_outcomes() and replay_memory() replay one trace's
 * configuration-independent state once: the tournament predictor's
 * outcome per measured branch, and the cache level (plus the coherence
 * remote flag) that serves every measured fetch block and load.
 * time_configs() then times the measured region under a batch of
 * configurations that share those outcomes and one memory image.  It
 * walks the trace once per configuration and evaluates, cycle for
 * cycle, the recurrence of OutOfOrderCore.run in repro/uarch/ooo.py:
 * the in-order fetch, rename and commit width limiters, the
 * ROB/IQ/LQ/SQ occupancy gates, operand readiness, the FP-divide issue
 * interval, first-fit functional-unit pools, the out-of-order
 * issue-bandwidth limiter and the branch redirect.
 *
 * Beyond the synthesis loop's draw probabilities and code layout, whose
 * one home is that loop, the file holds no model constant of its own.
 * Op codes, the per-code latency, busy and pool-size tables, the
 * front-end depth, the fetch block size, the FP-divide interval, the
 * prune interval, the cache geometries, the prefetch degree, the
 * predictor's table sizes and every profile's parameters are arguments,
 * passed in by the Python modules that own them; per-config widths,
 * queue depths and latencies are one row of `params` each.  So one build
 * serves every configuration and profile.
 *
 * Every entry point returns 0 on success.  On failure (-1: out of
 * memory, -2: a broken window invariant, -3: an empty randrange) it
 * stops at once; the outputs are then incomplete and the caller raises
 * instead of reading them.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Columns of one `params` row; kernel.py's _config_row writes them. */
enum {
    P_DISPATCH, P_ISSUE, P_COMMIT,
    P_ROB, P_IQ, P_LQ, P_SQ,
    P_HETERO,       /* 1: complex decodes pay one cycle */
    P_REFILL,       /* redirect delay after a mispredicted branch */
    P_REMOTE,       /* extra cycles of a remotely served load */
    P_FETCH,        /* 4 columns: fetch penalty per fetch level */
    P_LOAD = P_FETCH + 4, /* 4 columns: load latency per load level */
    P_COUNT = P_LOAD + 4
};

/* Stall counters, in repro.uarch.ooo.STALL_CAUSES order. */
enum {
    S_FETCH_ICACHE, S_FETCH_REDIRECT, S_RENAME_BW, S_ROB, S_IQ, S_LQ, S_SQ,
    S_DECODE, S_OPERAND, S_FU, S_ISSUE_BW, S_COUNT
};

/* Columns of one `results` row: cycles, occupied slots, stalls. */
enum { R_CYCLES, R_TRACKED, R_STALLS, R_COUNT = R_STALLS + S_COUNT };

/* Reservations per cycle for cycles [base, base + mask], in a ring:
 * cycle c lives at slot[c & mask].  `base` is the last prune watermark;
 * no probe ever reaches below it (every probe starts at or above the
 * current rename cycle, which only grows). */
typedef struct {
    int32_t *slot;
    int64_t base;
    int64_t mask;   /* capacity - 1; the capacity is a power of two */
} window;

enum { WINDOW_SLOTS = 1024 };

static int32_t window_get(const window *w, int64_t cycle)
{
    uint64_t offset = (uint64_t)(cycle - w->base);
    return offset <= (uint64_t)w->mask ? w->slot[cycle & w->mask] : 0;
}

/* Doubles the capacity until `cycle` fits. */
static int window_grow(window *w, int64_t cycle)
{
    int64_t size = w->mask + 1;
    if (cycle < w->base)
        return -2;
    while (cycle - w->base >= size)
        size *= 2;
    int32_t *slot = calloc((size_t)size, sizeof *slot);
    if (slot == NULL)
        return -1;
    for (int64_t c = w->base; c <= w->base + w->mask; ++c)
        slot[c & (size - 1)] = w->slot[c & w->mask];
    free(w->slot);
    w->slot = slot;
    w->mask = size - 1;
    return 0;
}

/* One more reservation at `cycle`; `occupied` counts nonzero slots. */
static int window_add(window *w, int64_t cycle, int64_t *occupied)
{
    if ((uint64_t)(cycle - w->base) > (uint64_t)w->mask) {
        int status = window_grow(w, cycle);
        if (status)
            return status;
    }
    if (w->slot[cycle & w->mask]++ == 0)
        ++*occupied;
    return 0;
}

/* Forgets every cycle below `watermark`. */
static void window_prune(window *w, int64_t watermark, int64_t *occupied)
{
    int64_t end = w->base + w->mask + 1;
    if (watermark < end)
        end = watermark;
    for (int64_t c = w->base; c < end; ++c) {
        int32_t *slot = &w->slot[c & w->mask];
        if (*slot) {
            *slot = 0;
            --*occupied;
        }
    }
    w->base = watermark;
}

static void window_reset(window *w)
{
    memset(w->slot, 0, (size_t)(w->mask + 1) * sizeof *w->slot);
    w->base = 0;
}

int time_configs(
    int64_t n, const int8_t *codes, const int32_t *src1,
    const int32_t *src2, const uint8_t *correct,
    const int8_t *fetch_level, const int8_t *load_level,
    const int8_t *load_remote, int64_t nsync, const int64_t *sync_pos,
    const int64_t *latency, const int64_t *busy_cycles,
    const int64_t *pool_size, int64_t ncodes,
    int64_t load, int64_t store, int64_t branch, int64_t complex_decode,
    int64_t fp_div, int64_t front_end_depth, int64_t fetch_block,
    int64_t fp_div_interval, int64_t prune_interval,
    int64_t nconfigs, const int64_t *params,
    int64_t *results, int64_t *sync_commit)
{
    /* Five per-op histories of n + 1 entries (so an empty trace still
     * allocates), and one window per FU pool (by op code) plus one for
     * the issue limiter. */
    int64_t *history = malloc(5 * (size_t)(n + 1) * sizeof *history);
    window *windows = calloc((size_t)ncodes + 1, sizeof *windows);
    int status = history && windows ? 0 : -1;

    for (int64_t c = 0; status == 0 && c <= ncodes; ++c) {
        windows[c].slot = malloc(WINDOW_SLOTS * sizeof *windows[c].slot);
        windows[c].mask = WINDOW_SLOTS - 1;
        if (windows[c].slot == NULL)
            status = -1;
    }
    if (status)
        goto finish;
    int64_t *completion = history, *issue_at = history + (n + 1);
    int64_t *commit_at = history + 2 * (n + 1);
    int64_t *load_at = history + 3 * (n + 1);
    int64_t *store_at = history + 4 * (n + 1);
    window *issue_window = windows + ncodes;

    for (int64_t j = 0; j < nconfigs; ++j) {
        const int64_t *p = params + j * P_COUNT;
        const int64_t fetch_width = 2 * p[P_DISPATCH];
        int64_t stall[S_COUNT] = {0};
        int64_t occupied = 0;
        int64_t fetch_ready = 0, redirect_free = 0;
        int64_t fetch_cycle = 0, fetch_used = 0;
        int64_t rename = 0, rename_used = 0;
        int64_t commit = 0, commit_used = 0, last_commit = 0;
        int64_t last_fp_div = -fp_div_interval;
        int64_t k_load = 0, k_store = 0, k_branch = 0, k_block = 0;
        int64_t block_left = 0, prune_at = prune_interval;

        for (int64_t c = 0; c <= ncodes; ++c)
            window_reset(&windows[c]);
        for (int64_t i = 0; i < n; ++i) {
            const int64_t code = codes[i];
            int64_t gate, d;

            /* fetch */
            if (block_left == 0) {
                int64_t penalty = p[P_FETCH + fetch_level[k_block++]];
                int64_t ready = fetch_ready;
                block_left = fetch_block;
                if (redirect_free > ready) {
                    stall[S_FETCH_REDIRECT] += redirect_free - ready;
                    ready = redirect_free;
                }
                if (penalty > 0) {
                    stall[S_FETCH_ICACHE] += penalty;
                    ready += penalty;
                }
                fetch_ready = ready;
            }
            --block_left;
            int64_t earliest = fetch_ready >= redirect_free ? fetch_ready
                                                            : redirect_free;
            if (earliest > fetch_cycle) {
                fetch_cycle = earliest;
                fetch_used = 0;
            }
            if (fetch_used >= fetch_width) {
                ++fetch_cycle;
                fetch_used = 0;
            }
            ++fetch_used;

            /* rename/dispatch: ROB/IQ/LQ/SQ occupancy */
            earliest = fetch_cycle + front_end_depth;
            if (i >= p[P_ROB] && (gate = commit_at[i - p[P_ROB]]) > earliest) {
                stall[S_ROB] += gate - earliest;
                earliest = gate;
            }
            if (i >= p[P_IQ] && (gate = issue_at[i - p[P_IQ]]) > earliest) {
                stall[S_IQ] += gate - earliest;
                earliest = gate;
            }
            if (code == load) {
                if (k_load >= p[P_LQ]
                        && (gate = commit_at[load_at[k_load - p[P_LQ]]])
                           > earliest) {
                    stall[S_LQ] += gate - earliest;
                    earliest = gate;
                }
                load_at[k_load] = i;
            } else if (code == store) {
                if (k_store >= p[P_SQ]
                        && (gate = commit_at[store_at[k_store - p[P_SQ]]])
                           > earliest) {
                    stall[S_SQ] += gate - earliest;
                    earliest = gate;
                }
                store_at[k_store++] = i;
            } else if (code == complex_decode && p[P_HETERO]) {
                ++earliest;
                ++stall[S_DECODE];
            }
            if (earliest > rename) {
                rename = earliest;
                rename_used = 0;
            }
            if (rename_used >= p[P_DISPATCH]) {
                ++rename;
                rename_used = 0;
            }
            ++rename_used;
            if (rename > earliest)
                stall[S_RENAME_BW] += rename - earliest;

            /* register readiness: producers before the measured region
             * (d > i) are ready */
            int64_t ready = rename + 1;
            d = src1[i];
            if (d > 0 && d <= i && completion[i - d] > ready)
                ready = completion[i - d];
            d = src2[i];
            if (d > 0 && d <= i && completion[i - d] > ready)
                ready = completion[i - d];
            if (ready > rename + 1)
                stall[S_OPERAND] += ready - rename - 1;

            /* issue: divide interval, FU pool, issue bandwidth */
            if (code == fp_div && last_fp_div + fp_div_interval > ready) {
                stall[S_FU] += last_fp_div + fp_div_interval - ready;
                ready = last_fp_div + fp_div_interval;
            }
            window *pool = &windows[code];
            const int64_t units = pool_size[code], busy = busy_cycles[code];
            int64_t start = ready;
            for (;;) {
                int64_t k = 0;
                while (k < busy && window_get(pool, start + k) < units)
                    ++k;
                if (k == busy)
                    break;
                ++start;
            }
            for (int64_t k = 0; k < busy; ++k) {
                if ((status = window_add(pool, start + k, &occupied)))
                    goto finish;
            }
            if (start > ready)
                stall[S_FU] += start - ready;
            int64_t issue = start;
            while (window_get(issue_window, issue) >= p[P_ISSUE])
                ++issue;
            if ((status = window_add(issue_window, issue, &occupied)))
                goto finish;
            if (issue > start)
                stall[S_ISSUE_BW] += issue - start;
            issue_at[i] = issue;

            /* execute */
            int64_t done;
            if (code == load) {
                done = issue + p[P_LOAD + load_level[k_load]]
                     + (load_remote[k_load] ? p[P_REMOTE] : 0);
                ++k_load;
            } else {
                done = issue + latency[code];
                if (code == branch) {
                    if (!correct[k_branch]
                            && done + p[P_REFILL] > redirect_free)
                        redirect_free = done + p[P_REFILL];
                    ++k_branch;
                } else if (code == fp_div) {
                    last_fp_div = issue;
                }
            }
            completion[i] = done;

            /* commit */
            int64_t retire = done + 1 > last_commit ? done + 1 : last_commit;
            if (retire > commit) {
                commit = retire;
                commit_used = 0;
            }
            if (commit_used >= p[P_COMMIT]) {
                ++commit;
                commit_used = 0;
            }
            ++commit_used;
            commit_at[i] = last_commit = commit;

            /* bound the windows: every later probe is at or above rename */
            if (i >= prune_at) {
                prune_at = i + prune_interval;
                for (int64_t c = 0; c <= ncodes; ++c)
                    window_prune(&windows[c], rename, &occupied);
            }
        }

        int64_t *row = results + j * R_COUNT;
        row[R_CYCLES] = n ? commit_at[n - 1] : 0;
        row[R_TRACKED] = occupied;
        memcpy(row + R_STALLS, stall, sizeof stall);
        for (int64_t k = 0; k < nsync; ++k)
            sync_commit[j * nsync + k] = commit_at[sync_pos[k]];
    }
finish:
    for (int64_t c = 0; windows && c <= ncodes; ++c)
        free(windows[c].slot);
    free(windows);
    free(history);
    return status;
}


/* -- memory replay --------------------------------------------------------- */

/* One LRU set-associative level, as SetAssociativeCache in
 * repro/uarch/cache.py keeps it: set s holds fill[s] tags in
 * tag[s * ways ...], least recently used first. */
typedef struct {
    int64_t *tag;
    int64_t *fill;
    int64_t sets, ways, line_bytes;
} level;

/* Rows of `geometry`: IL1, DL1, L2, L3; columns: sets, ways, line bytes. */
enum { L_IL1, L_DL1, L_L2, L_L3, L_COUNT };

static int level_init(level *c, const int64_t *geometry)
{
    c->sets = geometry[0];
    c->ways = geometry[1];
    c->line_bytes = geometry[2];
    c->tag = malloc((size_t)(c->sets * c->ways) * sizeof *c->tag);
    c->fill = calloc((size_t)c->sets, sizeof *c->fill);
    return c->tag && c->fill ? 0 : -1;
}

/* Warm state from resident lines walked newest first: a set keeps the
 * first `ways` distinct tags it sees, which are the ones an in-order
 * access of every line would leave there.  level_settle() then turns
 * each set from newest-first into LRU-first order. */
static void level_warm(level *c, const int64_t *lines, int64_t nlines)
{
    for (int64_t i = nlines - 1; i >= 0; --i) {
        const int64_t tag = lines[i] / c->line_bytes;
        const int64_t set = tag % c->sets;
        int64_t *row = c->tag + set * c->ways;
        const int64_t fill = c->fill[set];
        if (fill < c->ways) {
            int64_t k = 0;
            while (k < fill && row[k] != tag)
                ++k;
            if (k == fill)
                row[c->fill[set]++] = tag;
        }
    }
}

static void level_settle(level *c)
{
    for (int64_t set = 0; set < c->sets; ++set) {
        int64_t *row = c->tag + set * c->ways;
        for (int64_t lo = 0, hi = c->fill[set] - 1; lo < hi; ++lo, --hi) {
            const int64_t tag = row[lo];
            row[lo] = row[hi];
            row[hi] = tag;
        }
    }
}

/* One access: a hit moves the tag to most recently used; a miss installs
 * it there, evicting the least recently used tag of a full set.
 * Returns 1 on a hit. */
static int level_access(level *c, int64_t address)
{
    const int64_t tag = address / c->line_bytes;
    const int64_t set = tag % c->sets;
    int64_t *row = c->tag + set * c->ways;
    const int64_t fill = c->fill[set];
    int64_t k = fill - 1;
    while (k >= 0 && row[k] != tag)
        --k;
    if (k < 0 && fill < c->ways) {
        row[c->fill[set]++] = tag;
        return 0;
    }
    const int hit = k >= 0;
    if (!hit)
        k = 0;
    memmove(row + k, row + k + 1, (size_t)(fill - 1 - k) * sizeof *row);
    row[fill - 1] = tag;
    return hit;
}

/* Level code of an instruction fetch: 0 IL1, 1 L2, 2 L3, 3 DRAM. */
static int8_t fetch_code(level *levels, int64_t address)
{
    if (level_access(&levels[L_IL1], address))
        return 0;
    if (level_access(&levels[L_L2], address))
        return 1;
    if (level_access(&levels[L_L3], address))
        return 2;
    return 3;
}

/* Level code of a data access, with CacheHierarchy.data_access's L2-miss
 * stream prefetch of the next `degree` L2 lines into L2 and L3. */
static int8_t data_code(level *levels, int64_t address, int64_t degree)
{
    if (level_access(&levels[L_DL1], address))
        return 0;
    if (level_access(&levels[L_L2], address))
        return 1;
    for (int64_t ahead = 1; ahead <= degree; ++ahead) {
        const int64_t next = address + ahead * levels[L_L2].line_bytes;
        level_access(&levels[L_L2], next);
        level_access(&levels[L_L3], next);
    }
    if (level_access(&levels[L_L3], address))
        return 2;
    return 3;
}

/*
 * Replays a trace's warmup and measured region through one core's cache
 * hierarchy, warmed first from the resident lines (IL1 the code lines,
 * DL1 the data lines, L2 and L3 the data lines and then the code lines).
 * Writes the level of each measured fetch block and load, the load's
 * remote flag, and the per-level load counts.
 *
 * With nowner > 0 the core shares a coherence directory: owner[id] is
 * the core that last stored to line id (-1: none), and line_id gives the
 * id of each of the trace's loads and stores in order.  A load or store
 * of a line another core owns is a transfer; a store claims the line.
 */
int replay_memory(
    int64_t n, const int8_t *codes, const int64_t *pc,
    const int64_t *address, int64_t warmup,
    int64_t load, int64_t store, int64_t fetch_block, int64_t degree,
    const int64_t *geometry,
    int64_t ndata, const int64_t *data_lines,
    int64_t ncode, const int64_t *code_lines,
    int64_t core, int64_t nowner, int64_t *owner, const int64_t *line_id,
    int64_t *transfers,
    int8_t *fetch_level, int8_t *load_level, int8_t *load_remote,
    int64_t *level_counts)
{
    level levels[L_COUNT] = {{0}};
    int status = 0;
    for (int k = 0; k < L_COUNT && status == 0; ++k)
        status = level_init(&levels[k], geometry + 3 * k);
    if (status)
        goto finish;

    level_warm(&levels[L_IL1], code_lines, ncode);
    level_warm(&levels[L_DL1], data_lines, ndata);
    for (int k = L_L2; k <= L_L3; ++k) {
        level_warm(&levels[k], code_lines, ncode);
        level_warm(&levels[k], data_lines, ndata);
    }
    for (int k = 0; k < L_COUNT; ++k)
        level_settle(&levels[k]);

    int64_t k_block = 0, k_load = 0, k_memory = 0;
    for (int64_t i = 0; i < n; ++i) {
        const int64_t measured = i - warmup;
        /* the warmup indexes fetch blocks from the trace start, the
         * measured region from its own start */
        const int64_t position = measured < 0 ? i : measured;
        if (position % fetch_block == 0) {
            const int8_t code = fetch_code(levels,
                                           pc[i] ? pc[i] : position * 4);
            if (measured >= 0)
                fetch_level[k_block++] = code;
        }
        const int64_t op = codes[i];
        if (op != load && op != store)
            continue;
        int8_t remote = 0;
        if (nowner > 0) {
            int64_t *line = &owner[line_id[k_memory]];
            if (*line >= 0 && *line != core) {
                ++*transfers;
                remote = 1;
            }
            if (op == store)
                *line = core;
        }
        ++k_memory;
        const int8_t code = data_code(levels, address[i], degree);
        if (op == load && measured >= 0) {
            ++level_counts[code];
            load_level[k_load] = code;
            load_remote[k_load++] = remote;
        }
    }
finish:
    for (int k = 0; k < L_COUNT; ++k) {
        free(levels[k].tag);
        free(levels[k].fill);
    }
    return status;
}

/* -- branch prediction ------------------------------------------------------ */

static void counter_train(int8_t *counter, int up)
{
    if (up && *counter < 3)
        ++*counter;
    else if (!up && *counter > 0)
        --*counter;
}

/*
 * Replays TournamentPredictor.predict_and_train (repro/uarch/bpred.py)
 * over every branch of a trace and writes 1 (predicted correctly) or 0
 * for each measured one.  The selector, local and global tables hold
 * `entries` 2-bit counters each (initially 1, weakly not taken); the
 * local history table holds `entries` histories of `history_bits` bits.
 * The BTB and the return-address stack never change an outcome, so they
 * are not modelled.
 */
int branch_outcomes(
    int64_t n, const int8_t *codes, const int64_t *pc,
    const uint8_t *taken, int64_t warmup, int64_t branch,
    int64_t entries, int64_t history_bits, uint8_t *correct)
{
    int8_t *counters = malloc(3 * (size_t)entries);
    int64_t *history = calloc((size_t)entries, sizeof *history);
    int status = counters && history ? 0 : -1;
    if (status)
        goto finish;
    memset(counters, 1, 3 * (size_t)entries);
    int8_t *selector = counters, *local = counters + entries;
    int8_t *global = counters + 2 * entries;
    const int64_t mask = entries - 1;
    const int64_t history_mask = ((int64_t)1 << history_bits) - 1;
    int64_t ghr = 0, k = 0;

    for (int64_t i = 0; i < n; ++i) {
        if (codes[i] != branch)
            continue;
        const int64_t address = pc[i];
        const int outcome = taken[i] != 0;
        const int64_t index = (address ^ ghr) & mask;
        int64_t *local_history = &history[address & mask];
        const int64_t local_index = (*local_history ^ address) & mask;
        const int local_prediction = local[local_index] >= 2;
        const int global_prediction = global[index] >= 2;
        const int prediction = selector[index] >= 2 ? global_prediction
                                                    : local_prediction;
        /* the selector moves toward whichever table was right */
        if (local_prediction != global_prediction)
            counter_train(&selector[index], global_prediction == outcome);
        counter_train(&local[local_index], outcome);
        counter_train(&global[index], outcome);
        *local_history = ((*local_history << 1) | outcome) & history_mask;
        ghr = ((ghr << 1) | outcome) & mask;
        if (i >= warmup)
            correct[k++] = prediction == outcome;
    }
finish:
    free(counters);
    free(history);
    return status;
}

/* -- trace synthesis -------------------------------------------------------- */

/* CPython's random.Random (Modules/_randommodule.c and Lib/random.py),
 * replayed draw for draw from the 624 words and the position that
 * getstate() exposes, so a trace synthesized here is the one the
 * generator's Python draws gave. */
enum { MT_N = 624, MT_M = 397 };

typedef struct {
    uint32_t mt[MT_N];
    int index;
} mt19937;

/* genrand_uint32: the next 32-bit output, regenerating all N words
 * when the position has reached the end. */
static uint32_t mt_next(mt19937 *s)
{
    static const uint32_t mag01[2] = {0x0U, 0x9908b0dfU};
    uint32_t y;
    if (s->index >= MT_N) {
        int k;
        for (k = 0; k < MT_N - MT_M; ++k) {
            y = (s->mt[k] & 0x80000000U) | (s->mt[k + 1] & 0x7fffffffU);
            s->mt[k] = s->mt[k + MT_M] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        for (; k < MT_N - 1; ++k) {
            y = (s->mt[k] & 0x80000000U) | (s->mt[k + 1] & 0x7fffffffU);
            s->mt[k] = s->mt[k + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        y = (s->mt[MT_N - 1] & 0x80000000U) | (s->mt[0] & 0x7fffffffU);
        s->mt[MT_N - 1] = s->mt[MT_M - 1] ^ (y >> 1) ^ mag01[y & 0x1U];
        s->index = 0;
    }
    y = s->mt[s->index++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

/* random(): 53 bits from two outputs; every step is exact. */
static double mt_random(mt19937 *s)
{
    const uint32_t a = mt_next(s) >> 5;
    const uint32_t b = mt_next(s) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* randrange(n): getrandbits(n.bit_length()) until the draw is below n.
 * getrandbits fills its integer from the least significant 32-bit word
 * up, the last word keeping its high bits.  Returns -3 for n <= 0,
 * where randrange raises ValueError before drawing. */
static int mt_randrange(mt19937 *s, int64_t n, int64_t *draw)
{
    if (n <= 0)
        return -3;
    const int bits = 64 - __builtin_clzll((uint64_t)n);
    uint64_t r;
    do {
        r = mt_next(s);
        if (bits <= 32)
            r >>= 32 - bits;
        else
            r |= (uint64_t)(mt_next(s) >> (64 - bits)) << 32;
    } while (r >= (uint64_t)n);
    *draw = (int64_t)r;
    return 0;
}

/* expovariate(rate), through the C library's log as math.log calls it. */
static double mt_expovariate(mt19937 *s, double rate)
{
    return -log(1.0 - mt_random(s)) / rate;
}

/* A producer distance for row i > 0: 1 + int(expovariate(...)), short
 * (rate 0.5) with probability serial_frac, clamped to i.  rate > 0, so
 * the draw is not negative and `draw < i - 1` is `1 + int(draw) < i`. */
static int32_t distance(mt19937 *s, double serial_frac, double rate,
                        int64_t i)
{
    const double draw = mt_random(s) < serial_frac
        ? mt_expovariate(s, 0.5) : mt_expovariate(s, rate);
    return (int32_t)(draw < (double)(i - 1) ? 1 + (int64_t)draw : i);
}

/*
 * Writes n rows of a synthetic trace (TraceGenerator.generate in
 * repro/workloads/generator.py holds the model): per row, in draw order,
 * the op class (cut points `cuts`, whose code -1 is refined into an FP
 * add, multiply or divide by a second draw), the next instruction block
 * (a jump with probability 0.1, else the next 32 bytes, wrapping at the
 * code footprint), for a branch its static site and direction, then up
 * to two producer distances and, for a load or store, a data address:
 * shared region, hot set, stream or working-set pool.  SYNC rows (from
 * row `first_barrier`, then every `barrier_gap` rows) draw nothing.
 *
 * `state` holds the generator's 624 MT19937 words and its position and
 * `pointers` its code and stream pointers; both are written back, so
 * the generator resumes where this call stopped.  The caller keeps
 * every address and row count in range: addresses below 2**62, rows
 * below 2**31.  Returns -3 when a randrange bound is not positive (the
 * state then stops before that draw, as CPython's would).
 */
int generate_trace(
    int64_t n, uint32_t *state, int64_t *pointers,
    int64_t ncuts, const double *cuts, const int8_t *cut_codes,
    int64_t alu, int64_t sync, int64_t load, int64_t store, int64_t branch,
    int64_t fp_add, int64_t fp_mul, int64_t fp_div,
    int64_t first_barrier, int64_t barrier_gap, int64_t code_bytes,
    int64_t nsites, const int64_t *site_pc, const double *site_bias,
    double serial_frac, double rate,
    double shared_cut, double hot_cut, double stream_frac,
    int64_t private_base, int64_t hot_bytes, int64_t stream_end,
    int64_t stride, int64_t pool_lines, int64_t pool_stride,
    int64_t shared_base, int64_t shared_span,
    int8_t *codes, int32_t *src1, int32_t *src2, int64_t *address,
    int64_t *pc, uint8_t *taken, int32_t *barrier)
{
    mt19937 rng;
    memcpy(rng.mt, state, sizeof rng.mt);
    rng.index = (int)state[MT_N];
    int64_t code_ptr = pointers[0], stream_ptr = pointers[1];
    int64_t next_barrier = first_barrier, barrier_id = 0, draw;
    int status = 0;

    for (int64_t i = 0; i < n; ++i) {
        src1[i] = src2[i] = 0;
        address[i] = 0;
        taken[i] = 0;
        barrier[i] = -1;
        if (i >= next_barrier) {
            codes[i] = (int8_t)sync;
            pc[i] = 0;
            barrier[i] = (int32_t)barrier_id++;
            next_barrier = i + barrier_gap;
            continue;
        }
        const double roll = mt_random(&rng);
        int64_t code = alu;
        for (int64_t k = 0; k < ncuts; ++k) {
            if (roll < cuts[k]) {
                code = cut_codes[k];
                break;
            }
        }
        if (code < 0) {
            const double fp_roll = mt_random(&rng);
            code = fp_roll < 0.55 ? fp_add : fp_roll < 0.93 ? fp_mul : fp_div;
        }
        codes[i] = (int8_t)code;
        if (mt_random(&rng) < 0.1) {
            if ((status = mt_randrange(&rng, code_bytes, &draw)))
                goto finish;
            code_ptr = 4096 + (draw & ~(int64_t)31);
        } else {
            code_ptr += 32;
            if (code_ptr >= 4096 + code_bytes)
                code_ptr = 4096;
        }
        if (code == branch) {
            if ((status = mt_randrange(&rng, nsites, &draw)))
                goto finish;
            taken[i] = mt_random(&rng) < site_bias[draw];
            pc[i] = site_pc[draw];
        } else {
            pc[i] = code_ptr;
        }
        if (i && mt_random(&rng) <= 0.55)
            src1[i] = distance(&rng, serial_frac, rate, i);
        if (code == load || code == store) {
            const double where = mt_random(&rng);
            if (where < shared_cut) {
                if ((status = mt_randrange(&rng, shared_span, &draw)))
                    goto finish;
                address[i] = shared_base + draw;
            } else if (where < hot_cut) {
                if ((status = mt_randrange(&rng, hot_bytes, &draw)))
                    goto finish;
                address[i] = private_base + draw;
            } else if (mt_random(&rng) < stream_frac) {
                stream_ptr += stride;
                if (stream_ptr >= stream_end)
                    stream_ptr = private_base;
                address[i] = stream_ptr;
            } else {
                if ((status = mt_randrange(&rng, pool_lines, &draw)))
                    goto finish;
                address[i] = private_base + draw * pool_stride;
            }
        } else if (code != branch && i && mt_random(&rng) <= 0.55) {
            src2[i] = distance(&rng, serial_frac, rate, i);
        }
    }
finish:
    memcpy(state, rng.mt, sizeof rng.mt);
    state[MT_N] = (uint32_t)rng.index;
    pointers[0] = code_ptr;
    pointers[1] = stream_ptr;
    return status;
}
