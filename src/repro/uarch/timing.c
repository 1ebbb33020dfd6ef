/*
 * Timing recurrences of the batched kernel (repro/uarch/kernel.py).
 *
 * time_configs() times one trace's measured region under a batch of
 * configurations that share one memory image.  It walks the trace once
 * per configuration and evaluates, cycle for cycle, the recurrence of
 * OutOfOrderCore.run in repro/uarch/ooo.py: the in-order fetch, rename
 * and commit width limiters, the ROB/IQ/LQ/SQ occupancy gates, operand
 * readiness, the FP-divide issue interval, first-fit functional-unit
 * pools, the out-of-order issue-bandwidth limiter and the branch
 * redirect.  Cache levels and branch outcomes arrive precomputed.
 *
 * The file holds no model constant of its own.  Op codes, the per-code
 * latency, busy and pool-size tables, the front-end depth, the fetch
 * block size, the FP-divide interval and the prune interval are
 * arguments, passed in by the Python modules that own them; per-config
 * widths, queue depths and latencies are one row of `params` each.  So
 * one build serves every configuration.
 *
 * Returns 0 on success.  On failure (-1: out of memory, -2: a broken
 * window invariant) it stops at once; the outputs are then incomplete
 * and the caller raises instead of reading them.
 */

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
