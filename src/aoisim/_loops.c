/* One path of one policy in one call: the three per-epoch loops of
   aoisim.simkernel, statement for statement, the settling of the battery
   at T, and the per-path tally that aoisim.aoi_metrics.tally defines in
   numpy. Also the uniforms of numpy's Philox generator, a chunk of paths
   at a time, for aoisim.arrivals.sample_rows.

   simkernel compiles this file on first import with
       cc -O2 -std=c99 -fPIC -shared -ffp-contract=off
   and calls `path` through ctypes, once per path and policy, and
   `philox` once per chunk of paths; its Python loops, the numpy tally and
   numpy's Philox are the fallback when no compiler is available, and the
   oracles the tests compare against. The import refuses a library whose
   tally or uniforms differ from numpy's.

   The results are bit-identical to the Python loops. Python floats are C
   doubles, and every floating-point operation below is one IEEE add,
   multiply, divide or compare, rounded to double. -ffp-contract=off forbids fused
   multiply-adds, and without -ffast-math nothing is reordered. n * period
   converts an int64 n below 2**53 to double, which is exact, as Python's
   int * float is. A platform that evaluates doubles in wider precision
   (x87) fails the check below, so the build fails and Python runs.

   Each loop writes at most `room` epochs to `out`. It returns 0 and stores
   (updates, wasted, infeasible, level, arrivals seen) in `counts`, or
   returns -1 as soon as an update finds no room left.

   The uniform loop jumps over runs of epochs that find the battery empty
   and gives the counts of stepping through them, bit for bit: its epochs
   are closed-form products n * period, so where a run ends follows from
   the next arrival alone (see uniform_path). The adaptive loop builds
   its epochs by repeated addition and steps through every one. */

#include <float.h>
#include <math.h>
#include <stdint.h>

#if !defined(FLT_EVAL_METHOD) || FLT_EVAL_METHOD != 0
#error "doubles must be evaluated in double precision"
#endif

static int done(int64_t *counts, int64_t n_up, int64_t wasted,
                int64_t infeasible, int64_t level, int64_t idx)
{
    counts[0] = n_up;
    counts[1] = wasted;
    counts[2] = infeasible;
    counts[3] = level;
    counts[4] = idx;
    return 0;
}

/* Best-effort uniform grid; cap < 0 means unbounded.

   An empty battery stays empty until the next arrival a lands, or until
   T when no arrival is left before it, so every epoch n * period <= a is
   infeasible. When the battery is empty and no arrival comes before the
   next epoch n, the loop jumps over that idle run: it counts the epochs
   from n to m - 1 as infeasible and goes on at epoch m, a / period + 1
   rounded down, lowered while epoch m - 1 lies past a. The jump is
   exact because epoch n is computed in closed form: (double)n * period
   is one correctly rounded product, which never decreases as n grows,
   so every epoch it skips lies at or before a. The quotient may round m
   one epoch short, onto an epoch at or before a, which the loop then
   counts as it steps. The next epoch is tested for an arrival before
   any division, so an idle run of one epoch costs one compare. */
static int uniform_path(const double *arr, int64_t n_arr, double horizon,
                        int64_t cap, double period, double *out,
                        int64_t room, int64_t *counts)
{
    int64_t level = 0, idx = 0, n_up = 0, wasted = 0, infeasible = 0;
    int64_t n = 1;
    double s = period;
    while (s <= horizon) {
        while (idx < n_arr && arr[idx] < s) {
            level++;
            idx++;
        }
        if (cap >= 0 && level > cap) {
            wasted += level - cap;
            level = cap;
        }
        if (level >= 1) {
            if (n_up == room)
                return -1;
            level--;
            out[n_up++] = s;
        } else {
            infeasible++;
        }
        s = (double)++n * period;
        if (level == 0 && !(idx < n_arr && arr[idx] < s) && s <= horizon) {
            double a = idx < n_arr && arr[idx] < horizon ? arr[idx] : horizon;
            int64_t m = (int64_t)(a / period) + 1;
            while ((double)(m - 1) * period > a)
                m--;
            infeasible += m - n;
            n = m;
            s = (double)n * period;
        }
    }
    return done(counts, n_up, wasted, infeasible, level, idx);
}

/* Recursive schedule with the delay picked by 2*level vs cap. */
static int adaptive_path(const double *arr, int64_t n_arr, double horizon,
                         int64_t cap, double d_low, double d_mid,
                         double d_high, double *out, int64_t room,
                         int64_t *counts)
{
    int64_t level = 0, level_before = 1, idx = 0, n_up = 0, wasted = 0,
            infeasible = 0;
    double s = 0.0;
    for (;;) {
        int64_t doubled = 2 * level_before;
        if (doubled < cap)
            s = s + d_low;
        else if (doubled == cap)
            s = s + d_mid;
        else
            s = s + d_high;
        if (s > horizon)
            break;
        while (idx < n_arr && arr[idx] < s) {
            level++;
            idx++;
        }
        if (level > cap) {
            wasted += level - cap;
            level = cap;
        }
        level_before = level;
        if (level >= 1) {
            if (n_up == room)
                return -1;
            level--;
            out[n_up++] = s;
        } else {
            infeasible++;
        }
    }
    return done(counts, n_up, wasted, infeasible, level, idx);
}

/* B=1 threshold renewals: each update consumes the first arrival after the
   previous update; later arrivals before the update are wasted. An
   arrival past T never triggers one, although s + (a - s) may round down
   to T. */
static int unit_renewal_path(const double *arr, int64_t n_arr,
                             double horizon, double tau0, double *out,
                             int64_t room, int64_t *counts)
{
    int64_t idx = 0, n_up = 0, wasted = 0;
    double s = 0.0;
    while (idx < n_arr && arr[idx] <= horizon) {
        double gamma = arr[idx] - s;
        double x = gamma > tau0 ? gamma : tau0;
        double s_next = s + x;
        if (s_next > horizon)
            break;
        idx++;
        while (idx < n_arr && arr[idx] <= s_next) {
            wasted++;
            idx++;
        }
        if (n_up == room)
            return -1;
        out[n_up++] = s_next;
        s = s_next;
    }
    return done(counts, n_up, wasted, 0, 0, idx);
}

/* One pass over an update log. A log is its epochs e[0..n) with S_0 = 0;
   delay i is e[i] - e[i-1] (e[0] for i = 0) and is formed as it is read.
   The checkpoints are read in ascending order, ts[order[0]],
   ts[order[1]], ..., and the running average at each is written to the
   series at the checkpoint's own index. */
struct walk {
    const double *e;     /* the next epoch */
    double last;         /* the epoch before it, 0 before the first */
    double run;          /* squared delays so far, summed in order */
    double min;          /* smallest delay so far */
    const double *ts;
    const int64_t *order;
    int64_t n_ts, k;     /* checkpoints, and those written */
    double next;         /* ts[order[k]], or infinity once all are */
    double *series;
};

/* R(t)/t = 0.5 * (run + (t - last)^2) / t at every checkpoint t before
   `until`, where `last` is the last epoch before t and `run` sums the
   squared delays up to it: the expression aoi_metrics.running_averages
   evaluates over np.cumsum of the squares. A checkpoint on an epoch
   counts the epoch. */
static void emit(struct walk *w, double until, double last, double run)
{
    while (w->next < until) {
        double t = w->next, tail = t - last;
        w->series[w->order[w->k]] = 0.5 * (run + tail * tail) / t;
        w->k++;
        w->next = w->k < w->n_ts ? w->ts[w->order[w->k]] : INFINITY;
    }
}

/* numpy's pairwise sum of a block of n <= 128 elements: in order from 0
   below 8; else eight accumulators, combined as
   ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the remainder in order. */
static double block_sum(const double *a, int64_t n)
{
    double r0, r1, r2, r3, r4, r5, r6, r7, res = 0.0;
    int64_t i;
    if (n < 8) {
        for (i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    r0 = a[0]; r1 = a[1]; r2 = a[2]; r3 = a[3];
    r4 = a[4]; r5 = a[5]; r6 = a[6]; r7 = a[7];
    for (i = 8; i < n - n % 8; i += 8) {
        r0 += a[i]; r1 += a[i + 1]; r2 += a[i + 2]; r3 += a[i + 3];
        r4 += a[i + 4]; r5 += a[i + 5]; r6 += a[i + 6]; r7 += a[i + 7];
    }
    res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7));
    for (; i < n; i++)
        res += a[i];
    return res;
}

/* Sums of the next n delays and of their squares, in the order of numpy's
   pairwise np.add.reduce over a contiguous float64 array: a block up to
   128, above that the two halves split at n/2 rounded down to a multiple
   of 8. */
static void pairwise(struct walk *w, int64_t n, double *sum, double *sum_sq)
{
    if (n <= 128) {
        const double *e = w->e;
        double d[128], q[128], last = w->last, run = w->run, min = w->min,
               next = w->next;
        for (int64_t i = 0; i < n; i++) {
            double s = e[i];
            if (next < s) {
                emit(w, s, last, run);
                next = w->next;
            }
            d[i] = s - last;
            q[i] = d[i] * d[i];
            run += q[i];
            min = d[i] < min ? d[i] : min;
            last = s;
        }
        w->e = e + n;
        w->last = last;
        w->run = run;
        w->min = min;
        *sum = block_sum(d, n);
        *sum_sq = block_sum(q, n);
    } else {
        int64_t half = n / 2;
        double a, b;
        half -= half % 8;
        pairwise(w, half, sum, sum_sq);
        pairwise(w, n - half, &a, &b);
        *sum += a;
        *sum_sq += b;
    }
}

/* The tally of one log: stores (sum of delays, sum of squared delays,
   smallest delay) in `sums`, infinity for the smallest of no delays, and
   writes the running average at every checkpoint into series. */
static void tally(const double *epochs, int64_t n, const double *ts,
                  const int64_t *order, int64_t n_ts, double *series,
                  double *sums)
{
    struct walk w = {epochs, 0.0, 0.0, INFINITY, ts, order, n_ts, 0,
                     n_ts ? ts[order[0]] : INFINITY, series};
    double sum, sum_sq;
    pairwise(&w, n, &sum, &sum_sq);
    emit(&w, INFINITY, w.last, w.run);
    /* np.add.reduce adds the sum to its identity, which turns -0.0 into
       0.0. */
    sums[0] = 0.0 + sum;
    sums[1] = 0.0 + sum_sq;
    sums[2] = w.min;
}


enum { UNIFORM, ADAPTIVE, RENEWAL };

/* What stays the same for every path of one configuration, filled once
   by simkernel._Plan: the loop and its parameters (the period; the low,
   middle and high delays; tau0), the capacity (-1 for none), T and the
   checkpoints. Each call leaves its counts (updates, wasted, infeasible,
   level, seen, landed) and the tally's sums here. */
struct plan {
    int64_t regime, cap;
    double horizon, p[3];
    const double *ts;
    const int64_t *order;
    int64_t n_ts;
    int64_t counts[6];
    double sums[3];
};

/* Walks the plan's loop over the sorted arrivals, with room for `room`
   epochs in `out`, and returns its -1 when it runs out. Then the
   arrivals left up to T land: there are as many as
   np.searchsorted(arr, T, side="right") counts, found by scanning on
   from the last one seen. A full battery loses the overflow, which
   counts as wasted. Last, the epochs are tallied, with the series
   written to `series`. */
int path(struct plan *pl, const double *arr, int64_t n_arr, double *out,
         int64_t room, double *series)
{
    int64_t *c = pl->counts, landed;
    int full;
    if (pl->regime == UNIFORM)
        full = uniform_path(arr, n_arr, pl->horizon, pl->cap, pl->p[0], out,
                            room, c);
    else if (pl->regime == ADAPTIVE)
        full = adaptive_path(arr, n_arr, pl->horizon, pl->cap, pl->p[0],
                             pl->p[1], pl->p[2], out, room, c);
    else
        full = unit_renewal_path(arr, n_arr, pl->horizon, pl->p[0], out,
                                 room, c);
    if (full)
        return full;
    landed = c[4];
    while (landed < n_arr && arr[landed] <= pl->horizon)
        landed++;
    c[3] += landed - c[4];
    if (pl->cap >= 0 && c[3] > pl->cap) {
        c[1] += c[3] - pl->cap;
        c[3] = pl->cap;
    }
    c[5] = landed;
    tally(out, c[0], pl->ts, pl->order, pl->n_ts, series, pl->sums);
    return 0;
}


/* The multipliers and key increments of Philox4x64. */
#define PHILOX_M0 0xD2E7470EE14C6C93u
#define PHILOX_M1 0xCA5A826395121157u
#define PHILOX_W0 0x9E3779B97F4A7C15u
#define PHILOX_W1 0xBB67AE8584CAA73Bu

/* High 64 bits of the 128-bit product a * b. */
static uint64_t mulhi(uint64_t a, uint64_t b)
{
#ifdef __SIZEOF_INT128__
    return (uint64_t)(((unsigned __int128)a * b) >> 64);
#else
    uint64_t a0 = a & 0xFFFFFFFFu, a1 = a >> 32, b0 = b & 0xFFFFFFFFu,
             b1 = b >> 32, m0 = a0 * b0, m1 = a1 * b0, m2 = a0 * b1;
    uint64_t mid = (m0 >> 32) + (m1 & 0xFFFFFFFFu) + (m2 & 0xFFFFFFFFu);
    return a1 * b1 + (m1 >> 32) + (m2 >> 32) + (mid >> 32);
#endif
}

/* Row r of the n_rows x n_cols `out` gets the first n_cols uniforms of
   np.random.Generator(np.random.Philox(key=keys[r])).random: Philox4x64
   with 10 rounds (Salmon, Moraes, Dror and Shaw, "Parallel random
   numbers: as easy as 1, 2, 3", SC 2011) as numpy's philox_next runs it.
   The key is (keys[r], 0) and the counter starts at 0 and is incremented,
   with carry, before each block of four outputs; each 64-bit output x
   gives the uniform (x >> 11) * 2**-53, exact in a double. */
void philox(const uint64_t *keys, int64_t n_rows, double *out,
            int64_t n_cols)
{
    for (int64_t r = 0; r < n_rows; r++) {
        uint64_t ctr[4] = {0, 0, 0, 0};
        double *row = out + r * n_cols;
        for (int64_t j = 0; j < n_cols; j += 4) {
            uint64_t x[4], k0 = keys[r], k1 = 0;
            if (++ctr[0] == 0 && ++ctr[1] == 0 && ++ctr[2] == 0)
                ++ctr[3];
            x[0] = ctr[0];
            x[1] = ctr[1];
            x[2] = ctr[2];
            x[3] = ctr[3];
            for (int round = 0; round < 10; round++) {
                uint64_t hi0 = mulhi(PHILOX_M0, x[0]), lo0 = PHILOX_M0 * x[0],
                         hi1 = mulhi(PHILOX_M1, x[2]), lo1 = PHILOX_M1 * x[2];
                x[0] = hi1 ^ x[1] ^ k0;
                x[1] = lo1;
                x[2] = hi0 ^ x[3] ^ k1;
                x[3] = lo0;
                k0 += PHILOX_W0;
                k1 += PHILOX_W1;
            }
            for (int k = 0; k < 4 && j + k < n_cols; k++)
                row[j + k] = (double)(x[k] >> 11) * 0x1.0p-53;
        }
    }
}
