/* The three per-epoch loops of aoisim.simkernel, statement for statement,
   and the per-path tally that aoisim.aoi_metrics.tally defines in numpy.

   simkernel compiles this file on first import with
       cc -O2 -std=c99 -fPIC -shared -ffp-contract=off
   and calls it through ctypes; its Python loops and the numpy tally are
   the fallback when no compiler is available, and the oracles the tests
   compare against.

   The results are bit-identical to the Python loops. Python floats are C
   doubles, and every floating-point operation below is one IEEE add,
   multiply, divide or compare, rounded to double. -ffp-contract=off forbids fused
   multiply-adds, and without -ffast-math nothing is reordered. n * period
   converts an int64 n below 2**53 to double, which is exact, as Python's
   int * float is. A platform that evaluates doubles in wider precision
   (x87) fails the check below, so the build fails and Python runs.

   Each loop writes at most `room` epochs to `out`. It returns 0 and stores
   (updates, wasted, infeasible, level, arrivals seen) in `counts`, or
   returns -1 as soon as an update finds no room left. */

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

/* Best-effort uniform grid; cap < 0 means unbounded. */
int uniform_path(const double *arr, int64_t n_arr, double horizon,
                 int64_t cap, double period, double *out, int64_t room,
                 int64_t *counts)
{
    int64_t level = 0, idx = 0, n_up = 0, wasted = 0, infeasible = 0;
    for (int64_t n = 1;; n++) {
        double s = (double)n * period;
        if (s > horizon)
            break;
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
    }
    return done(counts, n_up, wasted, infeasible, level, idx);
}

/* Recursive schedule with the delay picked by 2*level vs cap. */
int adaptive_path(const double *arr, int64_t n_arr, double horizon,
                  int64_t cap, double d_low, double d_mid, double d_high,
                  double *out, int64_t room, int64_t *counts)
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
   previous update; later arrivals before the update are wasted. */
int unit_renewal_path(const double *arr, int64_t n_arr, double horizon,
                      double tau0, double *out, int64_t room,
                      int64_t *counts)
{
    int64_t idx = 0, n_up = 0, wasted = 0;
    double s = 0.0;
    while (idx < n_arr) {
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
void tally(const double *epochs, int64_t n, const double *ts,
           const int64_t *order, int64_t n_ts, double *series, double *sums)
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
