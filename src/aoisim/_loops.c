/* The three per-epoch loops of aoisim.simkernel, statement for statement.

   simkernel compiles this file on first import with
       cc -O2 -std=c99 -fPIC -shared -ffp-contract=off
   and calls it through ctypes; its Python loops are the fallback when no
   compiler is available, and the oracle the tests compare against.

   The results are bit-identical to the Python loops. Python floats are C
   doubles, and every floating-point operation below is one IEEE add,
   multiply or compare, rounded to double. -ffp-contract=off forbids fused
   multiply-adds, and without -ffast-math nothing is reordered. n * period
   converts an int64 n below 2**53 to double, which is exact, as Python's
   int * float is. A platform that evaluates doubles in wider precision
   (x87) fails the check below, so the build fails and Python runs.

   Each loop writes at most `room` epochs to `out`. It returns 0 and stores
   (updates, wasted, infeasible, level, arrivals seen) in `counts`, or
   returns -1 as soon as an update finds no room left. */

#include <float.h>
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
