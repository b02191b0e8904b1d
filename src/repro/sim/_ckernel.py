"""Optional compiled kernel: the simulator's interval, the boosted-tree
descent and growth, and the Table 1 candidate set.

Four layers run here, each with a numpy fallback that computes the
identical bits:

* the batched interval path's tick recurrence (queue, busy EWMA, the
  sojourn level sweep) and its random draws, whose numpy code is
  :meth:`repro.sim.engine.QueueingEngine._run_interval_fast`: ~50 numpy
  calls per tick over vectors of a few dozen tiers, and ~15
  ``Generator`` calls per interval on vectors of a few elements;
* the trees' flat descent
  (:meth:`repro.ml.boosted_trees.BoostedTrees.predict_margin`), whose
  numpy code is ``_descend_numpy`` and pays about nine numpy passes per
  tree level;
* the trees' growth (``sinan_grow_tree``, one call per tree of
  :meth:`repro.ml.boosted_trees.BoostedTrees.fit`), whose numpy code is
  ``BoostedTrees._build_tree`` plus ``_compile_trees``: per tree level,
  a fused ``bincount``, a dozen passes over the gain block and a Python
  loop over the nodes;
* the control loop's candidate generation
  (:meth:`repro.core.actions.ActionSpace.candidates`), whose numpy code
  is ``ActionSpace._generate_numpy``: dozens of small numpy passes per
  decision, the last a ``lexsort`` dedupe of the whole rounded matrix.

In all four, per-call dispatch and argument checking (and the grower's
per-node Python) cost more than the arithmetic or the draws.  This module compiles them into a tiny C kernel
at first use (cffi ABI mode plus the system C compiler) and caches the
shared object under the user's temp directory, keyed by a digest of the
source.  Everything is best-effort and all-or-nothing: any failure — no
``cffi``, no compiler, an unwritable temp directory, a numpy whose
distribution functions do not resolve — degrades silently to the numpy
code.

Bitwise equality with the numpy code relies on three things:

* the kernel mirrors the reference expression trees operation for
  operation (same association order; comparison-based min/max, exact
  for the finite non-NaN values the engine produces; the trees' ``!(x
  <= threshold)`` and each row's margin summed in tree order; the
  candidate generator's ``np.maximum``, ``np.minimum``, ``np.clip``,
  ``_isclose`` and ``np.round(x, 9)`` by numpy's own expressions, its
  batch scale-downs in the order of numpy's ``argsort``, passed in; the
  grower's histograms and prefix sums in ``np.bincount``'s and
  ``np.cumsum``'s order, and every ``.sum()`` — a tree node's gradient
  and hessian totals, a candidate's total CPU — in numpy's pairwise
  order),
* compilation uses ``-ffp-contract=off`` so no multiply-add pair is
  contracted into an FMA, and
* every random value comes from the C function numpy's own
  ``Generator`` method calls (``random_poisson``, ``random_normal``,
  ``random_lognormal``, ``random_bounded_uint64_fill``,
  ``random_standard_uniform``), resolved from
  ``numpy.random._generator`` — the route numpy documents in
  ``numpy/random/_examples/cffi`` — and called on the engine
  generator's own ``bitgen_t`` under its lock, in the order the numpy
  code calls the methods.  Values and ``bit_generator.state`` are
  therefore identical by construction; the kernel repeats the methods'
  argument checks (:data:`DRAW_ERRORS`) before it draws.

Measured gains are in ``docs/architecture.md``.  Tests reach the numpy
code by making :func:`load_kernel` return ``None``; the equivalence
suites exercise both.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import tempfile

import numpy as np

_CDEF = """
void sinan_bind_numpy(
    void *poisson, void *normal, void *lognormal,
    void *bounded_uint64_fill, void *standard_uniform);
int sinan_draw_tick(
    void *bitgen, int t, int n_types, const double *rates,
    double mod, double tick, double lam_max,
    double *counts_rows, int n_z, double *z_rows);
int sinan_sample_latencies(
    void *bitgen, int n_types, const int64_t *k_per_type,
    int n_ticks, int n, const double *soj,
    const int *col_off, const int *cols, const double *base,
    const int *seg_off, const int *seg_size,
    double mu_ln, double sigma,
    const double *p_drop, double drop_latency,
    uint64_t *ticks, double *latency);
void sinan_demand_ewma(
    int n_ticks, int n, double tick,
    const double *arrival_rows,
    double *demand, double *demand_rows);
void sinan_run_ticks(
    int n_ticks, int n,
    const double *infl, const double *cap,
    const double *conc, const double *conc_const,
    const double *arr,
    const double *cpu, const double *base,
    const double *fsm1, const double *mu_cpu, const double *alloc_tick,
    const int *child_off, const int *child_idx,
    int backpressure,
    double tick, double max_queue, double eps, double max_sojourn,
    double *queue, double *be, double *bf,
    double *cpu_used, double *comp_total, double *drops_total,
    double *sojourn_rows);
void sinan_tree_margin(
    int n_trees, int max_depth, const intptr_t *roots,
    const intptr_t *feature, const double *threshold,
    const intptr_t *children, const double *value,
    intptr_t n, intptr_t d, const double *X, double *margin);
intptr_t sinan_grow_tree(
    intptr_t n, intptr_t d, const int32_t *bins, const int32_t *n_bins,
    intptr_t nb, const double *edges, const double *grad, const double *hess,
    intptr_t max_depth, double lr, double lam, double gamma, double mcw,
    intptr_t *rows, double *vals, double *hist, intptr_t *stack,
    intptr_t *feature, double *threshold, intptr_t *children, double *value,
    intptr_t *depth);
intptr_t sinan_candidates(
    intptr_t n, const double *current, const double *cpu_util,
    const double *lo, const double *hi,
    int n_abs, int n_rel, int n_ratios, const double *constants,
    double util_cap, int allow_down, const intptr_t *order,
    int n_batch, const intptr_t *batch_n, const uint8_t *victims,
    const int64_t *codes, double *menu, uint64_t *work, intptr_t table_size,
    double *allocs, int64_t *kinds, double *total_cpu);
"""

# ``sinan_run_ticks``: tiers arrive permuted into dependency-level order,
# so iterating i = 0..n-1 *is* the level sweep: every child index is < i.
# The queue phase is fused into the same per-tier pass — it only touches
# tier-local state, and the reference's "any tier overflowed" drop branch
# reduces to per-tier ``max(q - max_queue, 0)`` arithmetic whose no-drop
# case is the IEEE identity ``q - 0.0 == q``.
_SOURCE = r"""
#include <math.h>
#include <stdbool.h>
#include <stdint.h>
#include <string.h>

/* numpy's distribution functions (numpy/random/distributions.h), bound
 * once per process by sinan_bind_numpy. */
typedef struct bitgen bitgen_t;
static int64_t (*np_poisson)(bitgen_t *, double);
static double (*np_normal)(bitgen_t *, double, double);
static double (*np_lognormal)(bitgen_t *, double, double);
static void (*np_bounded_uint64_fill)(
    bitgen_t *, uint64_t, uint64_t, intptr_t, bool, uint64_t *);
static double (*np_standard_uniform)(bitgen_t *);

void sinan_bind_numpy(
    void *poisson, void *normal, void *lognormal,
    void *bounded_uint64_fill, void *standard_uniform)
{
    np_poisson = (int64_t (*)(bitgen_t *, double))poisson;
    np_normal = (double (*)(bitgen_t *, double, double))normal;
    np_lognormal = (double (*)(bitgen_t *, double, double))lognormal;
    np_bounded_uint64_fill = (void (*)(
        bitgen_t *, uint64_t, uint64_t, intptr_t, bool, uint64_t *))
        bounded_uint64_fill;
    np_standard_uniform = (double (*)(bitgen_t *))standard_uniform;
}

/* Tick t's draws after its rate-modulation draws, in the reference
 * tick's order: rng.poisson((rates * mod) * tick) into counts row t, then
 * rng.normal(0.0, 1.0, size=n_z) into z row t.  The means are checked as
 * a whole before the first draw, as Generator.poisson checks its mean
 * array: 1 when one is not <= lam_max (numpy's POISSON_LAM_MAX; NaN
 * fails this first), else 2 when one is not >= 0.  Nothing is drawn
 * then. */
int sinan_draw_tick(
    void *bitgen, int t, int n_types, const double *rates,
    double mod, double tick, double lam_max,
    double *counts_rows, int n_z, double *z_rows)
{
    bitgen_t *bg = (bitgen_t *)bitgen;
    double *counts = counts_rows + (long)t * n_types;
    double *z = z_rows + (long)t * n_z;
    int r;
    for (r = 0; r < n_types; r++)
        if (!((rates[r] * mod) * tick <= lam_max)) return 1;
    for (r = 0; r < n_types; r++)
        if (!((rates[r] * mod) * tick >= 0.0)) return 2;
    for (r = 0; r < n_types; r++)
        counts[r] = (double)np_poisson(bg, (rates[r] * mod) * tick);
    for (int i = 0; i < n_z; i++)
        z[i] = np_normal(bg, 0.0, 1.0);
    return 0;
}

/* One interval's latency samples, request type by request type, with
 * the reference sampler's draws in its order.  For type r (k samples):
 *   - k tick indices: random_bounded_uint64_fill(0, n_ticks - 1, k,
 *     use_masked=false) is Generator.integers(0, n_ticks, k);
 *   - stage by stage, the stage's (k, size) lognormal block row-major;
 *     sample i adds, in stage order, the maximum over the stage's tiers
 *     of base + (sojourn - base) * noise at its tick;
 *   - when p_drop[r] > 0, k uniforms; a sample whose uniform is below
 *     p_drop[r] times out at drop_latency;
 *   - the clamp at drop_latency, NaN-propagating like np.minimum.
 * ``soj`` holds the permuted sojourn rows.  Type r's stage tiers
 * (permuted indices) and base latencies are cols/base[col_off[r] ..
 * col_off[r + 1]), its stage sizes seg_size[seg_off[r] .. seg_off[r + 1]).
 * ``ticks`` holds at least max(k) entries.  Returns 3 when sigma fails
 * Generator.lognormal's check (sign bit set, not NaN), having drawn, as
 * numpy does, only the first sampled type's ticks. */
int sinan_sample_latencies(
    void *bitgen, int n_types, const int64_t *k_per_type,
    int n_ticks, int n, const double *soj,
    const int *col_off, const int *cols, const double *base,
    const int *seg_off, const int *seg_size,
    double mu_ln, double sigma,
    const double *p_drop, double drop_latency,
    uint64_t *ticks, double *latency)
{
    bitgen_t *bg = (bitgen_t *)bitgen;
    int bad_sigma = !isnan(sigma) && signbit(sigma);
    for (int r = 0; r < n_types; r++) {
        long k = (long)k_per_type[r];
        if (k <= 0) continue;
        np_bounded_uint64_fill(
            bg, 0, (uint64_t)(n_ticks - 1), (intptr_t)k, false, ticks);
        if (bad_sigma) return 3;
        for (long i = 0; i < k; i++) latency[i] = 0.0;
        int c = col_off[r];
        for (int s = seg_off[r]; s < seg_off[r + 1]; s++) {
            int sz = seg_size[s];
            for (long i = 0; i < k; i++) {
                const double *row = soj + (long)ticks[i] * n;
                double m = 0.0;
                for (int j = 0; j < sz; j++) {
                    double b = base[c + j];
                    double noise = np_lognormal(bg, mu_ln, sigma);
                    double v = (row[cols[c + j]] - b) * noise + b;
                    if (j == 0 || v > m) m = v;
                }
                latency[i] += m;
            }
            c += sz;
        }
        if (p_drop && p_drop[r] > 0.0) {
            double p = p_drop[r];
            for (long i = 0; i < k; i++)
                if (np_standard_uniform(bg) < p) latency[i] = drop_latency;
        }
        for (long i = 0; i < k; i++) {
            double v = latency[i];
            latency[i] = (v <= drop_latency || isnan(v)) ? v : drop_latency;
        }
        latency += k;
    }
    return 0;
}

/* demand_t = (demand_{t-1} * 0.8) + ((arrivals_t / tick) * 0.2), the
 * same expression tree as the numpy in-place EWMA. */
void sinan_demand_ewma(
    int n_ticks, int n, double tick,
    const double *arrival_rows,
    double *demand, double *demand_rows)
{
    for (int t = 0; t < n_ticks; t++) {
        const double *arr_t = arrival_rows + (long)t * n;
        double *out_t = demand_rows + (long)t * n;
        for (int i = 0; i < n; i++) {
            double d = demand[i] * 0.8 + (arr_t[i] / tick) * 0.2;
            demand[i] = d;
            out_t[i] = d;
        }
    }
}

void sinan_run_ticks(
    int n_ticks, int n,
    const double *infl, const double *cap,
    const double *conc, const double *conc_const,
    const double *arr,
    const double *cpu, const double *base,
    const double *fsm1, const double *mu_cpu, const double *alloc_tick,
    const int *child_off, const int *child_idx,
    int backpressure,
    double tick, double max_queue, double eps, double max_sojourn,
    double *queue, double *be, double *bf,
    double *cpu_used, double *comp_total, double *drops_total,
    double *sojourn_rows)
{
    for (int t = 0; t < n_ticks; t++) {
        const double *infl_t = infl + (long)t * n;
        const double *cap_t = cap ? cap + (long)t * n : 0;
        const double *conc_t = conc ? conc + (long)t * n : conc_const;
        const double *arr_t = arr + (long)t * n;
        double *soj_t = sojourn_rows + (long)t * n;
        for (int i = 0; i < n; i++) {
            double bei = be[i];
            double stretch = fsm1[i] * bei + 1.0;
            double st = cpu[i] * stretch * infl_t[i];
            double sb = st + base[i];
            double rho = bei < 0.9 ? bei : 0.9;
            double stoch = (st * rho) / (1.0 - rho);
            double hold = 0.0;
            if (backpressure) {
                for (int c = child_off[i]; c < child_off[i + 1]; c++) {
                    double v = soj_t[child_idx[c]];
                    if (v > hold) hold = v;
                }
            }
            double h = sb + hold;
            if (!(h > eps)) h = eps;
            double m = conc_t[i] / h;
            if (mu_cpu[i] < m) m = mu_cpu[i];
            if (cap_t) m = m * cap_t[i];
            if (!(m > eps)) m = eps;
            double x = sb + queue[i] / m + stoch;
            if (x > max_sojourn) x = max_sojourn;
            soj_t[i] = x;

            double backlog = queue[i] + arr_t[i];
            double capb = m * tick;
            double comp = backlog < capb ? backlog : capb;
            double q2 = backlog - comp;
            double drop = q2 - max_queue;
            if (drop < 0.0) drop = 0.0;
            drops_total[i] += drop;
            queue[i] = q2 - drop;
            double tu = comp * cpu[i];
            if (alloc_tick[i] < tu) tu = alloc_tick[i];
            double bfi = tu / alloc_tick[i];
            be[i] = bei * 0.85 + bfi * 0.15;
            bf[i] = bfi;
            cpu_used[i] += tu;
            comp_total[i] += comp;
        }
    }
}

/* Boosted-tree margins over a compiled ensemble (repro.ml.boosted_trees):
 * per tree in order, each row of the C-contiguous (n, d) matrix X steps
 * max_depth levels down -- right when !(x <= threshold), so NaN goes
 * right; leaves point at themselves -- and margin[row] += the leaf's
 * value.  Every row's sums run in tree order, as in the numpy descent.
 * Rows go TREE_LANES at a time, level by level, so that the lanes'
 * independent loads overlap.  The caller checks d against the split
 * features. */
#define TREE_LANES 16

void sinan_tree_margin(
    int n_trees, int max_depth, const intptr_t *roots,
    const intptr_t *feature, const double *threshold,
    const intptr_t *children, const double *value,
    intptr_t n, intptr_t d, const double *X, double *margin)
{
    intptr_t node[TREE_LANES];
    for (int t = 0; t < n_trees; t++) {
        for (intptr_t r0 = 0; r0 < n; r0 += TREE_LANES) {
            int m = n - r0 < TREE_LANES ? (int)(n - r0) : TREE_LANES;
            const double *x = X + r0 * d;
            for (int l = 0; l < m; l++) node[l] = roots[t];
            for (int level = 0; level < max_depth; level++)
                for (int l = 0; l < m; l++) {
                    intptr_t i = node[l];
                    double v = x[l * d + feature[i]];
                    node[l] = children[2 * i + !(v <= threshold[i])];
                }
            for (int l = 0; l < m; l++) margin[r0 + l] += value[node[l]];
        }
    }
}

/* numpy's pairwise summation of a contiguous float64 vector (pairwise_sum
 * in numpy/_core/src/umath/loops_utils.h.src): a plain loop below 8
 * elements; up to 128, eight accumulators over blocks of 8, combined as
 * ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the rest in order; above 128,
 * the two halves split at n/2 rounded down to a multiple of 8.  The
 * recursion is log2(n / 128) deep. */
static double pairwise_sum(const double *a, intptr_t n)
{
    double r[8], res;
    intptr_t i;
    int k;
    if (n < 8) {
        res = 0.0;
        for (i = 0; i < n; i++) res += a[i];
        return res;
    }
    if (n <= 128) {
        for (k = 0; k < 8; k++) r[k] = a[k];
        for (i = 8; i < n - n % 8; i += 8)
            for (k = 0; k < 8; k++) r[k] += a[i + k];
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++) res += a[i];
        return res;
    }
    i = n / 2;
    i -= i % 8;
    return pairwise_sum(a, i) + pairwise_sum(a + i, n - i);
}

/* a.sum() of a contiguous vector, and each row of a C-contiguous
 * matrix's m.sum(axis=1): numpy starts the reduction at 0.0. */
static double np_sum(const double *a, intptr_t n)
{
    return 0.0 + pairwise_sum(a, n);
}

/* One boosted tree (repro.ml.boosted_trees.BoostedTrees.fit), grown depth
 * first from the C-contiguous (n, d) bin codes, with the numpy grower's
 * arithmetic:
 *   - a node's gradient and hessian sums are np_sum over its rows, in
 *     ascending row order (grad[rows].sum()); a leaf weighs
 *     -lr * g / (h + lam);
 *   - every node's histograms are exact: each cell adds its rows in row
 *     order from 0.0 (np.bincount), and the prefix sums run left to right
 *     from the first bin (np.cumsum);
 *   - split position b of feature f (b < n_bins[f] - 1) is valid when
 *     both sides weigh at least mcw, and gains the numpy expression in its
 *     operation order; the winner is the first strict maximum in (feature,
 *     bin) order, and a valid NaN gain makes a leaf, as np.argmax picks
 *     the first NaN; the node splits when the winner's gain is > gamma
 *     and both sides keep a row;
 *   - the split is a stable partition on bins[r, f] <= b, so every node's
 *     rows stay ascending.
 * Three shortcuts skip only positions the numpy grower rules out.  The
 * hessians are positive (fit floors them at 1e-12), so the left-hand
 * hessian sum hl never falls and h - hl never rises along a feature's
 * bins: once h - hl < mcw the feature's later positions are invalid, and
 * when h - mcw < mcw no position is valid, so the node is a leaf without
 * histograms.  A position whose bin adds 0.0 to both prefix sums repeats
 * the previous position's gain, which cannot be a new strict maximum.
 *
 * The tree is written in pre-order, the layout of _compile_trees: feature
 * (0 on leaves), threshold edges[f * (nb - 1) + b] (0.0 on leaves),
 * children (leaves point at themselves), value (0.0 on internal nodes).
 * Returns the node count and sets *depth to the deepest node's depth.
 *
 * Buffers: rows 2n, vals n, hist 2 * d * nb, and stack 4 * cap, with cap
 * >= min(2 ** (max_depth + 1) - 1, 2n - 1), for feature, threshold, value
 * (cap) and children (2 * cap): every split leaves two non-empty children
 * at most max_depth deep, and every stack entry is a node still to come. */
intptr_t sinan_grow_tree(
    intptr_t n, intptr_t d, const int32_t *bins, const int32_t *n_bins,
    intptr_t nb, const double *edges, const double *grad, const double *hess,
    intptr_t max_depth, double lr, double lam, double gamma, double mcw,
    intptr_t *rows, double *vals, double *hist, intptr_t *stack,
    intptr_t *feature, double *threshold, intptr_t *children, double *value,
    intptr_t *depth)
{
    intptr_t *spill = rows + n;
    intptr_t count = 0, top = 1, i, f;
    for (i = 0; i < n; i++) rows[i] = i;
    /* A stack entry: the node's rows[lo, hi), its depth, and its slot in
     * its parent's children (-1 for the root). */
    stack[0] = 0;
    stack[1] = n;
    stack[2] = 0;
    stack[3] = -1;
    *depth = 0;
    while (top > 0) {
        const intptr_t *e = stack + 4 * --top;
        intptr_t lo = e[0], m = e[1] - e[0], dep = e[2], slot = e[3];
        intptr_t node = count++, best_f = -1, best_b = -1, nl = 0, ns = 0;
        const intptr_t *seg = rows + lo;
        double g, h, parent, best = -INFINITY;
        int nan_gain = 0;

        if (slot >= 0) children[slot] = node;
        if (dep > *depth) *depth = dep;
        feature[node] = 0;
        threshold[node] = 0.0;
        children[2 * node] = children[2 * node + 1] = node;
        value[node] = 0.0;
        for (i = 0; i < m; i++) vals[i] = grad[seg[i]];
        g = np_sum(vals, m);
        for (i = 0; i < m; i++) vals[i] = hess[seg[i]];
        h = np_sum(vals, m);
        if (dep >= max_depth || m < 2 || h - mcw < mcw) {
            value[node] = -lr * g / (h + lam);
            continue;
        }

        memset(hist, 0, (size_t)(2 * d * nb) * sizeof *hist);
        for (i = 0; i < m; i++) {
            const int32_t *b = bins + seg[i] * d;
            double gi = grad[seg[i]], hi = hess[seg[i]];
            for (f = 0; f < d; f++) {
                double *cell = hist + 2 * (f * nb + b[f]);
                cell[0] += gi;
                cell[1] += hi;
            }
        }
        parent = g * g / (h + lam);
        for (f = 0; f < d && !nan_gain; f++) {
            const double *c = hist + 2 * f * nb;
            double gl = c[0], hl = c[1];
            for (intptr_t b = 0; b < n_bins[f] - 1; b++) {
                double hr, t1, t3;
                if (b > 0) {
                    if (c[2 * b] == 0.0 && c[2 * b + 1] == 0.0) continue;
                    gl += c[2 * b];
                    hl += c[2 * b + 1];
                }
                hr = h - hl;
                if (!(hr >= mcw)) break;
                if (!(hl >= mcw)) continue;
                t1 = gl * gl;
                t1 /= hl + lam;
                t3 = g - gl;
                t3 *= t3;
                t3 /= hr + lam;
                t1 += t3;
                t1 -= parent;
                if (isnan(t1)) {
                    nan_gain = 1;
                    break;
                }
                if (t1 > best) {
                    best = t1;
                    best_f = f;
                    best_b = b;
                }
            }
        }
        if (!nan_gain && best > gamma) {
            for (i = 0; i < m; i++) {
                intptr_t r = seg[i];
                if (bins[r * d + best_f] <= best_b) rows[lo + nl++] = r;
                else spill[ns++] = r;
            }
            memcpy(rows + lo + nl, spill, (size_t)ns * sizeof *rows);
        }
        if (nl == 0 || ns == 0) {
            value[node] = -lr * g / (h + lam);
            continue;
        }
        feature[node] = best_f;
        threshold[node] = edges[best_f * (nb - 1) + best_b];
        /* Right child below left: the left subtree is written first. */
        stack[4 * top] = lo + nl;
        stack[4 * top + 1] = lo + m;
        stack[4 * top + 2] = dep + 1;
        stack[4 * top + 3] = 2 * node + 1;
        top++;
        stack[4 * top] = lo;
        stack[4 * top + 1] = lo + nl;
        stack[4 * top + 2] = dep + 1;
        stack[4 * top + 3] = 2 * node;
        top++;
    }
    return count;
}

/* The Table 1 candidate set (repro.core.actions.ActionSpace.candidates),
 * by the numpy generator's expressions and in its row order.  The
 * comparisons below are numpy's own: np.maximum / np.minimum keep their
 * first operand when it is NaN, np.clip is min(max(x, lo), hi) by
 * strict comparisons, and _isclose is np.isclose's default-tolerance
 * expression.  Where both operands are zeros of opposite sign, numpy's
 * own SIMD and scalar loops disagree; here that takes a floor or a
 * ceiling of zero cores. */
static double np_maximum(double a, double b)
{
    return (a >= b || isnan(a)) ? a : b;
}

static double np_minimum(double a, double b)
{
    return (a <= b || isnan(a)) ? a : b;
}

static double np_clip(double x, double lo, double hi)
{
    double y = isnan(x) ? x : (x > lo ? x : lo);
    return isnan(y) ? y : (y < hi ? y : hi);
}

static int is_close(double x, double y)
{
    return (fabs(x - y) <= 1e-8 + 1e-5 * fabs(y) && isfinite(y)) || x == y;
}

/* np.round(x, 9): numpy multiplies by 1e9, rounds half to even, divides. */
static double round9(double x)
{
    return rint(x * 1e9) / 1e9;
}

/* Column j's share of a row's dedupe hash: a row's hash is the wrapping
 * sum of its columns' shares, so rows equal after rounding hash alike
 * (0.0 and -0.0 share a key), and a row that differs from the current
 * allocation in a few columns is hashed from those columns alone. */
static uint64_t column_hash(intptr_t j, double x)
{
    double r = round9(x);
    uint64_t k = 0;
    if (r != 0.0) memcpy(&k, &r, sizeof k);
    k ^= (uint64_t)(j + 1) * 0x9E3779B97F4A7C15ULL;
    k ^= k >> 30;
    k *= 0xBF58476D1CE4E5B9ULL;
    k ^= k >> 27;
    k *= 0x94D049BB133111EBULL;
    return k ^ (k >> 31);
}

/* Rows equal after np.round(., 9), compared as numpy compares them. */
static int rows_match(const double *a, const double *b, intptr_t n)
{
    for (intptr_t j = 0; j < n; j++)
        if (a[j] != b[j] && !(round9(a[j]) == round9(b[j]))) return 0;
    return 1;
}

/* np.sort's order: ascending, NaN last. */
static int sort_before(double a, double b)
{
    return a < b || (isnan(b) && !isnan(a));
}

/* Row b of allocs := current with tier t at v; returns b + 1. */
static intptr_t put_single(
    intptr_t b, intptr_t n, const double *current, intptr_t t, double v,
    int64_t code, uint64_t hash_current, const uint64_t *hc,
    double *allocs, int64_t *kinds, uint64_t *hash)
{
    double *row = allocs + b * n;
    memcpy(row, current, (size_t)n * sizeof *row);
    row[t] = v;
    kinds[b] = code;
    hash[b] = hash_current - hc[t] + column_hash(t, v);
    return b + 1;
}

/* Writes the deduplicated candidate rows into the C-contiguous matrix
 * allocs, their kind codes into kinds and their sums, as numpy's
 * allocs.sum(axis=1) adds them, into total_cpu, and returns their number.
 *
 * constants holds the n_abs absolute steps, the n_rel relative steps and
 * the n_ratios scale-up-all ratios; codes the kind codes of hold,
 * scale-down, batch scale-down, scale-up, scale-up-all and victim boost.
 * order is np.argsort(cpu_util) when allow_down (ties in numpy's order),
 * and batch_n[i] the number of tiers batch i shrinks; victims is the
 * boolean mask, or NULL for none.  Work space: menu holds n * (n_abs +
 * n_rel) doubles; work holds n + table_size + rows entries, table_size a
 * power of two at least twice rows, the capacity of allocs, kinds and
 * total_cpu:
 * 2 + 2 * n * (n_abs + n_rel) + 2 * n_batch + n_ratios rows.
 *
 * Rows come in the numpy generator's order: hold, the per-tier
 * scale-downs, the batch scale-downs, the per-tier scale-ups, the
 * scale-up-all ratios, the victim boost.  Rows equal after rounding to 9
 * decimals keep their last occurrence: a hash table, filled from the last
 * row back, marks every earlier repeat, and the survivors close up in
 * order. */
intptr_t sinan_candidates(
    intptr_t n, const double *current, const double *cpu_util,
    const double *lo, const double *hi,
    int n_abs, int n_rel, int n_ratios, const double *constants,
    double util_cap, int allow_down, const intptr_t *order,
    int n_batch, const intptr_t *batch_n, const uint8_t *victims,
    const int64_t *codes, double *menu, uint64_t *work, intptr_t table_size,
    double *allocs, int64_t *kinds, double *total_cpu)
{
    const int m = n_abs + n_rel;
    const double *rel = constants + n_abs, *ratios = constants + m;
    const size_t row_bytes = (size_t)n * sizeof *allocs;
    const uint64_t mask = (uint64_t)table_size - 1;
    uint64_t *hc = work, *table = work + n, *hash = table + table_size;
    uint64_t hash_current = 0;
    intptr_t b, t, j, r, out;
    int i, k;

    for (j = 0; j < n; j++) hash_current += hc[j] = column_hash(j, current[j]);

    /* Each tier's step menu, sorted; repeats are skipped where used. */
    for (t = 0; t < n; t++) {
        double *s = menu + t * m;
        for (i = 0; i < n_abs; i++) s[i] = constants[i];
        for (i = 0; i < n_rel; i++) s[n_abs + i] = current[t] * rel[i];
        for (i = 1; i < m; i++) {
            double v = s[i];
            for (k = i; k > 0 && sort_before(v, s[k - 1]); k--) s[k] = s[k - 1];
            s[k] = v;
        }
    }

    memcpy(allocs, current, row_bytes);
    kinds[0] = codes[0];
    hash[0] = hash_current;
    b = 1;

    if (allow_down) {
        for (t = 0; t < n; t++) {
            const double *s = menu + t * m;
            double c = current[t], busy = cpu_util[t] * c;
            if (!(c > lo[t])) continue;
            for (i = 0; i < m; i++) {
                double v;
                if (i > 0 && !(s[i] != s[i - 1])) continue;
                v = np_maximum(c - s[i], lo[t]);
                if (is_close(v, c)) continue;
                if (v < c - 1e-12 && !(busy / np_maximum(v, 1e-9) <= util_cap))
                    continue;
                b = put_single(b, n, current, t, v, codes[1], hash_current, hc,
                               allocs, kinds, hash);
            }
        }
        for (i = 0; i < n_batch; i++) {
            for (k = 0; k < 2; k++) {
                double *row = allocs + b * n;
                uint64_t h = hash_current;
                int near = 1, fine = 1;
                memcpy(row, current, row_bytes);
                for (r = 0; r < batch_n[i]; r++) {
                    double c, v;
                    j = order[r];
                    c = current[j];
                    v = np_maximum(k == 0 ? c - 0.2 : c * 0.9, lo[j]);
                    row[j] = v;
                    near &= is_close(v, c);
                    if (v < c - 1e-12
                        && !((cpu_util[j] * c) / np_maximum(v, 1e-9) <= util_cap))
                        fine = 0;
                    if (v != c) h += column_hash(j, v) - hc[j];
                }
                if (!near && fine) {
                    kinds[b] = codes[2];
                    hash[b++] = h;
                }
            }
        }
    }

    for (t = 0; t < n; t++) {
        const double *s = menu + t * m;
        double c = current[t];
        if (!(c < hi[t])) continue;
        for (i = 0; i < m; i++) {
            double v;
            if (i > 0 && !(s[i] != s[i - 1])) continue;
            v = np_minimum(c + s[i], hi[t]);
            if (is_close(v, c)) continue;
            b = put_single(b, n, current, t, v, codes[3], hash_current, hc,
                           allocs, kinds, hash);
        }
    }

    for (i = 0; i < n_ratios; i++) {
        double *row = allocs + b * n;
        double f = 1.0 + ratios[i];
        uint64_t h = hash_current;
        int near = 1;
        for (j = 0; j < n; j++) {
            double c = current[j], v = np_clip(c * f, lo[j], hi[j]);
            row[j] = v;
            near &= is_close(v, c);
            if (v != c) h += column_hash(j, v) - hc[j];
        }
        if (!near) {
            kinds[b] = codes[4];
            hash[b++] = h;
        }
    }

    if (victims) {
        int any = 0;
        for (j = 0; j < n; j++) any |= victims[j];
        if (any) {
            double *row = allocs + b * n;
            uint64_t h = hash_current;
            int near = 1;
            memcpy(row, current, row_bytes);
            for (j = 0; j < n; j++) {
                double c = current[j], v;
                if (!victims[j]) continue;
                v = np_minimum(c + 0.6, hi[j]);
                row[j] = v;
                near &= is_close(v, c);
                if (v != c) h += column_hash(j, v) - hc[j];
            }
            if (!near) {
                kinds[b] = codes[5];
                hash[b++] = h;
            }
        }
    }

    memset(table, 0, (size_t)table_size * sizeof *table);
    for (r = b - 1; r >= 0; r--) {
        uint64_t p = hash[r] & mask;
        for (;;) {
            uint64_t s = table[p];
            if (!s) {
                table[p] = (uint64_t)r + 1;
                break;
            }
            if (hash[s - 1] == hash[r]
                && rows_match(allocs + (intptr_t)(s - 1) * n, allocs + r * n, n)) {
                kinds[r] = -1;
                break;
            }
            p = (p + 1) & mask;
        }
    }
    for (r = 0, out = 0; r < b; r++) {
        if (kinds[r] < 0) continue;
        if (out < r) {
            memcpy(allocs + out * n, allocs + r * n, row_bytes);
            kinds[out] = kinds[r];
        }
        total_cpu[out] = np_sum(allocs + out * n, n);
        out++;
    }
    return out;
}
"""

_CFLAGS = ["-O2", "-fPIC", "-shared", "-ffp-contract=off"]

#: The numpy functions the kernel draws through, in ``sinan_bind_numpy``
#: order, with their ``numpy/random/distributions.h`` prototypes.
_NUMPY_DRAWS = (
    "random_poisson", "random_normal", "random_lognormal",
    "random_bounded_uint64_fill", "random_standard_uniform",
)
_NUMPY_CDEF = """
typedef struct bitgen bitgen_t;
int64_t random_poisson(bitgen_t *, double);
double random_normal(bitgen_t *, double, double);
double random_lognormal(bitgen_t *, double, double);
void random_bounded_uint64_fill(
    bitgen_t *, uint64_t, uint64_t, intptr_t, _Bool, uint64_t *);
double random_standard_uniform(bitgen_t *);
"""

#: numpy's ``POISSON_LAM_MAX`` (``numpy/random/_common.pyx``), the
#: largest mean ``Generator.poisson`` accepts, by its own expression.
POISSON_LAM_MAX = (
    float(np.iinfo("l").max) - float(np.sqrt(np.iinfo("l").max)) * 10
)

#: ``ValueError`` messages for the kernel's non-zero returns: the ones
#: ``Generator.poisson`` and ``Generator.lognormal`` raise for the same
#: arguments.
DRAW_ERRORS = {
    1: "lam value too large",
    2: "lam < 0 or lam contains NaNs",
    3: "sigma < 0",
}

_cached: tuple | None = None
_failed = False
_numpy_lib = None


def load_kernel() -> tuple | None:
    """Return ``(ffi, lib)`` for the compiled kernel, or ``None``.

    The first failure is remembered: later calls return ``None``
    immediately instead of re-running the compiler.
    """
    global _cached, _failed
    if _cached is not None or _failed:
        return _cached
    try:
        _cached = _build()
    except Exception:
        _cached = None
    if _cached is None:
        _failed = True
    return _cached


def _build() -> tuple | None:
    global _numpy_lib
    import cffi  # gated: absent in minimal environments

    cc = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
    if cc is None:
        return None
    digest = hashlib.sha256(_SOURCE.encode()).hexdigest()[:16]
    uid = getattr(os, "getuid", lambda: 0)()
    cache = os.path.join(tempfile.gettempdir(), f"repro-fastsim-{uid}")
    os.makedirs(cache, exist_ok=True)
    so_path = os.path.join(cache, f"fastsim-{digest}.so")
    if not os.path.exists(so_path):
        # Unique scratch names plus an atomic rename keep concurrent
        # builders (e.g. forked --jobs workers) from trampling each other.
        tag = f".{os.getpid()}"
        c_path = so_path + tag + ".c"
        tmp_path = so_path + tag + ".tmp"
        with open(c_path, "w") as fh:
            fh.write(_SOURCE)
        try:
            subprocess.run(
                [cc, *_CFLAGS, c_path, "-o", tmp_path],
                check=True,
                capture_output=True,
                timeout=120,
            )
            os.replace(tmp_path, so_path)
        finally:
            for path in (c_path, tmp_path):
                try:
                    os.unlink(path)
                except OSError:
                    pass
    ffi = cffi.FFI()
    ffi.cdef(_CDEF)
    ffi.cdef(_NUMPY_CDEF)
    lib = ffi.dlopen(so_path)
    # numpy's own Generator code, already loaded (kept referenced for
    # the process): resolving a missing symbol raises, and then there is
    # no kernel at all.
    _numpy_lib = ffi.dlopen(np.random._generator.__file__)
    lib.sinan_bind_numpy(
        *(ffi.cast("void *", getattr(_numpy_lib, name))
          for name in _NUMPY_DRAWS)
    )
    return ffi, lib


__all__ = ["load_kernel", "DRAW_ERRORS", "POISSON_LAM_MAX"]
