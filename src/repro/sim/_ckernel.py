"""Optional compiled kernel: the simulator's interval, the boosted-tree
descent and growth, the Table 1 candidate set and the conv folds.

Five layers run here, each with a Python fallback that computes the
identical bits.  Every fallback but the tree descent's is also the
reference the kernel is pinned to:

* the simulator's interval (``sinan_interval``, one call per
  :meth:`repro.sim.engine.QueueingEngine.run_interval`), whose fallback
  is the engine's per-tick loop, ``_run_interval_loop``: per tick
  the rate modulation, the ``Generator`` draws and a level-by-level
  sojourn sweep of small numpy calls, then the sampler's per-stage
  draws and gathers and ``np.percentile``;
* the trees' flat descent
  (:meth:`repro.ml.boosted_trees.BoostedTrees.predict_margin`), whose
  fallback is ``_descend_numpy`` and pays about nine numpy passes per
  tree level;
* the trees' growth (``sinan_grow_tree``, one call per tree of
  :meth:`repro.ml.boosted_trees.BoostedTrees.fit`), whose fallback is
  the recursive grower, ``BoostedTrees._build_tree``, plus
  ``_compile_trees``: per node, a Python loop over the features with
  two ``bincount`` calls and a dozen small numpy passes each;
* the control loop's candidate generation
  (:meth:`repro.core.actions.ActionSpace.candidates`), whose fallback
  is ``ActionSpace._generate_actions``: one ``Action`` object per row,
  built by a Python loop per kind, and a dedupe over rounded tuples;
* the convolution's im2col and col2im folds (``sinan_im2col`` and
  ``sinan_col2im``, one call each per
  :class:`repro.ml.layers.Conv2D` fold), whose fallbacks are
  ``Conv2D._im2col_padded`` and ``Conv2D._col2im_padded``: ``np.pad``
  or a zeroed padded gradient, then one strided copy or add per kernel
  tap.

In all five, per-call dispatch and argument checking (and the
fallbacks' per-node, per-row and per-tap Python) cost more than the
arithmetic or the draws.  This module compiles them into a tiny C
kernel at first use (cffi ABI mode plus the system C compiler) and
caches the shared object under the user's temp directory, keyed by a
digest of the source and the compiler flags.  Everything is best-effort and all-or-nothing: any failure — no
``cffi``, no compiler, an unwritable temp directory, a numpy whose
distribution functions or float64 loops do not resolve — leaves all
five layers on their fallbacks.  The first failure is logged once at
WARNING and :func:`load_failure` returns its reason: on the fallback,
the simulator's per-tick loop takes about ten times the kernel's time
per interval.

Bitwise equality with the fallbacks relies on four things:

* the kernel mirrors the reference expression trees operation for
  operation (same association order; comparison-based min/max, exact
  for the finite non-NaN values the engine produces; the trees' ``!(x
  <= threshold)`` and each row's margin summed in tree order; the
  candidate generator's ``np.maximum``, ``np.minimum``, ``np.clip``,
  ``np.allclose`` and ``np.round(x, 9)`` by numpy's own expressions, its
  batch scale-downs in the order of numpy's ``argsort``, passed in; the
  grower's histograms and prefix sums in ``np.bincount``'s and
  ``np.cumsum``'s order, and every ``.sum()`` — a tree node's gradient
  and hessian totals, a candidate's total CPU, an interval's request
  count — in numpy's pairwise order; the column matrix by copies and
  +0.0 alone, and each input gradient's on-grid taps summed from +0.0
  in ``(i, j)`` order, the padded scatter-add's terms in its order),
* compilation uses ``-ffp-contract=off`` so no multiply-add pair is
  contracted into an FMA,
* every random value comes from the C function numpy's own
  ``Generator`` method calls (``random_poisson``, ``random_normal``,
  ``random_lognormal``, ``random_bounded_uint64_fill``,
  ``random_standard_uniform``, ``random_uniform``), resolved from
  ``numpy.random._generator`` — the route numpy documents in
  ``numpy/random/_examples/cffi`` — and called on the engine
  generator's own ``bitgen_t`` under its lock, in the order the numpy
  code calls the methods.  Values and ``bit_generator.state`` are
  therefore identical by construction; the kernel repeats the methods'
  argument checks (:data:`DRAW_ERRORS`) before it draws, and
* the interval's transcendental and BLAS arithmetic — the modulation's
  ``np.exp`` and ``np.sin``, the knee's ``np.power(sat, 4)`` and the
  arrivals' ``np.matmul`` — runs through numpy's own float64 loops
  (:data:`NUMPY_LOOPS`), called with the dimensions and strides numpy
  passes them.  Their bits come from numpy's SIMD routines and its
  BLAS, not from libm, so C cannot recompute them; numpy (1.24 and
  later) hands the loops out through ``ufunc._get_strided_loop``.  The
  capsules stay alive for the life of the process, and a loop that
  needs the Python API means no kernel.  The burst envelope's
  ``np.float64 ** 2`` is libm's ``pow``, as in numpy's scalar power.

The interval call holds the generator's lock throughout, since cffi
releases the GIL.  numpy checks the floating-point flags after each ufunc
call and the kernel does not; the per-tick loop raises none on the
equivalence suites' episodes (``tests/sim/test_kernel_loops.py``).
Tests reach the fallbacks by making :func:`load_kernel` return
``None``; the equivalence suites exercise both.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import shutil
import subprocess
import tempfile

import numpy as np

logger = logging.getLogger(__name__)

#: The interval layer's plan: sizes, constants and buffers, built once
#: per engine plan (``repro.sim.engine._FastPlan``).  One declaration
#: serves the C source and cffi, so the two layouts cannot drift.
_PLAN_DECL = """
typedef struct {
    int n, n_types, n_ticks, backpressure, jitter, n_pct;
    double tick, rate_cv, mod_sigma, mod_bias, spike_prob;
    double mult_lo, mult_hi, dur_lo, dur_hi;
    double capacity_jitter, max_queue, noise_sigma, drop_latency, budget;
    double lam_max, eps, max_sojourn;
    const double *pct_q, *visit_T, *soft_thr, *base_lat;
    const double *conc_per_core, *replicas, *cpu_p, *base_p, *sample_base;
    const intptr_t *perm;
    const int *child_off, *child_idx, *type_tier_off, *type_tiers;
    const int *sample_col_off, *sample_cols, *sample_seg_off, *sample_seg_size;
    const double *cap_beh_rows, *rep_rows;
    double *clock, *mod_rows, *counts_rows, *z_rows, *arrival_rows;
    double *demand_rows;
    double *sat_rows, *infl_rows, *infl_p, *cap_p, *arr_p, *conc_p;
    double *sojourn_rows, *tier_work, *p_drop, *top, *samples;
    double *type_counts, *arrivals_total, *completions_total;
    double *drops_total, *cpu_used;
    int64_t *k_per_type;
    uint64_t *ticks;
} sinan_plan;
"""

_CDEF = _PLAN_DECL + """
void sinan_bind_numpy(
    void *poisson, void *normal, void *lognormal,
    void *bounded_uint64_fill, void *standard_uniform, void *uniform,
    void *exp, void *sin, void *power, void *matmul);
intptr_t sinan_interval(
    const sinan_plan *p, void *bitgen,
    const double *allocs, const double *rates, int has_behaviors,
    const double *queue, const double *busy_ewma, const double *demand,
    double *state, double *pct);
void sinan_math(int op, intptr_t n, const double *x, double *y);
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
void sinan_im2col(
    intptr_t B, intptr_t C, intptr_t H, intptr_t W, intptr_t k,
    const double *x, intptr_t sb, intptr_t sc, intptr_t sh, intptr_t sw,
    double *cols);
void sinan_col2im(
    intptr_t B, intptr_t C, intptr_t H, intptr_t W, intptr_t k,
    const double *dcols, double *dx);
intptr_t sinan_candidates(
    intptr_t n, const double *current, const double *cpu_util,
    const double *lo, const double *hi,
    int n_abs, int n_rel, int n_ratios, const double *constants,
    double util_cap, int allow_down, const intptr_t *order,
    int n_batch, const intptr_t *batch_n, const uint8_t *victims,
    const int64_t *codes, double *menu, uint64_t *work, intptr_t table_size,
    double *allocs, int64_t *kinds, double *total_cpu);
"""

_SOURCE = r"""
#include <math.h>
#include <stdbool.h>
#include <stdint.h>
#include <string.h>
""" + _PLAN_DECL + r"""
/* numpy's distribution functions (numpy/random/distributions.h) and its
 * float64 ufunc loops, bound once per process by sinan_bind_numpy. */
typedef struct bitgen bitgen_t;
static int64_t (*np_poisson)(bitgen_t *, double);
static double (*np_normal)(bitgen_t *, double, double);
static double (*np_lognormal)(bitgen_t *, double, double);
static void (*np_bounded_uint64_fill)(
    bitgen_t *, uint64_t, uint64_t, intptr_t, bool, uint64_t *);
static double (*np_standard_uniform)(bitgen_t *);
static double (*np_uniform)(bitgen_t *, double, double);

/* A loop as numpy.ufunc._get_strided_loop leaves it in its
 * numpy_1.24_ufunc_call_info capsule: numpy's strided loop, called with
 * the context first and the auxdata last. */
typedef struct {
    int (*strided_loop)(
        void *context, char *const *data, const intptr_t *dimensions,
        const intptr_t *strides, void *auxdata);
    void *context;
    void *auxdata;
    unsigned char requires_pyapi;
    unsigned char no_floatingpoint_errors;
} np_call_info;
static const np_call_info *np_exp, *np_sin, *np_power, *np_matmul;

void sinan_bind_numpy(
    void *poisson, void *normal, void *lognormal,
    void *bounded_uint64_fill, void *standard_uniform, void *uniform,
    void *exp, void *sin, void *power, void *matmul)
{
    np_poisson = (int64_t (*)(bitgen_t *, double))poisson;
    np_normal = (double (*)(bitgen_t *, double, double))normal;
    np_lognormal = (double (*)(bitgen_t *, double, double))lognormal;
    np_bounded_uint64_fill = (void (*)(
        bitgen_t *, uint64_t, uint64_t, intptr_t, bool, uint64_t *))
        bounded_uint64_fill;
    np_standard_uniform = (double (*)(bitgen_t *))standard_uniform;
    np_uniform = (double (*)(bitgen_t *, double, double))uniform;
    np_exp = (const np_call_info *)exp;
    np_sin = (const np_call_info *)sin;
    np_power = (const np_call_info *)power;
    np_matmul = (const np_call_info *)matmul;
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
 * first from the C-contiguous (n, d) bin codes, with the arithmetic of
 * the recursive grower, BoostedTrees._build_tree:
 *   - a node's gradient and hessian sums are np_sum over its rows, in
 *     ascending row order (grad[rows].sum()); a leaf weighs
 *     -lr * g / (h + lam);
 *   - every node's histograms are exact: each cell adds its rows in row
 *     order from 0.0 (np.bincount), and the prefix sums run left to right
 *     from the first bin (np.cumsum);
 *   - split position b of feature f (b < n_bins[f] - 1) is valid when
 *     both sides weigh at least mcw, and gains the recursive grower's
 *     expression in its operation order; the winner is the first strict maximum in (feature,
 *     bin) order, and a valid NaN gain makes a leaf, as np.argmax picks
 *     the first NaN; the node splits when the winner's gain is > gamma
 *     and both sides keep a row;
 *   - the split is a stable partition on bins[r, f] <= b, so every node's
 *     rows stay ascending.
 * Three shortcuts skip only positions the recursive grower rules out.  The
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
 * by the Action-list generator's expressions (ActionSpace._generate_actions)
 * and in its row order.  The comparisons below are numpy's own:
 * np.maximum / np.minimum keep their first operand when it is NaN,
 * np.clip is min(max(x, lo), hi) by strict comparisons, and is_close is
 * the default-tolerance test np.allclose applies to each element.  Where both operands are zeros of opposite sign, numpy's
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
 * Rows come in the Action-list generator's order: hold, the per-tier
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
/* The simulator's interval (repro.sim.engine.QueueingEngine.run_interval)
 * in one call, by the numpy code's expressions and in its order.  Tiers
 * are permuted into dependency-level order for the tick recurrence, so
 * iterating i = 0..n-1 *is* the level sweep: every child index is < i.
 * The queue phase is fused into the same per-tier pass -- it only touches
 * tier-local state, and the reference's "any tier overflowed" drop branch
 * reduces to per-tier max(q - max_queue, 0) arithmetic whose no-drop case
 * is the IEEE identity q - 0.0 == q. */

static void call_loop(
    const np_call_info *f, char *const *data, const intptr_t *dims,
    const intptr_t *steps)
{
    f->strided_loop(f->context, data, dims, steps, f->auxdata);
}

/* np.exp or np.sin of a Python float: numpy runs its loop on one element,
 * the 0-d input at stride 0 and the new output at stride 8.  The operands
 * sit 64 bytes apart, as two numpy arrays would: some numpy versions take
 * their SIMD route only for operands at least that far apart. */
static double unary1(const np_call_info *f, double x)
{
    double io[9];
    char *data[2] = {(char *)io, (char *)(io + 8)};
    const intptr_t n = 1, steps[2] = {0, sizeof(double)};
    io[0] = x;
    call_loop(f, data, &n, steps);
    return io[8];
}

/* np.power(x, 4, out=y) over a C-contiguous block: one call of numpy's
 * power loop, the exponent a 0-d float64 at stride 0. */
static void power4(const double *x, double *y, intptr_t len)
{
    const double four = 4.0;
    char *data[3] = {(char *)x, (char *)&four, (char *)y};
    const intptr_t steps[3] = {sizeof(double), 0, sizeof(double)};
    call_loop(np_power, data, &len, steps);
}

/* np.sin(...) ** 2 squares a numpy float64 scalar, which numpy does with
 * libm's pow(s, 2.0).  The exponent is volatile so that the compiler does
 * not rewrite the call as s * s, which differs in the last bit. */
static volatile double envelope_exponent = 2.0;

static double envelope_square(double s)
{
    return pow(s, envelope_exponent);
}

static const double NP_PI = 3.141592653589793;

/* rng.uniform(lo, hi): random_uniform(lo, hi - lo) after
 * Generator.uniform's checks, which draw nothing when they refuse: a
 * range that is not finite raises OverflowError (4), a negative one
 * ValueError (5). */
static int uniform(bitgen_t *bg, double lo, double hi, double *out)
{
    double range = hi - lo;
    if (!isfinite(range)) return 4;
    if (signbit(range)) return 5;
    *out = np_uniform(bg, lo, range);
    return 0;
}

/* Tick t's draws after its rate modulation, in the reference tick's
 * order: rng.poisson((rates * mod) * tick) into counts row t, then, with
 * capacity jitter, rng.normal(0.0, 1.0, size=n) into z row t.  The means
 * are checked as a whole before the first draw, as Generator.poisson
 * checks its mean array: 1 when one is not <= lam_max (numpy's
 * POISSON_LAM_MAX; NaN fails this first), else 2 when one is not >= 0.
 * Nothing is drawn then. */
static int draw_tick(
    bitgen_t *bg, const sinan_plan *p, intptr_t t, const double *rates,
    double mod)
{
    const int nr = p->n_types;
    const double tick = p->tick;
    double *counts = p->counts_rows + t * nr;
    int r;
    for (r = 0; r < nr; r++)
        if (!((rates[r] * mod) * tick <= p->lam_max)) return 1;
    for (r = 0; r < nr; r++)
        if (!((rates[r] * mod) * tick >= 0.0)) return 2;
    for (r = 0; r < nr; r++)
        counts[r] = (double)np_poisson(bg, (rates[r] * mod) * tick);
    if (p->jitter) {
        double *z = p->z_rows + t * p->n;
        for (int i = 0; i < p->n; i++) z[i] = np_normal(bg, 0.0, 1.0);
    }
    return 0;
}

/* The interval's draws, tick by tick, as the engine's tick loop makes
 * them: _rate_modulation's (the AR(1) normal; when no burst runs, the
 * burst coin, and at an onset the two uniform ranges; the sin^2 envelope
 * and the exp) into mod_rows, then the tick's Poisson counts and jitter
 * normals, then the clock's step.  p->clock holds the engine's time,
 * _log_mod, _burst_start, _burst_until and _burst_mult: read first, and
 * written back however the loop ends, with what the numpy code would have
 * assigned before a refusal. */
static int draw_ticks(bitgen_t *bg, const sinan_plan *p, const double *rates)
{
    double *clock = p->clock;
    double time = clock[0], log_mod = clock[1], start = clock[2];
    double until = clock[3], mult = clock[4];
    int err = 0;
    for (intptr_t t = 0; t < p->n_ticks; t++) {
        double burst = 1.0, mod;
        if (p->rate_cv > 0) {
            double noise = np_normal(bg, 0.0, p->mod_sigma);
            log_mod += -0.004 * log_mod + noise;
        }
        if (p->spike_prob > 0) {
            if (time >= until
                && np_standard_uniform(bg) < p->spike_prob * p->tick) {
                double d;
                if ((err = uniform(bg, p->mult_lo, p->mult_hi, &mult))) break;
                start = time;
                if ((err = uniform(bg, p->dur_lo, p->dur_hi, &d))) break;
                until = time + d;
            }
            if (time < until) {
                double phase = (time - start) / (until - start);
                double envelope = envelope_square(unary1(np_sin, NP_PI * phase));
                burst = 1.0 + (mult - 1.0) * envelope;
            }
        }
        mod = p->mod_rows[t] = unary1(np_exp, log_mod - p->mod_bias) * burst;
        if ((err = draw_tick(bg, p, t, rates, mod))) break;
        time += p->tick;
    }
    clock[0] = time;
    clock[1] = log_mod;
    clock[2] = start;
    clock[3] = until;
    clock[4] = mult;
    return err;
}

/* Every tick's arrivals, np.matmul(visit_T, counts row t), in one call of
 * numpy's matmul loop: the ticks are its outer dimension (visit_T at
 * stride 0), and the core dimensions and steps are the ones numpy passes
 * for one tick's (n, n_types) @ (n_types,) product.  numpy hands that
 * product to BLAS, whose fused multiply-adds no plain C sum repeats. */
static void arrival_products(const sinan_plan *p)
{
    const intptr_t n = p->n, k = p->n_types, d = sizeof(double);
    const intptr_t dims[4] = {p->n_ticks, n, k, 1};
    const intptr_t steps[9] = {0, d * k, d * n, d * k, d, d, d, d, d};
    char *data[3] = {
        (char *)p->visit_T, (char *)p->counts_rows, (char *)p->arrival_rows};
    call_loop(np_matmul, data, dims, steps);
}

/* The tick recurrence over the permuted rows: service, sojourn (with the
 * children's sojourns held when backpressure is on), drain, drops and the
 * busy EWMA.  cap is NULL for a unit capacity, conc NULL for the constant
 * per-tier concurrency conc_const. */
static void run_ticks(
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
static int sample_latencies(
    bitgen_t *bg, int n_types, const int64_t *k_per_type,
    int n_ticks, int n, const double *soj,
    const int *col_off, const int *cols, const double *base,
    const int *seg_off, const int *seg_size,
    double mu_ln, double sigma,
    const double *p_drop, double drop_latency,
    uint64_t *ticks, double *latency)
{
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

/* The sampler's set-up, as the per-tick sampler computes it: each
 * type's share int(count / total * budget), at least 3 for a type that
 * arrived, into k_per_type; and, when a tier dropped requests, each
 * type's drop probability 1 - prod(keep) over the tiers it visits, the
 * product in np.multiply.reduce's order.  Returns the sample count, 0
 * when nothing arrived. */
static intptr_t plan_samples(const sinan_plan *p, int *drops)
{
    const int n = p->n, nr = p->n_types;
    double total = np_sum(p->type_counts, nr), most = p->drops_total[0];
    double *keep = p->tier_work;
    intptr_t count = 0;
    if (total <= 0) return 0;
    for (int r = 0; r < nr; r++) {
        double c = p->type_counts[r];
        int64_t k = (int64_t)((c / total) * p->budget), least = c > 0 ? 3 : 0;
        p->k_per_type[r] = k > least ? k : least;
        count += p->k_per_type[r];
    }
    for (int i = 1; i < n; i++) most = np_maximum(most, p->drops_total[i]);
    *drops = most > 0.0;
    if (!*drops) return count;
    for (int i = 0; i < n; i++) {
        double frac = p->drops_total[i] / np_maximum(p->arrivals_total[i], p->eps);
        keep[i] = 1.0 - np_minimum(np_maximum(frac, 0.0), 1.0);
    }
    for (int r = 0; r < nr; r++) {
        double prod = 1.0;
        for (int j = p->type_tier_off[r]; j < p->type_tier_off[r + 1]; j++)
            prod *= keep[p->type_tiers[j]];
        p->p_drop[r] = 1.0 - prod;
    }
    return count;
}

/* np.percentile(samples, pct_q) * 1000.0: numpy's linear interpolation
 * between order statistics, with its gamma >= 0.5 rewrite.  No index it
 * reads is below floor(q_min / 100 * (n - 1)), so only the m order
 * statistics from there up are put in order, in top, by np.sort's order
 * (NaN last). */
static void percentiles(const sinan_plan *p, intptr_t n, double *out)
{
    const intptr_t last = n - 1;
    double q_min = p->pct_q[0], *top = p->top;
    intptr_t first, m, filled = 0, i, k;
    for (int j = 1; j < p->n_pct; j++)
        if (p->pct_q[j] < q_min) q_min = p->pct_q[j];
    first = (intptr_t)(q_min / 100 * (double)last);
    m = n - first;
    for (i = 0; i < n; i++) {
        double v = p->samples[i];
        if (filled < m) {
            for (k = filled++; k > 0 && sort_before(v, top[k - 1]); k--)
                top[k] = top[k - 1];
            top[k] = v;
        } else if (sort_before(top[0], v)) {
            for (k = 0; k + 1 < m && sort_before(top[k + 1], v); k++)
                top[k] = top[k + 1];
            top[k] = v;
        }
    }
    for (int j = 0; j < p->n_pct; j++) {
        double vi = p->pct_q[j] / 100 * (double)last;
        intptr_t lo = (intptr_t)vi, hi = lo < last ? lo + 1 : last;
        double t = vi - (double)lo, x = top[lo - first];
        double diff = top[hi - first] - x, r = x + diff * t;
        if (t >= 0.5) r = top[hi - first] - diff * (1.0 - t);
        out[j] = r * 1000.0;
    }
}

/* One interval of QueueingEngine.run_interval, from the rates and
 * allocations to the latency percentiles, on the plan's buffers: the
 * draws (draw_ticks), type_counts and arrivals_total (rows added in
 * order from 0.0, as the tick loop's += adds them), the arrival
 * products, the demand EWMA, the saturation and its knee (one power call
 * over the (n_ticks, n) block), the inflation and jitter, the permuted
 * gathers, the tick recurrence, the un-permute, the samples and the
 * percentiles.  has_behaviors says the caller filled cap_beh_rows and
 * rep_rows.  queue, busy_ewma and demand are the engine's state; state
 * receives the new queue, busy EWMA, busy fraction, demand and the last
 * tick's sojourns (tier order, n each).
 *
 * Returns the sample count, or a refusal (DRAW_ERRORS) negated: the
 * clock is written back either way, and state only when the ticks ran
 * (the sampler's refusal, 3). */
intptr_t sinan_interval(
    const sinan_plan *p, void *bitgen,
    const double *allocs, const double *rates, int has_behaviors,
    const double *queue, const double *busy_ewma, const double *demand,
    double *state, double *pct)
{
    bitgen_t *bg = (bitgen_t *)bitgen;
    const intptr_t n = p->n, nt = p->n_ticks, cells = nt * n;
    const double tick = p->tick;
    const double *cap_beh = has_behaviors ? p->cap_beh_rows : NULL;
    const double *rep = has_behaviors ? p->rep_rows : NULL;
    double *w = p->tier_work;
    double *allocs_p = w + n, *mu_cpu_p = w + 2 * n, *fsm1_p = w + 3 * n;
    double *alloc_tick_p = w + 4 * n, *conc_const_p = w + 5 * n;
    double *queue_p = w + 6 * n, *be_p = w + 7 * n, *bf_p = w + 8 * n;
    double *cpu_used_p = w + 9 * n, *comp_p = w + 10 * n;
    double *drops_p = w + 11 * n;
    double *out_demand = state + 3 * n, *sat = p->sat_rows;
    double *infl = p->infl_rows;
    const double *cap = cap_beh, *last;
    intptr_t t, i, c, count;
    int err = draw_ticks(bg, p, rates), drops = 0;
    if (err) return -err;

    for (int r = 0; r < p->n_types; r++) {
        double s = 0.0;
        for (t = 0; t < nt; t++) s += p->counts_rows[t * p->n_types + r];
        p->type_counts[r] = s;
    }
    arrival_products(p);
    for (i = 0; i < n; i++) {
        double s = 0.0;
        for (t = 0; t < nt; t++) s += p->arrival_rows[t * n + i];
        p->arrivals_total[i] = s;
    }

    /* demand = (demand * 0.8) + ((arrivals / tick) * 0.2), tick by tick. */
    memcpy(out_demand, demand, (size_t)n * sizeof *out_demand);
    for (c = 0; c < cells; c++) {
        double d = out_demand[c % n] * 0.8 + (p->arrival_rows[c] / tick) * 0.2;
        out_demand[c % n] = d;
        p->demand_rows[c] = d;
    }

    /* Service inflates along a quartic knee as demand nears the tier's
     * soft throughput (shrunk by crashed replicas), up to 12x. */
    for (c = 0; c < cells; c++) {
        double den = rep ? p->soft_thr[c % n] * rep[c] : p->soft_thr[c % n];
        sat[c] = np_minimum(np_maximum(p->demand_rows[c] / den, 0.0), 1.0);
    }
    power4(sat, infl, cells);
    for (c = 0; c < cells; c++)
        infl[c] = 1.0 / np_minimum(np_maximum(1.0 - infl[c], 1.0 / 12.0), 1.0);
    if (p->jitter) {
        /* jc = clip(1 + z * (capacity_jitter * (1 + 3 * sat)), 0.3, 1.7),
         * over sat, which is dead after this. */
        for (c = 0; c < cells; c++) {
            double jc = (sat[c] * 3.0 + 1.0) * p->capacity_jitter;
            jc = np_minimum(np_maximum(p->z_rows[c] * jc + 1.0, 0.3), 1.7);
            sat[c] = cap_beh ? cap_beh[c] * jc : jc;
        }
        cap = sat;
    }

    for (i = 0; i < n; i++) {
        intptr_t q = p->perm[i];
        allocs_p[i] = allocs[q];
        conc_const_p[i] = (p->conc_per_core[q] * allocs[q]) * p->replicas[q];
        mu_cpu_p[i] = allocs_p[i] / p->cpu_p[i];
        fsm1_p[i] = 1.0 / np_minimum(allocs_p[i], 1.0) - 1.0;
        alloc_tick_p[i] = allocs_p[i] * tick;
        queue_p[i] = queue[q];
        be_p[i] = busy_ewma[q];
        cpu_used_p[i] = comp_p[i] = drops_p[i] = 0.0;
    }
    for (c = 0; c < cells; c++) {
        intptr_t row = c - c % n, src = row + p->perm[c % n];
        p->infl_p[c] = infl[src];
        p->arr_p[c] = p->arrival_rows[src];
        if (cap) p->cap_p[c] = cap[src];
        if (rep) p->conc_p[c] = conc_const_p[c % n] * rep[src];
    }
    run_ticks(
        (int)nt, (int)n, p->infl_p, cap ? p->cap_p : NULL,
        rep ? p->conc_p : NULL, conc_const_p, p->arr_p, p->cpu_p, p->base_p,
        fsm1_p, mu_cpu_p, alloc_tick_p, p->child_off, p->child_idx,
        p->backpressure, tick, p->max_queue, p->eps, p->max_sojourn,
        queue_p, be_p, bf_p, cpu_used_p, comp_p, drops_p, p->sojourn_rows);

    last = p->sojourn_rows + (nt - 1) * n;
    for (i = 0; i < n; i++) {
        intptr_t q = p->perm[i];
        state[q] = queue_p[i];
        state[n + q] = be_p[i];
        state[2 * n + q] = bf_p[i];
        state[4 * n + q] = last[i];
        p->completions_total[q] = comp_p[i];
        p->drops_total[q] = drops_p[i];
        p->cpu_used[q] = cpu_used_p[i];
    }

    count = plan_samples(p, &drops);
    if (count == 0) {
        double most = p->base_lat[0];
        for (i = 1; i < n; i++)
            if (p->base_lat[i] > most) most = p->base_lat[i];
        p->samples[0] = most;
        count = 1;
    } else {
        double sigma = p->noise_sigma;
        err = sample_latencies(
            bg, p->n_types, p->k_per_type, (int)nt, (int)n, p->sojourn_rows,
            p->sample_col_off, p->sample_cols, p->sample_base,
            p->sample_seg_off, p->sample_seg_size, -0.5 * sigma * sigma,
            sigma, drops ? p->p_drop : NULL, p->drop_latency, p->ticks,
            p->samples);
        if (err) return -err;
    }
    percentiles(p, count, pct);
    return count;
}

/* [lo, hi) of a k x k tap's offset d along an axis of length len: the
 * output indices whose source index + d lies on the axis.  Empty (lo ==
 * hi) when |d| >= len, and never outside [0, len). */
static void on_grid(intptr_t d, intptr_t len, intptr_t *lo, intptr_t *hi)
{
    *lo = d < 0 ? (-d < len ? -d : len) : 0;
    *hi = d > 0 ? (len - d > *lo ? len - d : *lo) : len;
}

/* One tap's runs of a conv's column matrix over m consecutive images,
 * C-contiguous (m, H, W): entry (b, h, w) is centre[b, h + di, w + dj],
 * or +0.0 where that lies off the H x W grid.  One flat copy shifted by
 * s = di*W + dj fills the entries whose source lies in the block, the
 * on-grid ones among them; every other entry, like every entry the
 * shift pulled from a neighbouring row or image, has its column w + dj
 * or its row h + di off the grid, and those are zeroed: a stride-W pass
 * per column (a loop over a row's few entries would become a memset call
 * per row), then the rows. */
static void shifted_runs(
    double *restrict run, const double *restrict centre, intptr_t m,
    intptr_t H, intptr_t W, intptr_t di, intptr_t dj)
{
    intptr_t hw = H * W, s = di * W + dj, lo, hi, h0, h1, w0, w1;
    on_grid(s, m * hw, &lo, &hi);
    on_grid(di, H, &h0, &h1);
    on_grid(dj, W, &w0, &w1);
    if (hi > lo)
        memcpy(run + lo, centre + lo + s, (size_t)(hi - lo) * sizeof *run);
    for (intptr_t w = 0; w < W; w++)
        if (w < w0 || w >= w1)
            for (intptr_t r = 0; r < m * H; r++) run[r * W + w] = 0.0;
    if (h0 > 0 || h1 < H)
        for (intptr_t b = 0; b < m; b++) {
            double *image = run + b * hw;
            memset(image, 0, (size_t)(h0 * W) * sizeof *run);
            memset(image + h1 * W, 0, (size_t)((H - h1) * W) * sizeof *run);
        }
}

/* Conv2D's column matrix (repro.ml.layers): cols, C-contiguous (C*k*k,
 * B*H*W), rows in (c, i, j) order and columns in (b, h, w) order, of the
 * (B, C, H, W) input x, whose strides sb, sc, sh, sw count elements.
 * Entry ((c, i, j), (b, h, w)) is x[b, c, h + di, w + dj] with (di, dj) =
 * (i - k/2, j - k/2), or +0.0 where that lies off the H x W grid: the
 * padded windows' values, by copies and zeros alone.  IM2COL_IMAGES
 * images at a time, channel by channel: the centre tap's runs are the
 * images' planes, copied in, and every other tap copies them shifted.
 * A block whose channels interleave in x stays in cache meanwhile. */
#define IM2COL_IMAGES 32

void sinan_im2col(
    intptr_t B, intptr_t C, intptr_t H, intptr_t W, intptr_t k,
    const double *x, intptr_t sb, intptr_t sc, intptr_t sh, intptr_t sw,
    double *restrict cols)
{
    intptr_t p = k / 2, hw = H * W, n = B * hw;
    for (intptr_t b0 = 0; b0 < B; b0 += IM2COL_IMAGES) {
        intptr_t m = B - b0 < IM2COL_IMAGES ? B - b0 : IM2COL_IMAGES;
        for (intptr_t c = 0; c < C; c++) {
            double *taps = cols + c * k * k * n + b0 * hw;
            double *centre = taps + (p * k + p) * n;
            for (intptr_t b = 0; b < m; b++) {
                const double *plane = x + (b0 + b) * sb + c * sc;
                double *out = centre + b * hw;
                if (sw == 1 && (sh == W || H == 1))
                    memcpy(out, plane, (size_t)hw * sizeof *out);
                else
                    for (intptr_t h = 0; h < H; h++)
                        for (intptr_t w = 0; w < W; w++)
                            out[h * W + w] = plane[h * sh + w * sw];
            }
            for (intptr_t t = 0; t < k * k; t++)
                if (t != p * k + p)
                    shifted_runs(
                        taps + t * n, centre, m, H, W, t / k - p, t % k - p);
        }
    }
}

/* Conv2D's col2im fold: dx, C-contiguous (C, B*H*W), of the column
 * gradient dcols laid out as sinan_im2col's cols.  Each input element
 * starts at +0.0 and adds, taps in (i, j) order, the entries of the
 * output positions whose window read it on the grid: the terms, in the
 * order, that the padded scatter-add sums. */
void sinan_col2im(
    intptr_t B, intptr_t C, intptr_t H, intptr_t W, intptr_t k,
    const double *restrict dcols, double *restrict dx)
{
    intptr_t p = k / 2, hw = H * W, n = B * hw;
    for (intptr_t c = 0; c < C; c++)
        for (intptr_t b = 0; b < B; b++) {
            double *grad = dx + c * n + b * hw;
            const double *run = dcols + c * k * k * n + b * hw;
            for (intptr_t q = 0; q < hw; q++) grad[q] = 0.0;
            for (intptr_t di = -p; di <= p; di++)
                for (intptr_t dj = -p; dj <= p; dj++, run += n) {
                    intptr_t h0, h1, w0, w1;
                    on_grid(di, H, &h0, &h1);
                    on_grid(dj, W, &w0, &w1);
                    for (intptr_t h = h0; h < h1; h++) {
                        double *dst = grad + (h + di) * W;
                        const double *src = run + h * W;
                        for (intptr_t w = w0; w < w1; w++) dst[w + dj] += src[w];
                    }
                }
        }
}

/* The interval's numpy math on n inputs, for the tests that pin it to
 * numpy: op 0 and op 1 run each input through the one-element exp and
 * sin calls of the rate modulation, op 2 is the knee's power(x, 4) over
 * the whole block, op 3 the burst envelope's square. */
void sinan_math(int op, intptr_t n, const double *x, double *y)
{
    if (op == 2) {
        power4(x, y, n);
        return;
    }
    for (intptr_t i = 0; i < n; i++)
        y[i] = op == 0 ? unary1(np_exp, x[i])
             : op == 1 ? unary1(np_sin, x[i])
             : envelope_square(x[i]);
}
"""

_CFLAGS = ["-O2", "-fPIC", "-shared", "-ffp-contract=off"]

#: The numpy functions the kernel draws through, in ``sinan_bind_numpy``
#: order, with their ``numpy/random/distributions.h`` prototypes, and
#: the ``numpy_1.24_ufunc_call_info`` layout of ``ufunc._get_strided_loop``.
_NUMPY_DRAWS = (
    "random_poisson", "random_normal", "random_lognormal",
    "random_bounded_uint64_fill", "random_standard_uniform",
    "random_uniform",
)
_NUMPY_CDEF = """
typedef struct bitgen bitgen_t;
int64_t random_poisson(bitgen_t *, double);
double random_normal(bitgen_t *, double, double);
double random_lognormal(bitgen_t *, double, double);
void random_bounded_uint64_fill(
    bitgen_t *, uint64_t, uint64_t, intptr_t, _Bool, uint64_t *);
double random_standard_uniform(bitgen_t *);
double random_uniform(bitgen_t *, double, double);
typedef struct {
    void *strided_loop;
    void *context;
    void *auxdata;
    unsigned char requires_pyapi;
    unsigned char no_floatingpoint_errors;
} numpy_ufunc_call_info;
"""

#: The numpy ufuncs whose float64 loops the interval calls, in
#: ``sinan_bind_numpy`` order after the draws.
NUMPY_LOOPS = ("exp", "sin", "power", "matmul")

#: numpy's ``POISSON_LAM_MAX`` (``numpy/random/_common.pyx``), the
#: largest mean ``Generator.poisson`` accepts, by its own expression.
POISSON_LAM_MAX = (
    float(np.iinfo("l").max) - float(np.sqrt(np.iinfo("l").max)) * 10
)

#: The kernel's refusals, by code (``sinan_interval`` returns the code
#: negated): the exception ``Generator.poisson``, ``lognormal`` and
#: ``uniform`` raise for the same arguments.  All but
#: :data:`SAMPLER_REFUSAL` refuse a tick's draws.
DRAW_ERRORS = {
    1: (ValueError, "lam value too large"),
    2: (ValueError, "lam < 0 or lam contains NaNs"),
    3: (ValueError, "sigma < 0"),
    4: (OverflowError, "high - low range exceeds valid bounds"),
    5: (ValueError, "high - low < 0"),
}
#: The refusal that comes after the interval's ticks ran: the sampler's.
SAMPLER_REFUSAL = 3

_cached: tuple | None = None
#: The first load failure's exception type and message.
_failure: str | None = None
_numpy_lib = None
#: name -> the ``numpy_1.24_ufunc_call_info`` capsule of a bound loop;
#: numpy ties the loop's data to the capsule, so it lives as long as the
#: process.
_loop_capsules: dict = {}


def load_kernel() -> tuple | None:
    """Return ``(ffi, lib)`` for the compiled kernel, or ``None``.

    The first failure is remembered and logged once at WARNING: later
    calls return ``None`` immediately instead of re-running the
    compiler, and :func:`load_failure` says why.
    """
    global _cached, _failure
    if _cached is not None or _failure is not None:
        return _cached
    try:
        _cached = _build()
    except Exception as exc:  # noqa: BLE001 - any failure means no kernel
        _failure = f"{type(exc).__name__}: {exc}"
        logger.warning(
            "compiled kernel not loaded (%s): the simulator runs its "
            "per-tick loop, tree fits, candidates and conv folds their "
            "reference code, and the tree descent its numpy gathers",
            _failure,
        )
        logger.debug("compiled kernel load failure", exc_info=True)
    return _cached


def load_failure() -> str | None:
    """Why :func:`load_kernel` returns ``None``: the first failure's
    exception type and message; ``None`` when the kernel loads."""
    load_kernel()
    return _failure


def bound_loops() -> tuple[str, ...]:
    """The numpy loops the loaded kernel calls; empty without a kernel."""
    return tuple(_loop_capsules) if load_kernel() is not None else ()


def _resolve_loops(ffi) -> tuple[dict, list]:
    """Each of :data:`NUMPY_LOOPS`' float64 loops: its capsule, and the
    call info the capsule holds, in order.

    Raises when a loop does not resolve to float64 throughout, or needs
    the Python API (the kernel calls it without the GIL).
    """
    get_pointer = ctypes.pythonapi.PyCapsule_GetPointer
    get_pointer.restype = ctypes.c_void_p
    get_pointer.argtypes = (ctypes.py_object, ctypes.c_char_p)
    f8 = np.dtype(np.float64)
    capsules, infos = {}, []
    for name in NUMPY_LOOPS:
        ufunc = getattr(np, name)
        dtypes, capsule = ufunc._resolve_dtypes_and_context(
            (f8,) * ufunc.nin + (None,)
        )
        if any(dt != f8 for dt in dtypes):
            raise TypeError(f"numpy's {name} does not resolve to float64")
        ufunc._get_strided_loop(capsule)
        info = ffi.cast(
            "numpy_ufunc_call_info *",
            get_pointer(capsule, b"numpy_1.24_ufunc_call_info"),
        )
        if info.strided_loop == ffi.NULL or info.requires_pyapi:
            raise RuntimeError(f"numpy's {name} loop needs the Python API")
        capsules[name] = capsule
        infos.append(ffi.cast("void *", info))
    return capsules, infos


def _build() -> tuple:
    global _numpy_lib
    import cffi  # gated: absent in minimal environments

    cc = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
    if cc is None:
        raise FileNotFoundError("no C compiler (cc, gcc or clang) on PATH")
    so_path = _shared_object(cc)
    ffi = cffi.FFI()
    ffi.cdef(_CDEF)
    ffi.cdef(_NUMPY_CDEF)
    lib = ffi.dlopen(so_path)
    # numpy's own Generator code, already loaded (kept referenced for
    # the process), and its float64 loops: resolving a missing symbol or
    # loop raises, and then there is no kernel at all.
    _numpy_lib = ffi.dlopen(np.random._generator.__file__)
    capsules, infos = _resolve_loops(ffi)
    lib.sinan_bind_numpy(
        *(ffi.cast("void *", getattr(_numpy_lib, name))
          for name in _NUMPY_DRAWS),
        *infos,
    )
    _loop_capsules.update(capsules)
    return ffi, lib


def _shared_object(cc: str) -> str:
    """The path of the kernel compiled by ``cc`` from :data:`_SOURCE`
    with :data:`_CFLAGS`, cached under the user's temp directory by a
    digest of both (a flag change builds anew); compiled when missing."""
    key = "\0".join([_SOURCE, *_CFLAGS]).encode()
    digest = hashlib.sha256(key).hexdigest()[:16]
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
                [cc, *_CFLAGS, c_path, "-o", tmp_path, "-lm"],
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
    return so_path


__all__ = [
    "load_kernel", "load_failure", "bound_loops", "DRAW_ERRORS", "NUMPY_LOOPS",
    "POISSON_LAM_MAX", "SAMPLER_REFUSAL",
]
