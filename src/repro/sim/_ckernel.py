"""Optional compiled tick kernel for the batched simulation path.

The batched interval path spends its residual time in the sequential
tick recurrence (queue, busy EWMA, the sojourn level sweep): ~50 numpy
calls per tick over vectors of a few dozen tiers, where per-call
dispatch costs more than the arithmetic it performs.  This module
compiles that recurrence into a tiny C kernel at first use (cffi ABI
mode plus the system C compiler) and caches the shared object under the
user's temp directory, keyed by a digest of the source.  Everything is
best-effort: any failure — no ``cffi``, no compiler, an unwritable temp
directory — degrades silently to the pure-numpy loop in
:meth:`repro.sim.engine.QueueingEngine._run_interval_fast`, which
computes the identical bitstream.

Bitwise equality with the numpy recurrence relies on two things:

* the kernel mirrors the reference expression trees operation for
  operation (same association order; comparison-based min/max, exact
  for the finite non-NaN values the engine produces), and
* compilation uses ``-ffp-contract=off`` so no multiply-add pair is
  contracted into an FMA.

The kernel roughly halves the wall time of simulator-bound runs (see
``docs/architecture.md``).  Tests reach the numpy recurrence by making
:func:`load_kernel` return ``None``; the equivalence suite exercises
both.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import tempfile

_CDEF = """
void sinan_demand_ewma(
    int n_ticks, int n, double tick,
    const double *arrival_rows,
    double *demand, double *demand_rows);
void sinan_sample_stages(
    long k, int n, int n_segs,
    const double *soj,
    const long long *ticks,
    const long long *cols,
    const double *base,
    const double *flat,
    const int *seg_off, const int *seg_size,
    double *latency);
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
"""

# Tiers arrive permuted into dependency-level order, so iterating
# i = 0..n-1 *is* the level sweep: every child index is < i.  The queue
# phase is fused into the same per-tier pass — it only touches tier-local
# state, and the reference's "any tier overflowed" drop branch reduces to
# per-tier ``max(q - max_queue, 0)`` arithmetic whose no-drop case is the
# IEEE identity ``q - 0.0 == q``.
_SOURCE = r"""
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

/* Latency synthesis inner loop: per sample, per stage, the maximum of
 * base + (sojourn - base) * noise over the stage's tiers, summed across
 * stages.  ``flat`` holds the per-stage lognormal blocks row-major —
 * sample i, stage s (offset o, size sz) lives at flat[o*k + i*sz .. +sz].
 * Left-to-right comparisons mirror np.maximum.reduce, and the stage sums
 * accumulate in stage order like the numpy adds. */
void sinan_sample_stages(
    long k, int n, int n_segs,
    const double *soj,
    const long long *ticks,
    const long long *cols,
    const double *base,
    const double *flat,
    const int *seg_off, const int *seg_size,
    double *latency)
{
    for (long i = 0; i < k; i++) {
        const double *row = soj + ticks[i] * (long)n;
        double lat = 0.0;
        for (int s = 0; s < n_segs; s++) {
            int o = seg_off[s];
            int sz = seg_size[s];
            const double *noise = flat + (long)o * k + i * sz;
            double m = 0.0;
            for (int j = 0; j < sz; j++) {
                double b = base[o + j];
                double v = (row[cols[o + j]] - b) * noise[j] + b;
                if (j == 0 || v > m) m = v;
            }
            lat += m;
        }
        latency[i] = lat;
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
"""

_CFLAGS = ["-O2", "-fPIC", "-shared", "-ffp-contract=off"]

_cached: tuple | None = None
_failed = False


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
    lib = ffi.dlopen(so_path)
    return ffi, lib


__all__ = ["load_kernel"]
