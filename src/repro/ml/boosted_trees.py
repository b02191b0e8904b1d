"""Gradient-boosted trees: the long-term violation predictor.

The paper uses XGBoost for the binary task "will this allocation cause a
QoS violation within the next k intervals?", fed with the CNN's compact
latent variable ``L_f`` plus the candidate allocation (Section 3.2).
This is a from-scratch equivalent: histogram-based greedy split finding
with second-order (Newton) leaf weights and logistic loss, i.e. the core
of XGBoost's exact/approximate tree learner.

As in the paper, the model sums per-tree scores; the violation
probability is the logistic of the accumulated margin
(``p_V = e^{s_V} / (e^{s_V} + e^{s_{NV}})`` in the paper's two-score
formulation, equivalent to a sigmoid over the margin difference).

Inference is *compiled*: ``fit`` grows recursive ``_Node`` trees, then
flattens them into feature / threshold / children / leaf-value arrays
(:class:`_CompiledEnsemble`) and drops the nodes, so the arrays are the
only form a fitted ensemble keeps.  ``predict_margin``, which sits
inside every scheduler decision, walks those arrays in the compiled
kernel of :mod:`repro.sim._ckernel`: per tree, rows step a level down
at a time, 16 side by side.  Leaves point at themselves, so a row that
reaches one early stays put.  Without the kernel the same descent runs
on numpy, every (tree, row) lane a level down per step with flat
``np.take`` gathers.  Both perform the same comparisons as a recursive
walk and add leaf values tree by tree in the same order, so margins
are bit-identical to walking the trees (the oracle in
``tests/oracles/decision.py`` rebuilds them from the arrays).

Training is *level-wise over histograms*: :meth:`BoostedTrees._build_tree`
replaces a per-(node, feature) Python re-scan with one fused
``np.bincount`` per tree level over the key ``(node_slot * n_features +
feature) * n_bins + bin``, plus the classic histogram-subtraction trick
(only the smaller child of a split is scanned; its sibling's histogram
is the parent's minus the child's).  Node gradient/hessian totals — and
therefore every leaf weight — are computed with the exact
``grad[rows].sum()`` arithmetic of the recursive reference grower kept
in ``tests/oracles/training.py``, and the split argmax replicates that
grower's first-strict-maximum tie-breaking, so the grown trees must
match it split for split (histogram subtraction perturbs *gains* by
float epsilon, which can only matter on exact ties between structurally
different splits).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml.metrics import accuracy
from repro.sim import _ckernel


@dataclass(frozen=True)
class BoostedTreesConfig:
    """Learner hyper-parameters (paper tunes max depth and tree count)."""

    n_trees: int = 400
    max_depth: int = 6
    learning_rate: float = 0.1
    reg_lambda: float = 1.0
    gamma: float = 0.0
    min_child_weight: float = 1.0
    n_bins: int = 64
    early_stopping_rounds: int = 25

    def __post_init__(self) -> None:
        # With no hessian floor and no L2 term, an empty histogram bin
        # scores 0/0 and the split search has no defined answer.
        if self.min_child_weight <= 0 and self.reg_lambda <= 0:
            raise ValueError(
                "min_child_weight and reg_lambda cannot both be <= 0 "
                f"(got min_child_weight={self.min_child_weight}, "
                f"reg_lambda={self.reg_lambda})"
            )


@dataclass
class _Node:
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None
    value: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0


@dataclass(frozen=True)
class _CompiledEnsemble:
    """Fitted trees flattened into arrays for vectorized traversal.

    Node ``i`` sends a row to ``children[i, 0]`` when ``x[feature[i]] <=
    threshold[i]`` and to ``children[i, 1]`` otherwise, NaN included.  A
    leaf has ``feature`` 0, both children pointing at itself and its
    weight in ``value[i]``.  ``roots[t]`` is tree *t*'s root node; every
    row is at a leaf of every tree after ``max_depth`` steps.
    """

    feature: np.ndarray  # (n_nodes,) intp, 0 on leaves
    threshold: np.ndarray  # (n_nodes,) float64
    children: np.ndarray  # (n_nodes, 2) intp, leaves point at themselves
    value: np.ndarray  # (n_nodes,) float64
    roots: np.ndarray  # (n_trees,) intp
    max_depth: int


def _compile_trees(trees: list[_Node]) -> _CompiledEnsemble | None:
    """Flatten recursive ``_Node`` trees into a :class:`_CompiledEnsemble`."""
    if not trees:
        return None
    feature: list[int] = []
    threshold: list[float] = []
    children: list[list[int]] = []
    value: list[float] = []
    roots: list[int] = []
    max_depth = 0

    def emit(node: _Node, depth: int) -> int:
        nonlocal max_depth
        max_depth = max(max_depth, depth)
        idx = len(feature)
        feature.append(0 if node.is_leaf else node.feature)
        threshold.append(node.threshold)
        children.append([idx, idx])
        value.append(node.value)
        if not node.is_leaf:
            children[idx] = [emit(node.left, depth + 1), emit(node.right, depth + 1)]
        return idx

    for tree in trees:
        roots.append(emit(tree, 0))
    return _CompiledEnsemble(
        feature=np.asarray(feature, dtype=np.intp),
        threshold=np.asarray(threshold, dtype=np.float64),
        children=np.asarray(children, dtype=np.intp).reshape(-1, 2),
        value=np.asarray(value, dtype=np.float64),
        roots=np.asarray(roots, dtype=np.intp),
        max_depth=max_depth,
    )


class BoostedTrees:
    """Binary classifier: boosted regression trees on logistic loss."""

    def __init__(self, config: BoostedTreesConfig | None = None, seed: int = 0) -> None:
        self.config = config or BoostedTreesConfig()
        self._rng = np.random.default_rng(seed)
        self.base_margin = 0.0
        self._compiled: _CompiledEnsemble | None = None
        self.train_accuracy = float("nan")
        self.val_accuracy = float("nan")

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        X_val: np.ndarray | None = None,
        y_val: np.ndarray | None = None,
    ) -> "BoostedTrees":
        """Fit with optional early stopping on validation error.

        Trees grow as ``_Node`` objects local to this call; the fitted
        ensemble keeps only their compiled arrays.
        """
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        if X.ndim != 2 or len(X) != len(y):
            raise ValueError("X must be (B, D) aligned with y")
        if len(np.unique(y)) < 2:
            # Degenerate training set: constant prediction.
            self.base_margin = _logit(np.clip(y.mean(), 1e-6, 1 - 1e-6))
            self._compiled = None
            self.train_accuracy = accuracy(self.predict(X), y)
            if X_val is not None and y_val is not None:
                self.val_accuracy = accuracy(self.predict(X_val), y_val)
            return self

        cfg = self.config
        self._compiled = None
        self._bin_edges = self._make_bins(X)
        bins = self._binize(X)
        # Per-row scan keys are identical for every tree: fold the
        # feature offsets into the bin codes once, so each histogram
        # scan only adds the per-level node-slot offset.
        if X.shape[1]:
            nb_fit = max(len(e) + 1 for e in self._bin_edges)
            self._keybase = (
                np.arange(X.shape[1], dtype=np.int64) * nb_fit + bins
            )
        else:
            self._keybase = None

        pos = np.clip(y.mean(), 1e-6, 1 - 1e-6)
        self.base_margin = _logit(pos)
        margin = np.full(len(y), self.base_margin)
        trees: list[_Node] = []

        best_val = float("inf")
        best_n = 0
        stale = 0
        val_margin = None
        if X_val is not None and y_val is not None:
            y_val = np.asarray(y_val, dtype=float).ravel()
            val_margin = np.full(len(y_val), self.base_margin)

        for _ in range(cfg.n_trees):
            prob = _sigmoid(margin)
            grad = prob - y
            hess = np.maximum(prob * (1.0 - prob), 1e-12)
            tree = self._build_tree(bins, grad, hess)
            trees.append(tree)
            margin += self._predict_tree(tree, X)

            if val_margin is not None:
                val_margin += self._predict_tree(tree, X_val)
                val_loss = _logloss(val_margin, y_val)
                if val_loss < best_val - 1e-7:
                    best_val = val_loss
                    best_n = len(trees)
                    stale = 0
                else:
                    stale += 1
                    if stale >= cfg.early_stopping_rounds:
                        break

        if val_margin is not None and best_n:
            trees = trees[:best_n]
        # Growth state is fit-time only: the model keeps the arrays.
        for name in ("_bin_edges", "_keybase", "_hist_scratch"):
            self.__dict__.pop(name, None)
        self._compiled = _compile_trees(trees)
        self.train_accuracy = accuracy(self.predict(X), y)
        if X_val is not None and y_val is not None:
            self.val_accuracy = accuracy(self.predict(X_val), y_val)
        return self

    def _make_bins(self, X: np.ndarray) -> list[np.ndarray]:
        qs = np.linspace(0, 100, self.config.n_bins + 1)[1:-1]
        # One percentile pass over the whole matrix; only the (cheap,
        # ragged) dedup still loops over features.
        cuts = np.percentile(X, qs, axis=0)  # (Q, D)
        return [np.unique(cuts[:, f]) for f in range(X.shape[1])]

    def _binize(self, X: np.ndarray, chunk_rows: int | None = None) -> np.ndarray:
        """Bin indices per element, matching ``searchsorted(side='right')``.

        One broadcast comparison pass per (row-chunked) matrix instead of
        a Python loop over features: bin = #edges <= x, evaluated as a
        (rows, features, edges) boolean reduction against the edge table
        padded with ``+inf``.  Both the boolean intermediate and the
        int32 result are preallocated once and reused across chunks —
        every chunk reduces straight into its slice of the output, so
        the chunked result is identical to an unchunked pass regardless
        of ragged per-feature bin counts.
        """
        n, d = X.shape
        k = max((len(cuts) for cuts in self._bin_edges), default=0)
        out = np.zeros(X.shape, dtype=np.int32)
        if k == 0:
            return out
        edges = np.full((d, k), np.inf)
        for f, cuts in enumerate(self._bin_edges):
            edges[f, : len(cuts)] = cuts
        counts = np.array([len(cuts) for cuts in self._bin_edges], dtype=np.int32)
        if chunk_rows is None:
            # Chunk rows so the boolean intermediate stays ~32 MB.
            chunk_rows = max(1, (1 << 25) // max(d * k, 1))
        cmp = np.empty((min(chunk_rows, n), d, k), dtype=bool)
        for start in range(0, n, chunk_rows):
            block = X[start : start + chunk_rows]
            m = len(block)
            np.less_equal(edges[None, :, :], block[:, :, None], out=cmp[:m])
            dest = out[start : start + m]
            cmp[:m].sum(axis=2, dtype=np.int32, out=dest)
            nan = np.isnan(block)
            if nan.any():  # searchsorted sorts NaN above every edge
                dest[nan] = np.broadcast_to(counts, block.shape)[nan]
        return out

    #: Ambiguity margin of the histogram grower: a subtracted node whose
    #: split decision is within this tolerance of flipping (tied gains
    #: with unequal histogram values, best gain near ``gamma``, child
    #: weight near ``min_child_weight``) is rescanned exactly.  Vastly
    #: larger than the ~1e-10 float noise subtraction can introduce.
    _HIST_TOL = 1e-6

    def _build_tree(
        self, bins: np.ndarray, grad: np.ndarray, hess: np.ndarray
    ) -> _Node:
        """Level-wise growth over fused gradient/hessian histograms.

        Per level, one pair of ``np.bincount`` calls over the key
        ``(node_slot * D + feature) * n_bins + bin`` builds every
        scanned node's (D, n_bins) histograms at once; a split's larger
        child is never scanned — its histogram is the parent's minus its
        (scanned) smaller sibling's.  ``np.bincount`` accumulates in
        element order and node row sets stay sorted, so scanned
        histograms are bit-identical to the recursive reference grower's
        per-feature bincounts.  Gains replicate the reference's exact
        expressions and its first-strict-maximum tie-breaking (row-major
        argmax == first feature, then first bin, attaining the maximum);
        leaf values use the reference's own ``grad[rows].sum()``
        arithmetic rather than histogram totals.  Empty bins under
        ``reg_lambda == 0`` score 0/0; those entries are masked to
        ``-inf`` below, so the division runs with its warnings off.

        Histogram subtraction perturbs a subtracted node's gains by
        float epsilon, which matters exactly when the split decision is
        a near-tie (common in early trees, where every row carries one
        of two gradient values and structurally different splits score
        identically).  Such nodes are detected (:attr:`_HIST_TOL`) and
        rescanned exactly — the same work the reference grower spends on
        *every* node — so the grown tree still matches the reference
        split for split.
        """
        cfg = self.config
        n, d = bins.shape
        edges = self._bin_edges
        lam, mcw, lr = cfg.reg_lambda, cfg.min_child_weight, cfg.learning_rate
        tol = self._HIST_TOL
        n_bins = np.array([len(e) + 1 for e in edges], dtype=np.int64)
        nb = int(n_bins.max()) if d else 1

        root = _Node()
        rows0 = np.arange(n)
        g0 = grad[rows0].sum()
        h0 = hess[rows0].sum()
        if cfg.max_depth <= 0 or n < 2 or nb < 2:
            root.value = -lr * g0 / (h0 + lam)
            return root

        feat_ids = np.arange(d, dtype=np.int64)
        # Split position b is real only while b indexes an edge of f.
        pos_valid = np.arange(nb - 1)[None, :] < (n_bins[:, None] - 1)
        keybase = self.__dict__.get("_keybase")
        if keybase is None or keybase.shape != bins.shape:
            keybase = feat_ids * nb + bins

        def scan(rows_list: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
            """Fused histograms (len(rows_list), D, nb) for grad and hess."""
            m = len(rows_list)
            rows_cat = rows_list[0] if m == 1 else np.concatenate(rows_list)
            offset = np.repeat(
                np.arange(m, dtype=np.int64) * (d * nb),
                [len(r) for r in rows_list],
            )
            key = (keybase[rows_cat] + offset[:, None]).ravel()
            size = m * d * nb
            g_hist = np.bincount(
                key, weights=np.repeat(grad[rows_cat], d), minlength=size
            )
            h_hist = np.bincount(
                key, weights=np.repeat(hess[rows_cat], d), minlength=size
            )
            return g_hist.reshape(m, d, nb), h_hist.reshape(m, d, nb)

        # Scratch buffers for split_scores, grown to the widest level
        # seen and reused across levels and trees (they survive on the
        # instance between _build_tree calls within one fit).
        scratch = self.__dict__.get("_hist_scratch")
        if not isinstance(scratch, dict) or scratch.get("shape") != (d, nb):
            scratch = {"shape": (d, nb), "cap": 0}
            self._hist_scratch = scratch

        def buffers(m: int):
            if scratch["cap"] < m:
                for name in ("cg", "ch"):
                    scratch[name] = np.empty((m, d, nb))
                for name in ("t1", "t2", "t3", "r2"):
                    scratch[name] = np.empty((m, d, nb - 1))
                for name in ("vb", "vb2"):
                    scratch[name] = np.empty((m, d, nb - 1), dtype=bool)
                scratch["cap"] = m
            return scratch

        def split_scores(Gb, Hb, gs, hs):
            """(gain, g_left, h_left, h_right) for a histogram block.

            In-place arithmetic over reusable scratch; every operand
            sequence matches the reference expressions, so results are
            bit-identical to the naive formulation.  Returned arrays
            are views into scratch: consumed before the next call.
            """
            m = len(Gb)
            s = buffers(m)
            cg = s["cg"][:m]
            ch = s["ch"][:m]
            np.cumsum(Gb, axis=2, out=cg)
            np.cumsum(Hb, axis=2, out=ch)
            g_left = cg[:, :, :-1]
            h_left = ch[:, :, :-1]
            t1 = s["t1"][:m]
            t2 = s["t2"][:m]
            t3 = s["t3"][:m]
            h_right = s["r2"][:m]
            np.subtract(hs[:, None, None], h_left, out=h_right)
            parent_score = (gs * gs / (hs + lam))[:, None, None]
            # gain = gl²/(hl+λ) + gr²/(hr+λ) − parent, built in place.
            with np.errstate(divide="ignore", invalid="ignore"):
                np.multiply(g_left, g_left, out=t1)
                np.add(h_left, lam, out=t2)
                t1 /= t2
                np.subtract(gs[:, None, None], g_left, out=t3)  # g_right
                t3 *= t3
                np.add(h_right, lam, out=t2)
                t3 /= t2
                t1 += t3
                t1 -= parent_score
            vb = s["vb"][:m]
            vb2 = s["vb2"][:m]
            np.greater_equal(h_left, mcw, out=vb)
            np.greater_equal(h_right, mcw, out=vb2)
            np.logical_and(vb, vb2, out=vb)
            np.logical_and(vb, pos_valid[None], out=vb)
            np.logical_not(vb, out=vb2)
            np.copyto(t1, -np.inf, where=vb2)
            return t1, g_left, h_left, h_right

        def ambiguous(i) -> bool:
            """Could float noise flip node i's split decision?"""
            hl, hr = h_left[i], h_right[i]
            if (np.abs(hl - mcw) <= tol).any() or (np.abs(hr - mcw) <= tol).any():
                return True  # a child weight sits on the validity edge
            bg = best_gain[i]
            if not np.isfinite(bg):
                return False  # every split invalid, by a clear margin
            if abs(bg - cfg.gamma) <= tol:
                return True  # leaf-vs-split decision is a coin toss
            near = gain[i] >= bg - tol * (1.0 + abs(bg))
            if np.count_nonzero(near) == 1:
                return False
            # Tied candidates with identical histogram values carry
            # identical noise — first-occurrence argmax resolves them
            # the same way the reference does.  Unequal values mean the
            # noise decides the winner: rescan.
            f, b = divmod(int(best[i]), nb - 1)
            return not (
                (g_left[i][near] == g_left[i][f, b]).all()
                and (h_left[i][near] == h_left[i][f, b]).all()
            )

        G, H = scan([rows0])
        # One frontier entry per still-growing node: [node, rows, g_sum,
        # h_sum, exact]; G[i]/H[i] are entry i's histograms, and exact
        # records whether they were scanned (vs derived by subtraction).
        frontier: list[list] = [[root, rows0, g0, h0, True]]
        depth = 0
        while frontier:
            m = len(frontier)
            g_sums = np.array([e[2] for e in frontier])
            h_sums = np.array([e[3] for e in frontier])
            gain, g_left, h_left, h_right = split_scores(G, H, g_sums, h_sums)
            flat = gain.reshape(m, -1)
            best = np.argmax(flat, axis=1)
            best_gain = flat[np.arange(m), best]

            redo = [i for i in range(m) if not frontier[i][4] and ambiguous(i)]
            if redo:
                Rg, Rh = scan([frontier[i][1] for i in redo])
                for slot, i in enumerate(redo):
                    G[i], H[i] = Rg[slot], Rh[slot]
                    frontier[i][4] = True
                sub = np.array(redo)
                gain_r, gl_r, hl_r, hr_r = split_scores(
                    Rg, Rh, g_sums[sub], h_sums[sub]
                )
                flat_r = gain_r.reshape(len(sub), -1)
                best_r = np.argmax(flat_r, axis=1)
                best[sub] = best_r
                best_gain[sub] = flat_r[np.arange(len(sub)), best_r]

            child_depth = depth + 1
            next_frontier: list[list] = []
            scan_rows: list[np.ndarray] = []
            # (next_frontier index, 'scan' slot) or
            # (next_frontier index, parent frontier index, sibling slot)
            fills: list[tuple] = []
            for i, (node, rows, g_sum, h_sum, _exact) in enumerate(frontier):
                if not best_gain[i] > cfg.gamma:
                    node.value = -lr * g_sum / (h_sum + lam)
                    continue
                f, b = divmod(int(best[i]), nb - 1)
                go_left = bins[rows, f] <= b
                left_rows = rows[go_left]
                right_rows = rows[~go_left]
                if len(left_rows) == 0 or len(right_rows) == 0:
                    node.value = -lr * g_sum / (h_sum + lam)
                    continue
                node.feature = f
                node.threshold = float(edges[f][b])
                node.left = _Node()
                node.right = _Node()

                live = []
                for child, child_rows in (
                    (node.left, left_rows),
                    (node.right, right_rows),
                ):
                    cg = grad[child_rows].sum()
                    ch = hess[child_rows].sum()
                    if child_depth >= cfg.max_depth or len(child_rows) < 2:
                        child.value = -lr * cg / (ch + lam)
                    else:
                        live.append([child, child_rows, cg, ch, True])
                if len(live) == 2:
                    # Histogram subtraction: scan the smaller child, the
                    # sibling's histogram is parent minus child.
                    small, big = (
                        (live[0], live[1])
                        if len(live[0][1]) <= len(live[1][1])
                        else (live[1], live[0])
                    )
                    slot = len(scan_rows)
                    scan_rows.append(small[1])
                    fills.append((len(next_frontier), slot))
                    next_frontier.append(small)
                    fills.append((len(next_frontier), i, slot))
                    next_frontier.append(big)
                elif live:
                    slot = len(scan_rows)
                    scan_rows.append(live[0][1])
                    fills.append((len(next_frontier), slot))
                    next_frontier.append(live[0])

            if not next_frontier:
                break
            Sg, Sh = scan(scan_rows)
            G2 = np.empty((len(next_frontier), d, nb))
            H2 = np.empty_like(G2)
            for fill in fills:
                if len(fill) == 2:
                    j, slot = fill
                    G2[j] = Sg[slot]
                    H2[j] = Sh[slot]
                else:
                    j, parent_i, slot = fill
                    np.subtract(G[parent_i], Sg[slot], out=G2[j])
                    np.subtract(H[parent_i], Sh[slot], out=H2[j])
                    next_frontier[j][4] = False
            frontier, G, H, depth = next_frontier, G2, H2, child_depth
        return root

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------

    def _predict_tree(self, tree: _Node, X: np.ndarray) -> np.ndarray:
        out = np.empty(len(X))

        def walk(node: _Node, rows: np.ndarray) -> None:
            if node.is_leaf:
                out[rows] = node.value
                return
            go_left = X[rows, node.feature] <= node.threshold
            walk(node.left, rows[go_left])
            walk(node.right, rows[~go_left])

        walk(tree, np.arange(len(X)))
        return out

    def predict_margin(self, X: np.ndarray) -> np.ndarray:
        """Accumulated score (the paper's s_V - s_NV margin).

        Runs on the compiled arrays: every row steps ``max_depth``
        levels down every tree, to the child picked by ``~(x <=
        threshold)`` (so NaN goes right, as in the recursive walk);
        a row at a leaf loops on it.  Leaf values are summed into each
        row's margin tree by tree in tree order, which keeps it
        bit-identical to summing recursive walks.  The descent runs in
        the compiled kernel (:mod:`repro.sim._ckernel`), or on numpy
        when none loads.  ``X`` needs a column for every feature the
        trees split on.
        """
        X = np.atleast_2d(np.ascontiguousarray(X, dtype=np.float64))
        n, d = X.shape
        margin = np.full(n, self.base_margin)
        compiled = self._compiled
        if compiled is None:
            return margin
        if compiled.max_depth and d <= compiled.feature.max():
            raise ValueError(
                f"X has {d} feature columns; the trees split on column "
                f"{compiled.feature.max()}"
            )
        kernel = _ckernel.load_kernel()
        if kernel is None:
            _descend_numpy(compiled, X, margin)
        else:
            ffi, lib = kernel

            def buf(ctype: str, a: np.ndarray):
                return ffi.from_buffer(f"{ctype}[]", a)

            lib.sinan_tree_margin(
                len(compiled.roots), compiled.max_depth,
                buf("intptr_t", compiled.roots),
                buf("intptr_t", compiled.feature),
                buf("double", compiled.threshold),
                buf("intptr_t", compiled.children),
                buf("double", compiled.value),
                n, d, buf("double", X), buf("double", margin),
            )
        return margin

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Probability of a QoS violation within the horizon, p_V."""
        return _sigmoid(self.predict_margin(X))

    def predict(self, X: np.ndarray, threshold: float = 0.5) -> np.ndarray:
        return (self.predict_proba(X) >= threshold).astype(float)

    @property
    def n_trees_used(self) -> int:
        """Number of trees kept after early stopping (Table 3 column)."""
        return 0 if self._compiled is None else len(self._compiled.roots)


def _descend_numpy(
    compiled: _CompiledEnsemble, X: np.ndarray, margin: np.ndarray
) -> None:
    """:meth:`BoostedTrees.predict_margin` without the kernel: one lane
    per (tree, row) moves a level down per step, each a handful of flat
    gathers (the row's feature value out of ``X.ravel()``, the node's
    threshold, the child); then leaf values are added tree by tree."""
    n, d = X.shape
    flat_x = X.ravel()
    row_base = np.arange(n) * d  # flat offset of each row
    children = compiled.children.ravel()
    node = np.repeat(compiled.roots[:, None], n, axis=1)  # (trees, rows)
    for _ in range(compiled.max_depth):
        x = flat_x.take(compiled.feature.take(node) + row_base)
        right = ~(x <= compiled.threshold.take(node))
        node = children.take(2 * node + right)
    for leaf in compiled.value.take(node):  # tree order
        margin += leaf


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


def _logit(p: float) -> float:
    return float(np.log(p / (1.0 - p)))


def _logloss(margin: np.ndarray, y: np.ndarray) -> float:
    z = np.clip(margin, -60.0, 60.0)
    return float(np.mean(np.maximum(z, 0) - z * y + np.log1p(np.exp(-np.abs(z)))))


__all__ = ["BoostedTrees", "BoostedTreesConfig"]
