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

The fitted ensemble is *compiled*: feature / threshold / children /
leaf-value arrays (:class:`_CompiledEnsemble`), trees in pre-order, are
the only form it keeps.  ``predict_margin``, which sits inside every
scheduler decision, walks those arrays in the compiled kernel of
:mod:`repro.sim._ckernel`: per tree, rows step a level down at a time,
16 side by side.  Leaves point at themselves, so a row that reaches one
early stays put.  Without the kernel the same descent runs on numpy,
every (tree, row) lane a level down per step with flat ``np.take``
gathers.  Both perform the same comparisons as a recursive walk and add
leaf values tree by tree in the same order, so margins are
bit-identical to walking the trees (the oracle in
``tests/oracles/decision.py`` rebuilds them from the arrays).

Training grows each tree from exact per-node gradient/hessian
histograms over binned features.  The kernel's ``sinan_grow_tree``
grows a tree depth first in one call and writes it straight into the
arrays.  Without the kernel, :meth:`BoostedTrees._build_tree` grows it
recursively as ``_Node`` objects, re-scanning every (node, feature)
pair, and :func:`_compile_trees` flattens them.  That recursive grower
is the kernel's pin: the kernel repeats it operation for operation
(histogram cells add their rows in row order, prefix sums run left to
right, gains use the same expression, the split is the first strict
maximum in (feature, bin) order, and node sums — hence every leaf
weight — are ``grad[rows].sum()`` in numpy's pairwise order), so both
grow the same trees bit for bit.  No histogram is derived by
subtracting a sibling's from its parent's: the difference is off by
rounding, and rounding decides near-ties between structurally
different splits.

A training row is routed by its bin (``bins[r, f] <= b``, that is ``x <
edges[f][b]``) while ``predict_margin`` routes by ``x <= threshold``; a
row whose value equals a threshold is fit into the right leaf and
predicted from the left one.  Changing either rule changes model bits,
so both stay until a model-quality gate can judge the change.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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

    @cached_property
    def n_columns(self) -> int:
        """Feature columns a row needs: one past the last split column
        (none when every tree is a single leaf)."""
        return int(self.feature.max()) + 1 if self.max_depth else 0

    def kernel_args(self, ffi) -> tuple:
        """The ensemble's leading ``sinan_tree_margin`` arguments, with
        ``ffi`` buffers over the arrays, made once per ``ffi``."""
        cached = self.__dict__.get("_kernel_args")
        if cached is None or cached[0] is not ffi:
            args = (
                len(self.roots), self.max_depth,
                *(ffi.from_buffer(f"{ctype}[]", a) for ctype, a in (
                    ("intptr_t", self.roots), ("intptr_t", self.feature),
                    ("double", self.threshold), ("intptr_t", self.children),
                    ("double", self.value),
                )),
            )
            cached = self.__dict__["_kernel_args"] = (ffi, args)
        return cached[1]

    def __getstate__(self) -> dict:
        # What predict_margin derives from the arrays on first use is
        # never pickled or copied: a stored ensemble is its arrays.
        state = dict(self.__dict__)
        state.pop("_kernel_args", None)
        state.pop("n_columns", None)
        return state


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

        Each tree grows in one call of the compiled kernel's
        ``sinan_grow_tree`` (:mod:`repro.sim._ckernel`), straight into
        the flat arrays the fitted ensemble keeps; without the kernel,
        :meth:`_build_tree` grows ``_Node`` trees local to this call and
        :func:`_compile_trees` flattens them.  Both give the same bits.
        Gradients, hessians, the sigmoid, the validation log-loss and
        early stopping stay in numpy.

        Raises
        ------
        ValueError
            Before any work, when only one of ``X_val`` and ``y_val`` is
            given, ``X`` is not ``(B, D)`` aligned with ``y``, ``y`` or
            ``y_val`` holds a label that is not a finite value in [0,
            1], or ``X_val`` is not ``(B_val, D)`` aligned with
            ``y_val``.
        """
        validate = X_val is not None
        if validate != (y_val is not None):
            raise ValueError(
                "X_val must be given with y_val, or neither; got only "
                + ("X_val" if validate else "y_val")
            )
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        if X.ndim != 2 or len(X) != len(y):
            raise ValueError("X must be (B, D) aligned with y")
        _check_labels("y", y)
        if validate:
            y_val = np.asarray(y_val, dtype=float).ravel()
            _check_labels("y_val", y_val)
            X_val = np.asarray(X_val, dtype=float)
            if X_val.shape != (len(y_val), X.shape[1]):
                raise ValueError(
                    "X_val must be (B_val, D) aligned with y_val, with the "
                    f"{X.shape[1]} columns of X; got shape {X_val.shape}"
                )
        if len(np.unique(y)) < 2:
            # Degenerate training set: constant prediction.
            self.base_margin = _logit(np.clip(y.mean(), 1e-6, 1 - 1e-6))
            self._compiled = None
            self.train_accuracy = accuracy(self.predict(X), y)
            self.val_accuracy = (
                accuracy(self.predict(X_val), y_val) if validate
                else float("nan")
            )
            return self

        cfg = self.config
        self._compiled = None
        self._bin_edges = self._make_bins(X)
        bins = self._binize(X)

        pos = np.clip(y.mean(), 1e-6, 1 - 1e-6)
        self.base_margin = _logit(pos)
        margin = np.full(len(y), self.base_margin)
        val_margin = np.full(len(y_val), self.base_margin) if validate else None
        grower = self._grower(bins, X, margin, X_val, val_margin)

        best_val = float("inf")
        best_n = 0
        stale = 0
        for n_grown in range(1, cfg.n_trees + 1):
            prob = _sigmoid(margin)
            grad = prob - y
            hess = np.maximum(prob * (1.0 - prob), 1e-12)
            grower.add_tree(grad, hess)

            if val_margin is not None:
                val_loss = _logloss(val_margin, y_val)
                if val_loss < best_val - 1e-7:
                    best_val = val_loss
                    best_n = n_grown
                    stale = 0
                else:
                    stale += 1
                    if stale >= cfg.early_stopping_rounds:
                        break

        # Early stopping keeps the trees up to the best validation loss.
        self._compiled = grower.compile(best_n or None)
        # The bin edges are fit-time only: the model keeps the arrays.
        del self._bin_edges
        self.train_accuracy = accuracy(self.predict(X), y)
        self.val_accuracy = (
            accuracy(self.predict(X_val), y_val) if validate else float("nan")
        )
        return self

    def _grower(
        self,
        bins: np.ndarray,
        X: np.ndarray,
        margin: np.ndarray,
        X_val: np.ndarray | None,
        val_margin: np.ndarray | None,
    ) -> "_KernelGrower | _NodeGrower":
        """The compiled grower when the kernel loads, else the recursive
        one."""
        kernel = _ckernel.load_kernel()
        if kernel is None:
            return _NodeGrower(self, bins, X, margin, X_val, val_margin)
        return _KernelGrower(
            kernel, self.config, bins, self._bin_edges,
            X, margin, X_val, val_margin,
        )

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

    def _build_tree(
        self, bins: np.ndarray, grad: np.ndarray, hess: np.ndarray
    ) -> _Node:
        """One tree, grown depth first by recursion (the route when no
        kernel loads, and the kernel's pin): every node re-scans each
        feature's exact gradient/hessian histograms over its rows.

        Empty bins under ``reg_lambda == 0`` score 0/0; those positions
        are invalid and masked to ``-inf``, so the gains are computed
        with the division's warnings off.
        """
        cfg = self.config
        root_rows = np.arange(len(grad))

        def grow(rows: np.ndarray, depth: int) -> _Node:
            g_sum = grad[rows].sum()
            h_sum = hess[rows].sum()
            leaf_value = -cfg.learning_rate * g_sum / (h_sum + cfg.reg_lambda)
            if depth >= cfg.max_depth or len(rows) < 2:
                return _Node(value=leaf_value)
            best_gain = cfg.gamma
            best = None
            parent_score = g_sum * g_sum / (h_sum + cfg.reg_lambda)
            sub_bins = bins[rows]
            sub_g = grad[rows]
            sub_h = hess[rows]
            for f in range(bins.shape[1]):
                n_bins = len(self._bin_edges[f]) + 1
                if n_bins < 2:
                    continue
                fb = sub_bins[:, f]
                g_hist = np.bincount(fb, weights=sub_g, minlength=n_bins)
                h_hist = np.bincount(fb, weights=sub_h, minlength=n_bins)
                g_left = np.cumsum(g_hist)[:-1]
                h_left = np.cumsum(h_hist)[:-1]
                g_right = g_sum - g_left
                h_right = h_sum - h_left
                valid = (h_left >= cfg.min_child_weight) & (
                    h_right >= cfg.min_child_weight
                )
                if not valid.any():
                    continue
                with np.errstate(divide="ignore", invalid="ignore"):
                    gain = (
                        g_left * g_left / (h_left + cfg.reg_lambda)
                        + g_right * g_right / (h_right + cfg.reg_lambda)
                        - parent_score
                    )
                gain = np.where(valid, gain, -np.inf)
                b = int(np.argmax(gain))
                if gain[b] > best_gain:
                    best_gain = float(gain[b])
                    best = (f, b)
            if best is None:
                return _Node(value=leaf_value)
            f, b = best
            threshold = self._bin_edges[f][b]
            go_left = sub_bins[:, f] <= b
            left_rows = rows[go_left]
            right_rows = rows[~go_left]
            if len(left_rows) == 0 or len(right_rows) == 0:
                return _Node(value=leaf_value)
            node = _Node(feature=f, threshold=float(threshold))
            node.left = grow(left_rows, depth + 1)
            node.right = grow(right_rows, depth + 1)
            return node

        return grow(root_rows, 0)

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
        if d < compiled.n_columns:
            raise ValueError(
                f"X has {d} feature columns; the trees split on column "
                f"{compiled.n_columns - 1}"
            )
        kernel = _ckernel.load_kernel()
        if kernel is None:
            _descend_numpy(compiled, X, margin)
        else:
            ffi, lib = kernel
            lib.sinan_tree_margin(
                *compiled.kernel_args(ffi), n, d,
                ffi.from_buffer("double[]", X),
                ffi.from_buffer("double[]", margin),
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


class _NodeGrower:
    """The route of :meth:`BoostedTrees.fit` without the kernel:
    ``_Node`` trees from the model's :meth:`~BoostedTrees._build_tree`,
    walked by :meth:`~BoostedTrees._predict_tree` for the margins, and
    flattened by :func:`_compile_trees` at the end."""

    def __init__(self, model, bins, X, margin, X_val, val_margin) -> None:
        self.model, self.bins = model, bins
        self.X, self.margin = X, margin
        self.X_val, self.val_margin = X_val, val_margin
        self.trees: list[_Node] = []

    def add_tree(self, grad: np.ndarray, hess: np.ndarray) -> None:
        """Grow one tree and add its leaf values to the margins."""
        tree = self.model._build_tree(self.bins, grad, hess)
        self.trees.append(tree)
        self.margin += self.model._predict_tree(tree, self.X)
        if self.val_margin is not None:
            self.val_margin += self.model._predict_tree(tree, self.X_val)

    def compile(self, n_trees: int | None) -> _CompiledEnsemble | None:
        """The first ``n_trees`` trees (all for ``None``) as arrays."""
        return _compile_trees(self.trees[:n_trees])


class _KernelGrower:
    """The compiled route of :meth:`BoostedTrees.fit`: one
    ``sinan_grow_tree`` call per tree writes it, in
    :func:`_compile_trees`' pre-order layout, into node buffers sized
    for the largest tree the config and the row count allow; one
    ``sinan_tree_margin`` call per margin adds it, routing rows by the
    ``x <= threshold`` rule of the :meth:`~BoostedTrees._predict_tree`
    walk.  Each tree's arrays are copied out, and :meth:`compile`
    concatenates them with node offsets."""

    def __init__(
        self, kernel, config, bins, edges, X, margin, X_val, val_margin
    ) -> None:
        ffi, lib = kernel
        self._ffi, self._lib = ffi, lib
        n, d = bins.shape
        n_bins = np.array([len(e) + 1 for e in edges], dtype=np.int32)
        nb = int(n_bins.max()) if d else 1
        # Row f holds feature f's edges: split (f, b) sits at edges[f][b].
        table = np.zeros((d, max(nb - 1, 1)))
        for f, cuts in enumerate(edges):
            table[f, : len(cuts)] = cuts
        # Deeper than n levels no node keeps two rows.
        depth = max(0, min(config.max_depth, n))
        cap = max(1, min((1 << (depth + 1)) - 1, 2 * n - 1))
        self.feature = np.empty(cap, dtype=np.intp)
        self.threshold = np.empty(cap)
        self.children = np.empty(2 * cap, dtype=np.intp)
        self.value = np.empty(cap)
        self.depth = np.zeros(1, dtype=np.intp)
        buf = self._buf  # each cffi buffer keeps its array alive
        nodes = (
            buf("intptr_t", self.feature), buf("double", self.threshold),
            buf("intptr_t", self.children), buf("double", self.value),
        )
        self._head = (
            n, d, buf("int32_t", bins), buf("int32_t", n_bins), nb,
            buf("double", table),
        )
        self._tail = (
            depth, config.learning_rate, config.reg_lambda, config.gamma,
            config.min_child_weight,
            buf("intptr_t", np.empty(2 * n, dtype=np.intp)),
            buf("double", np.empty(max(n, 1))),
            buf("double", np.empty(max(2 * d * nb, 1))),
            buf("intptr_t", np.empty(4 * cap, dtype=np.intp)),
            *nodes, buf("intptr_t", self.depth),
        )
        # The grown tree as a one-tree ensemble rooted at node 0.
        self._tree = (buf("intptr_t", np.zeros(1, dtype=np.intp)), *nodes)
        self._margins = []
        for x, m in ((X, margin), (X_val, val_margin)):
            if m is not None:
                x = np.ascontiguousarray(x)
                self._margins.append(
                    (len(x), d, buf("double", x), buf("double", m))
                )
        self.trees: list[tuple] = []

    def _buf(self, ctype: str, a: np.ndarray):
        return self._ffi.from_buffer(f"{ctype}[]", a)

    def grow(self, grad: np.ndarray, hess: np.ndarray) -> int:
        """Grow one tree into the node buffers; returns its node count."""
        return self._lib.sinan_grow_tree(
            *self._head, self._buf("double", grad), self._buf("double", hess),
            *self._tail,
        )

    def add_tree(self, grad: np.ndarray, hess: np.ndarray) -> None:
        """Grow one tree and add its leaf values to the margins."""
        k = self.grow(grad, hess)
        depth = int(self.depth[0])
        for args in self._margins:
            self._lib.sinan_tree_margin(1, depth, *self._tree, *args)
        self.trees.append((
            depth, self.feature[:k].copy(), self.threshold[:k].copy(),
            self.children[: 2 * k].copy(), self.value[:k].copy(),
        ))

    def compile(self, n_trees: int | None) -> _CompiledEnsemble | None:
        """The first ``n_trees`` trees (all for ``None``) as one
        :class:`_CompiledEnsemble`."""
        trees = self.trees[:n_trees]
        if not trees:
            return None
        sizes = [len(tree[1]) for tree in trees]
        roots = np.zeros(len(trees), dtype=np.intp)
        np.cumsum(sizes[:-1], out=roots[1:])
        return _CompiledEnsemble(
            feature=np.concatenate([tree[1] for tree in trees]),
            threshold=np.concatenate([tree[2] for tree in trees]),
            children=np.concatenate(
                [tree[3] + root for tree, root in zip(trees, roots)]
            ).reshape(-1, 2),
            value=np.concatenate([tree[4] for tree in trees]),
            roots=roots,
            max_depth=max(tree[0] for tree in trees),
        )


def _check_labels(name: str, y: np.ndarray) -> None:
    """Refuse labels that are not finite values in [0, 1]."""
    if not ((y >= 0.0) & (y <= 1.0)).all():  # NaN fails both
        raise ValueError(f"{name} must hold finite labels in [0, 1]")


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
    """``1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))``, each step
    written over the clipped copy: the same ufuncs on the same operands,
    so the same bits, in one new array."""
    out = np.clip(x, -60.0, 60.0)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.add(1.0, out, out=out)
    return np.divide(1.0, out, out=out)


def _logit(p: float) -> float:
    return float(np.log(p / (1.0 - p)))


def _logloss(margin: np.ndarray, y: np.ndarray) -> float:
    z = np.clip(margin, -60.0, 60.0)
    return float(np.mean(np.maximum(z, 0) - z * y + np.log1p(np.exp(-np.abs(z)))))


__all__ = ["BoostedTrees", "BoostedTreesConfig"]
