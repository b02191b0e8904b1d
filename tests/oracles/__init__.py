"""Frozen reference implementations (oracles) for the equivalence suites.

Every hot layer of :mod:`repro` ships one production path.  The
pre-optimization implementation each path replaced lives here, copied
unchanged except that ``self`` access became an explicit argument or a
test-side subclass.  The equivalence suites compare the production path
against these, bitwise (or split-for-split, or to 1e-10 for gradients).
Nothing under ``src/`` imports this package.

The simulator, the tree grower, the candidate generator and the conv
folds keep no oracle here: each runs one Python reference in ``src/``
when the compiled kernel does not load, and the kernel is pinned to
it.  They are the fluid engine's per-tick loop
(reached through ``tests.conftest.PerTickEngine``), the trees'
recursive grower (``BoostedTrees._build_tree``), the ``Action``-list
candidate generator (``ActionSpace._generate_actions``) and the conv's
padded folds (``Conv2D._im2col_padded`` and ``_col2im_padded``); the
classes here that reach them only route a model onto them.

* :mod:`tests.oracles.decision` — candidate encoding with materialized
  history copies, the recursive tree walk, and the scoring path built
  on them.
* :mod:`tests.oracles.training` — the trees on the recursive grower,
  the Conv2D on the padded folds with its own GEMMs and every input
  gradient computed (bit-exact), and the einsum / per-step Conv2D and
  LSTMCell training paths.
* :mod:`tests.oracles.control` — the ``Action``-list candidates and the
  list-based selection.
* :mod:`tests.oracles.collection` — the bandit explorer that scores
  its arms one at a time.

The ``use_*`` helpers switch a live production object to its oracle in
place (those oracle classes are subclasses that add no state), so whole
closed loops can run on any mix of layers.
"""
