"""Frozen reference implementations (oracles) for the equivalence suites.

Every hot layer of :mod:`repro` ships one production path.  The
pre-optimization implementation each path replaced lives here, copied
unchanged except that ``self`` access became an explicit argument or a
test-side subclass.  The equivalence suites compare the production path
against these, bitwise (or split-for-split, or to 1e-10 for gradients).
Nothing under ``src/`` imports this package.

* :mod:`tests.oracles.engine` — the fluid engine's per-tick loop.
* :mod:`tests.oracles.event_engine` — the event engine's object loop.
* :mod:`tests.oracles.decision` — candidate encoding with materialized
  history copies, the recursive tree walk, and the scoring path built
  on them.
* :mod:`tests.oracles.training` — the recursive tree grower and the
  einsum / per-step Conv2D and LSTMCell training paths.
* :mod:`tests.oracles.control` — the ``Action``-list candidate
  generator and the list-based selection.
* :mod:`tests.oracles.collection` — the bandit explorer that scores
  its arms one at a time.

The ``use_*`` helpers switch a live production object to its oracle in
place (those oracle classes are subclasses that add no state), so whole
closed loops can run on any mix of layers.
"""
