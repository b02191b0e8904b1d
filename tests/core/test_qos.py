"""QoS target and violation-label tests."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.qos import QoSTarget
from tests.sim.test_telemetry import make_stats


class TestQoSTarget:
    def test_validation(self):
        with pytest.raises(ValueError):
            QoSTarget(latency_ms=0.0)
        with pytest.raises(ValueError):
            QoSTarget(latency_ms=100.0, percentile=42)

    def test_latency_of_uses_percentile(self):
        qos99 = QoSTarget(latency_ms=100.0, percentile=99)
        qos95 = QoSTarget(latency_ms=100.0, percentile=95)
        stats = make_stats(p99=200.0)
        assert qos99.latency_of(stats) == pytest.approx(200.0)
        assert qos95.latency_of(stats) == pytest.approx(160.0)

    def test_violated(self):
        qos = QoSTarget(latency_ms=150.0)
        assert qos.violated(make_stats(p99=200.0))
        assert not qos.violated(make_stats(p99=100.0))


class TestViolationLabels:
    def test_horizon_lookahead(self):
        qos = QoSTarget(latency_ms=100.0)
        series = np.array([50, 50, 150, 50, 50, 50.0])
        labels = qos.violation_labels(series, horizon=2)
        # label[i] == 1 iff a violation occurs in [i, i+1]
        np.testing.assert_allclose(labels, [0, 1, 1, 0, 0, 0])

    def test_horizon_one_is_pointwise(self):
        qos = QoSTarget(latency_ms=100.0)
        series = np.array([50, 150, 50.0])
        np.testing.assert_allclose(qos.violation_labels(series, 1), [0, 1, 0])

    def test_tail_uses_remaining_intervals(self):
        qos = QoSTarget(latency_ms=100.0)
        series = np.array([50.0, 50.0, 150.0])
        labels = qos.violation_labels(series, horizon=5)
        np.testing.assert_allclose(labels, [1, 1, 1])

    def test_returns_integer_array(self):
        qos = QoSTarget(latency_ms=100.0)
        labels = qos.violation_labels(np.array([50.0, 150.0]), horizon=2)
        assert labels.dtype == np.int64

    def test_empty_series(self):
        qos = QoSTarget(latency_ms=100.0)
        labels = qos.violation_labels(np.array([]), horizon=3)
        assert labels.shape == (0,)
        assert labels.dtype == np.int64

    def test_matches_reference_loop(self):
        """The vectorized sliding-window max agrees with the naive loop
        on a long random series."""
        qos = QoSTarget(latency_ms=250.0)
        rng = np.random.default_rng(0)
        series = rng.uniform(0.0, 500.0, size=500)
        for horizon in (1, 3, 5, 17):
            labels = qos.violation_labels(series, horizon)
            reference = np.array([
                int(np.any(series[i:i + horizon] > 250.0))
                for i in range(len(series))
            ])
            np.testing.assert_array_equal(labels, reference)

    def test_unknown_latency_counts_as_violation(self):
        """A lost (NaN) reading is not QoS met: ``NaN > target`` is
        false, so a plain comparison would label it safe."""
        qos = QoSTarget(latency_ms=100.0)
        series = np.array([50.0, np.nan, 50.0])
        np.testing.assert_array_equal(qos.violation_labels(series, 1), [0, 1, 0])
        np.testing.assert_array_equal(qos.violation_labels(series, 2), [1, 1, 0])

    def test_invalid_horizon(self):
        with pytest.raises(ValueError):
            QoSTarget(latency_ms=100.0).violation_labels(np.zeros(3), 0)

    @given(
        st.lists(st.floats(min_value=0, max_value=500), min_size=1, max_size=30),
        st.integers(min_value=1, max_value=8),
    )
    def test_property_label_iff_future_violation(self, series, horizon):
        qos = QoSTarget(latency_ms=250.0)
        series = np.array(series)
        labels = qos.violation_labels(series, horizon)
        for i in range(len(series)):
            window = series[i : i + horizon]
            assert labels[i] == float(np.any(window > 250.0))
