"""QoS targets and violation labelling.

The paper defines QoS on the end-to-end 99th-percentile latency per 1 s
interval: 200 ms for Hotel Reservation, 500 ms for Social Network
(Section 5.1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.telemetry import LATENCY_PERCENTILES, IntervalStats


@dataclass(frozen=True)
class QoSTarget:
    """Tail-latency service-level objective."""

    latency_ms: float
    percentile: int = 99

    def __post_init__(self) -> None:
        if self.latency_ms <= 0:
            raise ValueError("latency_ms must be positive")
        if self.percentile not in LATENCY_PERCENTILES:
            raise ValueError(
                f"percentile must be one of {LATENCY_PERCENTILES}"
            )

    @property
    def percentile_index(self) -> int:
        return LATENCY_PERCENTILES.index(self.percentile)

    def latency_of(self, stats: IntervalStats) -> float:
        """The interval's latency at the QoS percentile (ms)."""
        return float(stats.latency_ms[self.percentile_index])

    def violated(self, stats: IntervalStats) -> bool:
        return self.latency_of(stats) > self.latency_ms

    def violation_labels(self, latency_series: np.ndarray, horizon: int) -> np.ndarray:
        """Label each interval: does a violation occur within ``horizon``?

        ``labels[i] = 1`` iff any of ``latency_series[i .. i+horizon-1]``
        exceeds the target — the Boosted-Trees training label of the
        paper ("anticipating a QoS violation over the next 5 intervals").
        The tail, where the full horizon is unavailable, is labelled from
        the remaining intervals.  An unknown latency (NaN: a reading a
        faulty agent lost) counts as a violation, not as QoS met: the
        label must not claim safety that nothing measured, and the
        scheduler treats an unknown reading as unsafe too.
        """
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        series = np.asarray(latency_series, dtype=float)
        if series.size == 0:
            return np.zeros(0, dtype=np.int64)
        violated = ~(series <= self.latency_ms)
        # Sliding-window maximum: right-pad with False so the tail windows
        # shrink to the remaining intervals, then OR over each window.
        padded = np.concatenate([violated, np.zeros(horizon - 1, dtype=bool)])
        windows = np.lib.stride_tricks.sliding_window_view(padded, horizon)
        return windows.any(axis=1).astype(np.int64)


__all__ = ["QoSTarget"]
