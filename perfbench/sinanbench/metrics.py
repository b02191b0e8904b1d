"""How a run's shard processes become its end-to-end metrics.

Metric names, units and directions live in ``BENCHMARK.json`` alone;
this module only computes values.
"""

from __future__ import annotations

import statistics

from sinanbench.host import CALIBRATION_REF_S


def host_factor(shard: dict) -> float:
    """Reference host speed over the speed measured around the shard's
    unit: multiplying a host time by it gives reference-host seconds."""
    return CALIBRATION_REF_S / statistics.mean(shard["calibration_s"])


def combine_shards(shards: list[dict]) -> dict[str, float]:
    """End-to-end metrics of a run from its shard processes.

    Host times (set-up, the unit's wall time, its decisions' median
    latency) are scaled to the reference host speed shard by shard (the
    host's speed drifts by up to half in spells of seconds to minutes;
    see NOTES.md), then the run reports the median over shards.  The
    outcomes and the peak RSS are medians over shards too.
    """
    outcome = {key: statistics.median(shard["outcome"][key] for shard in shards)
               for key in shards[0]["outcome"]}
    return {
        "setup_s": statistics.median(shard["setup_s"] * host_factor(shard)
                                     for shard in shards),
        "wall_s": statistics.median(shard["walls"][0] * host_factor(shard)
                                    for shard in shards),
        "decide_ms_p50": statistics.median(shard["decide_ms"]["p50"] * host_factor(shard)
                                           for shard in shards),
        **outcome,
        "peak_rss_mb": statistics.median(shard["peak_rss_mb"] for shard in shards),
    }


__all__ = ["combine_shards", "host_factor"]
