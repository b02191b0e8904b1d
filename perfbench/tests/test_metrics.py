"""How shard results combine into a run's end-to-end metrics."""

from sinanbench.host import CALIBRATION_REF_S
from sinanbench.metrics import combine_shards


def shard(wall, p50, speed, setup_s, qos):
    return {"walls": [wall], "decide_ms": {"p50": p50, "p90": 2 * p50},
            "calibration_s": [speed * CALIBRATION_REF_S, speed * CALIBRATION_REF_S],
            "setup_s": setup_s, "peak_rss_mb": 100.0,
            "outcome": {"qos_attainment": qos}}


def test_host_times_are_scaled_to_the_reference_speed():
    # The same work on a host running at the reference speed, and twice
    # as slow: both read as reference-host seconds.
    shards = [shard(3.0, 5.0, 1.0, 1.0, 0.9),
              shard(6.0, 10.0, 2.0, 3.0, 0.7),
              shard(3.3, 4.0, 1.0, 2.0, 0.8)]
    metrics = combine_shards(shards)
    assert metrics["wall_s"] == 3.0
    assert metrics["decide_ms_p50"] == 5.0
    assert metrics["setup_s"] == 1.5
    assert metrics["qos_attainment"] == 0.8
    assert metrics["peak_rss_mb"] == 100.0
