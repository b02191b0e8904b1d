"""Utilization-based step autoscaling (paper Section 5.3).

The industry-standard empirical baseline, configured per the AWS step
scaling tutorial the paper cites:

* **AutoScaleOpt** increases a tier's CPU by 10% when its utilization is
  in [60%, 70%) and by 30% in [70%, 100%], and reduces it by 10% in
  [30%, 40%) and by 30% in [0%, 30%).  Resource-efficient, but reactive:
  at high load the delayed queueing effect turns every late reaction
  into a tail-latency spike.
* **AutoScaleCons** is the conservative variant tuned for the studied
  applications: up 10% in [30%, 50%), up 30% in [50%, 100%], down 10%
  only below 10% utilization.  It always meets QoS — at the price of
  heavy overprovisioning (the paper's main efficiency comparison point
  for Sinan).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.manager import Manager
from repro.sim.telemetry import TelemetryLog


@dataclass(frozen=True)
class StepRule:
    """One utilization band -> multiplicative allocation step."""

    low: float
    high: float
    factor: float

    def applies(self, util: np.ndarray) -> np.ndarray:
        return (util >= self.low) & (util < self.high)


#: Paper/AWS configuration: aggressive reclamation, reactive growth.
AUTOSCALE_OPT_RULES: tuple[StepRule, ...] = (
    StepRule(0.70, 1.01, 1.30),
    StepRule(0.60, 0.70, 1.10),
    StepRule(0.30, 0.40, 0.90),
    StepRule(0.00, 0.30, 0.70),
)

#: Conservative configuration tuned for QoS (paper Section 5.3).
AUTOSCALE_CONS_RULES: tuple[StepRule, ...] = (
    StepRule(0.50, 1.01, 1.30),
    StepRule(0.30, 0.50, 1.10),
    StepRule(0.00, 0.10, 0.90),
)


class AutoScale(Manager):
    """Per-tier utilization step scaler.

    Parameters
    ----------
    min_alloc / max_alloc:
        Per-tier allocation bounds.
    rules:
        Ordered step rules; the first matching band applies.  Bands not
        covered by any rule leave the tier unchanged (the stable region).
    name:
        Display name, e.g. ``"AutoScaleOpt"``.
    cooldown:
        Decision intervals to wait between consecutive adjustments of
        the same tier (AWS-style cooldown; 1 = react every interval).
    """

    def __init__(
        self,
        min_alloc: np.ndarray,
        max_alloc: np.ndarray,
        rules: tuple[StepRule, ...] = AUTOSCALE_OPT_RULES,
        name: str = "AutoScaleOpt",
        cooldown: int = 1,
    ) -> None:
        if cooldown < 1:
            raise ValueError("cooldown must be >= 1")
        self.min_alloc = np.asarray(min_alloc, dtype=float)
        self.max_alloc = np.asarray(max_alloc, dtype=float)
        self.rules = rules
        # Whether a rule moves the allocation is a property of the rule,
        # fixed here instead of per decision over the tier vector.
        self._rule_moves = tuple(
            not np.isclose(rule.factor, 1.0) for rule in rules
        )
        self.name = name
        self.cooldown = cooldown
        self.reset()

    def reset(self) -> None:
        self._since_change = np.full(len(self.min_alloc), np.inf)

    #: AWS step scaling enforces a cooldown between adjustments of the
    #: same target (the tutorial's default is 60-300 s); reacting every
    #: second with compounding 30% steps is not something utilization
    #: autoscaling does in production.  Sinan's 1 s ML-driven loop is
    #: exactly the agility advantage the paper claims.
    DEFAULT_COOLDOWN = 15

    @classmethod
    def opt(
        cls, min_alloc: np.ndarray, max_alloc: np.ndarray, cooldown: int | None = None
    ) -> "AutoScale":
        """The paper's AutoScaleOpt configuration."""
        return cls(
            min_alloc, max_alloc, AUTOSCALE_OPT_RULES, "AutoScaleOpt",
            cooldown=cooldown if cooldown is not None else cls.DEFAULT_COOLDOWN,
        )

    @classmethod
    def conservative(
        cls, min_alloc: np.ndarray, max_alloc: np.ndarray, cooldown: int | None = None
    ) -> "AutoScale":
        """The paper's AutoScaleCons configuration."""
        return cls(
            min_alloc, max_alloc, AUTOSCALE_CONS_RULES, "AutoScaleCons",
            cooldown=cooldown if cooldown is not None else cls.DEFAULT_COOLDOWN,
        )

    def decide(self, log: TelemetryLog) -> np.ndarray | None:
        if len(log) == 0:
            return None
        latest = log.latest
        util = latest.cpu_util
        alloc = latest.cpu_alloc.copy()
        self._since_change += 1

        factor = np.ones_like(alloc)
        matched = np.zeros(len(alloc), dtype=bool)
        moving = np.zeros(len(alloc), dtype=bool)
        for rule, moves in zip(self.rules, self._rule_moves):
            hits = rule.applies(util) & ~matched
            factor[hits] = rule.factor
            matched |= hits
            if moves:
                moving |= hits
        apply = moving & (self._since_change >= self.cooldown)
        alloc[apply] = alloc[apply] * factor[apply]
        self._since_change[apply] = 0
        return np.clip(alloc, self.min_alloc, self.max_alloc)


__all__ = ["AutoScale", "StepRule", "AUTOSCALE_OPT_RULES", "AUTOSCALE_CONS_RULES"]
