"""Baseline resource managers the paper compares against.

* :class:`~repro.baselines.autoscale.AutoScale` — utilization step
  scaling per the AWS tutorial the paper cites, in the ``Opt``
  (resource-efficient) and ``Cons`` (conservative, QoS-optimized)
  configurations of Section 5.3;
* :class:`~repro.baselines.powerchief.PowerChief` — queueing-analysis
  boosting for multi-stage applications, which identifies the tier with
  the longest estimated ingress queue and shifts resources toward it.
"""

from repro._lazy import lazy_exports

#: Exported name -> defining module, imported on first use.
_EXPORTS = {
    "AutoScale": "repro.baselines.autoscale",
    "AUTOSCALE_OPT_RULES": "repro.baselines.autoscale",
    "AUTOSCALE_CONS_RULES": "repro.baselines.autoscale",
    "PowerChief": "repro.baselines.powerchief",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
