"""Workload generation: the Locust substitute.

The paper drives each experiment with emulated users sending requests
under a Poisson process with a 1 RPS mean arrival rate per user (Section
5.3), over constant, diurnal, and request-mix-varying scenarios.  This
package provides open-loop load patterns with per-request-type mixes.
"""

from repro._lazy import lazy_exports

#: Exported name -> defining module, imported on first use.
_EXPORTS = {
    "LoadPattern": "repro.workload.patterns",
    "ConstantLoad": "repro.workload.patterns",
    "StepLoad": "repro.workload.patterns",
    "DiurnalLoad": "repro.workload.patterns",
    "RampLoad": "repro.workload.patterns",
    "TraceLoad": "repro.workload.patterns",
    "Workload": "repro.workload.generator",
    "RequestMix": "repro.workload.generator",
    "SOCIAL_MIXES": "repro.workload.mixes",
    "social_mix": "repro.workload.mixes",
    "hotel_mix": "repro.workload.mixes",
    "media_mix": "repro.workload.mixes",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
