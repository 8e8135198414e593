"""pystampede-aru — Adaptive Resource Utilization via feedback control.

A from-scratch Python reproduction of Mandviwala, Harel, Ramachandran &
Knobe, *"Adaptive Resource Utilization via Feedback Control for Streaming
Applications"* (IPDPS Workshops, 2005): a Stampede-style streaming runtime
(timestamped channels/queues + task threads), the ARU feedback mechanism
(sustainable-thread-period measurement + backward summary-STP propagation
+ source throttling) factored into a pluggable control plane
(:mod:`repro.control`: sensors, propagation, policies, actuators), four
garbage collectors (REF/TGC/DGC/IGC), a
discrete-event cluster simulator standing in for the paper's 17-node SMP
testbed, and the color-based people-tracker evaluation.

Quickstart
----------
See ``examples/quickstart.py`` for an end-to-end pipeline.

The public API is re-exported lazily from the subpackages; import the
subpackage directly for anything not listed in ``__all__``.
"""

from __future__ import annotations

from repro.lazy import lazy_exports

__version__ = "1.0.0"

# Re-exported lazily to keep `import repro` cheap.
_LAZY = {
    "Engine": "repro.sim",
    "RngRegistry": "repro.sim",
    "Timestamp": "repro.vt",
    "ClusterSpec": "repro.cluster",
    "NodeSpec": "repro.cluster",
    "Runtime": "repro.runtime",
    "RuntimeConfig": "repro.runtime",
    "TaskGraph": "repro.runtime",
    "Get": "repro.runtime",
    "Put": "repro.runtime",
    "Compute": "repro.runtime",
    "PeriodicitySync": "repro.runtime",
    "AruConfig": "repro.aru",
    "MIN_OPERATOR": "repro.aru",
    "MAX_OPERATOR": "repro.aru",
    "SummaryStpPolicy": "repro.control",
    "PidPolicy": "repro.control",
    "ThreadController": "repro.control",
    "register_policy": "repro.control",
    "resolve_policy": "repro.control",
    "list_policies": "repro.control",
    "ScaleConfig": "repro.control",
    "ErlangScalePolicy": "repro.control",
    "register_scale_policy": "repro.control",
    "resolve_scale_policy": "repro.control",
    "list_scale_policies": "repro.control",
    "FaultSpec": "repro.faults",
    "FaultSchedule": "repro.faults",
    "FaultInjector": "repro.faults",
    "TraceRecorder": "repro.metrics",
    "PostmortemAnalyzer": "repro.metrics",
    "build_tracker": "repro.apps",
    "TrackerConfig": "repro.apps",
    "run_experiment": "repro.experiment",
    "ExperimentSpec": "repro.experiment",
    "RunResult": "repro.experiment",
    "register_backend": "repro.backends",
    "available_backends": "repro.backends",
    "resolve_backend": "repro.backends",
    "TenancySpec": "repro.tenancy",
    "TenantSpec": "repro.tenancy",
    "TenancyResult": "repro.tenancy",
    "ResourceDemand": "repro.tenancy",
    "Scheduler": "repro.tenancy",
    "run_tenants": "repro.tenancy",
    "register_placement": "repro.tenancy",
    "ArbiterConfig": "repro.tenancy",
    "register_arbiter": "repro.tenancy",
    "available_arbiters": "repro.tenancy",
    "TelemetryHub": "repro.obs",
    "TelemetryConfig": "repro.obs",
    "NULL_HUB": "repro.obs",
}

__all__ = sorted(_LAZY) + ["__version__"]
__getattr__, __dir__ = lazy_exports(globals(), _LAZY)
