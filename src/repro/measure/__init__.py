"""Shared-intermediate measurement planner.

Turn a requested metric set into a DAG of shared intermediates (giant
component, ONE unified BFS sweep, one triangle pass, one edge-moments pass,
optional spectrum), compute each intermediate exactly once, and evaluate the
metrics as thin formulas over them, on the csr kernels of
:mod:`repro.kernels.biggraph`.

The exports are lazy (PEP 562): the spectrum metrics pull in SciPy's
eigensolvers only on first use.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "MeasurementPlan": "repro.measure.plan",
    "Measurement": "repro.measure.plan",
    "average_measurements": "repro.measure.plan",
    "battery_plan": "repro.measure.plan",
    "TABLE2_CORE_METRICS": "repro.measure.plan",
    "SPECTRUM_METRICS": "repro.measure.plan",
    "MetricDef": "repro.measure.registry",
    "available_metrics": "repro.measure.registry",
    "get_metric_def": "repro.measure.registry",
    "register_metric": "repro.measure.registry",
    "SweepResult": "repro.measure.intermediates",
    "clear_measure_cache": "repro.measure.intermediates",
    "shared_sweep": "repro.measure.intermediates",
    "shared_target": "repro.measure.intermediates",
    "shared_triangles": "repro.measure.intermediates",
    "shared_edge_moments": "repro.measure.intermediates",
    "shared_second_order": "repro.measure.intermediates",
    "shared_spectrum": "repro.measure.intermediates",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = list(_EXPORTS)
