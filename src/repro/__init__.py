"""repro -- a reproduction of "Scale-Out Processors" (ISCA 2012 / EPFL thesis).

The library implements the paper's performance-density design methodology, the
pod-based Scale-Out Processor family, the NOC-Out pod microarchitecture, the
datacenter TCO analysis, and the 3D stacking extensions, together with every
substrate the evaluation depends on (workload models, core/cache/memory/NoC
models, an analytic chip performance model, and reduced-fidelity cycle-level
simulators).

Quick start::

    from repro import design_scale_out_processor
    from repro.technology import NODE_40NM

    chip = design_scale_out_processor(core_type="ooo", node=NODE_40NM)
    print(chip.summary())

See ``docs/architecture.md`` for the architecture overview and
``docs/running.md`` for the experiment catalog.
"""

from repro.core import (
    Pod,
    ScaleOutChip,
    ScaleOutDesignMethodology,
    design_scale_out_processor,
)
from repro.perfmodel import AnalyticPerformanceModel, PerformanceEstimate, performance_density
from repro.workloads import CLOUDSUITE, default_suite, get_workload

__version__ = "1.0.0"

__all__ = [
    "Pod",
    "ScaleOutChip",
    "ScaleOutDesignMethodology",
    "design_scale_out_processor",
    "AnalyticPerformanceModel",
    "PerformanceEstimate",
    "performance_density",
    "CLOUDSUITE",
    "default_suite",
    "get_workload",
    "__version__",
]
