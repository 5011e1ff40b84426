"""Scale-out workload models.

The paper evaluates seven CloudSuite-style scale-out workloads (Data Serving,
MapReduce-C, MapReduce-W, Media Streaming, SAT Solver, Web Frontend, Web Search).
The original study ran the real applications under Flexus full-system simulation;
here each workload is represented by a :class:`~repro.workloads.profile.WorkloadProfile`
-- a statistical characterization (per-core CPI components, L1 and LLC miss-ratio
curves, memory-level parallelism, coherence activity, software scalability) that is
calibrated against the behaviour the paper publishes (Figures 2.1, 2.2, 2.3 and 4.3).

The profiles feed both the analytic performance model (:mod:`repro.perfmodel`) and
the synthetic trace generator (:mod:`repro.workloads.traces`) that drives the
cycle-level simulator (:mod:`repro.sim`).
"""

from repro.workloads.missrate import CaptureCurve, MissRatioCurve
from repro.workloads.profile import CoreBehavior, WorkloadProfile
from repro.workloads.cloudsuite import (
    CLOUDSUITE,
    DATA_SERVING,
    MAPREDUCE_C,
    MAPREDUCE_W,
    MEDIA_STREAMING,
    SAT_SOLVER,
    WEB_FRONTEND,
    WEB_SEARCH,
    get_workload,
    workload_names,
)
from repro.workloads.suite import WorkloadSuite, default_suite
from repro.workloads.traces import CoreTrace, SyntheticTraceGenerator

__all__ = [
    "CaptureCurve",
    "MissRatioCurve",
    "CoreBehavior",
    "WorkloadProfile",
    "CLOUDSUITE",
    "DATA_SERVING",
    "MAPREDUCE_C",
    "MAPREDUCE_W",
    "MEDIA_STREAMING",
    "SAT_SOLVER",
    "WEB_FRONTEND",
    "WEB_SEARCH",
    "get_workload",
    "workload_names",
    "WorkloadSuite",
    "default_suite",
    "SyntheticTraceGenerator",
    "CoreTrace",
]
