"""Tests of the benchmark itself.

Run from the repository root with::

    python3 -m pytest -q perfbench/check_perfbench.py

The file name does not match ``test_*.py``, so the repository's own test
collection never picks it up.  The whole file runs in well under a minute.
"""

from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layers  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

#: A fleet day small enough for a test, still 24 epochs x 3 datacenters.
TINY_REQUESTS = 20_000


@pytest.fixture
def traced():
    """Install the layer wrappers for one test, then restore the originals."""
    layers.install()
    try:
        yield
    finally:
        layers.uninstall()


def _tiny_fleet(name: str, seed: int = 5):
    workload = workloads.FleetWorkload(name, seed, requests=TINY_REQUESTS)
    workload.setup()
    return workload


# ------------------------------------------------------------- BENCHMARK.json
def test_every_name_is_well_formed():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    names += [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)
    assert len(names) == len(set(names))


def test_workloads_match_the_runner():
    assert tuple(w["name"] for w in BENCHMARK["workloads"]) == workloads.WORKLOADS


def test_per_layer_metrics_match_what_a_traced_pass_reports():
    from repro.obs.tracer import Tracer

    emitted = layers.layer_metrics(Tracer())
    emitted["trace.overhead_s"] = 0.0
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert declared == {name: layers.unit_of(name) for name in emitted}


def test_experiment_list_matches_the_claimed_catalog():
    from repro.report.registry import claimed_catalog

    ids = {claim.experiment_id for claim in claimed_catalog().claims()}
    # figure_5_2 shares figure_5_1's job, so it has no time of its own.
    assert ids - {"figure_5_2"} == set(layers.EXPERIMENTS)


# ------------------------------------------------------------ output checks
@pytest.mark.parametrize("name", ["fleet_jsq_day", "fleet_bursty_day"])
def test_tiny_fleet_day_passes_its_checks(name):
    workload = _tiny_fleet(name)
    first = workload.check(workload.run_pass(), workload.oracle())
    again = workload.check(workload.run_pass(), workload.oracle(), first)
    assert (first.attempted, first.failed) == (72, 0), first.problems
    assert (again.failed, again.digest) == (0, first.digest)


def test_bursty_day_exercises_spillover_and_autoscaling():
    workload = workloads.FleetWorkload("fleet_bursty_day", 5)
    workload.setup()
    day = workload.run_pass()
    assert sum(day.scale_events.values()) > 0
    assert max(s.servers for s in day.epoch_stats) > max(
        dc.num_servers for dc in workload.config.datacenters
    )


def test_tiny_paper_run_passes_its_checks():
    workload = workloads.PaperWorkload(ROOT, 1, only=("chapter2",))
    workload.setup()
    outcome = workload.check(workload.run_pass(), workload.oracle())
    assert outcome.failed == 0, outcome.problems
    assert outcome.attempted == workload.operations() > 1


def test_corrupted_fleet_output_counts_as_failed():
    workload = _tiny_fleet("fleet_jsq_day")
    oracle = workload.oracle()
    clean = workload.check(workload.run_pass(), oracle)
    day = workload.run_pass()
    day.epoch_stats[0].histogram.counts[200] += 1  # disagrees with the event engine
    day.epoch_stats[0].histogram.total += 1
    day.epoch_stats[0].requests += 1
    day.epoch_stats[40].busy_s *= 1.0000001  # disagrees with the first pass
    day.epoch_stats[50].histogram.total += 1  # histogram loses a request
    outcome = workload.check(day, oracle, clean)
    assert outcome.failed == 3
    assert outcome.failed / outcome.attempted > clean.failed / clean.attempted


def test_corrupted_report_counts_as_failed():
    workload = workloads.PaperWorkload(ROOT, 1, only=("chapter2",))
    workload.setup()
    output = workload.run_pass()
    corrupted = workload.oracle().replace("✅ pass", "✅ pas", 1)
    assert workload.check(output, corrupted).failed == 1


# ------------------------------------------------------------------ tracing
def test_wrapped_span_from_a_pool_worker_is_adopted(traced):
    import repro.service.cluster as cluster
    from repro.obs.tracer import Tracer, use_tracer
    from repro.runtime.executor import SweepExecutor

    rng = random.Random(3)
    points = []
    for index in range(4):
        arrivals = sorted(rng.uniform(0, 1) for _ in range(200))
        services = [rng.expovariate(400.0) for _ in arrivals]
        points.append((arrivals, services, "jsq", 2, 1, random.Random(index)))
    tracer = Tracer()
    with use_tracer(tracer):
        SweepExecutor(mode="process", max_workers=2).map(
            cluster.balanced_completion_times, points
        )
    layers.realign(tracer)
    chunks = tracer.find_spans("executor.chunk")
    assert chunks and all("worker" in c.attributes for c in chunks)
    kernels = [s for c in chunks for s in c.iter() if s.name == "service.kernel.balanced"]
    assert len(kernels) == 4
    assert sum(s.attributes["requests"] for s in kernels) == 800
    (mapped,) = tracer.find_spans("executor.map")
    assert 0.0 <= layers.self_time(mapped) <= mapped.duration_s


def test_self_time_subtracts_the_union_of_children():
    from repro.obs.tracer import Span

    parent = Span("p", start_s=0.0, duration_s=10.0)
    parent.children = [
        Span("a", start_s=1.0, duration_s=3.0),
        Span("b", start_s=2.0, duration_s=4.0),  # overlaps a: union is 1..6
        Span("c", start_s=9.0, duration_s=5.0),  # clipped to the parent: 9..10
    ]
    assert layers.self_time(parent) == pytest.approx(4.0)
    assert layers.self_time(parent, "c") == pytest.approx(9.0)


def test_traced_fleet_day_reports_its_layers(traced):
    from repro.obs.tracer import Tracer, use_tracer

    workload = _tiny_fleet("fleet_bursty_day")
    tracer = Tracer()
    with use_tracer(tracer), tracer.span(layers.PASS_SPAN):
        day = workload.run_pass()
    metrics = layers.layer_metrics(tracer)
    assert metrics["service.kernel.balanced.calls"] == 0
    assert metrics["service.kernel.fcfs.calls"] == 72
    assert metrics["fleet.traffic.requests"] == day.total_requests
    assert metrics["fleet.autoscale.scale_events"] == sum(day.scale_events.values())
    assert metrics["fleet.engine.self_s"] > 0


# ------------------------------------------------------------------- runner
def test_runner_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "fleet_jsq_day",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
