"""Benchmark runner: times one workload end to end, or traces it by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` reports its per-layer metrics from a traced run, plus the
tracing overhead against an untraced run in a fresh process.  ``all`` runs
every workload, each in a fresh process, and prints each one's metrics.  The
last line of standard output is one JSON result object.

Every run is hermetic: a fresh process, the result cache off, and the ledger,
temporary files and executor settings confined to a scratch directory inside
the checkout, which is removed on exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS, make_workload

SCRIPT = Path(__file__).resolve()
HERE = SCRIPT.parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench-tmp"

#: Fresh processes timed from spawn to ready; ``setup_s`` is their median.
SETUP_SAMPLES = 5

#: Environment variables that would change what a run measures.
_CLEARED_ENV = ("REPRO_EXECUTOR", "REPRO_MAX_WORKERS", "REPRO_CACHE_DIR")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _command(workload: str, seed: int, *extra: str) -> "list[str]":
    """This script's command line for ``workload``, run in a fresh process."""
    return [sys.executable, str(SCRIPT), "--workload", workload, "--seed", str(seed), *extra]


def _hermetic(scratch: Path) -> None:
    """Point every file the package might write at ``scratch``."""
    for name in _CLEARED_ENV:
        os.environ.pop(name, None)
    os.environ["REPRO_LEDGER_DIR"] = str(scratch / "ledger")
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)
    sys.path.insert(0, str(ROOT / "src"))


def _environment(workload, seconds: float, trace: int) -> "dict[str, object]":
    """Host, toolchain and revision of this run, with the workload's sizes."""
    import numpy

    from repro.obs.ledger import git_revision

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "host": platform.node(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_revision": git_revision(ROOT),
        "source_sha256": digest.hexdigest()[:16],
        "workload": workload.name,
        "seed": workload.seed,
        "seconds": seconds,
        "trace": trace,
        **workload.sizes(),
    }


def _passes(workload, budget_s: float, trace_pass=None):
    """Run timed passes until the next one would overrun ``budget_s``.

    Returns ``(walls, outputs, raised)``; a pass that raises ends the loop and
    is reported in ``raised``.  ``trace_pass`` wraps a pass in a tracer.
    """
    walls, outputs = [], []
    while True:
        start = perf_counter()
        try:
            output = trace_pass() if trace_pass else workload.run_pass()
        except Exception:  # a failing pass is a measured failure, not a crash
            traceback.print_exc()
            return walls + [perf_counter() - start], outputs, True
        walls.append(perf_counter() - start)
        outputs.append(output)
        if workload.max_passes and len(walls) >= workload.max_passes:
            return walls, outputs, False
        if sum(walls) + walls[-1] > budget_s:
            return walls, outputs, False


def _grade(workload, outputs, raised: bool):
    """Check every pass; returns ``(attempted, failed, digest)``."""
    attempted = failed = 0
    digest = None
    if raised:
        attempted = failed = workload.operations()
    if outputs:
        try:
            reference = workload.oracle()
        except Exception:
            traceback.print_exc()
            operations = workload.operations() * len(outputs)
            return attempted + operations, failed + operations, None
        first = None
        for output in outputs:
            outcome = workload.check(output, reference, first)
            first = first or outcome
            attempted += outcome.attempted
            failed += outcome.failed
            for problem in outcome.problems:
                print(f"# check failed: {problem}", file=sys.stderr)
        digest = first.digest
    return attempted, failed, digest


def _setup_seconds(workload) -> float:
    """Median spawn-to-ready time of fresh processes doing the set-up."""
    command = _command(workload.name, workload.seed, "--setup-only")
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            samples.append(perf_counter() - start)
            child.stdout.read()
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {line!r}")
    return statistics.median(samples)


def _peak_rss_mb() -> float:
    """This process's peak RSS plus the largest reaped child's (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _result(attempted: int, failed: int, metrics: "dict[str, tuple[float, str]]"):
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def _print_metrics(name: str, metrics, attempted: int, failed: int, extra=()) -> None:
    for metric, (value, unit) in metrics.items():
        print(f"{name:<17} {metric:<44} {value:>16.6g} {unit}")
    print(f"{name:<17} {'error_rate':<44} {failed / max(attempted, 1):>16.6g} "
          f"failed/attempted ({failed}/{attempted})")
    for metric, value, unit in extra:
        print(f"{name:<17} {metric:<44} {value:>16.6g} {unit}")


def _end_to_end(workload, args) -> dict:
    walls, outputs, raised = _passes(workload, args.seconds)
    peak = _peak_rss_mb()
    attempted, failed, digest = _grade(workload, outputs, raised)
    print(f"# digest {workload.name} {digest}")
    print(f"# passes {len(walls)}: " + " ".join(f"{w:.4f}" for w in walls))
    wall = statistics.median(walls)
    metrics = {
        "wall_s": (wall, "s"),
        "setup_s": (_setup_seconds(workload), "s"),
        "peak_rss_mb": (peak, "MB"),
    }
    extra = []
    if outputs and hasattr(outputs[0], "total_requests"):
        requests = outputs[0].total_requests
        extra.append(("requests", requests, "simulated requests per pass"))
        extra.append(("requests_per_s", requests / wall, "simulated requests per host s"))
    _print_metrics(workload.name, metrics, attempted, failed, extra)
    return _result(attempted, failed, metrics)


def _untraced_child(workload, seconds: float) -> dict:
    """An untraced run of the same workload in a fresh process."""
    command = _command(workload.name, workload.seed, "--seconds", repr(seconds), "--trace", "0")
    completed = subprocess.run(command, capture_output=True, text=True, check=False)
    sys.stderr.write(completed.stderr)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError("untraced reference run failed")
    return json.loads(lines[-1])


def _per_layer(workload, args) -> dict:
    import layers
    from repro.obs.tracer import Tracer, use_tracer

    untraced = _untraced_child(workload, args.seconds / 2)
    layers.install()
    tracers = []

    def traced_pass():
        tracer = Tracer()
        with use_tracer(tracer), tracer.span(layers.PASS_SPAN, category="bench"):
            output = workload.run_pass()
        tracer.finalize()
        layers.realign(tracer)
        tracers.append(tracer)
        return output

    walls, outputs, raised = _passes(workload, args.seconds / 2, traced_pass)
    attempted, failed, digest = _grade(workload, outputs, raised)
    attempted += untraced["attempted"]
    failed += untraced["failed"]
    print(f"# digest {workload.name} {digest}")
    passes = [
        layers.layer_metrics(tracer, output[0] if workload.name == "paper" else None)
        for tracer, output in zip(tracers, outputs)
    ]
    # A traced pass that raised leaves nothing to read: report every layer as 0.
    metrics = layers.median_metrics(passes or [layers.layer_metrics(Tracer())])
    wall = statistics.median(walls)
    metrics["trace.overhead_s"] = wall - untraced["metrics"]["wall_s"]["value"]
    print(f"# self-time breakdown of traced pass 1 of {len(walls)} "
          f"(untraced wall {untraced['metrics']['wall_s']['value']:.4f} s)")
    if tracers:
        for line in layers.breakdown(tracers[0], walls[0]):
            print(f"#   {line}")
    typed = {name: (value, layers.unit_of(name)) for name, value in metrics.items()}
    _print_metrics(workload.name, typed, attempted, failed)
    return _result(attempted, failed, typed)


def _all(args) -> dict:
    """Every workload in a fresh process; prints each one's metric lines."""
    results = {}
    for name in WORKLOADS:
        command = _command(
            name, args.seed, "--seconds", repr(args.seconds), "--trace", str(args.trace)
        )
        completed = subprocess.run(command, capture_output=True, text=True, check=False)
        sys.stderr.write(completed.stderr)
        lines = completed.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if completed.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} failed")
        results[name] = json.loads(lines[-1])
    return results


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # A terminated run still removes its scratch directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
    try:
        _hermetic(scratch)
        if args.workload == "all":
            result = _all(args)
        else:
            workload = make_workload(args.workload, ROOT, args.seed)
            workload.setup()
            if args.setup_only:
                print("ready", flush=True)
                return 0
            print("# environment " + json.dumps(_environment(workload, args.seconds, args.trace)))
            result = (_per_layer if args.trace else _end_to_end)(workload, args)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:  # another run still holds its own scratch directory
            pass


if __name__ == "__main__":
    sys.exit(main())
