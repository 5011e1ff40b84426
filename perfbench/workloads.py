"""The benchmark's workloads: set-up, one timed pass, and the output checks.

Each workload object follows one protocol:

* ``setup()`` -- imports and builds what a user pays for before the first
  result (the claimed catalog, the fleet configuration);
* ``run_pass()`` -- the timed region: one call into the package's public API;
* ``oracle()`` -- reference outputs computed outside the timed region;
* ``check(output, oracle, baseline)`` -- grades one pass into a
  :class:`Outcome`: operations attempted and failed, plus digests of the
  simulated statistics so two commits can be compared exactly.

Simulated statistics are deterministic for a given seed, so every check is
exact; only host time varies from run to run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from dataclasses import dataclass, field
from pathlib import Path

#: Simulated requests in one fleet day, per fleet workload.  The bursty day is
#: cheaper per request, so it holds twice as many for a comparable pass time;
#: a pass of a few seconds leaves room for several passes in one run, whose
#: median rides out this host's bursts of slowdown.
FLEET_REQUESTS = {"fleet_jsq_day": 1_000_000, "fleet_bursty_day": 2_000_000}

#: Fleet-wide mean offered load; the day's length follows from the size.
FLEET_OFFERED_QPS = 50_000.0


@dataclass
class Outcome:
    """The graded result of one pass.

    Attributes:
        attempted: operations checked (claims plus the report check, or
            (epoch, datacenter) slices).
        failed: operations whose check failed.
        digest: SHA-256 over the pass's simulated statistics.
        parts: per-operation digests, compared across passes of one run.
        problems: a line per failed operation, for the log.
    """

    attempted: int
    failed: int
    digest: str
    parts: "list[str]" = field(default_factory=list)
    problems: "list[str]" = field(default_factory=list)


def _sha(*items: object) -> str:
    digest = hashlib.sha256()
    for item in items:
        digest.update(item if isinstance(item, bytes) else repr(item).encode())
    return digest.hexdigest()


def report_sections(text: str) -> "list[str]":
    """The per-chapter sections of a rendered report, trailer removed."""
    body = text.split("\n---\n", 1)[0]
    return ["## Chapter " + part for part in body.split("\n## Chapter ")[1:]]


class PaperWorkload:
    """``ReportValidator(use_cache=False).validate()`` plus ``render_markdown``.

    The claims run at the catalog's fixed seeds, because the rendered report
    must equal the committed ``docs/REPORT.md``; ``seed`` is only recorded.
    ``only`` selects a subset of chapters (the benchmark's own tests use it);
    a subset's chapter sections must then appear verbatim in the reference.
    """

    name = "paper"
    #: One pass per process: a second pass in the same process would find the
    #: per-process memos warm, which users never do.
    max_passes = 1

    def __init__(self, root: Path, seed: int, only: "tuple[str, ...] | None" = None):
        self.root = root
        self.seed = seed
        self.only = only
        self.validator = None

    def setup(self) -> None:
        """Import the report layers and build the claimed catalog."""
        from repro.report.registry import claimed_catalog
        from repro.report.validate import ReportValidator

        self.validator = ReportValidator(catalog=claimed_catalog(), use_cache=False)

    def _claims(self):
        from repro.report.validate import select_claims

        return select_claims(self.validator.catalog, self.only)

    def sizes(self) -> "dict[str, object]":
        """Workload size, seeds and executor, for the environment record."""
        claims = self._claims()
        experiments = len({claim.experiment_id for claim in claims})
        mode = self.validator.executor.resolved_mode(experiments)
        return {
            "claims": len(claims),
            "experiments": experiments,
            "seeds": "catalog defaults",
            "executor_mode": mode,
            # The pool size SweepExecutor picks with REPRO_MAX_WORKERS unset.
            "workers": min(experiments, os.cpu_count() or 1) if mode == "process" else 1,
        }

    def run_pass(self):
        """Grade every claim and render the report (the timed region)."""
        from repro.report.render import render_markdown

        run = self.validator.validate(only=self.only)
        return run, render_markdown(run)

    def oracle(self) -> str:
        """The committed report the rendered one must reproduce."""
        return (self.root / "docs" / "REPORT.md").read_text(encoding="utf-8")

    def check(self, output, reference: str, baseline: "Outcome | None" = None) -> Outcome:
        """One operation per claim (must pass) plus one for the report text."""
        from repro.report.claims import Grade

        run, text = output
        problems = [
            f"claim {item.claim.claim_id} graded {item.grade.value}: {item.detail}"
            for item in run.graded
            if item.grade is not Grade.PASS
        ]
        if self.only is None:
            report_ok = text == reference
        else:
            report_ok = all(section in reference for section in report_sections(text))
        if not report_ok:
            problems.append("rendered report differs from docs/REPORT.md")
        parts = [_sha(item.claim.claim_id, item.grade.value, item.actual) for item in run.graded]
        return Outcome(
            attempted=len(run.graded) + 1,
            failed=len(problems),
            digest=_sha(text, *parts),
            parts=parts,
            problems=problems,
        )

    def operations(self) -> int:
        """Operations one pass checks (used to count a pass that raised)."""
        return len(self._claims()) + 1


def _jsq_datacenters():
    """JSQ sites sized as in the repo's ``fleet_scale_day`` bench target."""
    from repro.fleet import Datacenter, Region

    layout = (("us-east", 0.0, 0.0, 27), ("eu-west", 1.5, 0.4, 24), ("ap-south", 3.0, -0.5, 17))
    return tuple(
        Datacenter(name, Region(name, x, y), num_servers=servers, parallelism=4,
                   service_mean_s=0.002, policy="jsq")
        for name, x, y, servers in layout
    )


def _bursty_datacenters():
    """State-free sites provisioned below the flash crowd, so they overflow."""
    from repro.fleet import Datacenter, Region

    layout = (
        ("us-east", 0.0, 0.0, 20, "random"),
        ("eu-west", 1.5, 0.4, 18, "round_robin"),
        ("ap-south", 3.0, -0.5, 14, "random"),
    )
    return tuple(
        Datacenter(name, Region(name, x, y), num_servers=servers, parallelism=4,
                   service_mean_s=0.002, policy=policy, max_servers=2 * servers)
        for name, x, y, servers, policy in layout
    )


def fleet_config(name: str, requests: int):
    """The fleet day of workload ``name``, sized to about ``requests``."""
    from repro.fleet import DIURNAL_24, FLASH_CROWD_24, FleetConfig, LoadShape

    shape = DIURNAL_24 if name == "fleet_jsq_day" else FLASH_CROWD_24
    epoch_s = requests / (FLEET_OFFERED_QPS * shape.num_epochs)
    load_shape = LoadShape(shape.multipliers, epoch_s=epoch_s)
    if name == "fleet_jsq_day":
        return FleetConfig(
            datacenters=_jsq_datacenters(),
            offered_qps=FLEET_OFFERED_QPS,
            routing="latency_weighted",
            load_shape=load_shape,
            origin_weights=(0.40, 0.35, 0.25),
        )
    return FleetConfig(
        datacenters=_bursty_datacenters(),
        offered_qps=FLEET_OFFERED_QPS,
        routing="spillover",
        load_shape=load_shape,
        origin_weights=(0.60, 0.25, 0.15),
        arrival="mmpp",
        arrival_kwargs={"burstiness": 4.0, "burst_fraction": 0.2, "mean_phase_s": 0.1},
        autoscale="target_utilization",
    )


def slice_digest(stats) -> str:
    """Exact digest of one (epoch, datacenter) cell, histogram bin for bin."""
    hist = stats.histogram
    return _sha(
        stats.epoch, stats.datacenter, stats.servers, stats.offered_qps, stats.requests,
        stats.busy_s, hist.counts.tobytes(), hist.underflow, hist.overflow, hist.total,
        hist.sum_s, hist.max_s,
    )


class FleetWorkload:
    """One ``FleetSimulation(engine="fast")`` day of a fixed size.

    Checks: every (epoch, datacenter) slice is internally consistent, equals
    the same slice of the run's first pass, and -- for epoch 0 -- equals the
    event engine's replay of that epoch bin for bin (the repo's fast == event
    oracle; autoscaling acts only after epoch 0).
    """

    max_passes = None

    def __init__(self, name: str, seed: int, requests: "int | None" = None):
        self.name = name
        self.seed = seed
        self.requests = requests if requests is not None else FLEET_REQUESTS[name]
        self.config = None

    def setup(self) -> None:
        """Import the fleet layers and build the day's configuration."""
        from repro.fleet import FleetSimulation  # noqa: F401  (import cost is set-up)

        self.config = fleet_config(self.name, self.requests)

    def sizes(self) -> "dict[str, object]":
        """Workload size and seed, for the environment record."""
        config = self.config
        return {
            "target_requests": self.requests,
            "seed": self.seed,
            "epochs": config.epochs,
            "epoch_s": config.epoch_s,
            "datacenters": [
                (dc.name, dc.num_servers, dc.policy) for dc in config.datacenters
            ],
            "routing": config.routing,
            "arrival": config.arrival,
            "autoscale": config.autoscale,
            "executor_mode": "none (single process)",
        }

    def run_pass(self):
        """Simulate the day on the fast engine (the timed region)."""
        from repro.fleet import FleetSimulation

        return FleetSimulation(self.config, seed=self.seed, engine="fast").run()

    def oracle(self):
        """Epoch 0 of every datacenter, replayed on the event engine."""
        from repro.fleet import FleetSimulation

        config = dataclasses.replace(self.config, num_epochs=1)
        return FleetSimulation(config, seed=self.seed, engine="event").run().epoch_stats

    def check(self, result, oracle, baseline: "Outcome | None" = None) -> Outcome:
        """One operation per (epoch, datacenter) slice of the day."""
        expected = {(s.epoch, s.datacenter): slice_digest(s) for s in oracle}
        parts: "list[str]" = []
        problems: "list[str]" = []
        for index, stats in enumerate(result.epoch_stats):
            hist = stats.histogram
            part = slice_digest(stats)
            parts.append(part)
            key = (stats.epoch, stats.datacenter)
            where = f"epoch {stats.epoch} {stats.datacenter}"
            binned = int(hist.counts.sum()) + hist.underflow + hist.overflow
            if hist.total != stats.requests or binned != hist.total or stats.servers < 1:
                problems.append(f"{where}: histogram does not account for its requests")
            elif key in expected and part != expected[key]:
                problems.append(f"{where}: fast engine differs from the event engine")
            elif baseline is not None and part != baseline.parts[index]:
                problems.append(f"{where}: differs from the run's first pass")
        classes = [
            (name, hist.counts.tobytes(), hist.total, hist.sum_s)
            for name, hist in sorted(result.class_histograms.items())
        ]
        return Outcome(
            attempted=len(result.epoch_stats),
            failed=len(problems),
            digest=_sha(*parts, *classes, sorted(result.scale_events.items())),
            parts=parts,
            problems=problems,
        )

    def operations(self) -> int:
        """Operations one pass checks (used to count a pass that raised)."""
        return self.config.epochs * len(self.config.datacenters)


WORKLOADS = ("paper", "fleet_jsq_day", "fleet_bursty_day")


def make_workload(name: str, root: Path, seed: int):
    """The workload object for a ``--workload`` name (one of ``WORKLOADS``)."""
    if name == "paper":
        return PaperWorkload(root, seed)
    return FleetWorkload(name, seed)
