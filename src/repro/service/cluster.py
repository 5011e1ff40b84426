"""Cluster-level service simulation: arrivals -> balancer -> servers.

:func:`serve` is the one request-serving seam: it maps a load-balancing policy
to a kernel and returns per-request completion times and server choices;
:func:`serve_event` is its discrete-event oracle.  :class:`ClusterSimulation`
and the fleet engine both serve through this pair.  A cluster run feeds an
open-loop arrival process to ``num_servers`` identical G/G/k stations and runs
a fixed number of requests to completion.  Three independent seeded random
streams keep the simulation deterministic *and* comparable across
configurations:

* the **arrival** stream draws interarrival gaps -- with Poisson arrivals one
  uniform per request, so two runs with equal seeds and different rates see
  proportional arrival times;
* the **service** stream attaches per-request service times at generation time,
  identical across runs regardless of load or policy;
* the **routing** stream feeds the balancer's random choices.

Because higher offered load only compresses the same arrival pattern over the
same per-request work, waiting times are monotone in load for state-free
policies -- the load-latency sweeps inherit that cleanliness.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.service import native
from repro.service.arrivals import make_arrivals
from repro.service.balancer import BALANCER_POLICIES, make_balancer
from repro.service.latency import LatencyCollector, LatencyStats
from repro.service.queueing import Request, RequestServer
from repro.service.servicetime import make_service_time
from repro.sim.engine import EventQueue

if TYPE_CHECKING:  # pragma: no cover - annotation-only (avoids an import cycle)
    from repro.faults.events import FaultSchedule
    from repro.faults.metrics import DependabilityStats

_ENGINES = ("auto", "fast", "event")


def fcfs_completion_times_python(
    arrivals: "list[float]",
    services: "list[float]",
    assignment: "list[int]",
    num_servers: int,
    parallelism: int,
) -> "list[float]":
    """Completion times for a fixed routing: independent FCFS G/G/k stations.

    The pure-Python kernel behind :func:`fcfs_completion_times`: its fallback
    when the compiled kernel is unavailable, and its oracle.  With the
    per-request server choice already known (state-free policies, or a
    replayed balancer decision), each server reduces to the classic
    earliest-free-unit recurrence over a k-slot heap of unit-free times:
    ``start = max(arrival, earliest free)``, ``completion = start + service``.
    The float expressions mirror the event engine exactly, so the returned
    times are bitwise equal to an :class:`~repro.sim.engine.EventQueue` run.
    """
    unit_free = [[0.0] * parallelism for _ in range(num_servers)]
    completions = [0.0] * len(arrivals)
    heapreplace = heapq.heapreplace
    for index in range(len(arrivals)):
        heap = unit_free[assignment[index]]
        free = heap[0]
        arrival = arrivals[index]
        start = arrival if arrival >= free else free
        completion = start + services[index]
        heapreplace(heap, completion)
        completions[index] = completion
    return completions


def balanced_completion_times_python(
    arrivals: "list[float]",
    services: "list[float]",
    policy: str,
    num_servers: int,
    parallelism: int,
    routing_rng: "random.Random",
) -> "tuple[list[float], list[int]]":
    """Completion times and routing for the queue-state-aware policies.

    The pure-Python kernel behind :func:`balanced_completion_times`: its
    fallback when the compiled kernel is unavailable, and its oracle.
    ``jsq`` and ``po2`` route on live backlogs, so the FCFS recurrence alone
    is not enough: the kernel additionally tracks each server's in-system
    count (queued plus in service) at every arrival instant.

    * A global ``(completion, server)`` heap drains finished requests -- with
      the *strict* ``< t`` comparison, because the event engine schedules all
      arrivals before any completion and its tie-break is insertion order, so
      an arrival at exactly a completion's timestamp still sees that request
      in the system.
    * ``jsq`` scans the counts with ``counts.index(min(counts))``: the
      minimum-backlog server with the lowest-id tie-break, exactly
      :class:`~repro.service.balancer.JoinShortestQueue`'s
      ``min(..., key=(backlog, i))``.  The scan is linear in ``num_servers``
      but runs in C, which beats a heap at the cluster sizes simulated here.

    ``po2`` replays :class:`~repro.service.balancer.PowerOfTwoChoices`'s draw
    sequence from ``routing_rng`` verbatim (first uniform over ``n``, second
    over ``n - 1`` with the shift), so the routing stream is bit-identical to
    the event engine's.

    Returns:
        ``(completions, assignment)`` lists, bitwise equal to an event run.
    """
    if policy not in ("jsq", "po2"):
        raise ValueError(f"no balanced-kernel replay for policy {policy!r}")
    heappush = heapq.heappush
    heappop = heapq.heappop
    heapreplace = heapq.heapreplace
    randrange = routing_rng.randrange
    jsq = policy == "jsq"

    unit_free = [[0.0] * parallelism for _ in range(num_servers)]
    counts = [0] * num_servers
    in_system: "list[tuple[float, int]]" = []
    completions = [0.0] * len(arrivals)
    assignment = [0] * len(arrivals)
    for index in range(len(arrivals)):
        arrival = arrivals[index]
        while in_system and in_system[0][0] < arrival:
            counts[heappop(in_system)[1]] -= 1
        if jsq:
            server = counts.index(min(counts))
        elif num_servers == 1:
            server = 0
        else:
            first = randrange(num_servers)
            second = randrange(num_servers - 1)
            if second >= first:
                second += 1
            server = second if counts[second] < counts[first] else first
        heap = unit_free[server]
        free = heap[0]
        start = arrival if arrival >= free else free
        completion = start + services[index]
        heapreplace(heap, completion)
        completions[index] = completion
        assignment[index] = server
        counts[server] += 1
        heappush(in_system, (completion, server))
    return completions, assignment


def fcfs_completion_times(
    arrivals: "Sequence[float] | np.ndarray",
    services: "Sequence[float] | np.ndarray",
    assignment: "Sequence[int] | np.ndarray",
    num_servers: int,
    parallelism: int,
) -> np.ndarray:
    """Completion times for a fixed routing, as a float64 array.

    Runs the compiled kernel (:mod:`repro.service.native`) when it is
    available, else :func:`fcfs_completion_times_python`; the two are bitwise
    equal.
    """
    library = native.load()
    if library is None:
        return np.array(
            fcfs_completion_times_python(
                _floats(arrivals).tolist(), _floats(services).tolist(),
                _ints(assignment).tolist(), num_servers, parallelism,
            ),
            dtype=np.float64,
        )
    arrivals, services = _stream(arrivals, services, num_servers, parallelism)
    assignment = _ints(assignment)
    if assignment.size != arrivals.size:
        raise ValueError("assignment must name one server per request")
    if assignment.size and not 0 <= assignment.min() <= assignment.max() < num_servers:
        raise ValueError(f"assignment must lie in [0, {num_servers})")
    completions = np.empty(arrivals.size, dtype=np.float64)
    library.fcfs_completion_times(
        arrivals.size, arrivals, services, assignment, parallelism,
        np.zeros(num_servers * parallelism, dtype=np.float64), completions,
    )
    return completions


def balanced_completion_times(
    arrivals: "Sequence[float] | np.ndarray",
    services: "Sequence[float] | np.ndarray",
    policy: str,
    num_servers: int,
    parallelism: int,
    routing_rng: "random.Random",
) -> "tuple[np.ndarray, np.ndarray]":
    """Completion times and routing for ``jsq``/``po2``, as arrays.

    Runs the compiled kernel (:mod:`repro.service.native`) when it is
    available, else :func:`balanced_completion_times_python`; the two are
    bitwise equal.  ``po2``'s two choices never depend on queue state, so
    they are drawn from ``routing_rng`` up front in the same order
    (``randrange(n)`` then ``randrange(n - 1)`` per request), leaving the
    stream where the Python kernel leaves it.

    Returns:
        ``(completions, assignment)``: float64 and int64 arrays.
    """
    if policy not in ("jsq", "po2"):
        raise ValueError(f"no balanced-kernel replay for policy {policy!r}")
    library = native.load()
    if library is None:
        completions, assignment = balanced_completion_times_python(
            _floats(arrivals).tolist(), _floats(services).tolist(), policy,
            num_servers, parallelism, routing_rng,
        )
        return np.array(completions, dtype=np.float64), np.array(assignment, dtype=np.int64)
    arrivals, services = _stream(arrivals, services, num_servers, parallelism)
    count = arrivals.size
    draws = None
    if policy == "po2" and num_servers > 1:
        randrange = routing_rng.randrange
        bounds = (num_servers, num_servers - 1)
        draws = np.fromiter(
            (randrange(bound) for _ in range(count) for bound in bounds),
            dtype=np.int64, count=2 * count,
        )
    completions = np.empty(count, dtype=np.float64)
    assignment = np.empty(count, dtype=np.int64)
    library.balanced_completion_times(
        count, arrivals, services, num_servers, parallelism,
        None if draws is None else draws.ctypes.data,
        np.zeros(num_servers * parallelism, dtype=np.float64),
        np.zeros(num_servers, dtype=np.int64),
        np.empty(count, dtype=np.float64), np.empty(count, dtype=np.int64),
        completions, assignment,
    )
    return completions, assignment


def _floats(values) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.float64)


def _stream(arrivals, services, num_servers: int, parallelism: int):
    """``(arrivals, services)`` as float64 arrays the C kernels can index."""
    arrivals, services = _floats(arrivals), _floats(services)
    if arrivals.shape != services.shape or arrivals.ndim != 1:
        raise ValueError("arrivals and services must be equal-length 1-D sequences")
    if num_servers < 1 or parallelism < 1:
        raise ValueError("num_servers and parallelism must be >= 1")
    return arrivals, services


def _ints(values) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.int64)


def serve(
    arrivals: "Sequence[float] | np.ndarray",
    services: "Sequence[float] | np.ndarray",
    policy: str,
    num_servers: int,
    parallelism: int,
    routing_rng: "random.Random",
) -> "tuple[np.ndarray, np.ndarray]":
    """Serve one request stream on ``num_servers`` G/G/k stations (fast path).

    The one place a balancing policy is mapped to a serving kernel.
    ``round_robin`` and ``random`` never read queue state, so their routing
    is replayed up front (``random`` draws ``routing_rng.randrange`` once per
    request, in arrival order, as the event balancer does) and each server
    runs :func:`fcfs_completion_times`; ``jsq`` and ``po2`` run
    :func:`balanced_completion_times`.  The kernels are module globals looked
    up at call time, so wrapping them (for tracing) wraps every caller.  Each
    call counts ``service.kernel.c`` or ``service.kernel.python``, by which
    kernel ran.

    Returns:
        ``(completions, assignment)`` as float64 and int64 arrays, bitwise
        equal to :func:`serve_event`.
    """
    from repro.obs.tracer import get_tracer

    tracer = get_tracer()
    if tracer.enabled:
        kernel = "python" if native.load() is None else "c"
        tracer.counter(f"service.kernel.{kernel}").add()
    count = len(arrivals)
    if policy == "round_robin":
        assignment = np.arange(count, dtype=np.int64) % num_servers
    elif policy == "random":
        randrange = routing_rng.randrange
        assignment = np.fromiter(
            (randrange(num_servers) for _ in range(count)), dtype=np.int64, count=count
        )
    else:
        return balanced_completion_times(
            arrivals, services, policy, num_servers, parallelism, routing_rng
        )
    completions = fcfs_completion_times(
        arrivals, services, assignment, num_servers, parallelism
    )
    return completions, assignment


def serve_event(
    arrivals: "Sequence[float] | np.ndarray",
    services: "Sequence[float] | np.ndarray",
    policy: str,
    num_servers: int,
    parallelism: int,
    routing_rng: "random.Random",
    collector: "LatencyCollector",
) -> "tuple[list[RequestServer], EventQueue]":
    """Serve one request stream on the discrete-event engine (the oracle).

    Builds :class:`RequestServer` stations on a fresh :class:`EventQueue`,
    schedules every arrival up front, and lets the named balancer pick a
    station from live backlogs at each arrival.  Each completion calls
    ``collector.record(index, server, latency)``; latencies and server
    choices are bitwise equal to :func:`serve`'s ``completions[i] -
    arrivals[i]`` and ``assignment``.

    Returns:
        ``(stations, engine)`` after the run; ``engine.now`` is the last
        completion time.
    """
    engine = EventQueue()
    stations = [
        RequestServer(i, parallelism, engine, collector) for i in range(num_servers)
    ]
    balancer = make_balancer(policy)
    arrivals, services = _floats(arrivals).tolist(), _floats(services).tolist()
    for index, (arrival, service) in enumerate(zip(arrivals, services)):
        engine.schedule_at(
            arrival,
            # Bind the request now; the balancer selects at arrival time so
            # state-aware policies see live backlogs.
            lambda request=Request(index, arrival, service): stations[
                balancer.select(stations, routing_rng)
            ].offer(request),
        )
    engine.run()
    return stations, engine


@dataclass(frozen=True)
class ClusterConfig:
    """Configuration of one service-cluster simulation.

    Attributes:
        num_servers: identical servers behind the load balancer.
        parallelism: service units per server (usable cores, from calibration).
        service_mean_s: mean per-request service time of one unit.
        offered_qps: open-loop arrival rate across the whole cluster.
        policy: load-balancing policy name (see ``BALANCER_POLICIES``).
        arrival: arrival process name (``"poisson"`` or ``"mmpp"``).
        service_distribution: service-time shape (``"exponential"``, ...).
        arrival_kwargs: extra arrival-process parameters (e.g. burstiness).
        service_kwargs: extra service-distribution parameters (e.g. cv).
        warmup_fraction: leading fraction of requests excluded from stats.
    """

    num_servers: int
    parallelism: int
    service_mean_s: float
    offered_qps: float
    policy: str = "jsq"
    arrival: str = "poisson"
    service_distribution: str = "exponential"
    arrival_kwargs: "dict[str, float]" = field(default_factory=dict)
    service_kwargs: "dict[str, float]" = field(default_factory=dict)
    warmup_fraction: float = 0.1

    def __post_init__(self) -> None:
        if self.num_servers < 1:
            raise ValueError("num_servers must be >= 1")
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        if self.service_mean_s <= 0:
            raise ValueError("service_mean_s must be positive")
        if self.policy not in BALANCER_POLICIES:
            known = sorted(BALANCER_POLICIES)
            raise ValueError(f"unknown balancer policy {self.policy!r}; known: {known}")
        if self.offered_qps <= 0:
            raise ValueError("offered_qps must be positive")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")

    @property
    def capacity_qps(self) -> float:
        """Saturation throughput: every unit busy all the time."""
        return self.num_servers * self.parallelism / self.service_mean_s

    @property
    def utilization(self) -> float:
        """Offered load as a fraction of saturation throughput."""
        return self.offered_qps / self.capacity_qps


@dataclass(frozen=True)
class ClusterResult:
    """Outcome of one cluster simulation.

    ``dependability`` is filled only by fault-injected runs (see
    :mod:`repro.faults.inject`); un-faulted runs leave it ``None``, keeping
    their results byte-identical to pre-fault-subsystem ones.
    """

    config: ClusterConfig
    latency: LatencyStats
    measured_requests: int
    total_requests: int
    duration_s: float
    mean_utilization: float
    per_server_counts: "dict[int, int]"
    dependability: "DependabilityStats | None" = None

    @property
    def achieved_qps(self) -> float:
        """Completed-request throughput over the simulated interval."""
        if self.duration_s <= 0:
            return 0.0
        return self.total_requests / self.duration_s


class ClusterSimulation:
    """Simulation of a load-balanced service cluster.

    Two engines produce the same per-request latencies, both behind the
    serving seam of this module:

    * the **fast engine** (:func:`serve`) replays routing without event
      objects or callbacks and runs the FCFS or the balanced kernel;
    * the **event engine** (:func:`serve_event`) drives :class:`RequestServer`
      stations on a shared :class:`EventQueue` -- the reference the fast
      engine is held to, bit for bit.

    ``engine="auto"`` (default) runs the fast engine, which covers every
    policy; ``engine="event"`` is the reference escape hatch.

    A non-empty ``faults`` schedule routes the run through the fault-injected
    event engine (:mod:`repro.faults.inject`); crashes and stragglers need
    live queue state, so ``engine="fast"`` rejects faults.  An empty (or
    ``None``) schedule takes exactly the un-faulted code path -- zero-fault
    results are byte-identical to runs that never heard of faults.
    """

    def __init__(
        self,
        config: ClusterConfig,
        seed: int = 1,
        engine: str = "auto",
        faults: "FaultSchedule | None" = None,
    ):
        if engine not in _ENGINES:
            raise ValueError(f"engine must be one of {_ENGINES}, got {engine!r}")
        if faults is not None and faults.is_empty():
            faults = None
        if faults is not None and engine == "fast":
            raise ValueError(
                "fault injection needs live queue state; use engine='auto' or 'event'"
            )
        self.config = config
        self.seed = seed
        self.engine = engine
        self.faults = faults

    def resolved_engine(self) -> str:
        """The engine ("fast" or "event") this simulation will run on."""
        if self.faults is not None or self.engine == "event":
            return "event"
        return "fast"

    def _generate_request_arrays(self, count: int) -> "tuple[np.ndarray, np.ndarray]":
        """(arrival times, service times) -- the shared deterministic streams.

        Both engines consume these identical arrays, so results are engine-
        independent; arrivals and service times come from separate seeded
        streams, preserving the common-random-numbers structure.
        """
        arrival_rng = random.Random(self.seed)
        service_rng = random.Random(self.seed + 1)
        process = make_arrivals(
            self.config.arrival, self.config.offered_qps, **self.config.arrival_kwargs
        )
        distribution = make_service_time(
            self.config.service_distribution,
            self.config.service_mean_s,
            **self.config.service_kwargs,
        )
        arrivals = process.sample_times(arrival_rng, count)
        services = distribution.sample_batch(service_rng, count)
        return arrivals, services

    def _generate_requests(self, count: int) -> "list[Request]":
        """The fault-injected engine's request list (object view of the arrays)."""
        arrivals, services = self._generate_request_arrays(count)
        return [
            Request(index=index, arrival_s=arrival, service_s=service)
            for index, (arrival, service) in enumerate(
                zip(arrivals.tolist(), services.tolist())
            )
        ]

    def run(self, num_requests: int = 5_000) -> ClusterResult:
        """Simulate ``num_requests`` requests to completion."""
        from repro.obs.tracer import get_tracer

        if num_requests < 1:
            raise ValueError("num_requests must be >= 1")
        engine = self.resolved_engine()
        tracer = get_tracer()
        if tracer.enabled:
            tracer.counter(f"service.engine.{engine}").add()
            tracer.counter("service.requests").add(num_requests)
        with tracer.span(
            "service.cluster",
            category="service",
            policy=self.config.policy,
            engine=engine,
            requests=num_requests,
            servers=self.config.num_servers,
        ):
            if self.faults is not None:
                from repro.faults.inject import run_faulted

                return run_faulted(self, num_requests, self.faults)
            if engine == "fast":
                return self._run_fast(num_requests)
            return self._run_event(num_requests)

    # ------------------------------------------------------------ event engine
    def _run_event(self, num_requests: int) -> ClusterResult:
        from repro.obs.tracer import get_tracer

        config = self.config
        arrivals, services = self._generate_request_arrays(num_requests)
        collector = LatencyCollector(
            warmup_requests=int(num_requests * config.warmup_fraction)
        )
        stations, engine = serve_event(
            arrivals, services, config.policy,
            config.num_servers, config.parallelism, random.Random(self.seed + 2),
            collector,
        )
        tracer = get_tracer()
        if tracer.enabled:
            tracer.counter("service.events").add(engine.processed)

        duration = engine.now
        utilizations = [station.utilization(duration) for station in stations]
        return ClusterResult(
            config=config,
            latency=collector.stats(),
            measured_requests=collector.measured,
            total_requests=num_requests,
            duration_s=duration,
            mean_utilization=sum(utilizations) / len(utilizations),
            per_server_counts=collector.per_server_counts(),
        )

    # ------------------------------------------------------------- fast engine
    def _run_fast(self, num_requests: int) -> ClusterResult:
        config = self.config
        arrivals, services = self._generate_request_arrays(num_requests)
        parallelism = config.parallelism
        completion_arr, assignment_arr = serve(
            arrivals, services, config.policy,
            config.num_servers, parallelism, random.Random(self.seed + 2),
        )
        latencies = completion_arr - arrivals
        warmup = int(num_requests * config.warmup_fraction)

        measured_latencies = latencies[warmup:]
        # Sample order differs from the event engine's completion order, but
        # every statistic downstream sorts or sums symmetrically.
        collector = LatencyCollector(warmup_requests=warmup)
        counts = np.bincount(assignment_arr[warmup:], minlength=config.num_servers)
        collector.record_batch(
            measured_latencies,
            {
                server: int(count)
                for server, count in enumerate(counts.tolist())
                if count > 0
            },
        )

        duration = float(completion_arr.max())
        busy = np.bincount(
            assignment_arr, weights=services, minlength=config.num_servers
        )
        utilizations = busy / (duration * parallelism) if duration > 0 else busy * 0.0
        return ClusterResult(
            config=config,
            latency=collector.stats(),
            measured_requests=collector.measured,
            total_requests=num_requests,
            duration_s=duration,
            mean_utilization=float(utilizations.mean()),
            per_server_counts=collector.per_server_counts(),
        )


def simulate_cluster(
    config: ClusterConfig,
    num_requests: int = 5_000,
    seed: int = 1,
    engine: str = "auto",
    faults: "FaultSchedule | None" = None,
) -> ClusterResult:
    """Convenience wrapper: build and run one cluster simulation."""
    return ClusterSimulation(config, seed=seed, engine=engine, faults=faults).run(
        num_requests
    )
