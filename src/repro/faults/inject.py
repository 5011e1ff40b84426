"""Fault injection into the event-driven service-cluster engine.

The injection path follows the un-faulted event oracle,
:func:`repro.service.cluster.serve_event` (same request, routing-stream and
scheduling order), with three changes, each driven purely by the
:class:`~repro.faults.events.FaultSchedule` (never a live RNG, so determinism
is inherited from the schedule).  It keeps its own wiring rather than
branching inside the shared oracle:

* servers are :class:`FaultableServer` stations that can **crash** (queued and
  in-flight requests are lost; an epoch counter invalidates their pending
  completion events), **restart** (rejoin empty), and **straggle** (service
  times are multiplied while a straggler window is open at start-of-service);
* the balancer selects among **up** servers only; a request arriving while
  every server is down is counted as *unrouted* and never completes;
* fault events are scheduled onto the :class:`~repro.sim.engine.EventQueue`
  *before* any arrival, so the insertion-order tie-break resolves
  same-timestamp races identically on every run.

The run returns the usual :class:`~repro.service.cluster.ClusterResult` with
its ``dependability`` field filled: availability, goodput, loss accounting,
and time-to-recover (crash to first post-restart completion) alongside the
latency percentiles, which now describe the *completed* requests only.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from repro.faults.events import FaultSchedule
from repro.faults.metrics import DependabilityStats, availability_from_downtime
from repro.service.balancer import make_balancer
from repro.service.latency import LatencyCollector
from repro.service.queueing import Request, RequestServer
from repro.sim.engine import EventQueue

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (cluster imports us)
    from repro.service.cluster import ClusterResult, ClusterSimulation


class FaultableServer(RequestServer):
    """A :class:`RequestServer` that can crash, restart, and straggle.

    Crash semantics: everything queued or in service is lost, and an epoch
    counter invalidates the completion events already sitting in the engine
    (they fire, see a stale epoch, and do nothing).  Straggler semantics: a
    request starting service inside a straggler window costs ``slowdown``
    times its nominal service time; the multiplier is sampled once at
    start-of-service.
    """

    def __init__(self, server_id, parallelism, engine, collector, stragglers=()):
        super().__init__(server_id, parallelism, engine, collector)
        self.up = True
        self.epoch = 0
        self.lost = 0
        #: (at_s, until_s, slowdown) windows, time order; few per run.
        self.stragglers = tuple(
            (window.at_s, window.until_s, window.slowdown) for window in stragglers
        )
        #: Crash times awaiting their first post-restart completion.
        self._pending_recoveries: "list[float]" = []
        #: Resolved crash-to-completion gaps.
        self.recovery_times_s: "list[float]" = []

    # ----------------------------------------------------------- stragglers
    def slowdown_at(self, now: float) -> float:
        """The service-time multiplier in effect at ``now`` (>= 1)."""
        factor = 1.0
        for at_s, until_s, slowdown in self.stragglers:
            if at_s <= now < until_s and slowdown > factor:
                factor = slowdown
        return factor

    # -------------------------------------------------------------- service
    def _start(self, request: Request) -> None:
        self.busy_units += 1
        effective_s = request.service_s * self.slowdown_at(self.engine.now)
        epoch = self.epoch
        self.engine.schedule(
            effective_s,
            lambda: self._complete_faulted(request, epoch, effective_s),
        )

    def _complete_faulted(self, request: Request, epoch: int, effective_s: float) -> None:
        if epoch != self.epoch:
            # The server crashed after this request started; it was already
            # counted as lost and the unit it held no longer exists.
            return
        self.busy_units -= 1
        self.completed += 1
        self.busy_time_s += effective_s
        now = self.engine.now
        self.collector.record(request.index, self.server_id, now - request.arrival_s)
        if self._pending_recoveries:
            # First completion since the (post-restart) server came back:
            # every outstanding crash recovers here.
            self.recovery_times_s.extend(
                now - crash_s for crash_s in self._pending_recoveries
            )
            self._pending_recoveries.clear()
        if self.queue:
            self._start(self.queue.popleft())

    # --------------------------------------------------------------- faults
    def crash(self) -> int:
        """Go down now; returns how many requests were lost."""
        lost = self.busy_units + len(self.queue)
        self.lost += lost
        self.queue.clear()
        self.busy_units = 0
        self.epoch += 1
        self.up = False
        self._pending_recoveries.append(self.engine.now)
        return lost

    def restart(self) -> None:
        """Rejoin the cluster with an empty queue."""
        self.up = True

    def unresolved_recoveries(self, end_s: float) -> "list[float]":
        """Crash-to-end gaps for crashes that never saw a completion."""
        return [end_s - crash_s for crash_s in self._pending_recoveries]


def run_faulted(
    simulation: "ClusterSimulation",
    num_requests: int,
    schedule: FaultSchedule,
) -> "ClusterResult":
    """Run one cluster simulation under a fault schedule (event engine).

    Args:
        simulation: the configured simulation (policy, seed, config); its
            request/routing streams are consumed exactly as in the un-faulted
            event engine.
        num_requests: requests to offer.
        schedule: the fault load; must be non-empty (empty schedules take the
            un-faulted path in :meth:`ClusterSimulation.run` so zero-fault
            runs stay byte-identical).

    Returns:
        A :class:`ClusterResult` whose ``dependability`` field is filled.
    """
    from repro.obs.tracer import get_tracer
    from repro.service.cluster import ClusterResult

    config = simulation.config
    tracer = get_tracer()
    engine = EventQueue()
    warmup = int(num_requests * config.warmup_fraction)
    collector = LatencyCollector(warmup_requests=warmup)
    servers = [
        FaultableServer(
            i,
            config.parallelism,
            engine,
            collector,
            stragglers=[s for s in schedule.stragglers if s.server == i],
        )
        for i in range(config.num_servers)
    ]
    balancer = make_balancer(config.policy)
    routing_rng = random.Random(simulation.seed + 2)

    crash_count = [0]
    restart_count = [0]
    unrouted = [0]

    def crash_server(server: FaultableServer) -> None:
        """Take one server down, counting its lost requests."""
        lost = server.crash()
        crash_count[0] += 1
        if tracer.enabled:
            tracer.counter("faults.server_crash").add()
            tracer.counter("faults.requests_lost").add(lost)

    def restart_server(server: FaultableServer) -> None:
        """Bring one server back up."""
        server.restart()
        restart_count[0] += 1
        if tracer.enabled:
            tracer.counter("faults.server_restart").add()

    def route(request: Request) -> None:
        """Balance among up servers; count the request unrouted if none."""
        up = [server for server in servers if server.up]
        if not up:
            unrouted[0] += 1
            if tracer.enabled:
                tracer.counter("faults.requests_unrouted").add()
            return
        up[balancer.select(up, routing_rng)].offer(request)

    with tracer.span(
        "faults.inject",
        category="faults",
        crashes=len(schedule.crashes),
        stragglers=len(schedule.stragglers),
        servers=config.num_servers,
        requests=num_requests,
    ):
        # Fault events first: at equal timestamps the insertion-order
        # tie-break then runs crash/restart before any same-time arrival.
        for crash in schedule.crashes:
            if crash.server >= config.num_servers:
                continue
            server = servers[crash.server]
            engine.schedule_at(crash.at_s, lambda server=server: crash_server(server))
            engine.schedule_at(
                crash.restart_s, lambda server=server: restart_server(server)
            )
        if tracer.enabled and schedule.stragglers:
            tracer.counter("faults.straggler_windows").add(len(schedule.stragglers))
        for request in simulation._generate_requests(num_requests):
            engine.schedule_at(
                request.arrival_s, lambda request=request: route(request)
            )
        engine.run()
        if tracer.enabled:
            tracer.counter("service.events").add(engine.processed)

        duration = engine.now
        completed = sum(server.completed for server in servers)
        lost = sum(server.lost for server in servers)
        recoveries: "list[float]" = []
        for server in servers:
            recoveries.extend(server.recovery_times_s)
            recoveries.extend(server.unresolved_recoveries(duration))
        downtime = schedule.downtime_s(config.num_servers, duration)
        dependability = DependabilityStats(
            availability=availability_from_downtime(
                config.num_servers, duration, downtime
            ),
            goodput_qps=completed / duration if duration > 0 else 0.0,
            offered_requests=num_requests,
            completed_requests=completed,
            lost_requests=lost,
            unrouted_requests=unrouted[0],
            crashes=crash_count[0],
            downtime_s=downtime,
            mean_time_to_recover_s=(
                sum(recoveries) / len(recoveries) if recoveries else 0.0
            ),
            max_time_to_recover_s=max(recoveries, default=0.0),
        )

    if collector.measured == 0:
        raise ValueError(
            "fault load left no completed requests in the measurement window; "
            "lower the crash intensity or offer more requests"
        )
    utilizations = [server.utilization(duration) for server in servers]
    return ClusterResult(
        config=config,
        latency=collector.stats(),
        measured_requests=collector.measured,
        total_requests=num_requests,
        duration_s=duration,
        mean_utilization=sum(utilizations) / len(utilizations),
        per_server_counts=collector.per_server_counts(),
        dependability=dependability,
    )
