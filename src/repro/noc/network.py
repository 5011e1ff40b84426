"""Packet-level NoC timing simulation.

The network model routes each packet along its topology path, charging router
pipeline delay, link traversal delay, serialization delay, and contention delay.
Contention is modelled at output-port granularity: each directed link can accept
one flit per cycle, so a packet occupies the link for ``flits`` cycles and later
packets queue behind it.  This captures the first-order effects the paper relies
on (zero-load latency differences between topologies, serialization penalties of
narrow links, mild queueing at hot spots) without simulating individual flits and
credits.

Two execution paths produce bit-identical results (see
``tests/test_noc_fastpath.py``):

* the **fast path** (default) compiles the topology into flat arrays once and
  drives packets -- individually via :meth:`NocNetwork.send` or wholesale via
  :meth:`NocNetwork.run_batch` on a :class:`~repro.noc.fastpath.PacketBatch` --
  through :mod:`repro.noc.fastpath`'s tight kernel;
* the **reference path** (``use_fastpath=False``) walks the topology graph
  per packet, exactly as the original implementation did.

Latency statistics are maintained as running (sum, count) pairs updated at
delivery time, so collection is O(1) memory per message class on both paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.noc.fastpath import (
    CLASS_ORDER,
    BatchResult,
    PacketBatch,
    compile_topology,
    process_batch,
    sequential_sum,
)
from repro.noc.packet import MessageClass, Packet
from repro.noc.topology import NocTopology


@dataclass(frozen=True)
class NocConfig:
    """Operating parameters of the simulated network.

    Attributes:
        link_width_bits: flit width; response packets carrying a 64-byte line are
            ``512 / link_width_bits + 1`` flits long.
        vcs_per_port: virtual channels per port (per message class); only used by
            the area/power models, the timing model resolves deadlock by
            construction (responses are consumed unconditionally).
        buffer_flits_per_vc: buffer depth per VC (area/power models).
    """

    link_width_bits: int = 128
    vcs_per_port: int = 3
    buffer_flits_per_vc: int = 5

    def flits_for(self, message_class: MessageClass) -> int:
        """Packet length in flits for ``message_class`` at this link width."""
        if message_class is MessageClass.RESPONSE:
            payload_bits = 64 * 8
        else:
            payload_bits = 0
        return 1 + -(-payload_bits // self.link_width_bits)  # ceil division


@dataclass
class LinkState:
    """Occupancy bookkeeping for one directed link (reference path)."""

    next_free: float = 0.0
    flits_carried: int = 0
    busy_cycles: float = 0.0


class NocNetwork:
    """Packet-level timing model over a :class:`NocTopology`.

    Args:
        topology: the routed topology packets travel over.
        config: operating parameters (link width, VCs).
        use_fastpath: drive timing through the compiled structure-of-arrays
            kernel (default).  ``False`` selects the original per-packet
            graph-walking implementation; both produce identical results.
    """

    def __init__(
        self,
        topology: NocTopology,
        config: "NocConfig | None" = None,
        use_fastpath: bool = True,
    ):
        self.topology = topology
        self.config = config or NocConfig()
        self.use_fastpath = use_fastpath
        self.delivered: "list[Packet]" = []
        # Running statistics (O(1) memory per class), updated at delivery time.
        self._delivered_count = 0
        self._latency_sum = 0.0
        self._hops_sum = 0
        self._class_sums: "dict[MessageClass, list]" = {}
        if use_fastpath:
            self._compiled = compile_topology(topology)
            self._next_free = np.zeros(self._compiled.num_links, dtype=np.float64)
            self._flits_carried = np.zeros(self._compiled.num_links, dtype=np.int64)
            self._links = None
        else:
            self._compiled = None
            self._links: "dict[tuple[int, int], LinkState] | None" = {
                (a, b): LinkState() for a, b in topology.graph.edges
            }

    # ----------------------------------------------------------------- timing
    def send(self, packet: Packet) -> float:
        """Route ``packet`` through the network; returns its arrival time."""
        if packet.flits <= 0:
            packet.flits = self.config.flits_for(packet.message_class)
        if packet.flits <= 0:  # pragma: no cover - defensive
            packet.flits = packet.default_flits()
        if self.use_fastpath:
            time, hops = self._send_fast(packet)
        else:
            time, hops = self._send_reference(packet)
        packet.arrival_time = time
        packet.hops = hops
        self.delivered.append(packet)
        self._record(packet.message_class, time - packet.injection_time, hops)
        return time

    def _send_fast(self, packet: Packet) -> "tuple[float, int]":
        """One packet through the batch kernel, as a batch of one."""
        result = process_batch(
            self._compiled, PacketBatch.from_packets([packet]), self.config,
            self._next_free, self._flits_carried,
        )
        return float(result.arrival_time[0]), int(result.hops[0])

    def _send_reference(self, packet: Packet) -> "tuple[float, int]":
        """The original per-packet graph walk (escape hatch)."""
        path = self.topology.route(packet.source, packet.destination)
        time = packet.injection_time
        for a, b in zip(path[:-1], path[1:]):
            # Router pipeline at the upstream node.
            time += self.topology.router_pipeline_cycles.get(a, 1)
            link = self._links[(a, b)]
            # Wait for the link if an earlier packet still occupies it.
            start = max(time, link.next_free)
            occupancy = packet.flits  # one flit per cycle
            link.next_free = start + occupancy
            link.flits_carried += packet.flits
            link.busy_cycles += occupancy
            time = start + self.topology.link(a, b).latency_cycles
        # Serialization: the tail flit arrives packet.flits - 1 cycles after the head.
        time += self.topology.router_pipeline_cycles.get(path[-1], 1)
        time += packet.flits - 1
        return time, len(path) - 1

    def run(self, packets: "Iterable[Packet] | PacketBatch") -> "list[Packet]":
        """Send ``packets`` in injection-time order and return the delivered list.

        A :class:`PacketBatch` is delivered through :meth:`run_batch` (no
        ``Packet`` objects are materialized; the returned list only holds
        previously object-delivered packets).
        """
        from repro.obs.tracer import get_tracer

        if isinstance(packets, PacketBatch):
            self.run_batch(packets)
            return self.delivered
        ordered = sorted(packets, key=lambda p: (p.injection_time, p.packet_id))
        tracer = get_tracer()
        if tracer.enabled:
            tracer.counter("noc.packets").add(len(ordered))
        for packet in ordered:
            self.send(packet)
        return self.delivered

    def run_batch(self, batch: PacketBatch) -> BatchResult:
        """Deliver a whole :class:`PacketBatch` through the array kernel.

        On the reference path the batch is materialized into objects and
        replayed through :meth:`run`, so the escape hatch accepts batches too.
        Statistics accumulate into the same running sums :meth:`send` feeds,
        in delivery order, keeping the two paths bit-identical.
        """
        from repro.obs.tracer import get_tracer

        tracer = get_tracer()
        if tracer.enabled:
            tracer.counter("noc.batches").add()
        if not self.use_fastpath:
            delivered_before = len(self.delivered)
            self.run(batch.to_packets())
            return _batch_result_from_packets(self.delivered[delivered_before:], batch)
        if tracer.enabled:
            tracer.counter("noc.packets").add(len(batch))
        result = process_batch(
            self._compiled, batch, self.config, self._next_free, self._flits_carried
        )
        # Sequential sums in delivery order, *seeded with the current running
        # sum*, match the reference path's per-packet accumulation bit for bit
        # even across multiple batches or mixed send/run_batch usage.
        ordered_latency = result.latency[result.order]
        ordered_codes = result.class_code[result.order]
        self._latency_sum = sequential_sum(ordered_latency, initial=self._latency_sum)
        self._hops_sum += int(result.hops.sum())
        self._delivered_count += len(batch)
        for code, cls in enumerate(CLASS_ORDER):
            mask = ordered_codes == code
            count = int(mask.sum())
            if count == 0:
                continue
            sums = self._class_sums.setdefault(cls, [0.0, 0])
            sums[0] = sequential_sum(ordered_latency[mask], initial=sums[0])
            sums[1] += count
        return result

    def _record(self, message_class: MessageClass, latency: float, hops: int) -> None:
        self._delivered_count += 1
        self._latency_sum += latency
        self._hops_sum += hops
        sums = self._class_sums.setdefault(message_class, [0.0, 0])
        sums[0] += latency
        sums[1] += 1

    # ------------------------------------------------------------------ stats
    def average_latency(self) -> float:
        """Average end-to-end packet latency."""
        if self._delivered_count == 0:
            return 0.0
        return self._latency_sum / self._delivered_count

    def average_latency_by_class(self) -> "dict[MessageClass, float]":
        """Average latency per message class (running sums; O(1) memory)."""
        return {cls: sums[0] / sums[1] for cls, sums in self._class_sums.items()}

    def average_hops(self) -> float:
        """Average hop count of delivered packets."""
        if self._delivered_count == 0:
            return 0.0
        return self._hops_sum / self._delivered_count

    def total_flit_hops(self) -> int:
        """Total flit-hops carried (the energy model's activity measure)."""
        if self.use_fastpath:
            return int(self._flits_carried.sum())
        return sum(state.flits_carried for state in self._links.values())

    def max_link_utilization(self, elapsed_cycles: float) -> float:
        """Utilization of the busiest link (congestion indicator)."""
        if elapsed_cycles <= 0:
            return 0.0
        if self.use_fastpath:
            if not len(self._flits_carried):
                return 0.0
            # Busy cycles equal flits carried: every traversal occupies the
            # link for exactly one cycle per flit.
            busiest = float(self._flits_carried.max())
        else:
            if not self._links:
                return 0.0
            busiest = max(s.busy_cycles for s in self._links.values())
        return min(1.0, busiest / elapsed_cycles)


def _batch_result_from_packets(
    packets: "Sequence[Packet]", batch: PacketBatch
) -> BatchResult:
    """Assemble a :class:`BatchResult` from object-delivered packets.

    ``packets`` arrive in delivery order; the result columns follow batch
    order, re-aligned through the (unique) packet ids.
    """
    by_id = {p.packet_id: p for p in packets}
    packets = [by_id[pid] for pid in batch.packet_id.tolist()]
    arrival = np.array([p.arrival_time for p in packets], dtype=np.float64)
    return BatchResult(
        arrival_time=arrival,
        latency=arrival - batch.injection_time,
        hops=np.array([p.hops for p in packets], dtype=np.int64),
        flits=np.array([p.flits for p in packets], dtype=np.int64),
        class_code=batch.class_code,
        order=np.lexsort((batch.packet_id, batch.injection_time)),
    )
