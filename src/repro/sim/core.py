"""Trace-driven core model.

Each core consumes the columnar reference trace (a
:class:`~repro.workloads.traces.CoreTrace`) produced by
:class:`repro.workloads.traces.SyntheticTraceGenerator`.  Between references the
core retires instructions at the workload's base CPI; references that reach the
LLC incur the LLC (or memory) latency.  Instruction fetches stall the core for the
full latency (front-end stall); data references are tracked in a bounded
outstanding-miss window whose size comes from the core microarchitecture, so
memory-level parallelism emerges from the window rather than being asserted.

This is the per-event Python model; :mod:`repro.sim.kernel` runs the same
steps for every core at once in compiled code, and this class is its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.cores.models import CoreModel
from repro.workloads.profile import WorkloadProfile
from repro.workloads.traces import CoreTrace


#: Signature of the system callback servicing an LLC request:
#: (core_id, address, is_write, is_instruction, issue_time) -> completion latency.
LlcRequestFn = Callable[[int, int, bool, bool, float], float]


@dataclass
class CoreStats:
    """Per-core execution counters."""

    instructions: int = 0
    cycles: float = 0.0
    llc_requests: int = 0
    fetch_stall_cycles: float = 0.0
    data_stall_cycles: float = 0.0


class TraceDrivenCore:
    """One simulated core executing a pre-generated reference trace."""

    def __init__(
        self,
        core_id: int,
        core_model: CoreModel,
        workload: WorkloadProfile,
        trace: CoreTrace,
        llc_request: LlcRequestFn,
    ):
        self.core_id = core_id
        self.core_model = core_model
        self.workload = workload
        self.trace = trace
        # Python scalars read far faster than numpy elements, one at a time.
        self._gaps = trace.instruction_gap.tolist()
        self._addresses = trace.address.tolist()
        self._fetches = trace.is_instruction.tolist()
        self._writes = trace.is_write.tolist()
        self.llc_request = llc_request
        self.base_cpi = workload.behavior(core_model.name).base_cpi
        self.max_outstanding = max(1, core_model.max_outstanding_misses)
        self.stats = CoreStats()
        #: Completion times of data requests currently in flight.
        self._outstanding: "list[float]" = []
        self._clock: float = 0.0
        self._next_event: int = 0

    # -------------------------------------------------------------- execution
    def run(self) -> CoreStats:
        """Execute the whole trace (single-core convenience; see :meth:`step`)."""
        while self.step() is not None:
            pass
        return self.stats

    @property
    def clock(self) -> float:
        """The core's current local time in cycles."""
        return self._clock

    @property
    def done(self) -> bool:
        """Whether the core has consumed its whole trace."""
        return self._next_event >= len(self._gaps) and not self._outstanding

    def step(self) -> "float | None":
        """Process the next trace event; returns the new clock, or None when done.

        The system scheduler always steps the core with the earliest clock, which
        interleaves the cores' LLC and memory accesses in global time order so
        bank and channel contention are shared correctly.
        """
        index = self._next_event
        if index >= len(self._gaps):
            # Drain outstanding data requests, then finish.
            if self._outstanding:
                drain_until = max(self._outstanding)
                if drain_until > self._clock:
                    self.stats.data_stall_cycles += drain_until - self._clock
                    self._clock = drain_until
                self._outstanding.clear()
                self.stats.cycles = self._clock
            self.stats.cycles = self._clock
            return None
        self._next_event = index + 1
        clock = self._clock

        # Retire the instructions between the previous reference and this one.
        gap = self._gaps[index]
        clock += gap * self.base_cpi
        self.stats.instructions += gap

        self.stats.llc_requests += 1
        if self._fetches[index]:
            # L1-I misses stall the front end until the line returns.
            latency = self.llc_request(self.core_id, self._addresses[index], False, True, clock)
            clock += latency
            self.stats.fetch_stall_cycles += latency
        else:
            clock = self._issue_data_request(
                self._addresses[index], self._writes[index], clock
            )

        self._clock = clock
        self.stats.cycles = clock
        return clock

    def _issue_data_request(self, address: int, is_write: bool, clock: float) -> float:
        """Issue a data reference, stalling only when the miss window is full."""
        # Retire completed requests.
        self._outstanding = [t for t in self._outstanding if t > clock]
        if len(self._outstanding) >= self.max_outstanding:
            # The window is full: stall until the oldest outstanding miss returns.
            earliest = min(self._outstanding)
            self.stats.data_stall_cycles += earliest - clock
            clock = earliest
            self._outstanding = [t for t in self._outstanding if t > clock]
        latency = self.llc_request(self.core_id, address, is_write, False, clock)
        self._outstanding.append(clock + latency)
        return clock

    # ------------------------------------------------------------------ stats
    @property
    def ipc(self) -> float:
        """Application IPC of this core over its execution window."""
        if self.stats.cycles <= 0:
            return 0.0
        return self.stats.instructions / self.stats.cycles
