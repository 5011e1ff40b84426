"""Synthetic memory-reference trace generation.

The cycle-level simulator (:mod:`repro.sim`) is trace-driven: each core consumes a
:class:`CoreTrace`, the columns of the memory references the core makes between
committed instructions.  The original study extracted this behaviour
from full-system execution of CloudSuite; here we synthesize statistically
equivalent traces from the workload profiles.

Address-space model
-------------------

Each core's references are drawn from five regions whose sizes and access
probabilities are derived from the profile so that the *expected* L1 and LLC miss
rates match the profile:

* ``hot``       -- per-core private data (stack, hot locals); always hits the L1-D.
* ``shared_small`` -- shared OS/application structures that miss the 32 KB L1 but
  comfortably fit in any LLC.
* ``capturable``   -- the secondary working set; misses the L1 and hits the LLC only
  once the LLC is large enough to hold it (the Hill capture curve emerges from the
  region's footprint versus the simulated LLC capacity).
* ``dataset``      -- the vast memory-resident shard; effectively never reuses.
* ``instructions`` -- the instruction footprint; L1-I misses are generated directly
  at the profile's L1-I MPKI and almost always hit the LLC.

A small fraction of data references target *actively shared* lines (lines recently
written by another core), which is what produces coherence snoops in the simulated
directory, reproducing Figure 4.3's low snoop rates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.workloads.profile import WorkloadProfile

#: Cache line size used throughout the reproduction (Table 2.2).
LINE_BYTES = 64

#: Fraction of data references that are writes.
WRITE_FRACTION = 0.22

#: Regions an event can reference: the four event classes in the order their
#: probabilities are drawn, then the hot shared region.
_EVENT_REGIONS = ("instructions", "dataset", "capturable", "shared_small", "shared_hot")

#: Column name -> dtype of a :class:`CoreTrace`.
_COLUMNS = {
    "instruction_gap": np.int64,
    "address": np.int64,
    "is_instruction": np.bool_,
    "is_write": np.bool_,
    "shared": np.bool_,
}


@dataclass(frozen=True, eq=False)
class CoreTrace:
    """One core's synthetic reference trace, one numpy column per field.

    Event ``i`` of the trace is row ``i`` of every column.  Columns given as
    sequences are converted to arrays (int64 for the numbers, bool for the
    flags), so a hand-written trace reads as the generated ones do.

    Attributes:
        instruction_gap: instructions committed since the previous reference
            from this core (models compute between memory operations).
        address: byte address of each reference (line-aligned).
        is_instruction: True for an instruction fetch that missed the L1-I.
        is_write: True for stores.
        shared: True when the line is actively shared with other cores (may
            trigger a coherence snoop at the directory).
    """

    instruction_gap: np.ndarray
    address: np.ndarray
    is_instruction: np.ndarray
    is_write: np.ndarray
    shared: np.ndarray

    def __post_init__(self) -> None:
        for name, dtype in _COLUMNS.items():
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        if len({column.shape for column in self.columns()}) != 1 or self.address.ndim != 1:
            raise ValueError("a trace's columns must be 1-D and of equal length")

    def __len__(self) -> int:
        return len(self.address)

    def columns(self) -> "tuple[np.ndarray, ...]":
        """The five columns, in field order."""
        return tuple(getattr(self, name) for name in _COLUMNS)

    @classmethod
    def empty(cls) -> "CoreTrace":
        """A trace with no references."""
        return cls(*([] for _ in _COLUMNS))



@dataclass(frozen=True)
class _Region:
    """A contiguous region of the synthetic address space."""

    name: str
    base: int
    size_bytes: int

    @property
    def lines(self) -> int:
        """Lines in the region (at least one)."""
        return max(1, self.size_bytes // LINE_BYTES)


class SyntheticTraceGenerator:
    """Generates per-core synthetic reference traces for one workload.

    Args:
        workload: the workload profile to mimic.
        cores: number of cores in the simulated system (regions are laid out so
            private regions never collide across cores).
        seed: RNG seed; traces are deterministic given (workload, cores, seed).
        core_type: which core's L1 configuration the trace is filtered for.
    """

    #: Virtual address-space layout (generous, purely synthetic).
    _INSTR_BASE = 0x0000_0000_1000_0000
    _SHARED_SMALL_BASE = 0x0000_0001_0000_0000
    _CAPTURABLE_BASE = 0x0000_0002_0000_0000
    _DATASET_BASE = 0x0000_0010_0000_0000
    _HOT_BASE = 0x0000_0100_0000_0000
    _SHARED_HOT_BASE = 0x0000_0200_0000_0000

    def __init__(
        self,
        workload: WorkloadProfile,
        cores: int = 1,
        seed: int = 1,
        core_type: str = "ooo",
    ):
        if cores < 1:
            raise ValueError("cores must be >= 1")
        self.workload = workload
        self.cores = cores
        self.seed = seed
        self.core_type = core_type

        i_mpki, d_mpki = workload.l1_mpki(core_type)
        curve = workload.llc_curve
        self.l1i_miss_per_instr = i_mpki / 1000.0
        self.l1d_miss_per_instr = d_mpki / 1000.0
        self.dataset_per_instr = curve.floor_mpki / 1000.0
        self.capturable_per_instr = (
            curve.capturable_mpki * workload.behavior(core_type).l1_miss_scale / 1000.0
        )
        shared_small = self.l1d_miss_per_instr - self.dataset_per_instr - self.capturable_per_instr
        self.shared_small_per_instr = max(0.0, shared_small)

        # Region footprints.
        self.regions = {
            "instructions": _Region(
                "instructions", self._INSTR_BASE, workload.instruction_footprint_kb * 1024
            ),
            "shared_small": _Region("shared_small", self._SHARED_SMALL_BASE, 512 * 1024),
            "capturable": _Region(
                "capturable",
                self._CAPTURABLE_BASE,
                int(curve.capture.half_capture_mb * 2 * 1024 * 1024),
            ),
            "dataset": _Region(
                "dataset", self._DATASET_BASE, workload.dataset_footprint_mb * 1024 * 1024
            ),
            "shared_hot": _Region("shared_hot", self._SHARED_HOT_BASE, 256 * 1024),
        }

    # ------------------------------------------------------------------ util
    def _hot_region(self, core_id: int) -> _Region:
        """Per-core private hot region (8 KB, always L1-resident)."""
        return _Region("hot", self._HOT_BASE + core_id * (1 << 20), 8 * 1024)

    def expected_llc_accesses_per_instruction(self) -> float:
        """Expected LLC accesses per instruction encoded in the trace."""
        return self.l1i_miss_per_instr + self.l1d_miss_per_instr

    # ------------------------------------------------------------- generator
    def events_for_core(self, core_id: int, instructions: int) -> CoreTrace:
        """Generate the reference trace for ``core_id`` covering ``instructions``.

        Only references that reach the LLC (L1 misses) are emitted, plus a small
        stream of actively-shared references; L1-resident traffic is summarized by
        the instruction gaps.  This is the reduced-fidelity substitution for
        full-system tracing (see ``repro.sim`` in ``docs/architecture.md``).

        Every column is drawn in one call: the event classes, the gaps, the
        write and shared flags, then one line offset per event inside its
        region (``rng.integers`` over an array of region sizes draws exactly
        what one scalar call per event would, leaving the stream in the same
        state).
        """
        if core_id < 0 or core_id >= self.cores:
            raise ValueError(f"core_id {core_id} out of range for {self.cores} cores")
        if instructions <= 0:
            raise ValueError("instructions must be positive")

        rng = np.random.default_rng((self.seed, core_id, self.cores, 0xC0DE))
        workload = self.workload

        # Per-instruction probabilities of each LLC-visible event class.
        p_instr = self.l1i_miss_per_instr
        p_dataset = self.dataset_per_instr
        p_capturable = self.capturable_per_instr
        p_shared_small = self.shared_small_per_instr
        p_total = p_instr + p_dataset + p_capturable + p_shared_small
        if p_total <= 0:
            return CoreTrace.empty()

        # Number of LLC-visible references in this window (expected value, made
        # deterministic to keep traces stable across runs).
        n_events = max(1, int(round(instructions * p_total)))
        gap_mean = instructions / n_events

        # Event classes index _EVENT_REGIONS; shared data references go to the
        # hot shared region instead (its index is the last one).
        kinds = rng.choice(
            len(_EVENT_REGIONS) - 1,
            size=n_events,
            p=[p_instr / p_total, p_dataset / p_total, p_capturable / p_total, p_shared_small / p_total],
        )
        gaps = rng.poisson(gap_mean, size=n_events)
        is_instruction = kinds == 0
        is_write = (rng.random(n_events) < WRITE_FRACTION) & ~is_instruction
        shared = (rng.random(n_events) < workload.snoop_fraction) & ~is_instruction
        regions = [self.regions[name] for name in _EVENT_REGIONS]
        region = np.where(shared, len(regions) - 1, kinds)
        bases = np.array([r.base for r in regions], dtype=np.int64)
        lines = np.array([r.lines for r in regions], dtype=np.int64)
        offsets = rng.integers(0, lines[region])
        return CoreTrace(
            instruction_gap=np.maximum(gaps, 1),
            address=bases[region] + offsets * LINE_BYTES,
            is_instruction=is_instruction,
            is_write=is_write,
            shared=shared,
        )

    def traces(self, instructions_per_core: int) -> "list[CoreTrace]":
        """Traces for every core, indexed by core id."""
        return [self.events_for_core(c, instructions_per_core) for c in range(self.cores)]
