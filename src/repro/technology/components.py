"""Per-component area and power catalog (paper Tables 2.1, 4.1 and 6.1).

The paper's design-space studies budget chips out of a small set of components:
three core types, the LLC (per MB), the interconnect, DDR memory interfaces
(PHY + controller), and miscellaneous SoC glue.  This module captures the
published 40nm figures and scales them to other nodes via
:mod:`repro.technology.node`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.technology.node import (
    NODE_40NM,
    TechnologyNode,
    scale_area,
    scale_power,
)


@dataclass(frozen=True)
class ComponentSpec:
    """Area and power of one component instance at a particular node.

    Attributes:
        name: component name (e.g. ``"ooo_core"``).
        area_mm2: silicon area of one instance.
        power_w: peak power of one instance.
        analog: True for components dominated by analog circuitry (memory PHYs)
            that do not benefit from technology scaling.
    """

    name: str
    area_mm2: float
    power_w: float
    analog: bool = False

    def scaled(self, node: TechnologyNode) -> "ComponentSpec":
        """Return this spec scaled from the 40nm baseline to ``node``."""
        return ComponentSpec(
            name=self.name,
            area_mm2=scale_area(self.area_mm2, node, analog=self.analog),
            power_w=scale_power(self.power_w, node, analog=self.analog),
            analog=self.analog,
        )


# ----------------------------------------------------------------------------
# 40nm baseline figures, straight from Table 2.1 (and Table 6.1 for DDR4).
# ----------------------------------------------------------------------------

#: Aggressive 4-wide conventional server core (Xeon-class), 40nm.
CONVENTIONAL_CORE_40NM = ComponentSpec("conventional_core", area_mm2=25.0, power_w=11.0)

#: 3-wide out-of-order core (ARM Cortex-A15 class), 40nm.
OOO_CORE_40NM = ComponentSpec("ooo_core", area_mm2=4.5, power_w=1.0)

#: 2-wide in-order core (ARM Cortex-A8 class), 40nm.
INORDER_CORE_40NM = ComponentSpec("inorder_core", area_mm2=1.3, power_w=0.48)

#: Last-level cache, per MB of 16-way set-associative capacity, 40nm.
LLC_PER_MB_40NM = ComponentSpec("llc_per_mb", area_mm2=5.0, power_w=1.0)

#: One DDR3 interface: 2 mm^2 of PHY plus 10 mm^2 of controller, 5.7 W.
DDR3_INTERFACE_40NM = ComponentSpec("ddr3_interface", area_mm2=12.0, power_w=5.7, analog=True)

#: One DDR4 interface (Chapter 6 and the 20nm projection): same physical cost as
#: DDR3 but double the per-channel bandwidth.
DDR4_INTERFACE_40NM = ComponentSpec("ddr4_interface", area_mm2=12.0, power_w=5.7, analog=True)

#: Miscellaneous SoC components (I/O, clocking, system agent), 40nm.
SOC_MISC_40NM = ComponentSpec("soc_misc", area_mm2=42.0, power_w=5.0, analog=True)


@lru_cache(maxsize=64)
def _scaled_specs(node: TechnologyNode) -> "tuple[ComponentSpec, ...]":
    """The six catalog specs scaled to ``node``, computed once per node.

    Nodes and specs are frozen, so every catalog at an equal node can share
    the same scaled specs.
    """
    interface = (
        DDR4_INTERFACE_40NM if node.memory_standard.upper() == "DDR4" else DDR3_INTERFACE_40NM
    )
    return tuple(
        spec.scaled(node)
        for spec in (
            CONVENTIONAL_CORE_40NM,
            OOO_CORE_40NM,
            INORDER_CORE_40NM,
            LLC_PER_MB_40NM,
            SOC_MISC_40NM,
            interface,
        )
    )


class ComponentCatalog:
    """Area/power lookups for every budgeted component at a given node.

    The catalog exposes the paper's Table 2.1 components scaled to the requested
    node.  Interconnect area/power is *not* in the catalog because it depends on
    the organization; it is supplied by :mod:`repro.interconnect`.
    """

    def __init__(self, node: TechnologyNode = NODE_40NM):
        self.node = node
        (
            self.conventional_core,
            self.ooo_core,
            self.inorder_core,
            self.llc_per_mb,
            self.soc_misc,
            self.memory_interface,
        ) = _scaled_specs(node)

    # ------------------------------------------------------------------ cores
    def core(self, core_type: str) -> ComponentSpec:
        """Return the spec for ``core_type`` in {"conventional", "ooo", "inorder"}."""
        key = core_type.lower()
        if key in ("conventional", "conv"):
            return self.conventional_core
        if key in ("ooo", "out-of-order", "out_of_order"):
            return self.ooo_core
        if key in ("inorder", "in-order", "in_order", "io"):
            return self.inorder_core
        raise KeyError(f"unknown core type {core_type!r}")

    # -------------------------------------------------------------------- LLC
    def llc_area_mm2(self, capacity_mb: float) -> float:
        """Area of ``capacity_mb`` MB of LLC at this node."""
        if capacity_mb < 0:
            raise ValueError("capacity_mb must be non-negative")
        return self.llc_per_mb.area_mm2 * capacity_mb

    def llc_power_w(self, capacity_mb: float) -> float:
        """Power of ``capacity_mb`` MB of LLC at this node."""
        if capacity_mb < 0:
            raise ValueError("capacity_mb must be non-negative")
        return self.llc_per_mb.power_w * capacity_mb

    # ----------------------------------------------------------------- memory
    def memory_interface_area_mm2(self, channels: int) -> float:
        """Area of ``channels`` DRAM interfaces (PHY + controller)."""
        if channels < 0:
            raise ValueError("channels must be non-negative")
        return self.memory_interface.area_mm2 * channels

    def memory_interface_power_w(self, channels: int) -> float:
        """Power of ``channels`` DRAM interfaces."""
        if channels < 0:
            raise ValueError("channels must be non-negative")
        return self.memory_interface.power_w * channels


def catalog_for_node(node: "TechnologyNode | str | int") -> ComponentCatalog:
    """Convenience constructor accepting a node object, a name, or a feature size."""
    if isinstance(node, TechnologyNode):
        return ComponentCatalog(node)
    from repro.technology.node import get_node

    return ComponentCatalog(get_node(node))
