"""Cluster-level configuration.

One :class:`ClusterConfig` captures every architectural parameter of a
simulated system, defaulting to the paper's Section 4 values.  The four
evaluation configurations differ only in ``active`` and
``prefetch_depth``:

========  ======================================
normal        active=False, prefetch_depth=1
normal+pref   active=False, prefetch_depth=2
active        active=True,  prefetch_depth=1
active+pref   active=True,  prefetch_depth=2
========  ======================================
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from ..faults.plan import FaultPlan
from ..io.disk import DiskConfig
from ..io.os_model import OsCostConfig
from ..io.scsi import ScsiConfig
from ..io.tca import TcaConfig
from ..net.hca import HcaConfig
from ..net.link import LinkConfig
from ..sim.units import us
from ..switch.active import ActiveSwitchConfig
from ..switch.base import SwitchConfig


@dataclass(frozen=True)
class ClusterConfig:
    """A complete SAN cluster description."""

    num_hosts: int = 1
    num_storage: int = 1
    #: Active switches (True) or conventional ones (False).
    active: bool = False
    #: Outstanding I/O requests (1 = synchronous, 2 = the "+pref" cases).
    prefetch_depth: int = 1
    #: Embedded processors per active switch (1, 2 or 4).
    num_switch_cpus: int = 1
    #: Use the 8x-scaled host caches of the database experiments.
    database_scaled_caches: bool = False
    #: Extra power-of-two cache scaling applied when the workload itself
    #: is scaled down (preserves capacity-miss behaviour; see
    #: build_host_hierarchy).
    cache_scale_divisor: int = 1
    #: Disks per storage node (the paper uses two at 50 MB/s each).
    num_disks: int = 2
    #: Host cost of posting an I/O request whose data bypasses host
    #: memory (active cases): a user-level descriptor post with no
    #: kernel completion/interrupt path.
    active_request_cost_ps: int = us(5)
    #: Valid-bit streaming: handlers compute while a block is still
    #: arriving (the paper's design).  False = store-and-forward
    #: handlers that wait for the whole block (ablation knob).
    cut_through: bool = True
    #: Master seed: every pseudo-random decision in a run (currently the
    #: fault schedules) derives from it, so identical seeds reproduce
    #: identical runs bit for bit.
    seed: int = 0
    #: Fault-injection plan; ``None`` (the default) builds a perfect
    #: fabric along the exact pre-reliability code paths.
    faults: Optional[FaultPlan] = None

    link: LinkConfig = field(default_factory=LinkConfig)
    switch: SwitchConfig = field(default_factory=SwitchConfig)
    active_switch: ActiveSwitchConfig = field(default_factory=ActiveSwitchConfig)
    disk: DiskConfig = field(default_factory=DiskConfig)
    scsi: ScsiConfig = field(default_factory=ScsiConfig)
    os: OsCostConfig = field(default_factory=OsCostConfig)
    hca: HcaConfig = field(default_factory=HcaConfig)
    tca: TcaConfig = field(default_factory=TcaConfig)

    def __post_init__(self):
        if self.num_hosts < 1:
            raise ValueError("need at least one host")
        if self.num_storage < 0:
            raise ValueError("storage count cannot be negative")
        if self.prefetch_depth < 1:
            raise ValueError("prefetch depth must be >= 1")
        if self.num_switch_cpus not in (1, 2, 4):
            raise ValueError("switch CPUs must be 1, 2 or 4")
        if self.active_request_cost_ps < 0:
            raise ValueError("active request cost cannot be negative")

    # ------------------------------------------------------------------
    # The paper's four cases
    # ------------------------------------------------------------------
    def with_case(self, active: bool, prefetch: bool) -> "ClusterConfig":
        """This configuration adjusted to one of the four cases."""
        active_switch = self.active_switch
        if self.num_switch_cpus != active_switch.num_cpus:
            active_switch = replace(active_switch,
                                    num_cpus=self.num_switch_cpus)
        return replace(self, active=active,
                       prefetch_depth=2 if prefetch else 1,
                       active_switch=active_switch)

    def with_case_label(self, label: str) -> "ClusterConfig":
        """This configuration adjusted to the case named ``label``.

        The one place a case label is parsed; :attr:`case_label` is its
        inverse.
        """
        if label not in CASE_ORDER:
            raise ValueError(
                f"unknown case {label!r}; expected one of {CASE_ORDER}")
        return self.with_case(active=label.startswith("active"),
                              prefetch=label.endswith("+pref"))

    @property
    def case_label(self) -> str:
        """The paper's label for this configuration."""
        base = "active" if self.active else "normal"
        return base + ("+pref" if self.prefetch_depth > 1 else "")


#: The four evaluation configurations, in the paper's presentation order.
CASE_ORDER = ("normal", "normal+pref", "active", "active+pref")


def case_configs(base: ClusterConfig):
    """The four (label, config) evaluation points for ``base``."""
    return [(label, base.with_case_label(label)) for label in CASE_ORDER]
