"""Logical grids and workgroup tasks.

The paper's kernels (both baseline and fused) are expressed as a list of
:class:`WgTask` — one per *logical* workgroup (or per small cluster of
logical WGs folded together via ``repeat``).  A persistent kernel multiplexes
these tasks onto a fixed number of long-running *physical* WGs
(:mod:`repro.kernels.kernel`).

A task carries:

* ``cost`` — the roofline cost of one logical WG (FLOPs + HBM bytes),
* ``compute`` — optional functional effect (NumPy) applied when the task
  executes, so operators are numerically verifiable,
* ``on_complete`` — optional hook (generator) run by the executing physical
  WG right after the task's compute time elapses.  This is where fused
  kernels issue their non-blocking PUTs, set WG-done bits, and wait on
  flags.  Yielding events inside the hook blocks *that physical WG only* —
  exactly the paper's execution model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, Optional

from ..hw.gpu import Gpu, OccupancyInfo, WgCost
from ..sim import Simulator, TraceRecorder

__all__ = ["WgTask", "SlotContext", "Charge"]


@dataclass(slots=True)
class WgTask:
    """One schedulable unit of a kernel (a logical WG or WG-cluster)."""

    task_id: int
    cost: WgCost
    repeat: int = 1
    meta: Dict[str, Any] = field(default_factory=dict)
    compute: Optional[Callable[[], None]] = None
    on_complete: Optional[Callable[["SlotContext", "WgTask"],
                                   Optional[Generator]]] = None

    def __post_init__(self):
        if self.repeat < 1:
            raise ValueError(f"repeat must be >= 1, got {self.repeat}")

    @property
    def is_remote(self) -> bool:
        """Convention: tasks whose output leaves this GPU set meta['remote']."""
        return bool(self.meta.get("remote", False))


class Charge:
    """WG time a hook spends under the kernel dispatcher.

    The dispatcher continues the hook from its own wake-up heap after
    ``delay`` seconds, so a charge costs no simulator event of its own.
    """

    __slots__ = ("delay",)

    def __init__(self, delay: float):
        self.delay = delay


@dataclass(slots=True)
class SlotContext:
    """Execution context handed to task hooks by a physical WG slot.

    ``dispatched`` marks a slot run by the kernel dispatcher: its
    :meth:`charge` returns a :class:`Charge` instead of a scheduled timeout.
    """

    sim: Simulator
    gpu: Gpu
    kernel: "PersistentKernel"
    slot_id: int
    occupancy: OccupancyInfo
    trace: TraceRecorder
    dispatched: bool = False
    actor: str = field(init=False)

    def __post_init__(self):
        self.actor = f"{self.gpu.name}/wg{self.slot_id}"

    def charge(self, seconds: float):
        """Spend WG time (API latency, bookkeeping) — yield the result
        directly from the hook."""
        if seconds < 0:
            raise ValueError("cannot charge negative time")
        if self.dispatched:
            return Charge(seconds)
        return self.sim.timeout(seconds)

    def record(self, kind: str, **detail) -> None:
        if self.trace.enabled:
            self.trace.record(self.sim.now, kind, self.actor, **detail)
