"""Persistent-workgroup kernel runtime.

Implements the paper's execution model (Section III-A): a kernel is launched
with a *fixed, input-independent grid* of physical workgroups (at most the
device's occupancy limit).  Each physical WG runs a task loop, executing
logical-WG tasks pulled from a shared queue; after each task it runs the
task's ``on_complete`` hook (where fused kernels issue communication), and
after the queue drains it runs the kernel's per-slot ``epilogue`` (where
fused kernels poll their subset of ``sliceRdy`` flags).

The same runtime executes baseline compute kernels — with no hooks, it is
timing-equivalent to an ordinary bulk-synchronous launch under this model.

Fast path
---------

With ``REPRO_SIM_FASTPATH`` on (the default) a launch takes one of two
paths, both with the per-task path's exact timestamps:

* A *fully uniform*, untraced kernel without an epilogue (every task
  identical, hook- and compute-free) is fast-forwarded: greedy pulls from
  the shared queue are exactly round-robin, so slot ``s`` of ``n``
  executes ``ceil((R - s) / n)`` tasks back to back and only the joint
  finish needs an event.
* Every other kernel, traced or not, runs from one *dispatcher*.  It keeps
  a local heap of ``(wake time, local seq, slot, task or hook)`` entries and
  arms one simulator timer per distinct wake time; when a timer fires it
  runs every entry due then in local-seq order — the order the per-slot
  processes would have woken in, since slots of one kernel run in lockstep
  and land on few distinct timestamps.  A hook that yields
  ``ctx.charge(t)`` continues on the local heap; any other yielded event
  (a flag wait) resumes its slot through a callback.  Exceptions from a
  compute payload, a hook or an epilogue fail the kernel process.

Wake-ups are ``now + dur`` with the same float operands as the per-task
path, so every record lands on a bit-identical timestamp; only the
interleaving with *other* kernels' work at equal timestamps can differ.
The ``kernel.fastpath_*_tasks`` counters count tasks run without a
simulator event of their own.  Set ``REPRO_SIM_FASTPATH=0`` in the
environment to force the per-task reference path: one process per
physical WG and one event per task, charge and flag.
"""

from __future__ import annotations

import heapq
import os
from collections import deque
from typing import Callable, Generator, List, Optional, Sequence

from ..hw.gpu import Gpu, KernelResources, OccupancyInfo, WgCost
from ..obs.metrics import get_metrics
from ..sim import Event, Process, SimulationError, Simulator, TraceRecorder
from .grid import Charge, SlotContext, WgTask

__all__ = ["PersistentKernel", "run_kernel", "make_uniform_tasks",
           "fastpath_enabled"]

#: Task loops at most this many rounds long get a balanced grid; longer
#: loops amortize their tail and launch at full occupancy.
_BALANCE_ROUNDS = 8

#: Marks a dispatched hook or epilogue generator that has returned.
_FINISHED = object()


def fastpath_enabled() -> bool:
    """Whether the kernel fast path is active (``REPRO_SIM_FASTPATH``).

    Consulted at every kernel launch, so flipping the environment variable
    mid-process (e.g. from a test) takes effect immediately.
    """
    return os.environ.get("REPRO_SIM_FASTPATH", "1") != "0"


class PersistentKernel:
    """A persistent kernel bound to one GPU, ready to launch."""

    def __init__(self, gpu: Gpu, resources: KernelResources,
                 tasks: Sequence[WgTask], name: str = "kernel",
                 occupancy_limit: Optional[float] = None,
                 epilogue: Optional[Callable[[SlotContext],
                                             Optional[Generator]]] = None,
                 trace: Optional[TraceRecorder] = None):
        """
        Args:
            occupancy_limit: optional fraction in (0, 1] of the kernel's own
                achievable occupancy; persistent kernels choose their grid
                size, which is the knob of the paper's Fig. 13 sweep.
            epilogue: per-physical-WG generator run after the task queue
                drains (e.g. waiting on a distinct subset of sliceRdy flags).
        """
        if not tasks:
            raise ValueError("kernel needs at least one task")
        self.gpu = gpu
        self.sim: Simulator = gpu.sim
        self.resources = resources
        self.tasks = list(tasks)
        self.name = name
        self.epilogue = epilogue
        self.trace = trace if trace is not None else gpu.trace
        occ = gpu.occupancy(resources)
        if occupancy_limit is not None:
            if not (0.0 < occupancy_limit <= 1.0):
                raise ValueError(
                    f"occupancy_limit must be in (0, 1], got {occupancy_limit}")
            occ = occ.limited_to(
                max(1, int(round(occ.resident_wgs * occupancy_limit))))
            if len(self.tasks) < occ.resident_wgs:
                occ = occ.limited_to(len(self.tasks))
        else:
            # Grid-size balancing: a persistent kernel knows its task count
            # up front, so when the task loop is short it launches the
            # largest grid (<= residency limit) that divides the
            # *work-bearing* tasks into whole rounds — avoiding a tail
            # round in which most physical WGs idle.  For long task loops
            # (> _BALANCE_ROUNDS rounds) the tail is amortized and the
            # kernel launches at full occupancy, as the paper's fused
            # embedding kernel does.  Zero-cost bookkeeping tasks do not
            # drive the grid size.
            n_work = sum(1 for t in self.tasks
                         if t.cost.flops > 0 or t.cost.bytes > 0)
            n_work = n_work or len(self.tasks)
            rounds = max(1, -(-n_work // occ.resident_wgs))
            if rounds <= _BALANCE_ROUNDS:
                balanced = min(occ.resident_wgs, -(-n_work // rounds))
                occ = occ.limited_to(balanced)
        self.occupancy: OccupancyInfo = occ
        self.n_slots = min(occ.resident_wgs, len(self.tasks))
        self._durations: dict = {}
        self._last_duration: tuple = (None, 0, 0.0)

    # -- execution ------------------------------------------------------------
    def launch(self) -> Process:
        """Launch the kernel; returns the process that completes with it."""
        return self.sim.process(self.run(), name=self.name)

    def run(self) -> Generator:
        """Generator form, for composing inside an existing process."""
        spec = self.gpu.spec
        tracing = self.trace.enabled
        if tracing:
            self.trace.record(self.sim.now, "kernel_launch", self.gpu.name,
                              kernel=self.name, n_tasks=len(self.tasks),
                              n_slots=self.n_slots,
                              occupancy=self.occupancy.fraction)
        yield self.sim.timeout(spec.kernel_launch_overhead)
        m = get_metrics()
        if m.enabled:
            m.inc("kernel.launches")
            m.inc("kernel.tasks", len(self.tasks))
        if not fastpath_enabled():
            queue = deque(self.tasks)
            slots = [
                self.sim.process(self._slot_loop(self._slot_context(s), queue),
                                 name=f"{self.name}/slot{s}")
                for s in range(self.n_slots)
            ]
            yield self.sim.all_of(slots)
        elif (not tracing and self.epilogue is None
              and self._tasks_uniform_batchable()):
            if m.enabled:
                m.inc("kernel.fastpath_uniform_kernels")
                m.inc("kernel.fastpath_uniform_tasks", len(self.tasks))
            yield from self._run_uniform_fast()
        else:
            finished = self.sim.event()
            _Dispatcher(self, finished).start()
            yield finished
            if m.enabled:
                m.inc("kernel.fastpath_batched_tasks", len(self.tasks))
        if tracing:
            self.trace.record(self.sim.now, "kernel_end", self.gpu.name,
                              kernel=self.name)

    def _slot_context(self, slot_id: int,
                      dispatched: bool = False) -> SlotContext:
        return SlotContext(self.sim, self.gpu, self, slot_id=slot_id,
                           occupancy=self.occupancy, trace=self.trace,
                           dispatched=dispatched)

    def _tasks_uniform_batchable(self) -> bool:
        """True if every task is identical, hook-free and compute-free."""
        first = self.tasks[0]
        if first.on_complete is not None or first.compute is not None:
            return False
        cost, repeat = first.cost, first.repeat
        for t in self.tasks:
            if (t.on_complete is not None or t.compute is not None
                    or t.repeat != repeat
                    or not (t.cost is cost or t.cost == cost)):
                return False
        return True

    def _task_duration(self, task: WgTask) -> float:
        """Duration of ``task``, memoized per ``(cost, repeat)``.

        Runs of consecutive tasks share one cost object, so the last
        lookup is checked by identity before hashing the cost.
        """
        cost, repeat = task.cost, task.repeat
        last = self._last_duration
        if last[0] is cost and last[1] == repeat:
            return last[2]
        dur = self._durations.get((cost, repeat))
        if dur is None:
            dur = repeat * (self.gpu.wg_duration(cost, self.occupancy)
                            + self.gpu.spec.wg_dispatch_overhead)
            self._durations[(cost, repeat)] = dur
        self._last_duration = (cost, repeat, dur)
        return dur

    def _run_uniform_fast(self) -> Generator:
        """Fast-forward a fully uniform, epilogue-free kernel.

        Greedy pulls from the shared queue are round-robin here, so slot
        ``s`` executes ``q + 1`` tasks if ``s < r`` else ``q`` (with ``q, r
        = divmod(n_tasks, n_slots)``), back to back.  Only the joint finish
        is observable: the slot(s) with the largest task count end last,
        and the end time replays the per-task ``now + dur`` float
        accumulation exactly.
        """
        dur = self._task_duration(self.tasks[0])
        q, r = divmod(len(self.tasks), self.n_slots)
        end = self.sim.now
        for _ in range(q + (1 if r else 0)):
            end += dur
        yield self.sim.timeout_at(end)

    def _slot_loop(self, ctx: SlotContext, queue: deque) -> Generator:
        """Per-task reference: one physical WG as its own process."""
        sim = self.sim
        tracing = self.trace.enabled
        popleft = queue.popleft
        while queue:
            task = popleft()
            if tracing:
                ctx.record("wg_start", task=task.task_id, **task.meta)
            if task.compute is not None:
                task.compute()
            yield sim.timeout(self._task_duration(task))
            if tracing:
                ctx.record("wg_end", task=task.task_id)
            if task.on_complete is not None:
                hook = task.on_complete(ctx, task)
                if hook is not None:
                    yield from hook
        if self.epilogue is not None:
            epi = self.epilogue(ctx)
            if epi is not None:
                ctx.record("wait_start")
                yield from epi
                ctx.record("wait_end")

    # -- estimates ------------------------------------------------------------
    def compute_time_estimate(self) -> float:
        """Closed-form compute-only estimate (ignores hooks/epilogues)."""
        total = sum(
            t.repeat * (self.gpu.wg_duration(t.cost, self.occupancy)
                        + self.gpu.spec.wg_dispatch_overhead)
            for t in self.tasks)
        return (self.gpu.spec.kernel_launch_overhead
                + total / max(self.n_slots, 1))


class _Dispatcher:
    """Runs every physical WG of one kernel launch from a local wake-up heap.

    Heap entries are ``(wake time, local seq, slot, item)``: ``item`` is the
    slot's current :class:`WgTask` (its compute time ends at the wake time)
    or the hook generator to continue after a :class:`Charge`.  One
    simulator timer is armed per distinct wake time (see the module
    docstring).  ``now`` is threaded through the slot methods so the hot
    path reads the clock once per timer or resume.
    """

    __slots__ = ("kernel", "sim", "queue", "ctxs", "heap", "seq", "armed",
                 "in_epilogue", "live", "finished", "trace", "failed")

    def __init__(self, kernel: PersistentKernel, finished: Event):
        self.kernel = kernel
        self.sim = kernel.sim
        self.queue = deque(kernel.tasks)
        self.ctxs = [kernel._slot_context(s, dispatched=True)
                     for s in range(kernel.n_slots)]
        self.heap: list = []
        self.seq = 0
        self.armed: set = set()
        self.in_epilogue = [False] * kernel.n_slots
        self.live = kernel.n_slots
        self.finished = finished
        self.trace = kernel.trace if kernel.trace.enabled else None
        self.failed = False

    def start(self) -> None:
        """Hand every slot its first task (exceptions propagate to the
        kernel's generator, failing its process)."""
        now = self.sim.now
        for s in range(len(self.ctxs)):
            self._next_task(s, now)
        self._arm()

    # -- scheduling -------------------------------------------------------------
    def _arm(self) -> None:
        """Arm a timer for the earliest wake time; later ones are armed
        when they become the earliest, so each distinct time gets one."""
        heap = self.heap
        if heap and not self.failed:
            when = heap[0][0]
            if when not in self.armed:
                self.armed.add(when)
                self.sim.timeout_at(when).add_callback(self._on_timer)

    def _fail(self, exc: Exception) -> None:
        self.failed = True
        if not self.finished.triggered:
            self.finished.fail(exc)

    def _on_timer(self, _ev: Event) -> None:
        now = self.sim.now
        self.armed.discard(now)
        if self.failed:
            return
        heap = self.heap
        pop = heapq.heappop
        # Entries pushed while this batch runs wake later than every event
        # already queued for ``now``, as their timeouts would have.
        limit = self.seq
        try:
            while heap and heap[0][0] <= now and heap[0][1] <= limit:
                if self.failed:  # a hook resumed inside this batch raised
                    return
                _when, _seq, slot, item = pop(heap)
                if type(item) is WgTask:
                    self._task_done(slot, item, now)
                else:
                    self._step(slot, item, None, now)
        except Exception as exc:
            self._fail(exc)
            return
        self._arm()

    def _resume(self, slot: int, gen: Generator, ev: Event) -> None:
        if self.failed:
            return
        try:
            self._step(slot, gen, ev, self.sim.now)
        except Exception as exc:
            self._fail(exc)
            return
        self._arm()

    # -- one slot ---------------------------------------------------------------
    def _next_task(self, slot: int, now: float) -> None:
        if self.queue:
            task = self.queue.popleft()
            trace = self.trace
            if trace is not None:
                trace.record(now, "wg_start", self.ctxs[slot].actor,
                             task=task.task_id, **task.meta)
            if task.compute is not None:
                task.compute()
            self.seq += 1
            heapq.heappush(self.heap, (now + self.kernel._task_duration(task),
                                       self.seq, slot, task))
            return
        ctx = self.ctxs[slot]
        epilogue = self.kernel.epilogue
        gen = epilogue(ctx) if epilogue is not None else None
        if gen is None:
            self._slot_done()
            return
        ctx.record("wait_start")
        self.in_epilogue[slot] = True
        self._step(slot, gen, None, now)

    def _task_done(self, slot: int, task: WgTask, now: float) -> None:
        trace = self.trace
        if trace is not None:
            trace.record(now, "wg_end", self.ctxs[slot].actor,
                         task=task.task_id)
        if task.on_complete is not None:
            hook = task.on_complete(self.ctxs[slot], task)
            if hook is not None:
                self._step(slot, hook, None, now)
                return
        self._next_task(slot, now)

    def _step(self, slot: int, gen: Generator, ev: Optional[Event],
              now: float) -> None:
        """Advance a hook or epilogue generator to its next yield."""
        try:
            if ev is None:
                nxt = gen.send(None)
            elif ev._ok:
                nxt = gen.send(ev._value)
            else:
                nxt = gen.throw(ev._value)
        except StopIteration:
            nxt = _FINISHED
        if type(nxt) is Charge:
            self.seq += 1
            heapq.heappush(self.heap, (now + nxt.delay, self.seq, slot, gen))
        elif nxt is _FINISHED:
            if self.in_epilogue[slot]:
                self.ctxs[slot].record("wait_end")
                self._slot_done()
            else:
                self._next_task(slot, now)
        elif isinstance(nxt, Event):
            nxt.add_callback(
                lambda e, slot=slot, gen=gen: self._resume(slot, gen, e))
        else:
            raise SimulationError(
                f"kernel {self.kernel.name!r} hook yielded non-event {nxt!r}")

    def _slot_done(self) -> None:
        self.live -= 1
        if self.live == 0:
            self.finished.succeed()


def make_uniform_tasks(n: int, cost: WgCost, repeat: int = 1,
                       **meta) -> List[WgTask]:
    """``n`` identical tasks (typical regular kernels)."""
    if n < 1:
        raise ValueError("need at least one task")
    return [WgTask(task_id=i, cost=cost, repeat=repeat, meta=dict(meta))
            for i in range(n)]


def bulk_kernel_time(gpu: Gpu, n_wgs: int, cost: WgCost,
                     resources: KernelResources) -> float:
    """Closed-form time of a bulk-synchronous kernel of ``n_wgs`` uniform WGs.

    The kernel runs whole rounds of resident WGs at the kernel's occupancy;
    the remainder (tail) round runs at the *tail's* reduced occupancy —
    fewer resident WGs means each gets a larger share of a (ramp-limited)
    smaller aggregate bandwidth.  When the whole grid is smaller than the
    residency limit, the entire kernel is one such reduced-occupancy round
    — the effect behind the paper's observation that small batch sizes
    leave the baseline's per-table embedding kernels underutilized
    (Fig. 12).
    """
    if n_wgs < 1:
        raise ValueError("n_wgs must be >= 1")
    occ = gpu.occupancy(resources)
    total = gpu.spec.kernel_launch_overhead
    full_rounds, tail = divmod(n_wgs, occ.resident_wgs)
    if full_rounds:
        total += full_rounds * (gpu.wg_duration(cost, occ)
                                + gpu.spec.wg_dispatch_overhead)
    if tail:
        tail_occ = occ.limited_to(tail)
        total += (gpu.wg_duration(cost, tail_occ)
                  + gpu.spec.wg_dispatch_overhead)
    return total


def run_kernel(gpu: Gpu, resources: KernelResources, tasks: Sequence[WgTask],
               name: str = "kernel",
               trace: Optional[TraceRecorder] = None) -> Generator:
    """Convenience: execute a plain bulk-synchronous kernel (no hooks)."""
    kern = PersistentKernel(gpu, resources, tasks, name=name, trace=trace)
    yield from kern.run()
