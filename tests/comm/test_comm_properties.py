"""Property-based tests for communication-layer invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import Communicator
from repro.hw import build_cluster
from repro.sim import Simulator


def make_env(num_nodes=1, gpus_per_node=4):
    sim = Simulator()
    cluster = build_cluster(sim, num_nodes=num_nodes,
                            gpus_per_node=gpus_per_node)
    return sim, cluster, Communicator(cluster)


# ---------------------------------------------------------------------------
# Flag ordering invariant under random put schedules
# ---------------------------------------------------------------------------

@given(n_slices=st.integers(1, 12), nbytes=st.integers(64, 1 << 16),
       stagger=st.floats(0.0, 1e-4))
@settings(max_examples=25, deadline=None)
def test_flag_never_precedes_payload(n_slices, nbytes, stagger):
    """Whenever a consumer observes sliceRdy, the payload is delivered —
    for any message size and issue staggering."""
    sim, cluster, comm = make_env(2, 1)
    buf = comm.alloc((n_slices, nbytes // 4 + 1), np.float32)
    flags = comm.alloc_flags(n_slices)
    violations = []

    def producer(sim):
        ctx = comm.ctx(0)
        for s in range(n_slices):
            payload = np.full(nbytes // 4 + 1, s + 1, np.float32)
            ctx.put_signal(buf, payload, dst_rank=1, flags=flags,
                           flag_idx=s, dst_index=(s, slice(None)))
            yield sim.timeout(stagger)

    def consumer(sim):
        for s in range(n_slices):
            yield comm.ctx(1).wait_until(flags, s)
            if not np.all(buf.local(1)[s] == s + 1):
                violations.append(s)

    sim.process(producer(sim))
    sim.process(consumer(sim))
    sim.run()
    assert violations == []


@given(sizes=st.lists(st.integers(1, 1 << 18), min_size=1, max_size=10))
@settings(max_examples=25, deadline=None)
def test_quiet_implies_all_delivered(sizes):
    sim, cluster, comm = make_env(2, 1)

    def proc(sim):
        ctx = comm.ctx(0)
        evs = [ctx.put_bytes(1, float(s)) for s in sizes]
        yield ctx.quiet()
        return all(ev.processed for ev in evs)

    assert sim.run_process(proc(sim)) is True


@given(sizes=st.lists(st.integers(1, 1 << 16), min_size=2, max_size=8),
       data=st.data())
@settings(max_examples=25, deadline=None)
def test_fence_orders_only_target_destination(sizes, data):
    """fence(d) waits for puts to d but not for puts to other ranks."""
    sim, cluster, comm = make_env(1, 4)
    split = data.draw(st.integers(1, len(sizes) - 1))

    def proc(sim):
        ctx = comm.ctx(0)
        to_d = [ctx.put_bytes(1, float(s)) for s in sizes[:split]]
        for s in sizes[split:]:
            ctx.put_bytes(2, float(s))
        yield ctx.fence(1)
        d_done = all(ev.processed for ev in to_d)
        return d_done

    assert sim.run_process(proc(sim)) is True


def test_cpu_proxy_adds_latency_per_message():
    times = {}
    for proxy in (False, True):
        sim = Simulator()
        cluster = build_cluster(sim, num_nodes=2, gpus_per_node=1)
        comm = Communicator(cluster, cpu_proxy=proxy)

        def proc(sim, comm=comm):
            yield comm.ctx(0).put_bytes(1, 64.0)
            return sim.now

        times[proxy] = sim.run_process(proc(sim))
    from repro.comm.shmem import ShmemContext

    assert times[True] == pytest.approx(
        times[False] + ShmemContext.CPU_PROXY_LATENCY)
