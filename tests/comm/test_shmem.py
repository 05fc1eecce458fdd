"""Tests for the GPU-initiated SHMEM API (put/fence/quiet/flags)."""

import numpy as np
import pytest

from repro.comm import Communicator
from repro.hw import IF_LINK, build_cluster
from repro.sim import Simulator


@pytest.fixture
def scaleup():
    sim = Simulator()
    cluster = build_cluster(sim, num_nodes=1, gpus_per_node=4)
    return sim, cluster, Communicator(cluster)


@pytest.fixture
def scaleout():
    sim = Simulator()
    cluster = build_cluster(sim, num_nodes=2, gpus_per_node=1)
    return sim, cluster, Communicator(cluster)


def test_put_nbi_moves_data(scaleup):
    sim, cluster, comm = scaleup
    buf = comm.alloc((8,), np.float32)
    src = np.arange(8, dtype=np.float32)

    def proc(sim):
        ev = comm.ctx(0).put_nbi(buf, src, dst_rank=2)
        yield ev
        return sim.now

    end = sim.run_process(proc(sim))
    np.testing.assert_array_equal(buf.local(2), src)
    assert np.all(buf.local(1) == 0)  # only the destination rank got it
    assert end == pytest.approx(src.nbytes / IF_LINK.bandwidth + IF_LINK.latency)


def test_put_to_self_is_instant(scaleup):
    sim, cluster, comm = scaleup
    buf = comm.alloc((4,), np.float32)

    def proc(sim):
        yield comm.ctx(1).put_nbi(buf, np.ones(4, np.float32), dst_rank=1)
        return sim.now

    assert sim.run_process(proc(sim)) == 0.0
    assert np.all(buf.local(1) == 1.0)


def test_put_nbi_partial_index(scaleup):
    sim, cluster, comm = scaleup
    buf = comm.alloc((4, 8), np.float32)

    def proc(sim):
        yield comm.ctx(0).put_nbi(buf, np.full(8, 3.0, np.float32),
                                  dst_rank=1, dst_index=(2, slice(None)))

    sim.run_process(proc(sim))
    assert np.all(buf.local(1)[2] == 3.0)
    assert np.all(buf.local(1)[0] == 0.0)


def test_put_bad_rank_raises(scaleup):
    _sim, _cluster, comm = scaleup
    buf = comm.alloc((4,), np.float32)
    with pytest.raises(ValueError, match="bad destination rank"):
        comm.ctx(0).put_nbi(buf, np.zeros(4, np.float32), dst_rank=9)


def test_fence_waits_for_prior_puts(scaleup):
    sim, cluster, comm = scaleup
    buf = comm.alloc((1024,), np.float32)

    def proc(sim):
        ctx = comm.ctx(0)
        ctx.put_nbi(buf, np.zeros(1024, np.float32), dst_rank=1)
        t_issue = sim.now
        yield ctx.fence(1)
        return sim.now - t_issue

    dt = sim.run_process(proc(sim))
    assert dt >= 4096 / IF_LINK.bandwidth  # payload must have drained


def test_quiet_covers_all_destinations(scaleup):
    sim, cluster, comm = scaleup
    buf = comm.alloc((1 << 20,), np.float32)
    payload = np.zeros(1 << 20, np.float32)

    def proc(sim):
        ctx = comm.ctx(0)
        e1 = ctx.put_nbi(buf, payload, dst_rank=1)
        e2 = ctx.put_nbi(buf, payload, dst_rank=2)
        yield ctx.quiet()
        return e1.processed and e2.processed

    assert sim.run_process(proc(sim)) is True


def test_put_signal_orders_flag_after_payload(scaleup):
    """The sliceRdy flag must never be visible before the slice data."""
    sim, cluster, comm = scaleup
    buf = comm.alloc((1 << 18,), np.float32)
    flags = comm.alloc_flags(4)
    payload = np.ones(1 << 18, np.float32)
    times = {}

    def producer(sim):
        ev = comm.ctx(0).put_signal(buf, payload, dst_rank=1,
                                    flags=flags, flag_idx=0)
        yield ev
        times["flag_visible"] = sim.now

    def consumer(sim):
        yield comm.ctx(1).wait_until(flags, 0)
        times["consumed"] = sim.now
        # Data is guaranteed complete at this point.
        assert np.all(buf.local(1) == 1.0)

    sim.process(producer(sim))
    sim.process(consumer(sim))
    sim.run()
    payload_time = payload.nbytes / IF_LINK.bandwidth
    assert times["consumed"] >= payload_time
    assert times["consumed"] == pytest.approx(times["flag_visible"])


def test_put_signal_across_nodes(scaleout):
    sim, cluster, comm = scaleout
    buf = comm.alloc((1024,), np.float32)
    flags = comm.alloc_flags(1)

    def producer(sim):
        yield comm.ctx(0).put_signal(buf, np.full(1024, 5.0, np.float32),
                                     dst_rank=1, flags=flags, flag_idx=0)

    def consumer(sim):
        yield comm.ctx(1).wait_until(flags, 0)
        return sim.now

    sim.process(producer(sim))
    c = sim.process(consumer(sim))
    sim.run()
    assert np.all(buf.local(1) == 5.0)
    assert c.value > 0


def test_wait_until_already_set_is_instant(scaleup):
    sim, cluster, comm = scaleup
    flags = comm.alloc_flags(2)
    flags.set(0, 1, value=3)

    def proc(sim):
        v = yield comm.ctx(0).wait_until(flags, 1, value=2)
        return (sim.now, v)

    t, v = sim.run_process(proc(sim))
    assert t == 0.0 and v == 3


def test_flag_array_threshold_semantics(scaleup):
    sim, _cluster, comm = scaleup
    flags = comm.alloc_flags(1)
    ev = flags.wait_until(0, 0, value=5)
    flags.set(0, 0, value=3)
    assert not ev.triggered
    flags.set(0, 0, value=5)
    sim.run()
    assert ev.processed


def test_wait_all_already_set_fires_now(scaleup):
    sim, _cluster, comm = scaleup
    flags = comm.alloc_flags(4)
    for idx in (0, 2, 3):
        flags.set(1, idx)

    def proc(sim):
        yield flags.wait_all(1, [0, 2, 3])
        return sim.now

    assert sim.run_process(proc(sim)) == 0.0
    assert flags._waiters == {}


def test_wait_all_fires_when_the_last_unset_flag_is_set(scaleup):
    sim, _cluster, comm = scaleup
    flags = comm.alloc_flags(4)
    flags.set(0, 1)
    ev = flags.wait_all(0, range(4))
    # One countdown, registered only on the three flags still unset.
    assert sorted(flags._waiters) == [(0, 0), (0, 2), (0, 3)]

    seen = []

    def setter(sim):
        for idx in (3, 0, 2):
            yield sim.timeout(1.0)
            flags.set(0, idx)
            seen.append((sim.now, ev.triggered))

    sim.process(setter(sim))
    sim.run()
    assert seen == [(1.0, False), (2.0, False), (3.0, True)]
    assert ev.processed and flags._waiters == {}


def test_wait_all_value_threshold(scaleup):
    sim, _cluster, comm = scaleup
    flags = comm.alloc_flags(2)
    flags.set(0, 0, value=5)
    ev = flags.wait_all(0, [0, 1], value=4)
    flags.set(0, 1, value=3)
    assert not ev.triggered
    flags.set(0, 1, value=4)
    sim.run()
    assert ev.processed


def test_wait_all_empty_index_list_fires_now(scaleup):
    sim, _cluster, comm = scaleup
    flags = comm.alloc_flags(1)
    ev = flags.wait_all(0, [])
    sim.run()
    assert ev.processed and sim.now == 0.0


def test_wait_all_on_never_set_flag_deadlocks(scaleup):
    from repro.sim import SimulationError

    sim, _cluster, comm = scaleup
    flags = comm.alloc_flags(3)
    flags.set(0, 0)
    flags.set(0, 2)

    def proc(sim):
        yield flags.wait_all(0, range(3))

    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_process(proc(sim))
    with pytest.raises(RuntimeError, match="pending waiters"):
        flags.reset()


def test_flag_reset_guards_pending_waiters(scaleup):
    _sim, _cluster, comm = scaleup
    flags = comm.alloc_flags(1)
    flags.wait_until(0, 0)
    with pytest.raises(RuntimeError, match="pending waiters"):
        flags.reset()


def test_flag_all_set(scaleup):
    _sim, _cluster, comm = scaleup
    flags = comm.alloc_flags(3)
    flags.set(1, 0)
    flags.set(1, 1)
    assert not flags.all_set(1)
    flags.set(1, 2)
    assert flags.all_set(1)


def test_stats_accounting(scaleup):
    sim, _cluster, comm = scaleup
    buf = comm.alloc((16,), np.float32)

    def proc(sim):
        ctx = comm.ctx(0)
        ctx.put_nbi(buf, np.zeros(16, np.float32), dst_rank=1)
        ctx.put_nbi(buf, np.zeros(16, np.float32), dst_rank=2)
        yield ctx.quiet()

    sim.run_process(proc(sim))
    assert comm.ctx(0).puts_issued == 2
    assert comm.ctx(0).bytes_put == 128.0


def test_barrier_releases_all_ranks(scaleup):
    sim, cluster, comm = scaleup
    released = []

    def rank_proc(sim, r, delay):
        yield sim.timeout(delay)
        yield comm.barrier()
        released.append((r, sim.now))

    for r in range(4):
        sim.process(rank_proc(sim, r, float(r)))
    sim.run()
    assert all(t == 3.0 for _r, t in released)
    assert len(released) == 4
