"""Tests for the baseline bulk-synchronous collective library."""

import pytest

from repro.comm import CollectiveLibrary, Communicator
from repro.hw import MI210, build_cluster
from repro.sim import Simulator


def make(num_nodes=1, gpus_per_node=4):
    sim = Simulator()
    cluster = build_cluster(sim, num_nodes=num_nodes, gpus_per_node=gpus_per_node)
    return sim, cluster, CollectiveLibrary(cluster)


def run(sim, gen):
    return sim.run_process(gen)


def elapsed(sim, gen):
    """Simulated time for ``gen`` to complete from t=0."""
    def proc(sim):
        yield from gen
        return sim.now

    return run(sim, proc(sim))


# ---------------------------------------------------------------------------
# All-to-All
# ---------------------------------------------------------------------------

def test_alltoall_intranode_takes_time():
    sim, cluster, lib = make()
    chunk = (1 << 20) * 4  # bytes per (src,dst) chunk
    end = elapsed(sim, lib.all_to_all_bytes(float(chunk)))
    assert end >= MI210.kernel_launch_overhead + chunk / 80e9


def test_alltoall_internode_slower_than_intranode():
    """20 GB/s IB + serialized NIC vs 80 GB/s parallel fabric links."""
    t = {}
    for label, (nodes, gpn) in {"intra": (1, 2), "inter": (2, 1)}.items():
        sim, cluster, lib = make(nodes, gpn)
        t[label] = elapsed(sim, lib.all_to_all_bytes(float((1 << 21) * 4)))
    assert t["inter"] > 2 * t["intra"]


# ---------------------------------------------------------------------------
# AllReduce
# ---------------------------------------------------------------------------

def test_allreduce_direct_faster_than_ring_intranode():
    times = {}
    n = 1 << 22
    for algo in ("direct", "ring"):
        sim, cluster, lib = make()
        times[algo] = elapsed(sim, lib.all_reduce_bytes(
            float(n * 4), n, algorithm=algo))
    assert times["direct"] < times["ring"]


def test_allreduce_default_algorithm_by_topology():
    """``algorithm=None`` is direct inside one node, ring across nodes."""
    n = 1 << 16
    for shape, legacy in {(1, 4): "direct", (2, 2): "ring"}.items():
        times = {}
        for algo in (None, legacy):
            sim, cluster, lib = make(*shape)
            times[algo] = elapsed(sim, lib.all_reduce_bytes(
                float(n * 4), n, algorithm=algo))
        assert times[None] == times[legacy]


def test_allreduce_world_one():
    sim, cluster, lib = make(1, 1)
    end = elapsed(sim, lib.all_reduce_bytes(16.0, 4))
    assert end == MI210.kernel_launch_overhead


def test_allreduce_validation():
    sim, cluster, lib = make()
    with pytest.raises(ValueError, match="nbytes"):
        run(sim, lib.all_reduce_bytes(-1.0, 4))
    sim2, _c, lib2 = make()
    with pytest.raises(KeyError, match="unknown AllReduce algorithm"):
        run(sim2, lib2.all_reduce_bytes(16.0, 4, algorithm="magic"))


def test_launch_overhead_toggle():
    sim, cluster, _ = make(1, 2)
    lib_no = CollectiveLibrary(cluster, launch_overhead=False)
    end = elapsed(sim, lib_no.all_to_all_bytes(4.0))
    assert end < MI210.kernel_launch_overhead


def test_allreduce_consistent_with_communicator():
    """A Communicator's library times collectives like a standalone one."""
    n = 1 << 12
    sim, cluster, lib = make()
    standalone = elapsed(sim, lib.all_reduce_bytes(float(n * 4), n))
    sim2 = Simulator()
    comm = Communicator(build_cluster(sim2, num_nodes=1, gpus_per_node=4))
    assert elapsed(sim2, comm.collectives.all_reduce_bytes(
        float(n * 4), n)) == standalone
