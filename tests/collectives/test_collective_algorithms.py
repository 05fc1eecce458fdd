"""The collective-algorithm library: registry, degenerate collapse,
DES-vs-analytic equivalence, and the auto-selector.

The equivalence tests are the library's core contract (mirroring
``tests/analytic/test_device_comm.py``): every algorithm's closed form
must track its DES schedule.  Lock-stepped schedules (ring, tree,
pairwise) and two-stage hierarchies agree to float noise on every tested
shape; the flat/direct incast forms inherit the pre-existing shared-NIC
pipeline approximation on 3+-node shapes and are held to the analytic
backend's accuracy budget there.
"""

import pytest

from repro.analytic import CommModel
from repro.analytic.validate import ACCURACY_BUDGET
from repro.collectives import (
    AUTO,
    CommTopology,
    allreduce_names,
    alltoall_names,
    check_algo,
    default_allreduce,
    default_alltoall,
    get_allreduce,
    get_alltoall,
    resolve_allreduce,
    select_allreduce,
    select_alltoall,
)
from repro.fused.base import OpHarness

BUDGET = max(v for v in ACCURACY_BUDGET.values())

#: Shapes the equivalence grid runs on.
SHAPES = [(1, 1), (1, 4), (2, 1), (2, 2), (2, 4), (3, 2), (4, 2)]

#: (algorithm, shape) pairs where the closed form is the DES schedule's
#: exact per-round mirror.  Everything else must sit inside the budget.
_EXACT_AR = {
    "direct": {(1, 1), (1, 4), (2, 1)},
    "ring": set(SHAPES),
    "tree": set(SHAPES),
    "hier": set(SHAPES),
}
_EXACT_A2A = {
    "flat": {(1, 1), (1, 4), (2, 1), (2, 2), (2, 4)},
    "pairwise": set(SHAPES),
    "hier": {(1, 1), (1, 4), (2, 1), (2, 2), (2, 4)},
}


def des_allreduce(nodes, gpn, nbytes, n_elems, itemsize, algo):
    h = OpHarness(num_nodes=nodes, gpus_per_node=gpn)
    start = h.sim.now
    h.sim.run_process(h.comm.collectives.all_reduce_bytes(
        nbytes, n_elems, itemsize=itemsize, algorithm=algo))
    return h.sim.now - start


def des_alltoall(nodes, gpn, chunk, algo):
    h = OpHarness(num_nodes=nodes, gpus_per_node=gpn)
    start = h.sim.now
    h.sim.run_process(h.comm.collectives.all_to_all_bytes(
        chunk, algorithm=algo))
    return h.sim.now - start


# ---------------------------------------------------------------------------
# Registry + validation
# ---------------------------------------------------------------------------

def test_registry_contents():
    assert set(allreduce_names()) >= {"direct", "ring", "tree", "hier"}
    assert set(alltoall_names()) >= {"flat", "pairwise", "hier"}


def test_unknown_algorithm_raises_keyerror_with_choices():
    with pytest.raises(KeyError, match=r"unknown AllReduce algorithm "
                                       r"'bogus'.*registered.*ring"):
        get_allreduce("bogus")
    with pytest.raises(KeyError, match=r"unknown All-to-All algorithm "
                                       r"'bogus'.*registered.*flat"):
        get_alltoall("bogus")


def test_check_algo():
    check_algo("allreduce", None)
    check_algo("allreduce", AUTO)
    check_algo("allreduce", "tree")
    check_algo("alltoall", "pairwise")
    with pytest.raises(KeyError):
        check_algo("allreduce", "flat")      # an alltoall-only name
    with pytest.raises(KeyError):
        check_algo("alltoall", "ring")       # an allreduce-only name
    with pytest.raises(ValueError, match="kind"):
        check_algo("gather", "ring")


def test_topology_helpers():
    topo = CommTopology(2, 4)
    assert topo.world == 8
    assert topo.node_of(5) == 1 and topo.local_index(5) == 1
    assert topo.leader_of(6) == 4
    assert topo.leaders() == [0, 4]
    assert topo.counterpart(1, 1) == 5
    assert topo.local_peers(5) == [4, 6, 7]
    with pytest.raises(ValueError):
        CommTopology(0, 4)


def test_topology_from_cluster_matches_build():
    h = OpHarness(num_nodes=2, gpus_per_node=2)
    topo = CommTopology.from_cluster(h.cluster)
    assert (topo.num_nodes, topo.gpus_per_node) == (2, 2)


# ---------------------------------------------------------------------------
# DES vs analytic equivalence (the library's core contract)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("nodes,gpn", SHAPES)
@pytest.mark.parametrize("algo", ["direct", "ring", "tree", "hier"])
@pytest.mark.parametrize("n_elems", [4096, 1 << 20])
def test_allreduce_des_vs_analytic(nodes, gpn, algo, n_elems):
    nbytes = float(n_elems * 2)
    sim_time = des_allreduce(nodes, gpn, nbytes, n_elems, 2, algo)
    cm = CommModel("mi210", num_nodes=nodes, gpus_per_node=gpn)
    pred = cm.allreduce_time(nbytes, n_elems, itemsize=2, algo=algo)
    if (nodes, gpn) in _EXACT_AR[algo]:
        assert pred == pytest.approx(sim_time, rel=1e-9)
    else:
        assert pred == pytest.approx(sim_time, rel=BUDGET)


@pytest.mark.parametrize("nodes,gpn", SHAPES)
@pytest.mark.parametrize("algo", ["flat", "pairwise", "hier"])
@pytest.mark.parametrize("chunk", [4096.0, 8.0 * 1024 * 1024])
def test_alltoall_des_vs_analytic(nodes, gpn, algo, chunk):
    sim_time = des_alltoall(nodes, gpn, chunk, algo)
    cm = CommModel("mi210", num_nodes=nodes, gpus_per_node=gpn)
    pred = cm.alltoall_time(chunk, algo=algo)
    if (nodes, gpn) in _EXACT_A2A[algo]:
        assert pred == pytest.approx(sim_time, rel=1e-9)
    else:
        assert pred == pytest.approx(sim_time, rel=BUDGET)


@pytest.mark.parametrize("name", ["mi250x", "h100"])
def test_equivalence_holds_across_platforms(name):
    """Spot-check a non-default catalog entry per engine pair."""
    h = OpHarness(num_nodes=2, gpus_per_node=2, platform=name)
    n_elems = 65536
    start = h.sim.now
    h.sim.run_process(h.comm.collectives.all_reduce_bytes(
        float(n_elems * 4), n_elems, itemsize=4, algorithm="hier"))
    sim_time = h.sim.now - start
    cm = CommModel(name, num_nodes=2, gpus_per_node=2)
    assert cm.allreduce_time(float(n_elems * 4), n_elems, itemsize=4,
                             algo="hier") == pytest.approx(sim_time,
                                                           rel=1e-9)


# ---------------------------------------------------------------------------
# Degenerate hierarchical shapes collapse to the flat schedules
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("nodes,gpn,flat_equiv", [
    (1, 4, "direct"),   # one node: no NIC stage to split off
    (1, 1, "direct"),
    (2, 1, "ring"),     # no fabric peers: nothing to stage over
    (4, 1, "ring"),
])
def test_hier_allreduce_degenerates_exactly(nodes, gpn, flat_equiv):
    n_elems = 4096
    nbytes = float(n_elems * 4)
    assert des_allreduce(nodes, gpn, nbytes, n_elems, 4, "hier") == \
        des_allreduce(nodes, gpn, nbytes, n_elems, 4, flat_equiv)
    cm = CommModel("mi210", num_nodes=nodes, gpus_per_node=gpn)
    assert cm.allreduce_time(nbytes, n_elems, algo="hier") == \
        cm.allreduce_time(nbytes, n_elems, algo=flat_equiv)


@pytest.mark.parametrize("nodes,gpn", [(1, 4), (1, 1), (2, 1), (4, 1)])
def test_hier_alltoall_degenerates_to_flat(nodes, gpn):
    """Single-GPU nodes (and single nodes) must collapse to the flat
    schedule — not divide by zero on the empty fabric-peer set."""
    chunk = 32768.0
    assert des_alltoall(nodes, gpn, chunk, "hier") == \
        des_alltoall(nodes, gpn, chunk, "flat")
    cm = CommModel("mi210", num_nodes=nodes, gpus_per_node=gpn)
    assert cm.alltoall_time(chunk, algo="hier") == \
        cm.alltoall_time(chunk, algo="flat")


# ---------------------------------------------------------------------------
# Auto-selection
# ---------------------------------------------------------------------------

def test_defaults_are_the_legacy_schedules():
    assert default_allreduce(CommTopology(1, 4)) == "direct"
    assert default_allreduce(CommTopology(2, 1)) == "ring"
    assert default_alltoall(CommTopology(1, 4)) == "flat"
    assert default_alltoall(CommTopology(2, 4)) == "flat"


def test_selector_by_regime():
    assert select_allreduce(CommTopology(1, 4), 1 << 30) == "direct"
    assert select_allreduce(CommTopology(2, 1), 4096) == "tree"
    assert select_allreduce(CommTopology(2, 1), 1 << 24) == "ring"
    assert select_allreduce(CommTopology(2, 4), 4096) == "hier"
    assert select_allreduce(CommTopology(2, 4), 1 << 24) == "ring"
    assert select_alltoall(CommTopology(1, 4), 1 << 24) == "flat"
    assert select_alltoall(CommTopology(2, 1), 1024) == "pairwise"
    assert select_alltoall(CommTopology(2, 4), 1024) == "hier"
    assert select_alltoall(CommTopology(2, 4), 1 << 24) == "flat"


def test_selector_picks_win_over_alternative():
    """At representative points the selected schedule actually beats the
    schedule the selector rejected (on the calibrated MI210 models)."""
    # Tree needs the log2(p) round count to pay off: 4+ nodes, small
    # payloads (at 2 nodes tree and ring are the same two hops).
    cm41 = CommModel("mi210", num_nodes=4, gpus_per_node=1)
    n = 1024
    assert cm41.allreduce_time(float(4 * n), n, algo="tree") < \
        cm41.allreduce_time(float(4 * n), n, algo="ring")
    n = 1 << 22
    assert cm41.allreduce_time(float(4 * n), n, algo="ring") < \
        cm41.allreduce_time(float(4 * n), n, algo="tree")
    cm24 = CommModel("mi210", num_nodes=2, gpus_per_node=4)
    assert cm24.alltoall_time(512.0, algo="hier") < \
        cm24.alltoall_time(512.0, algo="flat")
    assert cm24.alltoall_time(8.0 * 1024 * 1024, algo="flat") < \
        cm24.alltoall_time(8.0 * 1024 * 1024, algo="hier")


def test_auto_resolves_and_runs_everywhere():
    topo = CommTopology(2, 4)
    assert resolve_allreduce(AUTO, topo, 4096.0).name == "hier"
    assert des_allreduce(2, 2, 4096.0, 1024, 4, "auto") > 0
    assert des_alltoall(2, 2, 4096.0, "auto") > 0
    cm = CommModel("mi210", num_nodes=2, gpus_per_node=2)
    assert cm.allreduce_time(4096.0, 1024, algo="auto") > 0
    assert cm.alltoall_time(4096.0, algo="auto") > 0
