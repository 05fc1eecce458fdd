"""Fast path vs. per-task slow path: bit-identical simulated behaviour.

The fast-path simulation core (the kernel dispatcher, the uniform-kernel
fast-forward, memoized cost models, zero-overhead tracing) must change
*host* time only.  These tests run the same operators with
``REPRO_SIM_FASTPATH`` on and off across a seeded randomized grid of
configurations and require the observable outputs — final ``sim.now``,
per-rank elapsed/end times, figure-level ``Row.normalized`` and the
exported Chrome trace — to be equal to the last ulp (``==``, no tolerance).
"""

import dataclasses
import random

import numpy as np

from repro.bench.harness import Row
from repro.fused.base import OpHarness, fused_kernel_resources
from repro.fused.embedding_alltoall import (
    BaselineEmbeddingAllToAll,
    EmbeddingA2AConfig,
    FusedEmbeddingAllToAll,
)
from repro.fused.embedding_grad_alltoall import (
    BaselineEmbeddingGradAllToAll,
    FusedEmbeddingGradAllToAll,
)
from repro.fused.gemm_alltoall import (
    BaselineGemmAllToAll,
    FusedGemmAllToAll,
    GemmA2AConfig,
)
from repro.fused.gemv_allreduce import (
    BaselineGemvAllReduce,
    FusedGemvAllReduce,
    GemvAllReduceConfig,
)
from repro.hw.specs import MI210
from repro.kernels import PersistentKernel, WgTask, make_uniform_tasks
from repro.hw.gpu import Gpu, WgCost
from repro.obs.chrome import chrome_trace_json
from repro.sim import Simulator, TraceRecorder


def _run_pair(fused_factory, baseline_factory, num_nodes, gpus_per_node):
    """One fused/baseline pair on fresh clusters; all observables."""
    h1 = OpHarness(num_nodes=num_nodes, gpus_per_node=gpus_per_node)
    fused = h1.run(fused_factory(h1))
    h2 = OpHarness(num_nodes=num_nodes, gpus_per_node=gpus_per_node)
    base = h2.run(baseline_factory(h2))
    row = Row(label="x", fused_time=fused.elapsed, baseline_time=base.elapsed)
    return {
        "fused_elapsed": fused.elapsed,
        "baseline_elapsed": base.elapsed,
        "normalized": row.normalized,
        "rank_end_times": dict(fused.stats.get("rank_end_times", {})),
        "sim_now": (h1.sim.now, h2.sim.now),
        "outputs": fused.outputs,
    }


def _both_modes(monkeypatch, runner):
    monkeypatch.setenv("REPRO_SIM_FASTPATH", "1")
    fast = runner()
    monkeypatch.setenv("REPRO_SIM_FASTPATH", "0")
    slow = runner()
    return fast, slow


def _assert_identical(fast, slow):
    assert fast["fused_elapsed"] == slow["fused_elapsed"]
    assert fast["baseline_elapsed"] == slow["baseline_elapsed"]
    assert fast["normalized"] == slow["normalized"]
    assert fast["rank_end_times"] == slow["rank_end_times"]
    assert fast["sim_now"] == slow["sim_now"]


def _random_embedding_configs(rng, n):
    cfgs = []
    for _ in range(n):
        world_shape = rng.choice([(1, 4), (2, 1), (2, 2)])
        world = world_shape[0] * world_shape[1]
        slice_vectors = rng.choice([16, 32])
        local = rng.choice([64, 128, 256]) // slice_vectors * slice_vectors
        cfgs.append((EmbeddingA2AConfig(
            global_batch=local * world,
            tables_per_gpu=rng.choice([4, 16, 32]),
            slice_vectors=slice_vectors,
            tasks_per_slice=rng.choice([0, 1, 4]),
            functional=False,
            scheduler=rng.choice(["comm_aware", "oblivious"]),
            zero_copy=rng.choice([True, False]),
        ), world_shape))
    return cfgs


def _random_gemv_configs(rng, n):
    cfgs = []
    for _ in range(n):
        cfgs.append(GemvAllReduceConfig(
            m=rng.choice([1024, 2048, 4096]),
            n_per_gpu=rng.choice([512, 2048]),
            tile_rows=rng.choice([8, 16]),
            functional=False,
            scheduler=rng.choice(["comm_aware", "oblivious"]),
        ))
    return cfgs


def test_embedding_a2a_grid_bit_identical(monkeypatch):
    rng = random.Random(0xE2A)
    for cfg, (nodes, gpn) in _random_embedding_configs(rng, 6):
        fast, slow = _both_modes(monkeypatch, lambda: _run_pair(
            lambda h: FusedEmbeddingAllToAll(h, cfg),
            lambda h: BaselineEmbeddingAllToAll(h, cfg),
            num_nodes=nodes, gpus_per_node=gpn))
        _assert_identical(fast, slow)


def test_gemv_allreduce_grid_bit_identical(monkeypatch):
    rng = random.Random(0x6E3)
    for cfg in _random_gemv_configs(rng, 4):
        fast, slow = _both_modes(monkeypatch, lambda: _run_pair(
            lambda h: FusedGemvAllReduce(h, cfg),
            lambda h: BaselineGemvAllReduce(h, cfg),
            num_nodes=1, gpus_per_node=4))
        _assert_identical(fast, slow)


def test_gemm_a2a_grid_bit_identical(monkeypatch):
    """Wrapped hooks (the per-destination tileRdy countdown around the
    Triton put), self-puts, and a charge inside every hook."""
    rng = random.Random(0x6E4)
    for _ in range(4):
        gpus = rng.choice([2, 4])
        cfg = GemmA2AConfig(
            tokens=rng.choice([256, 512]) * gpus // 2,
            model_dim=rng.choice([128, 512]),
            ffn_dim=rng.choice([256, 512]),
            functional=rng.choice([True, False]),
            scheduler=rng.choice(["comm_aware", "oblivious"]))
        fast, slow = _both_modes(monkeypatch, lambda: _run_pair(
            lambda h: FusedGemmAllToAll(h, cfg),
            lambda h: BaselineGemmAllToAll(h, cfg),
            num_nodes=1, gpus_per_node=gpus))
        _assert_identical(fast, slow)


def test_embedding_grad_grid_bit_identical(monkeypatch):
    """Apply hooks that block on a flag, then charge; send hooks that
    put to their own rank without charging."""
    rng = random.Random(0x6AD)
    for cfg, (nodes, gpn) in _random_embedding_configs(rng, 4):
        fast, slow = _both_modes(monkeypatch, lambda: _run_pair(
            lambda h: FusedEmbeddingGradAllToAll(h, cfg),
            lambda h: BaselineEmbeddingGradAllToAll(h, cfg),
            num_nodes=nodes, gpus_per_node=gpn))
        _assert_identical(fast, slow)


def test_traced_runs_export_identical_chrome_traces(monkeypatch):
    """A traced fused run steps through the dispatcher on the fast path:
    the exported trace must match the per-task path byte for byte."""
    def traced(make_op, num_nodes, gpus_per_node):
        def run():
            trace = TraceRecorder()
            h = OpHarness(num_nodes=num_nodes, gpus_per_node=gpus_per_node,
                          trace=trace)
            h.run(make_op(h))
            return chrome_trace_json(trace)
        return run

    emb = EmbeddingA2AConfig(global_batch=256, tables_per_gpu=8,
                             slice_vectors=16, tasks_per_slice=4,
                             functional=False)
    gemv = GemvAllReduceConfig(m=1024, n_per_gpu=512, functional=False)
    for run in (
            traced(lambda h: FusedEmbeddingAllToAll(h, emb), 2, 1),
            traced(lambda h: FusedEmbeddingGradAllToAll(h, emb), 1, 4),
            traced(lambda h: FusedGemvAllReduce(h, gemv), 1, 4)):
        fast, slow = _both_modes(monkeypatch, run)
        assert fast == slow


def test_functional_outputs_bit_identical(monkeypatch):
    cfg = EmbeddingA2AConfig(global_batch=128, tables_per_gpu=4,
                             slice_vectors=16, functional=True)
    fast, slow = _both_modes(monkeypatch, lambda: _run_pair(
        lambda h: FusedEmbeddingAllToAll(h, cfg),
        lambda h: BaselineEmbeddingAllToAll(h, cfg),
        num_nodes=1, gpus_per_node=4))
    _assert_identical(fast, slow)
    for a, b in zip(fast["outputs"], slow["outputs"]):
        np.testing.assert_array_equal(a, b)


def test_same_time_wakeups_queue_behind_pending_events(monkeypatch):
    """Zero-duration tasks wake their slot at the current timestamp.  The
    wake-up must run after the events already queued for that timestamp,
    as the slot's own timeout would: here task 0's hook queues a flag
    write, and which later hooks see it must not depend on the path."""
    spec = dataclasses.replace(MI210, wg_dispatch_overhead=0.0)

    def run():
        sim = Simulator()
        gpu = Gpu(sim, spec, gpu_id=0)
        flag, seen = [], []

        def hook(ctx, task):
            seen.append((task.task_id, ctx.slot_id, len(flag)))
            if task.task_id == 0:
                sim.timeout(0.0).add_callback(lambda _e: flag.append(1))
            return None

        res = fused_kernel_resources()
        tasks = [WgTask(task_id=i, cost=WgCost(), on_complete=hook)
                 for i in range(12)]
        kern = PersistentKernel(
            gpu, res, tasks,
            occupancy_limit=2 / gpu.occupancy(res).resident_wgs)
        assert kern.n_slots == 2
        kern.launch()
        sim.run()
        return seen

    fast, slow = _both_modes(monkeypatch, run)
    assert fast == slow
    assert [seen for _t, _s, seen in slow] == [0, 0] + [1] * 10


def test_uniform_kernel_per_slot_times_bit_identical(monkeypatch):
    """The uniform-kernel fast-forward must reproduce each physical WG's
    greedy (round-robin) share, not just the joint finish: per-slot finish
    times are observable through the epilogue."""
    for n_tasks in (7, 64, 1457, 2912, 3000):
        finishes = {}

        def make_kernel(sim):
            gpu = Gpu(sim, MI210, gpu_id=0)
            tasks = make_uniform_tasks(n_tasks, WgCost(bytes=4096.0))

            def epilogue(slot_ctx):
                finishes.setdefault(mode, []).append(
                    (slot_ctx.slot_id, sim.now))
                return None

            return PersistentKernel(gpu, fused_kernel_resources(), tasks,
                                    epilogue=epilogue)

        results = {}
        for mode, flag in (("fast", "1"), ("slow", "0")):
            monkeypatch.setenv("REPRO_SIM_FASTPATH", flag)
            sim = Simulator()
            kern = make_kernel(sim)
            proc = kern.launch()
            sim.run()
            assert proc.ok
            results[mode] = sim.now
        assert results["fast"] == results["slow"]
        assert finishes["fast"] == finishes["slow"]
