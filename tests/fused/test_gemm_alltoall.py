"""Tests for the fused GEMM + All-to-All operator (Triton extension)."""

import numpy as np
import pytest

from repro.fused.base import OpHarness
from repro.fused.gemm_alltoall import (
    BaselineGemmAllToAll,
    FusedGemmAllToAll,
    GemmA2AConfig,
    make_gemm_inputs,
    reference_output,
)
from repro.sim import TraceRecorder

SMALL = dict(tokens=512, model_dim=128, ffn_dim=256, block_m=64, block_n=128)


@pytest.mark.parametrize("gpus", [2, 4])
def test_fused_matches_reference(gpus):
    cfg = GemmA2AConfig(**SMALL)
    h1 = OpHarness(1, gpus)
    fused = h1.run(FusedGemmAllToAll(h1, cfg))
    h2 = OpHarness(1, gpus)
    base = h2.run(BaselineGemmAllToAll(h2, cfg))
    acts, weights = make_gemm_inputs(cfg, gpus)
    ref = reference_output(cfg, gpus, acts, weights)
    for s in range(gpus):
        np.testing.assert_allclose(fused.outputs[s], ref[s], rtol=1e-4)
        np.testing.assert_allclose(base.outputs[s], ref[s], rtol=1e-4)


def test_functional_and_analytic_paths_time_identically():
    """The Triton execution path and the timing-only analytic mirror must
    be indistinguishable in simulated time, as must the baseline's
    functional and timing-only runs under every All-to-All schedule."""
    runs = [(FusedGemmAllToAll, (1, 4), None)]  # scale-up only
    runs += [(BaselineGemmAllToAll, (2, 2), algo)
             for algo in (None, "flat", "pairwise", "hier", "auto")]
    mismatched = {}
    for op_cls, shape, algo in runs:
        times = []
        for functional in (True, False):
            cfg = GemmA2AConfig(**{**SMALL, "functional": functional,
                                   "algo": algo})
            h = OpHarness(*shape)
            times.append(h.run(op_cls(h, cfg)).elapsed)
        if times[0] != times[1]:
            mismatched[op_cls.__name__, algo] = times
    assert mismatched == {}


def test_fused_wins_at_paper_scale():
    cfg = GemmA2AConfig(tokens=4096, model_dim=4096, ffn_dim=8192,
                        functional=False)
    h1 = OpHarness(1, 4)
    fused = h1.run(FusedGemmAllToAll(h1, cfg))
    h2 = OpHarness(1, 4)
    base = h2.run(BaselineGemmAllToAll(h2, cfg))
    norm = fused.normalized_to(base)
    assert 0.75 < norm < 1.0  # paper: 12% avg, up to 20% lower


def test_gemm_dominates_fused_runtime():
    """Paper Fig. 10: the (generic) GEMM dominates, limiting the benefit —
    the win must be smaller than the embedding operator's."""
    cfg = GemmA2AConfig(tokens=8192, model_dim=4096, ffn_dim=8192,
                        functional=False)
    h1 = OpHarness(1, 4)
    fused = h1.run(FusedGemmAllToAll(h1, cfg))
    h2 = OpHarness(1, 4)
    base = h2.run(BaselineGemmAllToAll(h2, cfg))
    assert fused.normalized_to(base) > 0.85


def test_tile_destination_mapping():
    cfg = GemmA2AConfig(**SMALL)
    h = OpHarness(1, 4)
    op = FusedGemmAllToAll(h, cfg)
    tasks = op._build_tasks(0)
    tps = cfg.tokens_per_src(4)
    for t in tasks:
        pid_m, _pid_n = t.meta["grid_pos"]
        assert t.meta["dest"] == (pid_m * cfg.block_m) // tps
        assert t.meta["remote"] == (t.meta["dest"] != 0)


def test_comm_aware_order_by_default():
    cfg = GemmA2AConfig(**SMALL)
    h = OpHarness(1, 4)
    op = FusedGemmAllToAll(h, cfg)
    tasks = op._build_tasks(1)
    seen_local = False
    for t in tasks:
        if not t.meta["remote"]:
            seen_local = True
        else:
            assert not seen_local, "remote tile scheduled after local"


def test_flags_set_once_per_source():
    cfg = GemmA2AConfig(**SMALL)
    h = OpHarness(1, 4)
    op = FusedGemmAllToAll(h, cfg)
    h.run(op)
    for dst in range(4):
        for src in range(4):
            assert op.tile_rdy.read(dst, src) == 1


def test_put_issue_traced_mid_kernel():
    cfg = GemmA2AConfig(**SMALL)
    trace = TraceRecorder()
    h = OpHarness(1, 4, trace=trace)
    h.run(FusedGemmAllToAll(h, cfg))
    puts = trace.filter(kind="put_issue")
    assert puts
    [k0] = [s for s in trace.spans("kernel")
            if s.detail.get("kernel") == "fused_gemm_a2a[0]"]
    gpu0_puts = [p for p in puts if p.actor.startswith("gpu0/")]
    assert all(k0.start < p.time <= k0.end for p in gpu0_puts)


def test_validation():
    with pytest.raises(ValueError, match="divide"):
        GemmA2AConfig(tokens=100, model_dim=64, ffn_dim=128).validate(4)
    with pytest.raises(ValueError, match="block_n"):
        GemmA2AConfig(tokens=512, model_dim=64, ffn_dim=100).validate(4)
    with pytest.raises(ValueError, match="scale-up"):
        FusedGemmAllToAll(OpHarness(2, 1), GemmA2AConfig(**SMALL))


def test_label():
    assert GemmA2AConfig(tokens=4096, model_dim=4096,
                         ffn_dim=14336).label == "4k|4k|14k"
