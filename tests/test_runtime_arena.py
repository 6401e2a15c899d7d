"""Arena planner invariants: liveness, packing and reuse."""

import math

import numpy as np
import pytest

from repro.baselines.model_zoo import MODEL_ZOO, get_model
from repro.nas.arch_spec import scale_spec
from repro.runtime import compile_spec, live_ranges, plan_arena
from repro.runtime.arena import LiveRange, _peak_live
from repro.runtime.plan import BufferSpec, ExecutionPlan, PlanOp

BUILDABLE = [
    name for name in sorted(MODEL_ZOO) if get_model(name).buildable()
]

#: Models whose plans are pure chains (plus MBConv residuals); greedy packing
#: achieves the peak-live lower bound exactly on these.
CHAIN_MODELS = ("MobileNet-V2", "VGG16", "EDD-Net-1", "EDD-Net-2")


def _plan(name: str) -> ExecutionPlan:
    spec = scale_spec(
        get_model(name, num_classes=4), width_mult=0.1, input_size=32,
        num_classes=4,
    )
    return compile_spec(spec, seed=0)


class TestLiveRanges:
    def test_handmade_plan(self):
        buffers = [
            BufferSpec(0, (4,), role="input"),
            BufferSpec(1, (4,)),
            BufferSpec(2, (4,)),
        ]
        ops = [
            PlanOp(kind="gap", inputs=(0,), output=1),
            PlanOp(kind="gap", inputs=(1,), output=2),
        ]
        plan = ExecutionPlan(
            name="t", ops=ops, buffers=buffers, input_buffer=0,
            output_buffer=2, dtype=np.dtype(np.float32),
        )
        ranges = live_ranges(plan)
        assert ranges[0] == LiveRange(0, 0)
        assert ranges[1] == LiveRange(0, 1)
        assert ranges[2] == LiveRange(1, 1)
        # Buffers 0 and 2 never coexist -> the planner may overlap them.
        layout = plan_arena(plan)
        assert layout.arena_elems == 8
        assert layout.offsets[0] == layout.offsets[2]

    def test_overlap_predicate(self):
        assert LiveRange(0, 3).overlaps(LiveRange(3, 5))
        assert not LiveRange(0, 2).overlaps(LiveRange(3, 5))


class TestPlannerInvariants:
    @pytest.mark.parametrize("name", BUILDABLE)
    def test_no_live_overlap_and_peak_bound(self, name):
        plan = _plan(name)
        layout = plan_arena(plan)
        # Invariant 1+3: in-bounds slots, disjoint live buffers, arena never
        # above the no-reuse total (validate raises otherwise).
        layout.validate(plan)
        # Invariant 2: the arena stays at the peak-live lower bound, up to a
        # fraction of a percent of strip-packing fragmentation (the bound
        # itself is not always achievable).
        assert layout.arena_elems <= math.ceil(layout.peak_elems * 1.01)
        assert layout.peak_elems == _peak_live(plan, layout.ranges)

    @pytest.mark.parametrize("name", CHAIN_MODELS)
    def test_chain_models_pack_exactly_to_peak(self, name):
        layout = plan_arena(_plan(name))
        assert layout.arena_elems <= layout.peak_elems

    @pytest.mark.parametrize("name", BUILDABLE)
    def test_reuse_beats_per_op_allocation(self, name):
        layout = plan_arena(_plan(name))
        # Branch-heavy nets (ResNet, GoogleNet) keep wide early maps live
        # across the skip, so their floor is lower than the MBConv chains'.
        assert layout.reuse_factor > 1.5

    def test_validate_rejects_corrupt_layout(self):
        plan = _plan("MobileNet-V2")
        layout = plan_arena(plan)
        # Force two simultaneously-live buffers onto the same offset.
        ops0 = plan.ops[0]
        a, b = ops0.inputs[0], ops0.output
        layout.offsets[a] = layout.offsets[b]
        with pytest.raises(RuntimeError, match="overlap"):
            layout.validate(plan)

    def test_scratch_space_is_shared_across_convs(self):
        """im2col/pad scratch of different convs lands on the same offsets."""
        plan = _plan("MobileNet-V2")
        layout = plan_arena(plan)
        col_bufs = [
            op.attrs["col_buf"] for op in plan.ops
            if op.kind == "conv" and op.attrs["col_buf"] is not None
        ]
        assert len(col_bufs) > 3
        offsets = {layout.offsets[buf] for buf in col_bufs}
        assert len(offsets) < len(col_bufs)

    def test_depthwise_scratch_is_padded_input_plus_output(self):
        """A depthwise conv plans its channels-last padded input and output
        accumulator, never k²-sized columns: at most C·(Hp·Wp + oH·oW)
        scratch elements per sample."""
        checked = 0
        for name in BUILDABLE:
            plan = _plan(name)
            for op in plan.ops:
                if op.kind != "conv" or "dw" not in op.label:
                    continue
                c, h, w = plan.buffer(op.inputs[0]).shape
                _, out_h, out_w = plan.buffer(op.output).shape
                pad = 2 * op.attrs["padding"]
                scratch = sum(plan.buffer(buf).elems for buf in op.scratch)
                bound = c * ((h + pad) * (w + pad) + out_h * out_w)
                assert scratch <= bound, (name, op.label)
                checked += 1
        assert checked > 100
