import math

import numpy as np

from perfbench import checks, params


class Spec:
    def __init__(self, ok: bool) -> None:
        self.ok = ok
        self.name = "spec"

    def buildable(self) -> bool:
        return self.ok


def test_finite_losses():
    assert checks.finite_losses([1.0, 0.5], "x") == []
    assert checks.finite_losses([1.0, math.nan], "x")
    assert checks.finite_losses([math.inf], "x")
    assert checks.finite_losses([], "x")


def test_buildable():
    assert checks.buildable(Spec(True), "x") == []
    assert checks.buildable(Spec(False), "x")


def test_reference_loss_fails_when_perturbed():
    reference = params.REFERENCE_LOSS
    rtol = params.REFERENCE_RTOL
    assert checks.reference_loss(reference, reference, rtol, "x") == []
    assert checks.reference_loss(reference * (1 + rtol / 2), reference, rtol, "x") == []
    assert checks.reference_loss(reference * (1 + 3 * rtol), reference, rtol, "x")
    assert checks.reference_loss(math.nan, reference, rtol, "x")


def test_outputs_close_fails_when_perturbed():
    rng = np.random.default_rng(0)
    expected = rng.standard_normal((8, 10)).astype(np.float32)
    tol = dict(atol=params.OUTPUT_ATOL, rtol=params.OUTPUT_RTOL, what="x")
    assert checks.outputs_close(expected.copy(), expected, **tol) == []
    perturbed = expected.copy()
    perturbed[3, 4] += 1e-3
    assert checks.outputs_close(perturbed, expected, **tol)
    assert checks.outputs_close(expected[:4], expected, **tol)
    broken = expected.copy()
    broken[0, 0] = np.nan
    assert checks.outputs_close(broken, expected, **tol)


def test_serve_check_fails_on_a_perturbed_answer():
    from perfbench import loadgen, serve

    pools = serve._pools(seed=3)
    refs = serve._references(pools)
    model = params.SERVE["models"][0]
    arrival = loadgen.Arrival(0.0, model, 2)
    good = loadgen.Answer(arrival, 1.0, output=refs[model][2].copy())
    assert serve._check([good], refs, "x") == []
    bad_output = refs[model][2].copy()
    bad_output[0] += 1e-2
    bad = loadgen.Answer(arrival, 1.0, output=bad_output)
    assert serve._check([good, bad], refs, "x")
    wrong_input = loadgen.Answer(loadgen.Arrival(0.0, model, 3), 1.0,
                                 output=refs[model][2].copy())
    assert serve._check([wrong_input], refs, "x")


def test_infer_check_fails_on_a_perturbed_engine_output():
    from perfbench import infer
    from repro.runtime import Engine, compile_spec

    name = "MobileNet-V2"
    engine = Engine(compile_spec(infer._spec(name), seed=params.INFER["weight_seed"]))
    inputs = infer._inputs(seed=3)
    assert infer._check({name: engine}, inputs) == []

    class Perturbed:
        def run(self, x):
            out = engine.run(x)
            out[0, 0] += 1e-2
            return out

    assert infer._check({name: Perturbed()}, inputs)
