"""Fast invariant suite behind the `selfcheck` CLI command.

Each invariant is a small self-contained check built on an oracle that does
not share code with the path it validates: central finite differences for
gradients, independent recomputation for routing and composition, byte
round-trips for checkpoints. Everything runs on tiny tensors at 64-bit
precision in well under two minutes.
"""

import contextlib
import os
import tempfile

import numpy as np

from . import engine, models, training, units
from .errors import CoPaNetError


def finite_difference(loss_fn, arrays, step=1e-5):
    """Central-difference gradients of a scalar loss for each array.

    loss_fn takes no arguments and reads the arrays in place; each array is
    perturbed one element at a time.
    """
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            fp = float(loss_fn())
            flat[i] = orig - step
            fm = float(loss_fn())
            flat[i] = orig
            gflat[i] = (fp - fm) / (2 * step)
        grads.append(g)
    return grads


def max_relative_error(analytic, numeric, floor=1e-4):
    """max |a - n| / max(|a|, |n|, floor) over all elements.

    The floor keeps elements whose true gradient vanishes (dead ReLUs, max
    losers, batch-norm sum invariance) from amplifying finite-difference
    roundoff into a spurious relative error.
    """
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    return float((np.abs(a - n) / denom).max())


@contextlib.contextmanager
def _at_precision(bits):
    prev = engine.precision()
    engine.set_precision(bits)
    try:
        yield
    finally:
        engine.set_precision(prev)


def _check(build_loss, leaves, tol, step=1e-5):
    """build_loss(tensors) -> scalar Tensor; leaves are the numpy arrays.

    The loss is built twice: once through the autodiff graph for analytic
    gradients, and once per perturbation as a pure re-evaluation for the
    central finite differences.
    """
    tensors = [engine.Tensor(a, requires_grad=True) for a in leaves]
    build_loss(tensors).backward()
    analytic = [t.grad for t in tensors]
    numeric = finite_difference(
        lambda: build_loss([engine.Tensor(t.data) for t in tensors]).data,
        [t.data for t in tensors], step=step)
    err = max(max_relative_error(a, n) for a, n in zip(analytic, numeric))
    assert err < tol, f"gradient mismatch: max relative error {err:.3e} >= {tol}"


def case_conv2d():
    rng = np.random.default_rng(21)
    x = rng.standard_normal((2, 3, 8, 8))
    w = rng.standard_normal((4, 3, 3, 3)) * 0.3
    _check(lambda ts: engine.sum_all(engine.relu(engine.conv2d(ts[0], ts[1], 1, 1))),
           [x, w], 1e-4)


def case_conv2d_strided():
    rng = np.random.default_rng(22)
    x = rng.standard_normal((2, 3, 8, 8))
    w = rng.standard_normal((4, 3, 3, 3)) * 0.3
    _check(lambda ts: engine.sum_all(engine.relu(engine.conv2d(ts[0], ts[1], 2, 1))),
           [x, w], 1e-4)


def case_conv2d_1x1():
    rng = np.random.default_rng(23)
    x = rng.standard_normal((2, 4, 5, 5))
    w = rng.standard_normal((3, 4, 1, 1)) * 0.5
    _check(lambda ts: engine.sum_all(engine.relu(engine.conv2d(ts[0], ts[1], 1, 0))),
           [x, w], 1e-4)


def case_batchnorm():
    rng = np.random.default_rng(24)
    x = rng.standard_normal((2, 2, 3, 3)) * 2 + 1
    gamma = rng.standard_normal(2) + 1.5
    beta = rng.standard_normal(2)

    def build(ts):
        state = engine.BatchNormState(2)
        state.gamma, state.beta = ts[1], ts[2]
        shift = engine.Tensor(np.full((2, 2, 3, 3), 0.31))
        return engine.sum_all(engine.relu(engine.add(
            engine.batchnorm2d(ts[0], state, training=True), shift)))

    _check(build, [x, gamma, beta], 1e-4)


def case_bn_relu():
    rng = np.random.default_rng(34)  # every pre-activation is >= 0.019 from the kink
    x = rng.standard_normal((2, 3, 3, 3)) * 2 + 1
    gamma = rng.standard_normal(3) + 1.5
    beta = rng.standard_normal(3)

    def build(ts):
        state = engine.BatchNormState(3)
        state.gamma, state.beta = ts[1], ts[2]
        return engine.sum_all(engine.bn_relu(ts[0], state, training=True))

    _check(build, [x, gamma, beta], 1e-4)


def case_relu():
    rng = np.random.default_rng(25)
    x = rng.standard_normal((4, 7))
    x = np.where(np.abs(x) < 0.1, x + 0.3, x)  # stay away from the kink
    _check(lambda ts: engine.sum_all(engine.relu(ts[0])), [x], 1e-6)


def case_max_k():
    rng = np.random.default_rng(26)
    a = rng.standard_normal((3, 4, 2, 2))
    gap = 0.5 + np.abs(rng.standard_normal((3, 4, 2, 2)))
    b = a + np.sign(rng.standard_normal((3, 4, 2, 2))) * gap  # no near-ties
    c = np.minimum(a, b) - 1.0
    _check(lambda ts: engine.sum_all(engine.elementwise_max_k(ts)[0]), [a, b, c], 1e-6)


def case_avgpool():
    rng = np.random.default_rng(27)
    x = rng.standard_normal((2, 3, 6, 6))
    _check(lambda ts: engine.sum_all(engine.avgpool2d(ts[0], 2, 2)), [x], 1e-6)


def case_avgpool_overlapping():
    rng = np.random.default_rng(28)
    x = rng.standard_normal((1, 2, 5, 5))
    _check(lambda ts: engine.sum_all(engine.avgpool2d(ts[0], 2, 1)), [x], 1e-6)


def case_global_avgpool():
    rng = np.random.default_rng(29)
    x = rng.standard_normal((3, 4, 5, 5))
    labels = np.array([0, 2, 1])
    w = rng.standard_normal((4, 3))

    def build(ts):
        pooled = engine.global_avgpool(ts[0])
        return engine.softmax_cross_entropy(engine.linear(pooled, ts[1], ts[2]), labels)

    _check(build, [x, w, np.zeros(3)], 1e-6)


def case_concat_add_scale():
    rng = np.random.default_rng(30)
    a = rng.standard_normal((2, 3, 4, 4))
    b = rng.standard_normal((2, 2, 4, 4))

    def build(ts):
        cat = engine.concat_channels([ts[0], ts[1]])
        doubled = engine.add(cat, cat)
        return engine.scale(engine.sum_all(doubled), 0.7)

    _check(build, [a, b], 1e-6)


def case_linear_softmax_ce():
    rng = np.random.default_rng(31)
    x = rng.standard_normal((5, 6))
    w = rng.standard_normal((6, 4))
    b = rng.standard_normal(4)
    labels = rng.integers(0, 4, size=5)
    _check(lambda ts: engine.softmax_cross_entropy(
        engine.linear(ts[0], ts[1], ts[2]), labels), [x, w, b], 1e-6)


def case_dropout_eval():
    rng = np.random.default_rng(32)
    x = rng.standard_normal((3, 5))
    _check(lambda ts: engine.sum_all(engine.dropout(ts[0], 0.3, training=False)), [x], 1e-6)


def case_copa_stack():
    """Every parameter of a 3-unit K=2 stack plus the input, step 1e-5."""
    rng = np.random.default_rng(33)
    spec = units.CoPaUnitSpec(2, units.PathwaySpec("bottleneck", 4, 3, 4))
    stack = [units.CoPaUnit(spec, f"u{i}") for i in range(3)]
    for unit in stack:
        training.he_init(unit, rng)
    x = rng.standard_normal((2, 4, 6, 6))
    labels = np.array([1, 3])
    fc_w = rng.standard_normal((4, 5)) * 0.5

    params = []
    for unit in stack:
        params.extend(unit.parameters().values())

    def run(inp):
        h = inp
        for unit in stack:
            h, _ = unit.forward(h, training=True)
        pooled = engine.global_avgpool(h)
        logits = engine.linear(pooled, engine.Tensor(fc_w), engine.Tensor(np.zeros(5)))
        return engine.softmax_cross_entropy(logits, labels)

    xt = engine.Tensor(x, requires_grad=True)
    run(xt).backward()
    analytic = [p.grad.copy() for p in params] + [xt.grad.copy()]
    numeric = finite_difference(lambda: run(engine.Tensor(xt.data)).data,
                                [p.data for p in params] + [x], step=1e-5)
    err = max(max_relative_error(a, n) for a, n in zip(analytic, numeric))
    assert err < 1e-4, f"CoPa stack gradient mismatch: {err:.3e} >= 1e-4"


# every primitive's analytic gradients, then a CoPa stack that chains them,
# each against central finite differences; callers run them at 64-bit
# precision, and the tests and acceptance criterion 1 run this same list
GRADIENT_CASES = (
    ("conv2d", case_conv2d),
    ("conv2d_strided", case_conv2d_strided),
    ("conv2d_1x1", case_conv2d_1x1),
    ("batchnorm2d", case_batchnorm),
    ("bn_relu", case_bn_relu),
    ("relu", case_relu),
    ("elementwise_max_k", case_max_k),
    ("avgpool2d", case_avgpool),
    ("avgpool2d_overlapping", case_avgpool_overlapping),
    ("global_avgpool", case_global_avgpool),
    ("concat_add_scale", case_concat_add_scale),
    ("linear_softmax_ce", case_linear_softmax_ce),
    ("dropout_eval", case_dropout_eval),
    ("copa_stack", case_copa_stack),
)


def _check_routing_conservation():
    rng = np.random.default_rng(15)
    for trial in range(50):
        vals = rng.standard_normal((3, 3, 4))
        if trial % 5 == 0:
            vals[1] = vals[0]  # force ties; lowest index must win
        ins = [engine.Tensor(v, requires_grad=True) for v in vals]
        out, winners = engine.elementwise_max_k(ins, capture_routing=True)
        assert np.array_equal(out.data, vals.max(axis=0)), "max output mismatch"

        _, winners2 = engine.elementwise_max_k(
            [engine.Tensor(v, requires_grad=True) for v in vals], capture_routing=True)
        assert np.array_equal(winners, winners2), "routing not deterministic"
        if trial % 5 == 0:
            # input 1 duplicates input 0, so it can never be the winner
            assert not (winners == 1).any(), "tie must resolve to the lowest pathway index"

        engine.sum_all(out).backward()
        total = sum(t.grad for t in ins if t.grad is not None)
        assert np.array_equal(total, np.ones((3, 4))), "gradient not conserved"


def _check_k1_equivalence():
    rng = np.random.default_rng(16)
    spec = units.CoPaUnitSpec(1, units.PathwaySpec("bottleneck", 4, 2, 4))
    unit = units.CoPaUnit(spec, "u0")
    training.he_init(unit, rng)
    x = engine.Tensor(rng.standard_normal((2, 4, 5, 5)), requires_grad=True)
    out, mask = unit.forward(x, training=True)
    assert mask is None, "K=1 unit must not produce a routing mask"
    # independent pre-activation residual recomputation
    ref = engine.add(x, unit.pathway_residual(x, 0, training=True))
    assert np.array_equal(out.data, ref.data), "K=1 unit differs from residual unit"


def _check_checkpoint_roundtrip():
    rng = np.random.default_rng(17)
    config = models.NetworkConfig(depth=11, k=2, stage_widths=(4, 6, 8),
                                  mid_widths=(2, 3, 4), dropout_rate=0.0)
    model = models.build(config)
    training.he_init(model, rng)
    x = engine.Tensor(rng.standard_normal((2, 3, 32, 32)))
    with engine.no_grad():
        before = model.forward(x, training=False).data
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.ckpt")
        training.save_checkpoint(path, model)
        loaded, _ = training.load_checkpoint(path)
    with engine.no_grad():
        after = loaded.forward(x, training=False).data
    assert np.array_equal(before, after), "checkpoint round-trip changed eval outputs"


def _check_compose_winners():
    rng = np.random.default_rng(18)
    spec = units.CoPaUnitSpec(2, units.PathwaySpec("bottleneck", 3, 2, 3))
    stack = [units.CoPaUnit(spec, f"u{i}") for i in range(3)]
    for unit in stack:
        training.he_init(unit, rng)
    x = engine.Tensor(rng.standard_normal((2, 3, 6, 6)))
    h, masks = x, []
    for unit in stack:
        h, mask = unit.forward(h, training=False, capture=True)
        masks.append(mask)
    composed = units.compose_winners(x, stack, masks)
    assert np.array_equal(h.data, composed.data), "winner composition not bit-exact"


INVARIANTS = tuple(
    (f"tensor_engine.gradient_oracle_{name}", case) for name, case in GRADIENT_CASES) + (
    ("tensor_engine.max_routing_conservation", _check_routing_conservation),
    ("copa_unit.k1_residual_equivalence", _check_k1_equivalence),
    ("copa_unit.compose_winners_exact", _check_compose_winners),
    ("trainer.checkpoint_round_trip", _check_checkpoint_roundtrip),
)


def run_selfcheck(fault=None, echo=print):
    """Run every registered invariant once at 64-bit precision; returns True
    when all pass."""
    if fault is not None:
        engine.enable_test_fault(fault)
    failures = []
    try:
        for name, check in INVARIANTS:
            try:
                with _at_precision(64):
                    check()
                echo(f"PASS {name}")
            except (AssertionError, CoPaNetError) as exc:
                failures.append(name)
                echo(f"FAIL {name}: {exc}")
    finally:
        engine.clear_test_faults()
    echo(f"{len(INVARIANTS) - len(failures)}/{len(INVARIANTS)} invariants passed")
    return not failures
