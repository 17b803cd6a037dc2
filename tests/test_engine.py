import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from copanet import engine
from copanet.engine import BatchNormState, Tensor
from copanet.errors import ConfigurationError, DataError, NumericError, UsageError


def test_conv2d_ones_overlap_counts(f64):
    x = Tensor(np.ones((1, 1, 3, 3)))
    w = Tensor(np.ones((1, 1, 3, 3)))
    out = engine.conv2d(x, w, stride=1, padding=1)
    expected = np.array([[4, 6, 4], [6, 9, 6], [4, 6, 4]], dtype=np.float64)
    assert np.array_equal(out.data[0, 0], expected)


def test_conv2d_1x1_is_scalar_scaling(f64):
    x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
    w = Tensor(np.array([[[[2.0]]]]))
    out = engine.conv2d(x, w, stride=1, padding=0)
    assert np.array_equal(out.data, [[[[2.0, 4.0], [6.0, 8.0]]]])


def test_conv2d_stride2_output_shape(f64):
    out = engine.conv2d(Tensor(np.zeros((2, 3, 8, 8))), Tensor(np.zeros((5, 3, 3, 3))),
                        stride=2, padding=1)
    assert out.shape == (2, 5, 4, 4)


def test_conv2d_channel_mismatch_names_both_shapes():
    with pytest.raises(ConfigurationError) as err:
        engine.conv2d(Tensor(np.zeros((1, 3, 4, 4))), Tensor(np.zeros((2, 4, 1, 1))))
    assert "(1, 3, 4, 4)" in str(err.value) and "(2, 4, 1, 1)" in str(err.value)


def test_conv2d_rejects_unsupported_stride_padding():
    x, w = Tensor(np.zeros((1, 1, 4, 4))), Tensor(np.zeros((1, 1, 3, 3)))
    with pytest.raises(ConfigurationError):
        engine.conv2d(x, w, stride=3, padding=1)
    with pytest.raises(ConfigurationError):
        engine.conv2d(x, w, stride=1, padding=2)


def _conv_reference(x, w, g, stride, padding):
    """float64 forward, gx and gw of a conv, from sliding windows and per-tap
    scatters that share no code with the engine."""
    x, w, g = (np.asarray(a, dtype=np.float64) for a in (x, w, g))
    kh, kw = w.shape[2:]
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    out = np.tensordot(win, w, axes=((1, 4, 5), (1, 2, 3))).transpose(0, 3, 1, 2)
    gw = np.tensordot(g, win, axes=((0, 2, 3), (0, 2, 3)))
    gxp = np.zeros_like(xp)
    ho, wo = out.shape[2:]
    for u in range(kh):
        for v in range(kw):
            gxp[:, :, u:u + stride * ho:stride, v:v + stride * wo:stride] += np.einsum(
                "nohw,oc->nchw", g, w[:, :, u, v])
    return out, gxp[:, :, padding:padding + x.shape[2], padding:padding + x.shape[3]], gw


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 3), c=st.integers(1, 4), o=st.integers(1, 4), size=st.integers(1, 7),
       kernel=st.sampled_from((1, 3)), stride=st.sampled_from((1, 2)),
       padding=st.sampled_from((0, 1)), bits=st.sampled_from((32, 64)),
       seed=st.integers(0, 2 ** 16))
def test_conv2d_forward_and_gradients_match_float64_reference(
        n, c, o, size, kernel, stride, padding, bits, seed):
    assume(size + 2 * padding >= kernel)
    prev = engine.precision()
    engine.set_precision(bits)
    try:
        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal((n, c, size, size + 1)), requires_grad=True)
        w = Tensor(rng.standard_normal((o, c, kernel, kernel)), requires_grad=True)
        out = engine.conv2d(x, w, stride=stride, padding=padding)
        out.grad = rng.standard_normal(out.shape).astype(out.data.dtype)
        out._backward()
        tol = 1e-5 if bits == 32 else 1e-12
        for got, want in zip((out.data, x.grad, w.grad),
                             _conv_reference(x.data, w.data, out.grad, stride, padding)):
            assert got.dtype == engine.dtype() and got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=tol, atol=tol * max(1.0, np.abs(want).max()))
    finally:
        engine.set_precision(prev)


@pytest.mark.parametrize("op", ("conv2d", "batchnorm2d", "relu", "bn_relu"))
def test_op_keeps_only_per_channel_vectors_for_backward(f64, rng, op):
    x = Tensor(rng.standard_normal((4, 8, 16, 16)), requires_grad=True)
    w = Tensor(rng.standard_normal((8, 8, 3, 3)), requires_grad=True)
    state = BatchNormState(8)
    run = {"conv2d": lambda: engine.conv2d(x, w, stride=1, padding=1),
           "batchnorm2d": lambda: engine.batchnorm2d(x, state, training=True),
           "relu": lambda: engine.relu(x),
           "bn_relu": lambda: engine.bn_relu(x, state, training=True)}[op]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = run()
        kept = tracemalloc.get_traced_memory()[0] - before - out.data.nbytes
    finally:
        tracemalloc.stop()
    assert out._backward is not None
    # Python objects plus at most 8 per-channel vectors; a mask of x alone is 8 KiB
    assert kept <= 3 * 1024 + 8 * 8 * x.data.itemsize, kept


def _channelwise(x, mean, std):
    raw = x - x.mean(axis=(0, 2, 3), keepdims=True)
    raw /= raw.std(axis=(0, 2, 3), keepdims=True)
    return raw * std + mean


def test_batchnorm_training_normalizes(f64, rng):
    x = Tensor(_channelwise(rng.standard_normal((4, 3, 8, 8)), 5.0, 2.0))
    out = engine.batchnorm2d(x, BatchNormState(3), training=True)
    mean = out.data.mean(axis=(0, 2, 3))
    std = out.data.std(axis=(0, 2, 3))
    assert np.abs(mean).max() < 1e-6
    assert np.abs(std - 1.0).max() < 1e-3


def test_batchnorm_affine_form(f64, rng):
    x = Tensor(_channelwise(rng.standard_normal((4, 3, 8, 8)), 0.0, 1.0))
    state = BatchNormState(3)
    state.gamma.data[:] = 3.0
    state.beta.data[:] = -1.0
    out = engine.batchnorm2d(x, state, training=True)
    assert np.abs(out.data.mean(axis=(0, 2, 3)) + 1.0).max() < 1e-6
    assert np.abs(out.data.std(axis=(0, 2, 3)) - 3.0).max() < 1e-2


def test_batchnorm_running_stats_ema(f64, rng):
    x = Tensor(_channelwise(rng.standard_normal((4, 2, 6, 6)), 5.0, 2.0))
    state = BatchNormState(2)
    engine.batchnorm2d(x, state, training=True)
    # EMA weight 0.9 on the old value (zeros / ones at init)
    assert np.allclose(state.running_mean, 0.9 * 0.0 + 0.1 * 5.0)
    assert np.allclose(state.running_var, 0.9 * 1.0 + 0.1 * 4.0)
    before = (state.running_mean.copy(), state.running_var.copy())
    engine.batchnorm2d(x, state, training=False)
    assert np.array_equal(before[0], state.running_mean)
    assert np.array_equal(before[1], state.running_var)


def test_batchnorm_eval_uses_running_stats(f64, rng):
    state = BatchNormState(2)
    state.running_mean[:] = [1.0, -1.0]
    state.running_var[:] = [4.0, 9.0]
    x = Tensor(rng.standard_normal((2, 2, 3, 3)))
    out = engine.batchnorm2d(x, state, training=False)
    expected = (x.data - state.running_mean[None, :, None, None]) / np.sqrt(
        state.running_var[None, :, None, None] + state.eps)
    assert np.allclose(out.data, expected)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 3), c=st.integers(1, 4), h=st.integers(1, 5), w=st.integers(1, 5),
       training=st.booleans(), bits=st.sampled_from((32, 64)), seed=st.integers(0, 2 ** 16))
def test_bn_relu_is_relu_of_batchnorm_bit_for_bit(n, c, h, w, training, bits, seed):
    """Output, running statistics and every gradient of the fused op equal
    those of relu(batchnorm2d(...)) exactly, in both modes and precisions."""
    assume(not training or n * h * w > 1)
    prev = engine.precision()
    engine.set_precision(bits)
    try:
        rng = np.random.default_rng(seed)
        xdata = rng.standard_normal((n, c, h, w)) * 2 + 0.5
        affine = rng.standard_normal((4, c))
        upstream = rng.standard_normal((n, c, h, w)).astype(engine.dtype())
        runs = []
        for fused in (True, False):
            x = Tensor(xdata, requires_grad=True)
            state = BatchNormState(c)
            state.gamma.data = affine[0].astype(engine.dtype()) + 1
            state.beta.data = affine[1].astype(engine.dtype())
            state.running_mean = affine[2].astype(engine.dtype())
            state.running_var = np.abs(affine[3]).astype(engine.dtype()) + 0.5
            if fused:
                out = engine.bn_relu(x, state, training)
                nodes = [out]
            else:
                bn = engine.batchnorm2d(x, state, training)
                out = engine.relu(bn)
                nodes = [out, bn]
            out.grad = upstream.copy()
            for node in nodes:
                node._backward()
            runs.append((out.data, state.running_mean, state.running_var,
                         x.grad, state.gamma.grad, state.beta.grad))
        for got, want in zip(*runs):
            assert got.dtype == want.dtype and np.array_equal(got, want)
    finally:
        engine.set_precision(prev)


def test_batchnorm_single_element_training_errors(f64):
    with pytest.raises(ConfigurationError):
        engine.batchnorm2d(Tensor(np.ones((1, 2, 1, 1))), BatchNormState(2), training=True)


def test_batchnorm_channel_mismatch_errors(f64):
    with pytest.raises(ConfigurationError):
        engine.batchnorm2d(Tensor(np.ones((2, 3, 4, 4))), BatchNormState(2), training=True)


def test_max_k_values_and_tie_rule(f64):
    a = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    b = Tensor(np.array([0.0, 5.0, 3.0]), requires_grad=True)
    out, winners = engine.elementwise_max_k([a, b], capture_routing=True)
    assert np.array_equal(out.data, [1.0, 5.0, 3.0])
    assert np.array_equal(winners, [0, 1, 0])  # tie at index 2 goes to pathway 0

    engine.sum_all(out).backward()
    assert np.array_equal(a.grad, [1.0, 0.0, 1.0])
    assert np.array_equal(b.grad, [0.0, 1.0, 0.0])


def test_max_k_identical_inputs_all_zero_mask(f64):
    vals = np.array([2.0, -1.0, 0.5])
    ins = [Tensor(vals.copy()) for _ in range(4)]
    out, winners = engine.elementwise_max_k(ins, capture_routing=True)
    assert np.array_equal(out.data, vals)
    assert not winners.any()


def test_max_k_errors(f64):
    with pytest.raises(ConfigurationError):
        engine.elementwise_max_k([Tensor(np.ones(3))])
    with pytest.raises(ConfigurationError):
        engine.elementwise_max_k([Tensor(np.ones(3)), Tensor(np.ones(4))])
    # int8 winners hold indices up to 127, so 128 inputs is the most
    _, winners = engine.elementwise_max_k([Tensor(np.full(3, k)) for k in range(128)],
                                          capture_routing=True)
    assert np.array_equal(winners, [127, 127, 127])
    with pytest.raises(ConfigurationError):
        engine.elementwise_max_k([Tensor(np.ones(3)) for _ in range(129)])


def test_max_k_gradient_conservation_random(f64, rng):
    for _ in range(20):
        ins = [Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True) for _ in range(3)]
        out, _ = engine.elementwise_max_k(ins)
        engine.sum_all(out).backward()
        total = sum(t.grad for t in ins)
        assert np.array_equal(total, np.ones((2, 3, 4)))


@pytest.mark.parametrize("bits", (32, 64))
@pytest.mark.parametrize("k", (2, 3, 4))
def test_max_k_matches_stack_max_and_argmax_with_ties(bits, k, rng):
    prev = engine.precision()
    engine.set_precision(bits)
    try:
        # small integers force many exact ties between every pair of inputs
        vals = rng.integers(-2, 3, size=(k, 3, 4, 5, 6)).astype(engine.dtype())
        ins = [Tensor(v, requires_grad=True) for v in vals]
        out, winners = engine.elementwise_max_k(ins, capture_routing=True)
        assert np.array_equal(out.data, vals.max(axis=0))
        first = vals.argmax(axis=0)  # the first index on ties
        assert winners.dtype == np.int8 and np.array_equal(winners, first)

        out.grad = rng.standard_normal(out.shape).astype(out.data.dtype)
        out._backward()
        for j, t in enumerate(ins):
            assert np.array_equal(t.grad, out.grad * (first == j)), j

        vals[1, 0, 0, 0, 0] = np.nan
        out, _ = engine.elementwise_max_k([Tensor(v) for v in vals])
        assert np.isnan(out.data[0, 0, 0, 0])
    finally:
        engine.set_precision(prev)


def test_relu(f64):
    out = engine.relu(Tensor(np.array([-1.0, 0.0, 2.0])))
    assert np.array_equal(out.data, [0.0, 0.0, 2.0])


def test_avgpool_mean(f64):
    out = engine.avgpool2d(Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]])), 2, 2)
    assert out.shape == (1, 1, 1, 1)
    assert out.data[0, 0, 0, 0] == 2.5


@pytest.mark.parametrize("bits", (32, 64))
@pytest.mark.parametrize("shape", [(32, 45, 32, 32), (8, 90, 16, 16)])
def test_avgpool_stride2_matches_reshape_mean_bit_for_bit(bits, shape, rng):
    prev = engine.precision()
    engine.set_precision(bits)
    try:
        n, c, h, w = shape
        x = Tensor(rng.standard_normal(shape), requires_grad=True)
        out = engine.avgpool2d(x, 2, 2)
        expected = x.data.reshape(n, c, h // 2, 2, w // 2, 2).mean(axis=(3, 5))
        assert out.data.dtype == x.data.dtype and np.array_equal(out.data, expected)
        out.grad = rng.standard_normal(out.shape).astype(out.data.dtype)
        out._backward()
        g = np.broadcast_to((out.grad / 4)[:, :, :, None, :, None], (n, c, h // 2, 2, w // 2, 2))
        assert np.array_equal(x.grad, g.reshape(shape))
    finally:
        engine.set_precision(prev)


def test_global_avgpool(f64, rng):
    x = rng.standard_normal((2, 3, 4, 4))
    out = engine.global_avgpool(Tensor(x))
    assert out.shape == (2, 3)
    assert np.allclose(out.data, x.mean(axis=(2, 3)))


def test_concat_channels_recoverable_by_slicing(f64, rng):
    a = rng.standard_normal((2, 3, 4, 4))
    b = rng.standard_normal((2, 5, 4, 4))
    out = engine.concat_channels([Tensor(a), Tensor(b)])
    assert out.shape == (2, 8, 4, 4)
    assert np.array_equal(out.data[:, :3], a)
    assert np.array_equal(out.data[:, 3:], b)


def test_concat_errors(f64):
    with pytest.raises(ConfigurationError):
        engine.concat_channels([])
    with pytest.raises(ConfigurationError):
        engine.concat_channels([Tensor(np.ones((2, 3, 4, 4))), Tensor(np.ones((2, 3, 5, 4)))])


def test_add_shape_mismatch(f64):
    with pytest.raises(ConfigurationError):
        engine.add(Tensor(np.ones(3)), Tensor(np.ones(4)))


def test_linear(f64):
    x = Tensor(np.array([[1.0, 2.0]]))
    w = Tensor(np.array([[1.0, 0.0, -1.0], [0.5, 2.0, 0.0]]))
    b = Tensor(np.array([0.0, 1.0, -1.0]))
    out = engine.linear(x, w, b)
    assert np.allclose(out.data, [[2.0, 5.0, -2.0]])


def test_dropout_eval_scales_by_keep_probability(f64):
    # rate 0.2 at test time multiplies activations by 0.8
    out = engine.dropout(Tensor(np.array([10.0, 5.0])), 0.2, training=False)
    assert np.allclose(out.data, [8.0, 4.0])


def test_dropout_rate_zero_is_identity(f64, rng):
    x = np.array([3.0, -1.0, 0.0])
    assert np.array_equal(engine.dropout(Tensor(x), 0.0, True, rng).data, x)
    assert np.array_equal(engine.dropout(Tensor(x), 0.0, False).data, x)


def test_dropout_training_monte_carlo(f64):
    rng = np.random.default_rng(99)
    x = Tensor(np.ones(100_000))
    out = engine.dropout(x, 0.5, training=True, rng=rng)
    zero_fraction = (out.data == 0).mean()
    assert abs(zero_fraction - 0.5) < 0.01
    assert np.array_equal(np.unique(out.data), [0.0, 1.0])  # survivors unscaled


def test_dropout_bad_rate(f64):
    for rate in (-0.1, 1.0, 1.5):
        with pytest.raises(ConfigurationError):
            engine.dropout(Tensor(np.ones(3)), rate, training=False)


def test_dropout_training_needs_rng(f64):
    with pytest.raises(UsageError):
        engine.dropout(Tensor(np.ones(3)), 0.5, training=True)


def test_softmax_ce_uniform_logits(f64):
    loss = engine.softmax_cross_entropy(Tensor(np.zeros((4, 10))), np.arange(4))
    assert abs(float(loss.data) - np.log(10)) < 1e-12


def test_softmax_ce_saturated(f64):
    logits = np.zeros((1, 10))
    logits[0, 3] = 30.0
    loss = engine.softmax_cross_entropy(Tensor(logits), np.array([3]))
    assert float(loss.data) < 1e-9


def test_softmax_ce_label_out_of_range(f64):
    with pytest.raises(DataError):
        engine.softmax_cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))


def test_backward_sum_gives_ones(f64, rng):
    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    engine.sum_all(x).backward()
    assert np.array_equal(x.grad, np.ones((3, 4)))


def test_backward_max_routes_to_larger_input(f64, rng):
    a = Tensor(rng.standard_normal((5,)) + 10.0, requires_grad=True)
    b = Tensor(rng.standard_normal((5,)) - 10.0, requires_grad=True)
    out, _ = engine.elementwise_max_k([a, b])
    engine.sum_all(out).backward()
    assert np.array_equal(a.grad, np.ones(5))
    assert np.array_equal(b.grad, np.zeros(5))


def test_backward_requires_scalar(f64):
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(UsageError):
        engine.relu(x).backward()


def test_backward_twice_errors(f64):
    x = Tensor(np.ones(3), requires_grad=True)
    loss = engine.sum_all(x)
    loss.backward()
    with pytest.raises(UsageError):
        loss.backward()


def test_backward_frees_each_node_as_it_is_swept(f64):
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    h = engine.relu(x)
    y = engine.scale(h, 2.0)
    loss = engine.sum_all(y)
    seen = []
    relu_bwd = h._backward

    def spy():
        seen.append((loss._backward, loss._parents, y._backward, y._parents))
        relu_bwd()

    h._backward = spy
    loss.backward()
    assert seen == [(None, (), None, ())]
    assert h._backward is None and np.array_equal(x.grad, np.full((2, 2), 2.0))


def test_backward_keeps_gradients_only_on_leaves(f64):
    x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    h = engine.scale(x, 3.0)
    loss = engine.sum_all(engine.relu(h))
    loss.backward()
    assert h.grad is None and loss.grad is None
    assert np.array_equal(x.grad, [3.0, 0.0, 3.0])


def test_backward_accumulates_across_uses(f64):
    x = Tensor(np.array([2.0]), requires_grad=True)
    loss = engine.sum_all(engine.add(x, x))
    loss.backward()
    assert np.array_equal(x.grad, [2.0])


def test_backward_linearity(f64, rng):
    xdata = rng.standard_normal((3, 3))
    a, b = 0.7, -1.3

    def grads_of(fn):
        x = Tensor(xdata.copy(), requires_grad=True)
        fn(x).backward()
        return x.grad

    combined = grads_of(lambda x: engine.add(
        engine.scale(engine.sum_all(engine.relu(x)), a),
        engine.scale(engine.sum_all(x), b)))
    g1 = grads_of(lambda x: engine.sum_all(engine.relu(x)))
    g2 = grads_of(lambda x: engine.sum_all(x))
    assert np.abs(combined - (a * g1 + b * g2)).max() < 1e-12


def test_forward_determinism_bit_identical(f64):
    def run():
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((2, 3, 6, 6)))
        w = Tensor(rng.standard_normal((4, 3, 3, 3)))
        h = engine.relu(engine.conv2d(x, w, 1, 1))
        out, winners = engine.elementwise_max_k(
            [h, engine.scale(h, 0.5)], capture_routing=True)
        drop = engine.dropout(out, 0.3, training=True, rng=rng)
        return drop.data.copy(), winners.copy()

    d1, m1 = run()
    d2, m2 = run()
    assert np.array_equal(d1, d2)
    assert np.array_equal(m1, m2)


def test_first_nonfinite_op_names_layer(f64):
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    h = engine.relu(x)
    h.data[0] = np.nan  # corrupt the relu output in place
    loss = engine.sum_all(h)
    assert engine.first_nonfinite_op(loss) == "relu"
    with pytest.raises(NumericError) as err:
        engine.check_finite(loss)
    assert "relu" in str(err.value)


def test_no_grad_disables_recording(f64):
    x = Tensor(np.ones(3), requires_grad=True)
    with engine.no_grad():
        out = engine.relu(x)
    assert not out.requires_grad and out._parents == ()


def test_precision_setting_controls_dtype():
    prev = engine.precision()
    try:
        engine.set_precision(32)
        assert Tensor(np.zeros(2)).data.dtype == np.float32
        engine.set_precision(64)
        assert Tensor(np.zeros(2)).data.dtype == np.float64
        with pytest.raises(ConfigurationError):
            engine.set_precision(16)
    finally:
        engine.set_precision(prev)
