import types

import numpy as np
import pytest

from copanet import data as data_mod
from copanet import engine, training
from copanet.engine import Tensor
from copanet.errors import ConfigurationError, DataError, NumericError, UsageError
from copanet.models import NetworkConfig, build
from copanet.training import TrainPlan, he_init, lr_at, sgd_step

TINY = dict(depth=11, stage_widths=(4, 6, 8), mid_widths=(2, 3, 4), dropout_rate=0.0)


def _tiny_model(rng, **overrides):
    cfg = dict(TINY)
    cfg.update(overrides)
    model = build(NetworkConfig(**cfg))
    he_init(model, rng)
    return model


def test_lr_schedule_cifar_plan():
    plan = TrainPlan(total_epochs=300, base_lr=0.1, lr_drop_fractions=(0.6, 0.8))
    assert lr_at(0, plan) == 0.1
    assert lr_at(179, plan) == 0.1
    assert lr_at(180, plan) == pytest.approx(0.01)
    assert lr_at(239, plan) == pytest.approx(0.01)
    assert lr_at(240, plan) == pytest.approx(0.001)
    assert lr_at(299, plan) == pytest.approx(0.001)


def test_lr_schedule_svhn_plan():
    plan = TrainPlan(total_epochs=20, base_lr=0.1, lr_drop_fractions=(0.5, 0.75))
    assert lr_at(9, plan) == 0.1
    assert lr_at(10, plan) == pytest.approx(0.01)
    assert lr_at(15, plan) == pytest.approx(0.001)


@pytest.mark.parametrize("epochs,fractions,schedule", [
    (1, (0.6, 0.8), [0.1]),
    (2, (0.6, 0.8), [0.1, 0.1]),
    (3, (0.6, 0.8), [0.1, 0.1, 0.01]),
    (5, (0.6, 0.8), [0.1, 0.1, 0.1, 0.01, 0.001]),
    (20, (0.5, 0.75), [0.1] * 10 + [0.01] * 5 + [0.001] * 5),
    (25, (0.6, 0.8), [0.1] * 15 + [0.01] * 5 + [0.001] * 5),
    (300, (0.6, 0.8), [0.1] * 180 + [0.01] * 60 + [0.001] * 60),
])
def test_lr_drops_only_once_their_fraction_of_the_budget_has_run(epochs, fractions, schedule):
    plan = TrainPlan(total_epochs=epochs, base_lr=0.1, lr_drop_fractions=fractions)
    assert [lr_at(e, plan) for e in range(epochs)] == pytest.approx(schedule, rel=1e-12)


def test_lr_out_of_range():
    plan = TrainPlan(total_epochs=10)
    with pytest.raises(UsageError):
        lr_at(10, plan)


def test_plan_validation():
    with pytest.raises(ConfigurationError):
        TrainPlan(batch_size=1)
    with pytest.raises(ConfigurationError):
        TrainPlan(lr_drop_fractions=(0.8, 0.6))
    with pytest.raises(ConfigurationError):
        TrainPlan(lr_drop_fractions=(0.0, 0.5))
    with pytest.raises(ConfigurationError):
        TrainPlan(precision=16)


def test_he_init_conv_std(f64):
    class _OneConv:
        def __init__(self):
            self.w = Tensor(np.zeros((30, 45, 3, 3)), requires_grad=True)

        def parameters(self):
            return {"conv.w": self.w}

    net = _OneConv()
    he_init(net, np.random.default_rng(0))
    target = np.sqrt(2.0 / (45 * 9))
    assert net.w.data.size > 10_000
    assert abs(net.w.data.std() - target) / target < 0.05
    assert abs(net.w.data.mean()) < 0.005


def test_he_init_bn_and_bias(f64, rng):
    model = _tiny_model(rng)
    params = model.parameters()
    assert np.array_equal(params["final_bn.gamma"].data, np.ones(8))
    assert not params["final_bn.beta"].data.any()
    assert not params["classifier.b"].data.any()
    fan_in = 4 * 9  # linear weight draws with fan_in = in_features
    assert params["classifier.w"].data.std() > 0


def test_he_init_deterministic(f64):
    a = _tiny_model(np.random.default_rng(3)).parameters()
    b = _tiny_model(np.random.default_rng(3)).parameters()
    for name in a:
        assert np.array_equal(a[name].data, b[name].data), name


def test_sgd_plain_gradient_step(f64):
    p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    params = {"x.w": p}
    grads = {"x.w": np.array([0.5, -1.0])}
    vel = {"x.w": np.zeros(2)}
    sgd_step(params, grads, vel, lr=0.1, momentum=0.0, weight_decay=0.0)
    assert np.allclose(p.data, [1.0 - 0.05, 2.0 + 0.1])


def test_sgd_momentum_coasting(f64):
    # zero gradient, existing velocity 1, momentum 0.9, lr 0.1
    p = Tensor(np.array([1.0]), requires_grad=True)
    vel = {"x.w": np.array([1.0])}
    sgd_step({"x.w": p}, {"x.w": np.array([0.0])}, vel, 0.1, 0.9, 0.0)
    assert np.allclose(p.data, [1.0 - 0.09])
    assert np.allclose(vel["x.w"], [0.9])


def test_sgd_two_steps_closed_form(f64):
    g = 0.3
    lr, mu = 0.05, 0.9
    p = Tensor(np.array([2.0]), requires_grad=True)
    vel = {"x.w": np.zeros(1)}
    for _ in range(2):
        sgd_step({"x.w": p}, {"x.w": np.array([g])}, vel, lr, mu, 0.0)
    # v1 = g, v2 = mu*g + g; total change = -lr*(g + g*(1 + mu))
    assert np.allclose(p.data, [2.0 - lr * (g + g * (1 + mu))])


def test_weight_decay_skips_bn_and_bias(f64):
    names = ["conv.w", "bn.gamma", "bn.beta", "classifier.b"]
    params = {n: Tensor(np.array([1.0]), requires_grad=True) for n in names}
    grads = {n: np.array([0.0]) for n in names}
    vel = {n: np.zeros(1) for n in names}
    sgd_step(params, grads, vel, lr=1.0, momentum=0.0, weight_decay=0.1)
    assert np.allclose(params["conv.w"].data, [0.9])
    for n in names[1:]:
        assert np.array_equal(params[n].data, [1.0]), n


def test_sgd_lr_zero_leaves_params_bit_identical(f64, rng):
    model = _tiny_model(rng)
    before = {n: p.data.copy() for n, p in model.parameters().items()}
    opt = training.SGD(model, TrainPlan(total_epochs=1, batch_size=4))
    x = Tensor(rng.standard_normal((4, 3, 32, 32)))
    loss = engine.softmax_cross_entropy(model.forward(x, training=True),
                                        rng.integers(0, 10, size=4))
    model.zero_grad()
    loss.backward()
    opt.step(lr=0.0)
    for name, p in model.parameters().items():
        assert np.array_equal(before[name], p.data), name


def test_train_log_matches_schedule(f64):
    ds = data_mod.make_synthetic(3, 8, seed=1)
    engine.set_precision(64)
    model = _tiny_model(np.random.default_rng(0), num_classes=3)
    plan = TrainPlan(total_epochs=5, base_lr=0.1, lr_drop_fractions=(0.4, 0.8),
                     batch_size=8, seed=0)
    log = training.train(model, ds, plan)
    assert [row[0] for row in log] == [0, 1, 2, 3, 4]
    assert [row[1] for row in log] == [lr_at(e, plan) for e in range(5)]
    assert all(row[4] is None for row in log)


def test_uniform_predictor_error_and_loss(f64):
    ds = data_mod.make_synthetic(10, 10, seed=2)
    model = _tiny_model(np.random.default_rng(1))
    # zero classifier forces identical logits for every class
    model.classifier_w.data[:] = 0.0
    model.classifier_b.data[:] = 0.0
    norm = data_mod.Normalizer.fit(ds.images)
    loss, err = training.evaluate(model, ds, norm)
    assert loss == pytest.approx(np.log(10), abs=1e-9)
    assert err == pytest.approx(1 - 1 / 10)


def test_eval_mode_independent_of_batch_composition(f64, rng):
    model = _tiny_model(rng)
    batch = rng.standard_normal((8, 3, 32, 32))
    with engine.no_grad():
        full = model.forward(Tensor(batch), training=False).data
        single = model.forward(Tensor(batch[3:4]), training=False).data
    assert np.abs(full[3] - single[0]).max() < 1e-6


def test_nan_loss_aborts_with_layer_name(f64, rng):
    ds = data_mod.make_synthetic(3, 6, seed=3)
    model = _tiny_model(rng, num_classes=3)
    model.parameters()["stage2.unit00.path0.conv2.w"].data[0, 0, 0, 0] = np.nan
    plan = TrainPlan(total_epochs=1, batch_size=6, seed=0)
    with pytest.raises(NumericError) as err:
        training.train(model, ds, plan)
    assert "stage2.unit00.path0" in str(err.value)


def test_training_deterministic_with_fixed_seed(f64):
    ds = data_mod.make_synthetic(3, 8, seed=4)

    def run():
        engine.set_precision(64)
        model = _tiny_model(np.random.default_rng(11), num_classes=3)
        plan = TrainPlan(total_epochs=2, batch_size=8, seed=5)
        training.train(model, ds, plan)
        return {n: p.data.copy() for n, p in model.parameters().items()}

    a, b = run(), run()
    for name in a:
        assert np.array_equal(a[name], b[name]), name


def test_checkpoint_round_trip_eval_bit_exact(f64, rng):
    ds = data_mod.make_synthetic(4, 6, seed=6)
    model = _tiny_model(rng, num_classes=4)
    plan = TrainPlan(total_epochs=1, batch_size=6, seed=1)
    training.train(model, ds, plan)

    norm = data_mod.Normalizer.fit(ds.images)
    x = Tensor(norm.normalize(ds.images[:5]))
    with engine.no_grad():
        before = model.forward(x, training=False).data

    import tempfile, os
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.ckpt")
        state_rng = np.random.default_rng(9)
        training.save_checkpoint(path, model, epoch=1, rng=state_rng, plan=plan)
        loaded, meta = training.load_checkpoint(path)
    assert meta["epoch"] == 1
    assert meta["plan_digest"] == training.plan_digest(plan)
    assert meta["rng_state"]["bit_generator"] == "PCG64"
    with engine.no_grad():
        after = loaded.forward(Tensor(x.data), training=False).data
    assert np.array_equal(before, after)
    # running stats restored exactly as well
    for name, st in model.bn_states().items():
        assert np.array_equal(st.running_mean, loaded.bn_states()[name].running_mean)
        assert np.array_equal(st.running_var, loaded.bn_states()[name].running_var)


def test_checkpoint_rejects_corrupt_magic(f64, rng, tmp_path):
    model = _tiny_model(rng)
    path = tmp_path / "m.ckpt"
    training.save_checkpoint(str(path), model)
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError):
        training.load_checkpoint(str(path))


def _tiny_checkpoint(tmp_path, rng):
    model = _tiny_model(rng, k=1)
    path = tmp_path / "m.ckpt"
    training.save_checkpoint(str(path), model, epoch=1, rng=np.random.default_rng(2))
    return model, path


def test_checkpoint_truncated_at_every_offset_raises_data_error(f64, rng, tmp_path):
    _, path = _tiny_checkpoint(tmp_path, rng)
    raw = path.read_bytes()
    for end in range(len(raw)):  # in memory: one file per offset is slow to write
        with pytest.raises(DataError, match="m.ckpt"):
            training._parse_checkpoint(raw[:end], "m.ckpt")
    # the whole load path too, at offsets inside the header, the metadata
    # JSON, a record header and a record payload
    for end in (1, 12, 60, len(raw) // 2, len(raw) - 1):
        path.write_bytes(raw[:end])
        with pytest.raises(DataError):
            training.load_checkpoint(str(path))


def _rewrite(path, model, records, first=()):
    """Save the named arrays ``first`` then ``records`` under ``model``'s
    config, in the checkpoint format."""
    writer = types.SimpleNamespace(config=model.config, parameters=lambda: dict(first),
                                   buffers=lambda: dict(records))
    training.save_checkpoint(str(path), writer)


@pytest.mark.parametrize("edit", ["drop_running_var", "short_running_mean", "unknown_stat",
                                  "unknown_bn", "duplicate", "drop_param"])
def test_checkpoint_requires_every_record_at_its_shape(f64, rng, tmp_path, edit):
    model, path = _tiny_checkpoint(tmp_path, rng)
    records = [(n, p.data) for n, p in model.parameters().items()]
    records += list(model.buffers().items())
    names = [n for n, _ in records]
    first = ()
    if edit == "drop_running_var":
        del records[names.index("final_bn.running_var")]
    elif edit == "short_running_mean":
        records[names.index("final_bn.running_mean")] = ("final_bn.running_mean", np.zeros(3))
    elif edit == "unknown_stat":
        records.append(("final_bn.running_std", np.ones(8)))
    elif edit == "unknown_bn":
        records.append(("nowhere.running_mean", np.ones(8)))
    elif edit == "duplicate":
        first = records[:1]
    else:
        del records[names.index("classifier.b")]
    _rewrite(path, model, records, first)
    with pytest.raises(DataError, match="m.ckpt"):
        training.load_checkpoint(str(path))


def test_checkpoint_rejects_unknown_dtype_tag_and_trailing_bytes(f64, rng, tmp_path):
    model, path = _tiny_checkpoint(tmp_path, rng)
    raw = path.read_bytes()
    path.write_bytes(raw + b"\0")
    with pytest.raises(DataError, match="after the last record"):
        training.load_checkpoint(str(path))
    # the last record is final_bn.running_var: 8 float64 values of 1 dim
    name = b"final_bn.running_var"
    tag_at = raw.rindex(name) + len(name)
    assert raw[tag_at:tag_at + 2] == bytes([2, 1])
    path.write_bytes(raw[:tag_at] + bytes([9]) + raw[tag_at + 1:])
    with pytest.raises(DataError, match="dtype tag 9"):
        training.load_checkpoint(str(path))


def test_checkpoint_save_is_atomic(f64, rng, tmp_path, monkeypatch):
    model, path = _tiny_checkpoint(tmp_path, rng)
    before = path.read_bytes()
    written = []

    def disk_full_after_three(fh, name, arr):
        if len(written) == 3:
            raise OSError(28, "No space left on device")
        written.append(name)
        write_record(fh, name, arr)

    write_record = training._write_record
    monkeypatch.setattr(training, "_write_record", disk_full_after_three)
    he_init(model, np.random.default_rng(99))
    with pytest.raises(OSError, match="No space"):
        training.save_checkpoint(str(path), model, epoch=2)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt"]


def test_write_log_csv(tmp_path):
    log = [(0, 0.1, 2.5, 0.9, 0.85), (1, 0.1, 2.0, 0.7, None)]
    path = tmp_path / "log.csv"
    training.write_log_csv(log, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,lr,train_loss,train_error,test_error"
    assert lines[1].startswith("0,0.1,2.5,0.9,")
    assert lines[2].endswith(",")
