"""Acceptance suite: one test per criterion, each printing a PASS line.

The heavyweight desk-scale training runs (criterion 7) are shared with the
routing-analysis checks (criterion 8) through a module-scoped fixture, so the
whole suite stays inside the stated runtime budgets.
"""

import sys
import time

import numpy as np
import pytest

from copanet import analysis, data as data_mod, engine, models, training, units
from copanet.engine import Tensor
from copanet.models import NetworkConfig, build, count_parameters
from copanet.selfcheck import GRADIENT_CASES
from copanet.training import TrainPlan, he_init, lr_at

TOY_SEEDS = (0, 1, 2, 3, 4)
TOY_EPOCHS = 25
# Toy recipe notes: weight decay stays off because decay shrinks pathways
# that are not currently winning (they receive no gradient through the max),
# which starves the competition on tiny data. Dropout 0.2 is kept for the
# k=2 vs k=1 comparison runs, where competition plus dropout is what
# generalizes; the memorization run drops it to converge to exactly 100%.


def _report(num, elapsed, text):
    sys.__stdout__.write(f"PASS criterion {num} ({elapsed:.1f}s): {text}\n")
    sys.__stdout__.flush()


@pytest.fixture(scope="module")
def f64m():
    prev = engine.precision()
    engine.set_precision(64)
    yield
    engine.set_precision(prev)


# --------------------------------------------------------------------------
# criterion 1: gradient oracle, every primitive + 3-unit K=2 stack, < 60 s


def test_criterion_1_gradient_oracle(f64m):
    start = time.monotonic()
    for name, case in GRADIENT_CASES:
        case()
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"gradient oracle took {elapsed:.1f}s >= 60s"
    _report(1, elapsed, f"{len(GRADIENT_CASES) - 1} primitive cases + CoPa stack, "
            "max rel err < 1e-4 (1e-6 pointwise), central differences step 1e-5")


# --------------------------------------------------------------------------
# criterion 2: routing invariants on 1,000 random tensors, < 10 s


def test_criterion_2_routing_invariants(f64m):
    start = time.monotonic()
    rng = np.random.default_rng(202)
    for trial in range(1000):
        k = 2 + trial % 3
        vals = rng.standard_normal((k, 4, 5))
        if trial % 7 == 0:
            vals[min(1, k - 1)] = vals[0]  # exact ties
        ins = [Tensor(v, requires_grad=True) for v in vals]
        out, winners = engine.elementwise_max_k(ins, capture_routing=True)
        assert np.array_equal(out.data, vals.max(axis=0))
        _, winners2 = engine.elementwise_max_k([Tensor(v) for v in vals], capture_routing=True)
        assert np.array_equal(winners, winners2)
        if trial % 7 == 0:
            assert not (winners == min(1, k - 1)).any() or k == 1
        engine.sum_all(out).backward()
        total = sum(t.grad for t in ins)
        assert np.array_equal(total, np.ones((4, 5)))
    elapsed = time.monotonic() - start
    assert elapsed < 10, f"routing invariants took {elapsed:.1f}s >= 10s"
    _report(2, elapsed, "1000 tensors: output == max, exact gradient conservation, "
            "deterministic lowest-index ties")


# --------------------------------------------------------------------------
# criterion 3: winner composition reproduces the forward stack bit-exactly


def test_criterion_3_composition(f64m):
    start = time.monotonic()
    rng = np.random.default_rng(303)
    spec = units.CoPaUnitSpec(2, units.PathwaySpec("bottleneck", 4, 3, 4))
    stack = [units.CoPaUnit(spec, f"u{i}") for i in range(3)]
    for unit in stack:
        he_init(unit, rng)
    for _ in range(100):
        x = Tensor(rng.standard_normal((1, 4, 6, 6)))
        h, masks = x, []
        for unit in stack:
            h, mask = unit.forward(h, training=False, capture=True)
            masks.append(mask)
        composed = units.compose_winners(x, stack, masks)
        assert np.array_equal(composed.data, h.data)
    _report(3, time.monotonic() - start,
            "compose_winners == stacked forward, bit-exact on 100 random inputs")


# --------------------------------------------------------------------------
# criterion 4: K=1 CoPaNet is bit-identical to the pre-activation ResNet


def _resnet_forward(model, x):
    """Independent recomposition of a k=1 bottleneck CoPaNet from primitives."""
    cfg = model.config
    h = engine.conv2d(x, model.init_conv, stride=1, padding=1)
    for s, stage in enumerate(model.stages):
        for unit in stage:
            path = unit._paths[0]
            r = engine.relu(engine.batchnorm2d(h, path["bn1"], False))
            r = engine.conv2d(r, path["conv1"], 1, 0)
            r = engine.relu(engine.batchnorm2d(r, path["bn2"], False))
            r = engine.conv2d(r, path["conv2"], 1, 1)
            r = engine.conv2d(r, path["conv3"], 1, 0)
            shortcut = engine.conv2d(h, unit.proj, 1, 0) if unit.proj is not None else h
            h = engine.add(shortcut, r)
        if s < 2:
            h = engine.avgpool2d(h, 2, 2)
            h = engine.dropout(h, cfg.dropout_rate, False)
    h = engine.relu(engine.batchnorm2d(h, model.final_bn, False))
    return engine.linear(engine.global_avgpool(h), model.classifier_w, model.classifier_b)


def test_criterion_4_k1_equivalence(f64m):
    start = time.monotonic()
    rng = np.random.default_rng(404)
    model = build(NetworkConfig(depth=11, k=1, stage_widths=(4, 6, 8),
                                mid_widths=(2, 3, 4), dropout_rate=0.1))
    he_init(model, rng)
    for _ in range(50):
        batch = rng.standard_normal((2, 3, 32, 32))

        x1 = Tensor(batch, requires_grad=True)
        out1 = model.forward(x1, training=False)
        model.zero_grad()
        engine.sum_all(engine.relu(out1)).backward()
        grads1 = {n: p.grad.copy() for n, p in model.parameters().items()}
        gx1 = x1.grad.copy()

        x2 = Tensor(batch, requires_grad=True)
        out2 = _resnet_forward(model, x2)
        model.zero_grad()
        engine.sum_all(engine.relu(out2)).backward()

        assert np.array_equal(out1.data, out2.data)
        assert np.array_equal(gx1, x2.grad)
        for name, p in model.parameters().items():
            assert np.array_equal(grads1[name], p.grad), name
    _report(4, time.monotonic() - start,
            "k=1 forward/backward bit-identical to pre-activation ResNet, 50 batches")


# --------------------------------------------------------------------------
# criterion 5: parameter reconstruction against the published table


def test_criterion_5_parameter_reconstruction():
    start = time.monotonic()
    for m, target in ((1, 1.75e6), (2, 6.98e6), (4, 27.9e6)):
        n = count_parameters(build(NetworkConfig(depth=164, k=2, m=m)))
        assert abs(n - target) / target < 0.05, f"m={m}: {n} vs {target}"
    plain = count_parameters(build(NetworkConfig(depth=164, k=2, m=2)))
    rvar = count_parameters(build(NetworkConfig(depth=164, k=2, m=2, variant="R")))
    assert abs(rvar - plain) < 1e5
    assert NetworkConfig(depth=164, k=2, m=1).widths[2] == 180
    _report(5, time.monotonic() - start,
            "depth-164 k=2 totals within ±5% of 1.75M/6.98M/27.9M; R overhead < 0.1M; "
            "stage-3 width 180")


# --------------------------------------------------------------------------
# criterion 6: learning-rate schedule reproduction, exact


def test_criterion_6_schedule():
    start = time.monotonic()
    cifar = TrainPlan(total_epochs=300, base_lr=0.1, lr_drop_fractions=(0.6, 0.8))
    assert lr_at(0, cifar) == 0.1
    assert lr_at(180, cifar) == pytest.approx(0.01, rel=1e-12)
    assert lr_at(240, cifar) == pytest.approx(0.001, rel=1e-12)
    svhn = TrainPlan(total_epochs=20, base_lr=0.1, lr_drop_fractions=(0.5, 0.75))
    assert lr_at(10, svhn) == pytest.approx(0.01, rel=1e-12)
    assert lr_at(15, svhn) == pytest.approx(0.001, rel=1e-12)
    _report(6, time.monotonic() - start, "300-epoch CIFAR and 20-epoch SVHN drops exact")


# --------------------------------------------------------------------------
# criteria 7 and 8 share the expensive desk-scale training runs


@pytest.fixture(scope="module")
def toy_runs():
    prev = engine.precision()
    engine.set_precision(32)
    start = time.monotonic()
    full = data_mod.make_synthetic(10, 26, seed=0)
    order = np.random.default_rng(0).permutation(len(full))[:256]
    train_set = data_mod.Dataset(full.images[order], full.labels[order],
                                 "toy-train", full.class_names)
    test_set = data_mod.make_synthetic(10, 50, seed=1)
    norm = data_mod.Normalizer.fit(train_set.images)

    def run(k, seed, dropout):
        model = build(NetworkConfig(depth=20, k=k, m=1, dropout_rate=dropout))
        he_init(model, np.random.default_rng(seed))
        plan = TrainPlan(total_epochs=TOY_EPOCHS, base_lr=0.1, batch_size=32,
                         weight_decay=0.0, seed=seed)
        training.train(model, train_set, plan, normalizer=norm)
        return model

    model_a = run(2, TOY_SEEDS[0], dropout=0.0)
    _, train_err_a = training.evaluate(model_a, train_set, norm)

    k2_models, k2_errs, k1_errs = [], [], []
    for seed in TOY_SEEDS:
        m2 = run(2, seed, dropout=0.2)
        _, e2 = training.evaluate(m2, test_set, norm)
        m1 = run(1, seed, dropout=0.2)
        _, e1 = training.evaluate(m1, test_set, norm)
        k2_models.append(m2)
        k2_errs.append(e2)
        k1_errs.append(e1)

    elapsed = time.monotonic() - start
    yield {
        "train_set": train_set, "test_set": test_set, "norm": norm,
        "model_a": model_a, "train_err_a": train_err_a,
        "k2_models": k2_models, "k2_errs": k2_errs, "k1_errs": k1_errs,
        "elapsed": elapsed,
    }
    engine.set_precision(prev)


def test_criterion_7_desk_scale_learning(toy_runs):
    r = toy_runs
    assert r["train_err_a"] == 0.0, \
        f"train error {r['train_err_a']:.4f} after {TOY_EPOCHS} epochs on 256 samples"
    med2, med1 = float(np.median(r["k2_errs"])), float(np.median(r["k1_errs"]))
    assert med2 < med1, f"median test error k=2 {med2:.4f} !< k=1 {med1:.4f}"
    assert r["elapsed"] < 1200, f"desk-scale block took {r['elapsed']:.0f}s >= 20 min"
    _report(7, r["elapsed"],
            f"CoPaNet-20 reaches 100% train acc on 256 samples within {TOY_EPOCHS} epochs; "
            f"median test error over {len(TOY_SEEDS)} seeds: k=2 {med2:.3f} < k=1 {med1:.3f}")


def test_criterion_8_trace_fidelity(toy_runs):
    start = time.monotonic()
    r = toy_runs
    model = r["k2_models"][0]
    norm = r["norm"]

    # (a) profile counts equal a brute-force recount on a 32-sample subset
    subset = data_mod.Dataset(r["test_set"].images[:32], r["test_set"].labels[:32],
                              "subset", r["test_set"].class_names)
    profile = analysis.trace(model, subset, norm, stage=3, batch_size=8)
    units_n = model.config.units_per_stage
    maps = model.config.widths[2]
    wins = np.zeros((units_n, maps, 10, 2), dtype=np.int64)
    elements = np.zeros((units_n, maps, 10), dtype=np.int64)
    with engine.no_grad():
        for s in range(0, 32, 8):
            x = Tensor(norm.normalize(subset.images[s:s + 8]))
            labels = subset.labels[s:s + 8]
            _, masks = model.forward(x, training=False, capture_stage=3)
            for u, mask in enumerate(masks):
                for n in range(8):
                    for k in range(2):
                        wins[u, :, labels[n], k] += (mask.winners[n] == k).sum(axis=(1, 2))
                    elements[u, :, labels[n]] += mask.winners.shape[2] * mask.winners.shape[3]
    assert np.array_equal(profile.wins, wins)
    assert np.array_equal(profile.elements, elements)

    # (b) split-half: within-class profile distance < between-class distance
    within_by_seed, between_by_seed = [], []
    test = r["test_set"]
    for m2 in r["k2_models"]:
        half = np.arange(len(test)) % 2  # even/odd split inside each class block
        relabeled = data_mod.Dataset(
            test.images, test.labels + 10 * half, "split-half",
            tuple(f"c{i}h{h}" for h in (0, 1) for i in range(10)))
        prof = analysis.trace(m2, relabeled, norm, stage=3)
        cats = prof.categories
        within = [analysis.profile_distance(prof, cats[c], cats[c + 10]) for c in range(10)]
        between = [analysis.profile_distance(prof, cats[c], cats[c2 + 10])
                   for c in range(10) for c2 in range(10) if c2 != c]
        within_by_seed.append(np.mean(within))
        between_by_seed.append(np.mean(between))
    med_w, med_b = float(np.median(within_by_seed)), float(np.median(between_by_seed))
    assert med_w < med_b, f"within {med_w:.4f} !< between {med_b:.4f}"
    _report(8, time.monotonic() - start,
            f"profile == mask replay (exact); split-half median within {med_w:.3f} "
            f"< between {med_b:.3f} over {len(TOY_SEEDS)} seeds")


# --------------------------------------------------------------------------
# criterion 9: round-trips


def test_criterion_9_round_trips(toy_runs, tmp_path):
    start = time.monotonic()
    r = toy_runs
    model, norm, test = r["model_a"], r["norm"], r["test_set"]

    # checkpoint: eval logits bit-exact after save/load
    x = Tensor(norm.normalize(test.images[:16]))
    with engine.no_grad():
        before = model.forward(x, training=False).data
    ckpt = str(tmp_path / "model.ckpt")
    training.save_checkpoint(ckpt, model, epoch=TOY_EPOCHS,
                             rng=np.random.default_rng(0),
                             plan=TrainPlan(total_epochs=TOY_EPOCHS, batch_size=32))
    loaded, _ = training.load_checkpoint(ckpt)
    with engine.no_grad():
        after = loaded.forward(Tensor(x.data), training=False).data
    assert np.array_equal(before, after)

    # profile CSV: lossless export/import
    subset = data_mod.Dataset(test.images[:32], test.labels[:32], "s", test.class_names)
    profile = analysis.trace(r["k2_models"][0], subset, norm, stage=3)
    csv_path = str(tmp_path / "profile.csv")
    analysis.profile_to_csv(profile, csv_path)
    back = analysis.profile_from_csv(csv_path)
    assert back.unit_ids == profile.unit_ids
    assert back.categories == profile.categories
    assert np.array_equal(back.wins, profile.wins)
    assert np.array_equal(back.elements, profile.elements)

    # CIFAR-10 fixture: byte-exact parse
    rng = np.random.default_rng(909)
    labels = rng.integers(0, 10, size=10000, dtype=np.uint8)
    pixels = rng.integers(0, 256, size=(10000, 3072), dtype=np.uint8)
    records = np.concatenate([labels[:, None], pixels], axis=1)
    batch_path = str(tmp_path / "data_batch_1.bin")
    with open(batch_path, "wb") as fh:
        fh.write(records.tobytes())
    images, parsed = data_mod.read_batch_file(batch_path)
    assert np.array_equal(parsed, labels.astype(np.int64))
    assert np.array_equal(images.reshape(10000, -1), pixels)
    _report(9, time.monotonic() - start,
            "checkpoint eval logits bit-exact; profile CSV lossless; CIFAR bytes exact")
