import numpy as np
import pytest

from copanet import engine, models, settings, training
from copanet.engine import Tensor
from copanet.errors import ConfigurationError
from copanet.models import NetworkConfig, build, count_parameters

TINY = dict(depth=11, stage_widths=(4, 6, 8), mid_widths=(2, 3, 4), dropout_rate=0.0)


def test_depth_164_bottleneck_has_18_units_per_stage():
    assert NetworkConfig(depth=164).units_per_stage == 18


def test_depth_arithmetic_for_basic_kind():
    assert NetworkConfig(depth=14, kind="basic").units_per_stage == 2


def test_invalid_depth_lists_arithmetic():
    with pytest.raises(ConfigurationError) as err:
        NetworkConfig(depth=100)
    msg = str(err.value)
    assert "98" in msg and "9" in msg  # depth-2 and the per-unit conv count


@pytest.mark.parametrize("m,target", [(1, 1.75e6), (2, 6.98e6), (4, 27.9e6)])
def test_parameter_counts_match_published_totals(m, target):
    n = count_parameters(build(NetworkConfig(depth=164, k=2, m=m)))
    assert abs(n - target) / target < 0.05, f"m={m}: {n} not within 5% of {target}"


def test_r_variant_overhead_below_01m_at_m2():
    plain = count_parameters(build(NetworkConfig(depth=164, k=2, m=2)))
    rvar = count_parameters(build(NetworkConfig(depth=164, k=2, m=2, variant="R")))
    assert 0 < rvar - plain < 1e5


def test_stage3_width_is_180_for_m1():
    assert NetworkConfig(depth=164, k=2, m=1).widths[2] == 180


def test_k1_model_builds_no_max_nodes(f64, rng):
    model = build(NetworkConfig(k=1, **TINY))
    training.he_init(model, rng)
    logits = model.forward(Tensor(rng.standard_normal((2, 3, 32, 32))), training=False)
    seen = set()
    stack = [logits]
    visited = set()
    while stack:
        node = stack.pop()
        if id(node) in visited:
            continue
        visited.add(id(node))
        seen.add(node.op.rsplit("/", 1)[-1])
        stack.extend(node._parents)
    assert "max_k" not in seen
    assert "conv2d" in seen and "bn_relu" in seen
    assert "batchnorm2d" not in seen and "relu" not in seen  # every BN is fused with its ReLU


def test_r_variant_classifier_channels_equal_sum_of_widths(f64, rng):
    config = NetworkConfig(variant="R", **TINY)
    model = build(config)
    assert model.classifier_w.shape[0] == sum(config.widths)
    training.he_init(model, rng)
    logits = model.forward(Tensor(rng.standard_normal((2, 3, 32, 32))), training=False)
    assert logits.shape == (2, 10)
    assert model.classifier_slices() == [(0, 4), (4, 10), (10, 18)]


def test_forward_shapes_and_logits(f64, rng):
    model = build(NetworkConfig(**TINY))
    training.he_init(model, rng)
    logits = model.forward(Tensor(rng.standard_normal((3, 3, 32, 32))), training=False)
    assert logits.shape == (3, 10)
    assert np.isfinite(logits.data).all()


def _pathway_params(kind, cin, mid, out):
    if kind == "bottleneck":
        return 2 * cin + cin * mid + 2 * mid + 9 * mid * mid + mid * out
    return 2 * cin + 9 * cin * out + 9 * out * out


def _per_pathway_total(config):
    total = 0
    in_ch = config.widths[0]
    for s in range(3):
        stage_in = in_ch
        if config.variant == "R" and s == 2:
            stage_in += config.widths[0]
        cin = stage_in
        for _ in range(config.units_per_stage):
            total += _pathway_params(config.kind, cin, config.mids[s], config.widths[s])
            cin = config.widths[s]
        in_ch = config.widths[s]
    return total


@pytest.mark.parametrize("k", [1, 2])
def test_doubling_k_adds_exactly_per_pathway_totals(k):
    base = NetworkConfig(depth=164, k=k, m=1)
    doubled = NetworkConfig(depth=164, k=2 * k, m=1)
    delta = count_parameters(build(doubled)) - count_parameters(build(base))
    assert delta == k * _per_pathway_total(base)


def test_parameter_count_strictly_monotone():
    base = count_parameters(build(NetworkConfig(depth=29, k=2, m=1)))
    assert count_parameters(build(NetworkConfig(depth=29, k=3, m=1))) > base
    assert count_parameters(build(NetworkConfig(depth=29, k=2, m=2))) > base
    assert count_parameters(build(NetworkConfig(depth=38, k=2, m=1))) > base


def test_build_determinism_identical_registries():
    a = build(NetworkConfig(depth=164, k=2, m=1)).parameters()
    b = build(NetworkConfig(depth=164, k=2, m=1)).parameters()
    assert list(a) == list(b)
    assert all(a[n].data.shape == b[n].data.shape for n in a)


def test_every_parameter_appears_exactly_once():
    params = build(NetworkConfig(depth=29, k=2, m=1)).parameters()
    ids = [id(p) for p in params.values()]
    assert len(ids) == len(set(ids))


def test_deployment_table_total_matches_count(capsys):
    config = NetworkConfig(depth=164, k=2, m=1)
    table = models.emit_deployment_table(config)
    lines = table.strip().splitlines()
    assert lines[0].startswith("stage,output_size,units")
    total_row = lines[-1].split(",")
    assert int(total_row[5]) == count_parameters(build(config))
    sizes = [line.split(",")[1] for line in lines[1:-1]]
    assert sizes == ["32x32", "32x32", "16x16", "8x8", "1x1"]


def test_config_text_round_trip():
    config = NetworkConfig(depth=164, k=2, m=2, variant="R", dropout_rate=0.2)
    text = settings.to_text(model=config)
    parsed = settings.build(NetworkConfig, settings.split(settings.parse_flat_text(text))["model"])
    assert settings.to_text(model=parsed) == text
    assert parsed.widths == config.widths and parsed.mids == config.mids


def test_checkpoint_config_text_is_pinned():
    # every checkpoint embeds and digests this text: a change here changes the file format
    config = NetworkConfig(depth=11, stage_widths=(4, 6, 8), mid_widths=(2, 3, 4),
                           num_classes=4, dropout_rate=0.0)
    assert settings.to_text(model=config) == (
        "depth = 11\nk = 2\nm = 1\nvariant = plain\nkind = bottleneck\n"
        "widths = 4,6,8\nmids = 2,3,4\nclasses = 4\ndropout = 0.0\n")
    basic = NetworkConfig(depth=8, kind="basic", stage_widths=(4, 6, 8))
    assert "mids" not in settings.to_text(model=basic)


def test_unknown_config_key_lists_valid_keys():
    with pytest.raises(ConfigurationError) as err:
        settings.split({"depht": "164"})
    assert "depht" in str(err.value)
    for key in settings.KEYS:
        assert key.name in str(err.value)


def test_parse_flat_text_rejects_garbage():
    with pytest.raises(ConfigurationError):
        settings.parse_flat_text("depth 164")
    parsed = settings.parse_flat_text("# comment\n\ndepth = 29 # inline\n")
    assert parsed == {"depth": "29"}


def test_config_validation_errors():
    with pytest.raises(ConfigurationError):
        NetworkConfig(variant="Q")
    with pytest.raises(ConfigurationError):
        NetworkConfig(k=0)
    with pytest.raises(ConfigurationError):
        NetworkConfig(k=129)  # routing winners are int8
    with pytest.raises(ConfigurationError):
        NetworkConfig(dropout_rate=1.0)
    with pytest.raises(ConfigurationError):
        NetworkConfig(stage_widths=(4, 6))
    with pytest.raises(ConfigurationError):
        NetworkConfig(mid_widths=(2, 0, 4))
    with pytest.raises(ConfigurationError):
        NetworkConfig(num_classes=1)


def test_dropout_in_training_needs_rng(f64, rng):
    model = build(NetworkConfig(depth=11, stage_widths=(4, 6, 8), mid_widths=(2, 3, 4),
                                dropout_rate=0.2))
    training.he_init(model, rng)
    with pytest.raises(ConfigurationError):
        model.forward(Tensor(rng.standard_normal((2, 3, 32, 32))), training=True)


def test_frozen_model_concurrent_inference(f64, rng):
    import threading
    model = build(NetworkConfig(**TINY))
    training.he_init(model, rng)
    batches = [rng.standard_normal((2, 3, 32, 32)) for _ in range(4)]
    with engine.no_grad():
        expected = [model.forward(Tensor(b), training=False).data for b in batches]

    results = [None] * 4
    def worker(i):
        with engine.no_grad():
            results[i] = model.forward(Tensor(batches[i]), training=False).data
    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for got, want in zip(results, expected):
        assert np.array_equal(got, want)


def test_capture_stage_returns_one_mask_per_unit(f64, rng):
    model = build(NetworkConfig(**TINY))
    training.he_init(model, rng)
    logits, masks = model.forward(Tensor(rng.standard_normal((2, 3, 32, 32))),
                                  training=False, capture_stage=3)
    assert len(masks) == model.config.units_per_stage
    assert all(m.winners.shape == (2, 8, 8, 8) for m in masks)
    assert logits.shape == (2, 10)
