import os

import pytest

from copanet import data as data_mod, models, selfcheck, settings, training
from copanet.cli import main

TINY_SET = ["--set", "depth=11", "--set", "widths=4,6,8", "--set", "mids=2,3,4",
            "--set", "classes=4", "--set", "dropout=0",
            "--set", "per_class=8", "--set", "test_per_class=4"]
TINY_PLAN = ["--set", "epochs=2", "--set", "batch_size=8", "--set", "lr=0.05"]


def test_params_default_config_near_published_total(capsys):
    assert main(["params"]) == 0
    out = capsys.readouterr().out
    total = int(out.strip().splitlines()[-1].split(":")[1])
    assert abs(total - 1.75e6) / 1.75e6 < 0.05
    assert "stage,output_size,units" in out


def test_params_m2_to_m1_ratio_near_quadratic(capsys):
    main(["--set", "m=2", "params"])
    m2 = int(capsys.readouterr().out.strip().splitlines()[-1].split(":")[1])
    main(["--set", "m=1", "params"])
    m1 = int(capsys.readouterr().out.strip().splitlines()[-1].split(":")[1])
    assert 3.5 < m2 / m1 < 4.1  # conv-dominated totals scale ~quadratically


def test_params_k1_reports_resnet_equivalent(capsys):
    assert main(["--set", "k=1", "params"]) == 0
    total = int(capsys.readouterr().out.strip().splitlines()[-1].split(":")[1])
    assert 0 < total < 1.1e6


def test_params_writes_artifacts(tmp_path, capsys):
    out = str(tmp_path / "run")
    assert main(["--out", out, "params"]) == 0
    assert os.path.exists(os.path.join(out, "deployment.csv"))
    assert os.path.exists(os.path.join(out, "config.txt"))


def test_unknown_set_key_exits_1(capsys):
    assert main(["--set", "depht=164", "params"]) == 1
    err = capsys.readouterr().err
    assert "depht" in err and "valid keys" in err


def test_set_overrides_compose_left_to_right(capsys):
    assert main(["--set", "k=1", "--set", "k=3", "params"]) == 0
    capsys.readouterr()
    main(["--set", "k=3", "params"])
    expected = capsys.readouterr().out
    main(["--set", "k=1", "--set", "k=3", "params"])
    assert capsys.readouterr().out == expected


def test_config_file_plus_override(tmp_path, capsys):
    cfg = tmp_path / "model.cfg"
    cfg.write_text("depth = 29\nk = 2\n# comment\n")
    assert main(["--config", str(cfg), "--set", "k=1", "params"]) == 0
    out = capsys.readouterr().out
    main(["--set", "depth=29", "--set", "k=1", "params"])
    assert capsys.readouterr().out == out


def test_train_eval_trace_round_trip(tmp_path, capsys):
    out = str(tmp_path / "run")
    rc = main(["--out", out, "--seed", "3"] + TINY_SET + TINY_PLAN + ["train"])
    assert rc == 0
    for artifact in ("config.txt", "log.csv", "model.ckpt"):
        assert os.path.exists(os.path.join(out, artifact)), artifact
    config_text = open(os.path.join(out, "config.txt")).read()
    assert "depth = 11" in config_text and "epochs = 2" in config_text
    capsys.readouterr()

    ckpt = os.path.join(out, "model.ckpt")
    rc = main(["--seed", "3"] + TINY_SET + ["eval", "--checkpoint", ckpt])
    assert rc == 0
    assert "test_error" in capsys.readouterr().out

    trace_dir = str(tmp_path / "trace")
    rc = main(["--out", trace_dir, "--seed", "3"] + TINY_SET +
              ["trace", "--checkpoint", ckpt, "--stage", "3", "--maps", "2"])
    assert rc == 0
    assert os.path.exists(os.path.join(trace_dir, "profile.csv"))
    pgms = [f for f in os.listdir(trace_dir) if f.endswith(".pgm")]
    assert len(pgms) == 2


def test_sweep_params_monotone_and_consistent(tmp_path, capsys):
    out = str(tmp_path / "sweep")
    rc = main(["--out", out] + TINY_SET + ["sweep", "--axis", "k", "--values", "1,2,3,4"])
    assert rc == 0
    lines = open(os.path.join(out, "sweep.csv")).read().strip().splitlines()
    assert lines[0] == "k,params,test_error"
    params = [int(line.split(",")[1]) for line in lines[1:]]
    assert params == sorted(params) and len(set(params)) == 4
    capsys.readouterr()

    # cross-command consistency with the params subcommand
    main(TINY_SET + ["--set", "k=3", "params"])
    total = int(capsys.readouterr().out.strip().splitlines()[-1].split(":")[1])
    assert params[2] == total


def test_single_value_sweep_matches_plain_train(tmp_path, capsys):
    out = str(tmp_path / "run")
    args = ["--seed", "5"] + TINY_SET + TINY_PLAN
    assert main(["--out", out] + args + ["train"]) == 0
    train_line = capsys.readouterr().out.strip().splitlines()[-1]
    train_err = float(train_line.split("test_err")[1])

    assert main(args + ["sweep", "--axis", "k", "--values", "2", "--train"]) == 0
    sweep_rows = capsys.readouterr().out.strip().splitlines()
    sweep_err = float(sweep_rows[-1].split(",")[2])
    assert sweep_err == pytest.approx(train_err, abs=1e-12)


def test_sweep_empty_values_is_usage_error(capsys):
    assert main(["sweep", "--axis", "k", "--values", ","]) == 1


def test_cifar_data_error_exit_code(tmp_path):
    assert main(["--set", "data=cifar10", "--set", f"data_dir={tmp_path}", "train"]) == 2


def _assert_one_data_error(rc, capsys):
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("data error: ") and err.count("\n") == 1, err


def test_missing_config_file_exits_2_with_one_line(tmp_path, capsys):
    rc = main(["--config", str(tmp_path / "absent.cfg"), "params"])
    _assert_one_data_error(rc, capsys)


def test_missing_checkpoint_exits_2_with_one_line(tmp_path, capsys):
    rc = main(TINY_SET + ["eval", "--checkpoint", str(tmp_path / "absent.ckpt")])
    _assert_one_data_error(rc, capsys)


def test_truncated_checkpoint_exits_2_with_one_line(tmp_path, capsys):
    path = tmp_path / "trunc.ckpt"
    model = models.build(models.NetworkConfig(depth=11, stage_widths=(4, 6, 8),
                                              mid_widths=(2, 3, 4)))
    training.save_checkpoint(str(path), model)
    path.write_bytes(path.read_bytes()[:200])  # ends inside the metadata JSON
    rc = main(TINY_SET + ["eval", "--checkpoint", str(path)])
    _assert_one_data_error(rc, capsys)


def test_out_below_a_regular_file_exits_2_with_one_line(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    rc = main(["--out", str(blocker / "run")] + TINY_SET + TINY_PLAN + ["train"])
    _assert_one_data_error(rc, capsys)


def test_cifar_dir_without_test_batch_exits_2_with_one_line(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(data_mod, "_RECORDS_PER_FILE", 2)  # 2-record batch files keep it small
    for i in range(1, 6):
        (tmp_path / f"data_batch_{i}.bin").write_bytes(bytes(2 * data_mod._RECORD_BYTES))
    rc = main(["--set", "data=cifar10", "--set", f"data_dir={tmp_path}", "train"])
    _assert_one_data_error(rc, capsys)


def test_selfcheck_passes_and_enumerates_every_invariant(capsys):
    assert main(["selfcheck"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == len(selfcheck.INVARIANTS)
    names = [l.split()[1] for l in lines]
    assert sorted(names) == sorted(n for n, _ in selfcheck.INVARIANTS)
    assert all(l.startswith("PASS") for l in lines)


def test_selfcheck_fault_injection_reports_conservation_failure(capsys):
    assert main(["selfcheck", "--inject-fault", "max_backward"]) == 3
    out = capsys.readouterr().out
    assert "FAIL tensor_engine.max_routing_conservation" in out
    assert "FAIL tensor_engine.gradient_oracle_elementwise_max_k" in out


def test_usage_error_exit_code():
    assert main(["--set", "depth=nonsense", "params"]) == 1
    assert main(["--set", "per_class=0", "params"]) == 1  # every command checks every key
    assert main([]) == 1


# at least one unparsable or out-of-range value for every key; data_dir takes
# any path, so its case is the empty path that data=cifar10 cannot use
BAD_VALUES = [
    ("depth", "abc"), ("depth", "12"), ("k", "two"), ("k", "0"), ("k", "129"), ("m", "1.5"),
    ("variant", "Q"), ("kind", "dense"), ("widths", "4,x,8"), ("widths", "4,6"),
    ("mids", "2,3"), ("classes", "ten"), ("classes", "1"), ("dropout", "high"),
    ("dropout", "1.0"), ("epochs", "2.5"), ("epochs", "0"), ("lr", "fast"), ("lr", "-1"),
    ("lr", "0"), ("lr_drop_fractions", "0.6;0.8"), ("lr_drop_fractions", "0.8,0.6"),
    ("lr_drop_factor", "tenth"), ("lr_drop_factor", "0"), ("lr_drop_factor", "2"),
    ("momentum", "0,9"), ("momentum", "1.5"), ("momentum", "-0.1"),
    ("weight_decay", "none"), ("weight_decay", "-1"),
    ("batch_size", "8.0"), ("batch_size", "1"), ("augment", "maybe"), ("data", "bogus"),
    ("data_dir", ""), ("per_class", "abc"), ("per_class", "0"), ("test_per_class", "-1"),
    ("normalize", "bogus"),
]


def test_bad_values_cover_every_key():
    assert {name for name, _ in BAD_VALUES} == {key.name for key in settings.KEYS}


@pytest.mark.parametrize("name,value", BAD_VALUES)
def test_bad_key_value_exits_1_with_one_line_and_writes_nothing(tmp_path, capsys, name, value):
    out = tmp_path / "run"
    extra = ["--set", "data=cifar10"] if name == "data_dir" else []
    rc = main(["--out", str(out)] + TINY_SET + TINY_PLAN + extra
              + ["--set", f"{name}={value}", "train"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err
    field = next(key.attr for key in settings.KEYS if key.name == name)
    assert name in err or field in err, err
    assert not out.exists()


def test_config_txt_reproduces_itself(tmp_path, capsys):
    a, b = tmp_path / "A", tmp_path / "B"
    plan = TINY_PLAN + ["--set", "epochs=1", "--set", "augment=maybe", "--set", "augment=yes"]
    assert main(["--out", str(a), "--seed", "3"] + TINY_SET + plan + ["train"]) == 0
    assert main(["--out", str(b), "--seed", "3", "--config", str(a / "config.txt"), "train"]) == 0
    text = (a / "config.txt").read_text()
    assert (b / "config.txt").read_text() == text
    assert "augment = True" in text and "per_class = 8" in text
