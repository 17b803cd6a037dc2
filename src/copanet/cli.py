"""Command-line entry point.

Subcommands: params, train, eval, trace, sweep, selfcheck. Configuration
flows from an optional flat key=value file plus repeatable --set overrides
(later writes win); the effective configuration is echoed and, when an
output directory is given, serialized next to the artifacts so every run is
reproducible from its directory alone.

Exit codes: 0 ok, 1 usage/configuration, 2 data (including a file that cannot
be read or written), 3 numeric failure.
"""

import argparse
import os
import sys

import numpy as np

from . import analysis, data as data_mod, engine, models, selfcheck, settings, training
from .errors import ConfigurationError, DataError, NumericError, UsageError


def _collect_settings(args):
    """Merge --config and the --set overrides and validate every key.

    Returns the {section: {key: text}} mapping and the NetworkConfig,
    TrainPlan and DataSpec it describes, whichever of them the command uses.
    """
    mapping = {}
    if args.config:
        with open(args.config) as fh:
            mapping.update(settings.parse_flat_text(fh.read()))
    for item in args.set or []:
        if "=" not in item:
            raise ConfigurationError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        mapping[key.strip()] = value.strip()  # last write wins
    sections = settings.split(mapping)
    config = settings.build(models.NetworkConfig, sections["model"])
    plan = settings.build(training.TrainPlan, sections["plan"],
                          seed=args.seed, precision=args.precision)
    return sections, config, plan, settings.build(data_mod.DataSpec, sections["data"])


def _write_effective_config(out_dir, text):
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "config.txt"), "w") as fh:
            fh.write(text)


def cmd_params(args):
    sections, config, _, _ = _collect_settings(args)
    if sections["plan"]:
        raise ConfigurationError(f"params does not take plan keys: {sorted(sections['plan'])}")
    table = models.emit_deployment_table(config)
    total = models.count_parameters(models.build(config))
    print(table, end="")
    print(f"total parameters: {total}")
    if args.out:
        _write_effective_config(args.out, settings.to_text(model=config))
        with open(os.path.join(args.out, "deployment.csv"), "w") as fh:
            fh.write(table)
    return 0


def cmd_train(args):
    _, config, plan, spec = _collect_settings(args)
    engine.set_precision(args.precision)
    text = settings.to_text(model=config, plan=plan, data=spec)
    print(text, end="")
    _write_effective_config(args.out, text)

    train_set, test_set, normalizer = spec.load(config.num_classes, args.seed)
    model = models.build(config)
    training.he_init(model, np.random.default_rng(args.seed))
    log_path = os.path.join(args.out, "log.csv") if args.out else None
    log = training.train(model, train_set, plan, normalizer=normalizer,
                         test_set=test_set, log_path=log_path)
    final = log[-1]
    print(f"epoch {final[0]}: train_loss {final[2]:.4f} train_err {final[3]:.4f} "
          f"test_err {final[4]:.4f}")
    if args.out:
        rng = np.random.default_rng(plan.seed)
        training.save_checkpoint(os.path.join(args.out, "model.ckpt"), model,
                                 epoch=plan.total_epochs - 1, rng=rng, plan=plan)
    return 0


def cmd_eval(args):
    *_, spec = _collect_settings(args)
    model, _ = training.load_checkpoint(args.checkpoint)
    _, test_set, normalizer = spec.load(model.config.num_classes, args.seed)
    loss, err = training.evaluate(model, test_set, normalizer)
    print(f"test_loss {loss:.6f} test_error {err:.6f}")
    return 0


def cmd_trace(args):
    *_, spec = _collect_settings(args)
    model, _ = training.load_checkpoint(args.checkpoint)
    _, test_set, normalizer = spec.load(model.config.num_classes, args.seed)
    profile = analysis.trace(model, test_set, normalizer, stage=args.stage)
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "profile.csv")
    analysis.profile_to_csv(profile, csv_path)
    paths = []
    if profile.k == 2:  # signed-preference heatmaps only exist for 2 pathways
        paths = analysis.export_heatmaps(profile, out_dir, top=args.maps)
    _write_effective_config(out_dir, settings.to_text(model=model.config, data=spec))
    print(f"wrote {csv_path} and {len(paths)} heatmaps to {out_dir}")
    return 0


def cmd_sweep(args):
    sections, _, plan, spec = _collect_settings(args)
    values = [v for v in args.values.split(",") if v]
    if not values:
        raise UsageError("sweep needs a non-empty comma-separated --values list")
    engine.set_precision(args.precision)

    rows = []
    for value in values:
        config = settings.build(models.NetworkConfig, dict(sections["model"], **{args.axis: value}))
        params = models.count_parameters(models.build(config))
        test_err = ""
        if args.train:
            train_set, test_set, normalizer = spec.load(config.num_classes, args.seed)
            model = models.build(config)
            training.he_init(model, np.random.default_rng(args.seed))
            training.train(model, train_set, plan, normalizer=normalizer)
            _, err = training.evaluate(model, test_set, normalizer)
            test_err = repr(float(err))
        rows.append((value, params, test_err))

    lines = [f"{args.axis},params,test_error"] + [f"{v},{p},{e}" for v, p, e in rows]
    text = "\n".join(lines) + "\n"
    print(text, end="")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "sweep.csv"), "w") as fh:
            fh.write(text)
    return 0


def cmd_selfcheck(args):
    ok = selfcheck.run_selfcheck(fault=args.inject_fault)
    return 0 if ok else 3


def build_parser():
    parser = argparse.ArgumentParser(
        prog="copanet",
        description="Competitive pathway networks: build, train, analyze routing.")
    parser.add_argument("--config", help="flat key=value configuration file")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a config key (repeatable, last wins)")
    parser.add_argument("--out", help="output directory for artifacts")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--precision", type=int, choices=(32, 64), default=32)

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("params", help="deployment table and parameter count")
    sub.add_parser("train", help="train a model")
    p_eval = sub.add_parser("eval", help="evaluate a checkpoint")
    p_eval.add_argument("--checkpoint", required=True)
    p_trace = sub.add_parser("trace", help="routing profile of a checkpoint")
    p_trace.add_argument("--checkpoint", required=True)
    p_trace.add_argument("--stage", type=int, default=3)
    p_trace.add_argument("--maps", type=int, default=4)
    p_sweep = sub.add_parser("sweep", help="parameter/error sweep over one axis")
    p_sweep.add_argument("--axis", choices=settings.SWEEP_AXES, required=True)
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--train", action="store_true", help="also train per value")
    p_check = sub.add_parser("selfcheck", help="run the fast invariant suite")
    p_check.add_argument("--inject-fault", default=None, help=argparse.SUPPRESS)
    return parser


_HANDLERS = {"params": cmd_params, "train": cmd_train, "eval": cmd_eval,
             "trace": cmd_trace, "sweep": cmd_sweep, "selfcheck": cmd_selfcheck}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return _HANDLERS[args.command](args)
    except (ConfigurationError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:  # OSError: a path that cannot be read or written
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
