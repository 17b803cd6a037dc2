"""CoPaNet benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload copanet20-k2 --seed 1 --seconds 20 --trace 0

The BLAS thread count is pinned to 1 before numpy loads, and the program is
imported from ``src/`` of the checkout this file sits in. The run's
environment is printed as one ``env {...}`` line; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. ``--trace 0`` reports the end-to-end metrics of BENCHMARK.json,
``--trace 1`` the per-layer ones. Spans and the result go to perfbench/out/.
"""

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def import_program():
    """Import copanet from this checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "copanet", "__init__.py")):
        sys.exit(f"perfbench: no program source at {src}/copanet")
    sys.path.insert(0, src)
    import copanet
    return copanet


def environment():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
    }


def metric_specs():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


def main(argv=None):
    import bench
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cp = import_program()
    end_to_end, per_layer = metric_specs()
    env = environment()
    print("env " + json.dumps(env), flush=True)

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    values, attempted, fails = bench.run(cp, args.workload, args.seed, args.seconds,
                                         bool(args.trace), out_dir)
    specs = per_layer if args.trace else end_to_end
    missing = sorted({s["name"] for s in specs} - set(values))
    extra = sorted(set(values) - {s["name"] for s in specs})
    if missing or extra:
        sys.exit(f"perfbench: metrics missing {missing}, not in BENCHMARK.json {extra}")
    for msg in fails:
        print(f"check failed: {msg}", file=sys.stderr)
    result = {
        "correct": not fails,
        "attempted": attempted,
        "failed": 0,  # an operation that raises ends the run with a traceback
        "metrics": {s["name"]: {"value": float(values[s["name"]]), "unit": s["unit"]}
                    for s in specs},
    }
    with open(os.path.join(out_dir, f"{args.workload}.trace{args.trace}.json"), "w") as fh:
        json.dump({"env": env, "args": vars(args), "checks_failed": fails, **result}, fh,
                  indent=1)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
