"""Self-test of the benchmark at a tiny size (about 20 s).

    python3 perfbench/selftest.py

Checks that a run of the tiny workload prints its environment and, as its
last line, every metric named in BENCHMARK.json with its unit, together with
the counts of operations attempted and failed; that the gradient check
reports a failure once the engine's ``max_backward`` test fault is on; and
that the benchmark exits non-zero, printing no result, where the program
source is missing.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join("perfbench", "run.py")]


def require(cond, msg):
    if not cond:
        raise SystemExit(f"selftest FAILED: {msg}")


def run_tiny(trace, spec):
    args = ["--workload", "tiny", "--seed", "0", "--seconds", "2", "--trace", str(trace)]
    proc = subprocess.run(RUN + args, cwd=ROOT, capture_output=True, text=True, timeout=180)
    require(proc.returncode == 0, f"tiny run exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    env = [json.loads(ln[4:]) for ln in lines if ln.startswith("env ")]
    require(env and env[0]["blas_threads"] == "1" and env[0]["nproc"] >= 1,
            f"no environment line with the BLAS thread count: {lines[:2]}")
    result = json.loads(lines[-1])
    require(set(result) == {"correct", "attempted", "failed", "metrics"},
            f"result keys {sorted(result)}")
    require(result["correct"] is True, f"tiny run not correct: {proc.stderr[-2000:]}")
    require(isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int), "attempted and failed must be counts")
    metrics = spec["per_layer" if trace else "end_to_end"]
    require(set(result["metrics"]) == {m["name"] for m in metrics},
            f"metric names differ from BENCHMARK.json: {sorted(result['metrics'])}")
    for m in metrics:
        got = result["metrics"][m["name"]]
        require(got["unit"] == m["unit"] and math.isfinite(got["value"]),
                f"{m['name']}: {got} (unit should be {m['unit']})")
    return result


def gradient_check_sees_fault():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np
    import copanet as cp
    import checks

    config = cp.models.NetworkConfig(depth=11, k=2, dropout_rate=0.2)
    images = cp.data.make_synthetic(10, 1, seed=0)
    norm = cp.data.Normalizer.fit(images.images)
    pick = np.arange(4)
    clean, _ = checks.gradients(cp, config, images.images[pick], images.labels[pick], norm, 0)
    require(not clean, f"gradient check fails on the unbroken engine: {clean}")
    cp.engine.enable_test_fault("max_backward")
    try:
        broken, _ = checks.gradients(cp, config, images.images[pick], images.labels[pick],
                                     norm, 0)
    finally:
        cp.engine.clear_test_faults()
    require(broken, "gradient check passes with the max_backward fault on")


def bare_directory_refuses():
    bare = os.path.join(HERE, "out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for name in os.listdir(HERE):
        if name.endswith((".py", ".md")):
            shutil.copy(os.path.join(HERE, name), os.path.join(bare, "perfbench"))
    args = ["--workload", "tiny", "--seed", "0", "--seconds", "2", "--trace", "0"]
    try:
        proc = subprocess.run(RUN + args, cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    require(proc.returncode != 0 and '"metrics"' not in proc.stdout,
            f"run without the program exited {proc.returncode}: {proc.stdout[-500:]}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    run_tiny(0, spec)
    run_tiny(1, spec)
    gradient_check_sees_fault()
    bare_directory_refuses()
    print("selftest ok")


if __name__ == "__main__":
    main()
