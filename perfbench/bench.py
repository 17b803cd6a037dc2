"""Workloads and phases of the CoPaNet benchmark.

One run sets up a workload several times, trains, hands the model on through
a checkpoint, evaluates, traces routing and measures one training step's
memory, then checks the outputs. With tracing off it reports the end-to-end
metrics; with tracing on it repeats each timed phase under the span tracer
and reports per-layer metrics and the tracing overhead.
"""

import math
import os
import shutil
import statistics
import time
import tracemalloc
from dataclasses import dataclass, replace

import numpy as np

import checks
import reference
from tracer import Tracer

CLASSES = 10
DROPOUT = 0.2
LR = 0.1
SETUP_ROUNDS = 7
CHECK_IMAGES = 8
GRAD_IMAGES = 2
# share of --seconds spent in each timed phase, and the fewest samples taken
SHARE = {"train": 0.5, "eval": 0.2, "trace": 0.3}
MIN_SAMPLES = 3
MIB = 2.0 ** 20


@dataclass(frozen=True)
class Workload:
    depth: int
    k: int
    batch_size: int
    train_per_class: int  # synthesized per class, then subsampled
    train_images: int
    test_per_class: int
    weight_decay: float
    augment: bool


WORKLOADS = {
    # criterion 7's desk-scale recipe: 256 of 260 synthetic images, 500 test
    "copanet20-k2": Workload(20, 2, 32, 26, 256, 50, 0.0, False),
    "copanet20-k1": Workload(20, 1, 32, 26, 256, 50, 0.0, False),
    # the paper's CIFAR network and recipe at batch 8
    "copanet164-k2": Workload(164, 2, 8, 5, 48, 5, 1e-4, True),
    # not a benchmark workload: the smallest model, for the self-test
    "tiny": Workload(11, 2, 4, 1, 8, 1, 1e-4, True),
}

ENGINE_TRAIN = ("conv2d", "batchnorm2d", "relu", "add", "elementwise_max_k",
                "avgpool2d", "dropout", "softmax_cross_entropy")
ENGINE_COUNTED = ("conv2d", "batchnorm2d", "add", "elementwise_max_k")
ENGINE_EVAL = ("conv2d", "batchnorm2d", "relu", "add", "elementwise_max_k", "avgpool2d")
ENGINE_MEM = ("conv2d", "batchnorm2d", "relu", "add", "elementwise_max_k", "avgpool2d", "dropout")
SETUP_CALLS = ("data.make_synthetic", "models.build", "training.he_init",
               "training.save_checkpoint", "training.load_checkpoint")


def _same(a, b):
    """Equal nested results; arrays bit for bit, floats exactly."""
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def _snapshot(model):
    """A function that puts the model's parameters and BN statistics back
    to their present values."""
    params = {n: p.data.copy() for n, p in model.parameters().items()}
    stats = {n: (s.running_mean.copy(), s.running_var.copy())
             for n, s in model.bn_states().items()}

    def restore():
        for n, p in model.parameters().items():
            p.data = params[n].copy()
        for n, s in model.bn_states().items():
            s.running_mean, s.running_var = (a.copy() for a in stats[n])
    return restore


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


class Run:
    """One benchmark run of one workload; see ``execute``."""

    def __init__(self, cp, name, seed, seconds, traced, work_dir):
        self.cp = cp
        self.w = WORKLOADS[name]
        self.seconds = seconds
        # data train, data test, init, plan; any integer seed is accepted
        self.seeds = [int(s) for s in np.random.SeedSequence(seed % 2**64).generate_state(4)]
        self.tracer = Tracer(cp) if traced else None
        self.work_dir = work_dir
        self.attempted = 0
        self._files = 0
        self.fails = []
        self.metrics = {}

    # -- tracing ------------------------------------------------------------

    def _phase(self, phase, fn, *args, memory=False):
        """Call fn, under the tracer (if tracing) with spans tagged ``phase``."""
        tr = self.tracer
        if tr is None:
            return fn(*args)
        tr.phase, tr.memory = phase, memory
        tr.install()
        try:
            return fn(*args)
        finally:
            tr.uninstall()

    def _both(self, phase, fn, reset=None):
        """Untraced timing of fn(None), then (tracing on) a traced repeat of
        the same number of samples, after ``reset``, whose duration over the
        untraced one is the tracing overhead. fn(count) returns (seconds,
        samples, result)."""
        plain = fn(None)
        if self.tracer is None:
            return plain
        if reset is not None:
            reset()
        traced = self._phase(phase, fn, len(plain[1]))
        self.metrics[f"overhead.{phase}_pct"] = 100.0 * (traced[0] / plain[0] - 1.0)
        if not _same(plain[2], traced[2]):
            self.fails.append(f"{phase}: the traced repeat gave other results than the untraced run")
        return traced

    def _fresh(self, stem):
        """A path not used before in this run. Truncating or deleting a file
        just written can wait on the file system's writeback, which would
        time the disk, not the program."""
        self._files += 1
        return os.path.join(self.work_dir, f"{stem}{self._files}")

    # -- phases ---------------------------------------------------------------

    def setup(self):
        """Data synthesis, normalizer fit, model build and He init."""
        cp, w, s = self.cp, self.w, self.seeds
        full = cp.data.make_synthetic(CLASSES, w.train_per_class, seed=s[0])
        pick = np.random.default_rng(s[0]).permutation(len(full))[:w.train_images]
        train_set = cp.data.Dataset(full.images[pick], full.labels[pick], "train",
                                    full.class_names)
        test_set = cp.data.make_synthetic(CLASSES, w.test_per_class, seed=s[1])
        norm = cp.data.Normalizer.fit(train_set.images)
        config = cp.models.NetworkConfig(depth=w.depth, k=w.k, m=1, dropout_rate=DROPOUT)
        model = cp.models.build(config)
        cp.training.he_init(model, np.random.default_rng(s[2]))
        return train_set, test_set, norm, model

    def trace_model(self, model):
        """The model whose routing is traced. analysis.trace refuses k=1 (a
        pathway has nothing to compete with), so the k=1 control traces an
        He-initialized k=2 twin of the same depth."""
        if model.config.k > 1:
            return model
        twin = self.cp.models.build(replace(model.config, k=2))
        self.cp.training.he_init(twin, np.random.default_rng(self.seeds[2]))
        return twin

    def checkpoint(self, model, plan):
        path = self._fresh("model") + ".ckpt"
        self.cp.training.save_checkpoint(path, model, epoch=plan.total_epochs, plan=plan)
        return self.cp.training.load_checkpoint(path)[0]

    def train(self, model, train_set, norm, plan):
        """One training.train call; its per-step rates (images per second)
        come from a clock on the batch iterator, one reading per batch."""
        data = self.cp.data
        batches = data.iterate_batches
        rates = []

        def clocked(*args, **kwargs):
            for idx in batches(*args, **kwargs):
                t0 = time.perf_counter()
                yield idx
                rates.append(len(idx) / (time.perf_counter() - t0))

        data.iterate_batches = clocked
        try:
            log, dt = _timed(self.cp.training.train, model, train_set, plan, normalizer=norm)
        finally:
            data.iterate_batches = batches
        self.attempted += plan.total_epochs
        self.fails += checks.training_loss(log)
        return dt, rates, log

    def _repeat(self, op, budget, count):
        """Call op() ``count`` times, or (count None) until ``budget`` seconds
        are used and at least MIN_SAMPLES calls made. op returns (seconds,
        result); returns (seconds, times, results)."""
        times, results = [], []
        while (len(times) < count if count is not None
               else len(times) < MIN_SAMPLES or sum(times) < budget):
            dt, result = op()
            times.append(dt)
            results.append(result)
        return sum(times), times, results

    def evaluate(self, model, test_set, norm, budget, count=None):
        def one_pass():
            self.attempted += 1
            result, dt = _timed(self.cp.training.evaluate, model, test_set, norm)
            return dt, result
        return self._repeat(one_pass, budget, count)

    def trace_round(self, model, test_set, norm):
        an = self.cp.analysis
        profiles = []
        out = self._fresh("trace")
        t0 = time.perf_counter()
        for stage in (1, 2, 3):
            prof = an.trace(model, test_set, norm, stage=stage)
            an.profile_to_csv(prof, f"{out}-stage{stage}.csv")
            an.export_heatmaps(prof, f"{out}-heat{stage}")
            profiles.append(prof)
        self.attempted += 3
        for stage, prof in enumerate(profiles, start=1):
            self.fails += checks.trace_counts(prof, test_set.labels, stage)
        return time.perf_counter() - t0, [p.wins for p in profiles]

    def memory_step(self, model, train_set, norm, plan):
        """Peak traced memory of one forward, backward and SGD step, above the
        level before it; returns (peak, retained after forward) in bytes."""
        cp = self.cp
        idx = np.arange(self.w.batch_size)
        x = cp.engine.Tensor(norm.normalize(train_set.images[idx]))
        opt = cp.training.SGD(model, plan)
        rng = np.random.default_rng(self.seeds[3])
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loss = cp.engine.softmax_cross_entropy(
                model.forward(x, training=True, rng=rng), train_set.labels[idx])
            retained = tracemalloc.get_traced_memory()[0] - base
            model.zero_grad()
            cp.engine.backward(loss)
            opt.step(LR)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        self.attempted += 1
        return peak, retained

    # -- the run ----------------------------------------------------------------

    def execute(self):
        cp, w = self.cp, self.w
        traced = self.tracer is not None
        share = 0.5 if traced else 1.0  # a traced run times each phase twice

        setup_times = []
        for _ in range(SETUP_ROUNDS):
            objs, dt = _timed(self._phase, "setup", self.setup)
            setup_times.append(dt)
        self.attempted += SETUP_ROUNDS
        train_set, test_set, norm, model = objs
        traced_model = self.trace_model(model)

        plan = cp.training.TrainPlan(total_epochs=1, base_lr=LR, batch_size=w.batch_size,
                                     weight_decay=w.weight_decay, seed=self.seeds[3],
                                     augment=w.augment)
        warm = self.train(model, train_set, norm, plan)[0]  # warm-up epoch
        epochs = max(MIN_SAMPLES, round(SHARE["train"] * self.seconds * share / warm))
        plan = replace(plan, total_epochs=epochs)
        train_rates = self._both("train", lambda count: self.train(model, train_set, norm, plan),
                                 reset=_snapshot(model))[1]

        ckpt_times = []
        for _ in range(SETUP_ROUNDS):
            loaded, dt = _timed(self._phase, "setup", self.checkpoint, model, plan)
            ckpt_times.append(dt)
        self.attempted += 2 * SETUP_ROUNDS

        budget = SHARE["eval"] * self.seconds * share
        self.evaluate(loaded, test_set, norm, budget, count=1)  # warm-up pass
        eval_times = self._both("eval", lambda count: self.evaluate(
            loaded, test_set, norm, budget, count))[1]

        budget = SHARE["trace"] * self.seconds * share
        trace_times = self._both("trace", lambda count: self._repeat(
            lambda: self.trace_round(traced_model, test_set, norm), budget, count))[1]

        self.check_outputs(model, loaded, traced_model, train_set, test_set, norm, plan)
        peak, retained = self._phase("mem", self.memory_step, model, train_set, norm, plan,
                                     memory=True)

        n_test = len(test_set)
        if not traced:
            self.metrics.update({
                "setup_s": statistics.median(setup_times) + statistics.median(ckpt_times),
                "train_img_per_s": statistics.median(train_rates),
                "eval_img_per_s": n_test / statistics.median(eval_times),
                "trace_img_per_s": n_test / statistics.median(trace_times),
                "train_peak_mib_per_img": peak / w.batch_size / MIB,
            })
        else:
            steps = epochs * math.ceil(len(train_set) / w.batch_size)
            self.per_layer(epochs * len(train_set), steps, n_test * len(eval_times),
                           len(trace_times), n_test, peak, retained)
        return self.metrics

    def check_outputs(self, model, loaded, traced_model, train_set, test_set, norm, plan):
        cp = self.cp
        x = norm.normalize(test_set.images[:CHECK_IMAGES])
        labels = test_set.labels[:CHECK_IMAGES]
        self.fails += checks.checkpoint_round_trip(cp, model, loaded, x)
        ref_logits, routing = reference.forward(loaded, x)
        self.fails += checks.eval_logits(cp, loaded, x, ref_logits)
        if traced_model is not loaded:
            routing = reference.forward(traced_model, x)[1]
        subset = cp.data.Dataset(test_set.images[:CHECK_IMAGES], labels, "check",
                                 test_set.class_names)
        for stage in (1, 2, 3):
            prof = cp.analysis.trace(traced_model, subset, norm, stage=stage)
            self.fails += checks.trace_recount(prof, labels, routing, stage)
        grad_fails, grad_model = checks.gradients(
            cp, model.config, train_set.images[:GRAD_IMAGES], train_set.labels[:GRAD_IMAGES],
            norm, self.seeds[2])
        self.fails += grad_fails
        self.fails += checks.sgd_step(cp, grad_model, plan, LR, self.seeds[3])

    def per_layer(self, train_imgs, steps, eval_imgs, trace_rounds, n_test, peak, retained):
        m = self.metrics
        t = self.tracer.totals("train")
        for op in ENGINE_TRAIN + ("backward",):
            m[f"train.engine.{op}.us_per_img"] = 1e6 * t[f"engine.{op}"]["self_s"] / train_imgs
        for op in ENGINE_COUNTED:
            m[f"train.engine.{op}.calls_per_step"] = t[f"engine.{op}"]["calls"] / steps
        m["train.units.CoPaUnit.forward.us_per_img"] = \
            1e6 * t["units.CoPaUnit.forward"]["self_s"] / train_imgs
        for name in ("models.Model.forward", "training.SGD.step", "data.augment_batch"):
            m[f"train.{name}.us_per_img"] = 1e6 * t[name]["incl_s"] / train_imgs
        root = t["training.train"]
        m["train.accounted_pct"] = 100.0 * (1.0 - root["self_s"] / root["incl_s"])

        e = self.tracer.totals("eval")
        for op in ENGINE_EVAL:
            m[f"eval.engine.{op}.us_per_img"] = 1e6 * e[f"engine.{op}"]["self_s"] / eval_imgs
        m["eval.models.Model.forward.us_per_img"] = \
            1e6 * e["models.Model.forward"]["incl_s"] / eval_imgs

        r = self.tracer.totals("trace")
        trace_imgs = trace_rounds * n_test
        m["trace.analysis.trace.us_per_img"] = 1e6 * r["analysis.trace"]["self_s"] / trace_imgs
        m["trace.models.Model.forward.calls_per_img"] = \
            r["models.Model.forward"]["weight"] / trace_imgs
        for name in ("analysis.profile_to_csv", "analysis.export_heatmaps"):
            m[f"trace.{name}.ms"] = 1e3 * r[name]["incl_s"] / trace_rounds

        s = self.tracer.totals("setup")  # per round; build inside load counts in load
        for name in SETUP_CALLS:
            m[f"setup.{name}.ms"] = 1e3 * s[name]["top_s"] / SETUP_ROUNDS

        mem = self.tracer.totals("mem")
        batch = self.w.batch_size
        for op in ENGINE_MEM:
            m[f"mem.engine.{op}.kib_per_img"] = mem[f"engine.{op}"]["mem"] / batch / 1024
        m["mem.graph_retained_mib_per_img"] = retained / batch / MIB
        m["mem.backward_extra_mib_per_img"] = (peak - retained) / batch / MIB


def run(cp, name, seed, seconds, traced, out_dir):
    """Execute one run; returns (metrics, attempted, failure messages)."""
    work_dir = os.path.join(out_dir, f"{name}-work")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    r = Run(cp, name, seed, seconds, traced, work_dir)
    try:
        metrics = r.execute()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if r.tracer is not None:
        r.tracer.write_csv(os.path.join(out_dir, f"{name}.spans.csv"))
    return metrics, r.attempted, r.fails
