"""Span tracer that wraps the program's public functions from outside.

``Tracer.install`` replaces module attributes (functions, and methods on
classes) with wrappers; ``uninstall`` puts the originals back, so nothing in
``src/copanet`` changes. Every wrapped call records one span: name, phase,
parent span, start and end, plus an optional weight (images forwarded) and,
when memory tracing is on, the change in tracemalloc's current size across
the call. Spans stay in memory until ``write_csv``.

A span's self time is its duration minus the durations of its direct
children. The program is single-threaded, so children never overlap.
"""

import collections
import functools
import time
import tracemalloc

import numpy as np

# attribute paths below the package; each is also its span's name, e.g.
# "engine.conv2d" or "models.Model.forward"
ENGINE_OPS = ("add", "scale", "sum_all", "relu", "elementwise_max_k", "conv2d",
              "avgpool2d", "global_avgpool", "concat_channels", "batchnorm2d",
              "dropout", "linear", "softmax_cross_entropy", "check_finite", "backward")
OTHER = ("data.make_synthetic", "data.augment_batch", "models.build",
         "models.Model.forward", "units.CoPaUnit.forward",
         "training.train", "training.evaluate", "training.he_init",
         "training.save_checkpoint", "training.load_checkpoint", "training.SGD.step",
         "analysis.trace", "analysis.profile_to_csv", "analysis.export_heatmaps")
TARGETS = tuple(f"engine.{op}" for op in ENGINE_OPS) + OTHER

NAME, PHASE, PARENT, START, END, WEIGHT, MEM = range(7)


def _batch_of_forward(args, kwargs):
    """Images in a Model.forward call: the leading size of its input."""
    x = args[1] if len(args) > 1 else kwargs["x"]
    return x.shape[0]


WEIGHTS = {"models.Model.forward": _batch_of_forward}


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans = []
        self.phase = ""
        self.memory = False
        self._stack = []
        self._patches = []

    def install(self):
        for target in TARGETS:
            owner, attr = self._resolve(target)
            orig = owner.__dict__[attr]
            setattr(owner, attr, self._wrapper(target, orig, WEIGHTS.get(target)))
            self._patches.append((owner, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def _resolve(self, target):
        parts = target.split(".")
        owner = getattr(self.package, parts[0])
        for part in parts[1:-1]:
            owner = getattr(owner, part)
        return owner, parts[-1]

    def _wrapper(self, name, fn, weight):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, self.phase, stack[-1] if stack else -1, 0.0, 0.0,
                   weight(args, kwargs) if weight else 1, 0]
            stack.append(len(spans))
            spans.append(rec)
            mem0 = tracemalloc.get_traced_memory()[0] if self.memory else 0
            rec[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                if self.memory:
                    rec[MEM] = tracemalloc.get_traced_memory()[0] - mem0
                stack.pop()
        return traced

    # -- aggregation --------------------------------------------------------

    def _self_times(self):
        dur = np.array([s[END] - s[START] for s in self.spans])
        own = dur.copy()
        for s, d in zip(self.spans, dur):
            if s[PARENT] >= 0:
                own[s[PARENT]] -= d
        return dur, own

    def totals(self, phase):
        """name -> {'calls', 'weight', 'incl_s', 'self_s', 'mem', 'top_s'}
        over the spans of one phase, all zero for a name never called;
        'top_s' sums the durations of the calls made directly by the
        benchmark (no traced caller)."""
        dur, own = self._self_times()
        out = collections.defaultdict(lambda: {"calls": 0, "weight": 0, "incl_s": 0.0,
                                               "self_s": 0.0, "mem": 0, "top_s": 0.0})
        for i, s in enumerate(self.spans):
            if s[PHASE] != phase:
                continue
            t = out[s[NAME]]
            t["calls"] += 1
            t["weight"] += s[WEIGHT]
            t["incl_s"] += dur[i]
            t["self_s"] += own[i]
            t["mem"] += s[MEM]
            if s[PARENT] < 0:
                t["top_s"] += dur[i]
        return out

    def write_csv(self, path):
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("id,parent,phase,name,start_us,end_us,weight,mem_bytes\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s[PARENT]},{s[PHASE]},{s[NAME]},"
                         f"{(s[START] - t0) * 1e6:.1f},{(s[END] - t0) * 1e6:.1f},"
                         f"{s[WEIGHT]},{s[MEM]}\n")
