"""SGD training loop: momentum, weight decay, staged LR schedule, He init,
checkpointing and evaluation.

The recipe: SGD with momentum 0.9 and weight decay 1e-4, learning rate 0.1
divided by 10 at fixed fractions of the epoch budget, He-normal init, and
test error taken from the final epoch (no early stopping). Weight decay
applies to conv and linear weights only, never to BN gamma/beta or biases.
"""

import contextlib
import gc
import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import data as data_mod
from . import engine, models, settings
from .errors import ConfigurationError, DataError, UsageError

_DTYPE_TAGS = {1: np.float32, 2: np.float64, 3: np.int64, 4: np.uint8}
_TAG_FOR = {np.dtype(v): k for k, v in _DTYPE_TAGS.items()}

CHECKPOINT_MAGIC = b"COPACKPT"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class TrainPlan:
    total_epochs: int = 300
    base_lr: float = 0.1
    lr_drop_fractions: tuple = (0.6, 0.8)
    lr_drop_factor: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 1e-4
    batch_size: int = 128
    seed: int = 0
    precision: int = 32
    augment: bool = False

    def __post_init__(self):
        if self.total_epochs < 1:
            raise ConfigurationError(f"total_epochs must be >= 1, got {self.total_epochs}")
        if self.batch_size < 2:
            raise ConfigurationError(
                f"batch_size must be >= 2 (batch norm needs batch statistics), got {self.batch_size}")
        # written as "not in range" so that NaN fails every check
        if not (math.isfinite(self.base_lr) and self.base_lr > 0):
            raise ConfigurationError(f"base_lr must be finite and > 0, got {self.base_lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigurationError(f"momentum must be in [0, 1), got {self.momentum}")
        if not self.weight_decay >= 0.0:
            raise ConfigurationError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if not 0.0 < self.lr_drop_factor <= 1.0:
            raise ConfigurationError(
                f"lr_drop_factor must be in (0, 1], got {self.lr_drop_factor}")
        fr = self.lr_drop_fractions
        if any(not 0.0 < f < 1.0 for f in fr) or list(fr) != sorted(set(fr)):
            raise ConfigurationError(
                f"lr_drop_fractions must be strictly increasing in (0, 1), got {fr}")
        if self.precision not in (32, 64):
            raise ConfigurationError(f"precision must be 32 or 64, got {self.precision}")


def plan_digest(plan):
    text = json.dumps(plan.__dict__, sort_keys=True, default=list)
    return hashlib.sha256(text.encode()).hexdigest()


def lr_at(epoch, plan):
    """Learning rate for a 0-based epoch under the staged drop schedule."""
    if not 0 <= epoch < plan.total_epochs:
        raise UsageError(f"epoch {epoch} outside [0, {plan.total_epochs})")
    # a drop takes effect at the first epoch that starts once a fraction f
    # of the budget has run, never earlier; the 1e-9 nudge keeps a product
    # that rounds just above an integer (0.07 * 100 = 7.000000000000001)
    # on that epoch
    drops = sum(1 for f in plan.lr_drop_fractions
                if epoch >= math.ceil(f * plan.total_epochs - 1e-9))
    return plan.base_lr * plan.lr_drop_factor ** drops


def he_init(module, rng):
    """He-normal initialization over a parameter registry.

    Conv and linear weights draw from Normal(0, sqrt(2 / fan_in)); BN gamma
    is 1, beta 0, biases 0. ``module`` is anything with a parameters() dict.
    """
    for name, p in module.parameters().items():
        if name.endswith(".w"):
            shape = p.data.shape
            fan_in = int(np.prod(shape[1:])) if len(shape) == 4 else shape[0]
            p.data = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape).astype(p.data.dtype)
        elif name.endswith(".gamma"):
            p.data = np.ones_like(p.data)
        else:  # beta, bias
            p.data = np.zeros_like(p.data)


def decays(name):
    """Weight decay applies to conv/linear weights only."""
    return name.endswith(".w")


def sgd_step(params, grads, velocity, lr, momentum, weight_decay):
    """One momentum-SGD update: v <- momentum*v + grad + wd*param;
    param <- param - lr*v. Mutates params and velocity in place."""
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.data.shape:
            raise ConfigurationError(f"{name}: grad shape {g.shape} vs param {p.data.shape}")
        wd = weight_decay if decays(name) else 0.0
        v = velocity[name]
        v *= momentum
        v += g
        if wd:
            v += wd * p.data
        p.data -= lr * v


class SGD:
    """Momentum SGD over a model's parameter registry."""

    def __init__(self, model, plan):
        self.model = model
        self.plan = plan
        self.velocity = {name: np.zeros_like(p.data)
                         for name, p in model.parameters().items()}

    def step(self, lr):
        params = self.model.parameters()
        grads = {}
        for name, p in params.items():
            if p.grad is None:
                raise UsageError(f"{name} has no gradient; run backward first")
            grads[name] = p.grad
        sgd_step(params, grads, self.velocity, lr, self.plan.momentum, self.plan.weight_decay)


def evaluate(model, dataset, normalizer, batch_size=250):
    """Eval-mode loss and error rate over a dataset."""
    total_loss = 0.0
    wrong = 0
    n = len(dataset)
    with engine.no_grad():
        for idx in data_mod.iterate_batches(n, batch_size):
            x = engine.Tensor(normalizer.normalize(dataset.images[idx]))
            labels = dataset.labels[idx]
            logits = model.forward(x, training=False)
            loss = engine.softmax_cross_entropy(logits, labels)
            total_loss += float(loss.data) * len(idx)
            wrong += int((logits.data.argmax(axis=1) != labels).sum())
    return total_loss / n, wrong / n


def train(model, train_set, plan, normalizer=None, test_set=None, log_path=None):
    """Train for plan.total_epochs and return per-epoch log rows.

    Each row is (epoch, lr, train_loss, train_error, test_error); test_error
    is None when no test set is supplied. A non-finite loss aborts with a
    NumericError naming the first offending layer.
    """
    if normalizer is None:
        normalizer = data_mod.Normalizer.fit(train_set.images)
    rng = np.random.default_rng(plan.seed)
    opt = SGD(model, plan)
    n = len(train_set)
    normalized = normalizer.normalize(train_set.images)
    log = []

    # the tape breaks its own reference cycles in backward, so the cycle
    # collector only adds scan overhead inside this hot loop
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        _run_epochs(model, plan, normalized, train_set.labels, test_set,
                    normalizer, rng, opt, n, log)
    finally:
        if gc_was_enabled:
            gc.enable()

    if log_path is not None:
        write_log_csv(log, log_path)
    return log


def _run_epochs(model, plan, normalized, labels_all, test_set, normalizer, rng, opt, n, log):
    for epoch in range(plan.total_epochs):
        lr = lr_at(epoch, plan)
        epoch_loss = 0.0
        wrong = 0
        for idx in data_mod.iterate_batches(n, plan.batch_size, rng=rng):
            images = normalized[idx]
            if plan.augment:
                images = data_mod.augment_batch(images, rng)
            x = engine.Tensor(images)
            labels = labels_all[idx]

            logits = model.forward(x, training=True, rng=rng)
            loss = engine.softmax_cross_entropy(logits, labels)
            engine.check_finite(loss, context=f"epoch {epoch}")
            model.zero_grad()
            loss.backward()
            opt.step(lr)

            epoch_loss += float(loss.data) * len(idx)
            wrong += int((logits.data.argmax(axis=1) != labels).sum())

        test_err = None
        if test_set is not None:
            _, test_err = evaluate(model, test_set, normalizer)
        log.append((epoch, lr, epoch_loss / n, wrong / n, test_err))


def write_log_csv(log, path):
    with open(path, "w") as fh:
        fh.write("epoch,lr,train_loss,train_error,test_error\n")
        for epoch, lr, tl, te, test_err in log:
            last = "" if test_err is None else repr(float(test_err))
            fh.write(f"{epoch},{lr!r},{tl!r},{te!r},{last}\n")


# ---------------------------------------------------------------------------
# checkpoints

def _write_record(fh, name, arr):
    arr = np.ascontiguousarray(arr)
    if arr.dtype not in _TAG_FOR:
        raise UsageError(f"cannot checkpoint dtype {arr.dtype} for {name!r}")
    encoded = name.encode()
    fh.write(struct.pack("<H", len(encoded)))
    fh.write(encoded)
    fh.write(struct.pack("<BB", _TAG_FOR[arr.dtype], arr.ndim))
    fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
    fh.write(arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes())


class _Cursor:
    """Reads a checkpoint's bytes front to back; reading past the end is a
    DataError, so a truncated file never reaches struct or numpy."""

    def __init__(self, raw):
        self.raw = memoryview(raw)
        self.pos = 0

    def take(self, n):
        if n > len(self.raw) - self.pos:
            raise DataError(f"truncated: {n} bytes wanted at offset {self.pos}, "
                            f"{len(self.raw) - self.pos} left")
        self.pos += n
        return self.raw[self.pos - n:self.pos]

    def unpack(self, fmt):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def _read_record(cur):
    name_len, = cur.unpack("<H")
    name = bytes(cur.take(name_len)).decode()
    tag, ndim = cur.unpack("<BB")
    if tag not in _DTYPE_TAGS:
        raise DataError(f"record {name!r} has unknown dtype tag {tag}")
    shape = cur.unpack(f"<{ndim}I")
    dt = np.dtype(_DTYPE_TAGS[tag]).newbyteorder("<")
    raw = cur.take(math.prod(shape) * dt.itemsize)
    return name, np.frombuffer(raw, dtype=dt).reshape(shape).astype(_DTYPE_TAGS[tag])


def save_checkpoint(path, model, epoch=0, rng=None, plan=None):
    """Write a versioned checkpoint: config, parameters, BN running stats,
    epoch, RNG state and plan digest.

    The file is written under a temporary name in the same directory and
    then renamed over ``path``, so ``path`` always holds either the previous
    checkpoint or the complete new one.
    """
    config_text = settings.to_text(model=model.config)
    meta = {
        "epoch": int(epoch),
        "config_text": config_text,
        "plan_digest": plan_digest(plan) if plan is not None else "",
        "rng_state": rng.bit_generator.state if rng is not None else None,
    }
    records = list(model.parameters().items()) + list(model.buffers().items())
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<I", CHECKPOINT_VERSION))
            fh.write(hashlib.sha256(config_text.encode()).digest())
            meta_blob = json.dumps(meta).encode()
            fh.write(struct.pack("<I", len(meta_blob)))
            fh.write(meta_blob)
            fh.write(struct.pack("<I", len(records)))
            for name, item in records:
                _write_record(fh, name, item.data if isinstance(item, engine.Tensor) else item)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _parse_checkpoint(raw, path):
    """(meta, {name: array}) from a checkpoint's bytes; any malformed file
    raises DataError naming ``path``."""
    try:
        magic = bytes(raw[:len(CHECKPOINT_MAGIC)])
        if magic != CHECKPOINT_MAGIC:
            raise DataError(f"not a checkpoint (magic {magic!r})")
        cur = _Cursor(raw)
        cur.take(len(CHECKPOINT_MAGIC))
        version, = cur.unpack("<I")
        if version != CHECKPOINT_VERSION:
            raise DataError(f"unsupported checkpoint version {version}")
        digest = bytes(cur.take(32))
        meta_len, = cur.unpack("<I")
        meta = json.loads(bytes(cur.take(meta_len)).decode())
        if not isinstance(meta, dict) or not isinstance(meta.get("config_text"), str):
            raise DataError("metadata holds no config text")
        if hashlib.sha256(meta["config_text"].encode()).digest() != digest:
            raise DataError("config digest mismatch, file corrupt")
        n_records, = cur.unpack("<I")
        records = {}
        for _ in range(n_records):
            name, arr = _read_record(cur)
            if name in records:
                raise DataError(f"duplicate record {name!r}")
            records[name] = arr
        if cur.pos != len(raw):
            raise DataError(f"{len(raw) - cur.pos} bytes after the last record")
    except (DataError, ValueError) as exc:  # ValueError: undecodable UTF-8 or JSON
        raise DataError(f"{path}: {exc}") from exc
    return meta, records


def load_checkpoint(path):
    """Rebuild the model from a checkpoint. Returns (model, meta dict).

    Every parameter and BN running statistic of the model must have exactly
    one record, at the model's shape. A malformed file of any kind raises
    DataError naming the path.
    """
    with open(path, "rb") as fh:
        meta, records = _parse_checkpoint(fh.read(), path)

    model_keys = settings.split(settings.parse_flat_text(meta["config_text"]))["model"]
    model = models.build(settings.build(models.NetworkConfig, model_keys))
    params = model.parameters()
    shapes = {name: p.data.shape for name, p in params.items()}
    shapes.update((name, arr.shape) for name, arr in model.buffers().items())
    states = model.bn_states()
    for name, arr in records.items():
        if name not in shapes:
            raise DataError(f"{path}: unknown record {name!r}")
        if arr.shape != shapes[name]:
            raise DataError(f"{path}: record {name!r} shape {arr.shape} vs model {shapes[name]}")
        if name in params:
            params[name].data = arr
        else:  # "<bn name>.running_mean" or "<bn name>.running_var"
            bn, stat = name.rsplit(".", 1)
            setattr(states[bn], stat, arr)
    missing = sorted(set(shapes) - set(records))
    if missing:
        raise DataError(f"{path}: {len(missing)} missing records, first {missing[0]!r}")
    return model, meta
