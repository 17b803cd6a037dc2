"""Dataset ingestion, normalization, augmentation, batching.

CIFAR-10 arrives in the standard binary batch format: records of one label
byte followed by 3072 pixel bytes (CHW, row major), 10000 records per file.
A synthetic generator provides a small learnable stand-in for desk-scale
runs.
"""

import os
from dataclasses import dataclass

import numpy as np

from . import engine
from .errors import ConfigurationError, DataError

CIFAR10_CLASSES = ("airplane", "automobile", "bird", "cat", "deer",
                   "dog", "frog", "horse", "ship", "truck")

_RECORD_BYTES = 3073
_RECORDS_PER_FILE = 10000

DATA_SOURCES = ("synthetic", "cifar10")
NORMALIZE_MODES = ("meanstd", "scale255")


@dataclass
class Dataset:
    images: np.ndarray  # uint8, N x 3 x 32 x 32
    labels: np.ndarray  # int64, N
    split: str
    class_names: tuple

    def __post_init__(self):
        if len(self.images) != len(self.labels):
            raise DataError(f"{len(self.images)} images vs {len(self.labels)} labels")

    def __len__(self):
        return len(self.images)


@dataclass(frozen=True)
class DataSpec:
    """Source, synthetic set sizes and normalization of a run's data."""
    data: str = "synthetic"
    data_dir: str = ""
    per_class: int = 100
    test_per_class: int = 50
    normalize: str = "meanstd"

    def __post_init__(self):
        if self.data not in DATA_SOURCES:
            raise ConfigurationError(f"data must be one of {DATA_SOURCES}, got {self.data!r}")
        if self.data == "cifar10" and not self.data_dir:
            raise ConfigurationError("data=cifar10 needs data_dir=PATH")
        if self.normalize not in NORMALIZE_MODES:
            raise ConfigurationError(
                f"normalize must be one of {NORMALIZE_MODES}, got {self.normalize!r}")
        if self.per_class < 1:
            raise ConfigurationError(f"per_class must be >= 1, got {self.per_class}")
        if self.test_per_class < 1:
            raise ConfigurationError(f"test_per_class must be >= 1, got {self.test_per_class}")

    def load(self, classes, seed):
        """Return (train_set, test_set, normalizer); synthetic sets use seeds seed, seed + 1."""
        if self.data == "synthetic":
            train_set = make_synthetic(classes, self.per_class, seed=seed)
            test_set = make_synthetic(classes, self.test_per_class, seed=seed + 1)
        else:
            train_set, test_set = load_cifar10(self.data_dir)
        if self.normalize == "scale255":
            return train_set, test_set, Normalizer.scale255()
        return train_set, test_set, Normalizer.fit(train_set.images)


def read_batch_file(path):
    """Parse one CIFAR-10 binary batch into (images, labels)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    expected = _RECORDS_PER_FILE * _RECORD_BYTES
    if len(raw) != expected:
        raise DataError(f"{path}: expected {expected} bytes "
                        f"({_RECORDS_PER_FILE} records of {_RECORD_BYTES}), got {len(raw)}")
    records = np.frombuffer(raw, dtype=np.uint8).reshape(_RECORDS_PER_FILE, _RECORD_BYTES)
    labels = records[:, 0].astype(np.int64)
    if labels.max() >= 10:
        raise DataError(f"{path}: label {labels.max()} out of range [0, 10)")
    images = records[:, 1:].reshape(_RECORDS_PER_FILE, 3, 32, 32).copy()
    return images, labels


def load_cifar10(directory):
    """Load the five training batches and the test batch from a directory."""
    train_parts = []
    for i in range(1, 6):
        path = os.path.join(directory, f"data_batch_{i}.bin")
        if not os.path.exists(path):
            raise DataError(f"missing CIFAR-10 batch file: {path}")
        train_parts.append(read_batch_file(path))
    test_images, test_labels = read_batch_file(os.path.join(directory, "test_batch.bin"))
    train = Dataset(np.concatenate([p[0] for p in train_parts]),
                    np.concatenate([p[1] for p in train_parts]),
                    "train", CIFAR10_CLASSES)
    test = Dataset(test_images, test_labels, "test", CIFAR10_CLASSES)
    return train, test


class Normalizer:
    """Color normalization fit on the training split.

    mode 'meanstd' subtracts the per-channel mean and divides by the
    per-channel std; mode 'scale255' just divides by 255.
    """

    def __init__(self, mean, std, mode="meanstd"):
        if mode not in NORMALIZE_MODES:
            raise ConfigurationError(f"unknown normalizer mode {mode!r}")
        self.mode = mode
        self.mean = np.asarray(mean, dtype=np.float64)
        self.std = np.asarray(std, dtype=np.float64)
        if self.mode == "meanstd" and (self.std <= 0).any():
            raise ConfigurationError(f"normalizer std must be positive, got {self.std}")

    @classmethod
    def fit(cls, images):
        pixels = images.reshape(len(images), 3, -1).astype(np.float64)
        return cls(pixels.mean(axis=(0, 2)), pixels.std(axis=(0, 2)))

    @classmethod
    def scale255(cls):
        return cls(np.zeros(3), np.ones(3), mode="scale255")

    def normalize(self, images):
        x = images.astype(engine.dtype())
        if self.mode == "scale255":
            return x / 255.0
        shape = (1, 3, 1, 1) if x.ndim == 4 else (3, 1, 1)
        return (x - self.mean.reshape(shape).astype(x.dtype)) / self.std.reshape(shape).astype(x.dtype)

    def denormalize(self, x):
        if self.mode == "scale255":
            return x * 255.0
        shape = (1, 3, 1, 1) if x.ndim == 4 else (3, 1, 1)
        return x * self.std.reshape(shape).astype(x.dtype) + self.mean.reshape(shape).astype(x.dtype)


def augment(image, rng, pad=4):
    """Translate by pad-and-crop, then flip horizontally with probability 0.5.

    image is one normalized 3 x H x W array. Offsets are drawn uniformly from
    [0, 2*pad]; offset (pad, pad) with no flip is the identity.
    """
    c, h, w = image.shape
    padded = np.zeros((c, h + 2 * pad, w + 2 * pad), dtype=image.dtype)
    padded[:, pad:pad + h, pad:pad + w] = image
    oy, ox = rng.integers(0, 2 * pad + 1, size=2)
    out = padded[:, oy:oy + h, ox:ox + w]
    if rng.random() < 0.5:
        out = out[:, :, ::-1]
    return np.ascontiguousarray(out)


def augment_batch(images, rng, pad=4):
    return np.stack([augment(img, rng, pad) for img in images])


def make_synthetic(classes, per_class, seed=0):
    """Deterministic learnable toy set of 3 x 32 x 32 images.

    Each class owns two appearances and every sample shows one of them: a
    Gaussian blob pinned (with jitter) to the class's point on a circle, or a
    class-indexed sinusoidal grating. The two-mode structure keeps the task
    from being linearly separable while staying CNN-learnable under the
    seeded pixel noise.
    """
    if classes < 2:
        raise ConfigurationError(f"make_synthetic needs >= 2 classes, got {classes}")
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:32, 0:32].astype(np.float64)
    images = np.empty((classes * per_class, 3, 32, 32), dtype=np.uint8)
    labels = np.repeat(np.arange(classes), per_class).astype(np.int64)

    for idx, label in enumerate(labels):
        if rng.random() < 0.5:
            angle = 2 * np.pi * label / classes + 0.3
            cy = 16 + 9.5 * np.sin(angle) + rng.uniform(-2.0, 2.0)
            cx = 16 + 9.5 * np.cos(angle) + rng.uniform(-2.0, 2.0)
            sigma = rng.uniform(2.4, 3.2)
            base = 60.0 * rng.uniform(0.8, 1.2) * np.exp(
                -((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * sigma ** 2))
        else:
            freq = 1.5 + (label % 5)
            axis = yy if label < (classes + 1) // 2 else xx
            phase = rng.uniform(0, 2 * np.pi)
            base = 30.0 * rng.uniform(0.8, 1.2) * np.sin(2 * np.pi * freq * axis / 32 + phase)
        img = base[None, :, :] + rng.normal(0.0, 20.0, size=(3, 32, 32))
        images[idx] = np.clip(128.0 + img, 0, 255).astype(np.uint8)

    return Dataset(images, labels, f"synthetic-{classes}x{per_class}",
                   tuple(f"class{i}" for i in range(classes)))


def iterate_batches(n, batch_size, rng=None):
    """Yield index arrays covering range(n) exactly once per epoch.

    Shuffles with rng when given; otherwise sequential order.
    """
    order = rng.permutation(n) if rng is not None else np.arange(n)
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]
