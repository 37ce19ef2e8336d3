"""Desk-scale data: IDX image ingestion and a synthetic blob generator.

Every dataset carries a deterministic 80:10:10 train/validation/test
split derived from one seed. IDX files follow the standard big-endian
layout (magic 0x00000803 for images, 0x00000801 for labels).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass
class Dataset:
    samples: np.ndarray
    labels: np.ndarray
    splits: dict  # 'train' | 'val' | 'test' -> index arrays

    @property
    def n_classes(self) -> int:
        return int(self.labels.max()) + 1

    def split(self, name):
        idx = self.splits[name]
        return self.samples[idx], self.labels[idx]

    def batches(self, name, batch_size, seed=0, repeat=False):
        """Yield shuffled (x, y) minibatches from one split."""
        idx = self.splits[name]
        rng = np.random.default_rng(seed)
        while True:
            order = rng.permutation(idx)
            for s in range(0, len(order) - batch_size + 1, batch_size):
                sel = order[s:s + batch_size]
                yield self.samples[sel], self.labels[sel]
            if not repeat:
                return


def make_splits(n, seed=0) -> dict:
    """Deterministic, disjoint, exhaustive 80:10:10 split."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_train = int(0.8 * n)
    n_val = int(0.1 * n)
    return {
        "train": np.sort(order[:n_train]),
        "val": np.sort(order[n_train:n_train + n_val]),
        "test": np.sort(order[n_train + n_val:]),
    }


# -- IDX ----------------------------------------------------------------------


def _read_exact(fh, n, what):
    raw = fh.read(n)
    if len(raw) != n:
        raise DataError(f"truncated IDX file while reading {what}")
    return raw


def _open_idx(path):
    try:
        return open(path, "rb")
    except OSError as e:  # missing or unreadable
        raise DataError(f"cannot open IDX file: {e}") from e


def load_idx(images_path, labels_path, normalize=True, seed=0) -> Dataset:
    """Load an IDX image/label pair with big-endian headers."""
    with _open_idx(images_path) as fh:
        magic, count, rows, cols = struct.unpack(
            ">IIII", _read_exact(fh, 16, "image header"))
        if magic != IDX_IMAGES_MAGIC:
            raise DataError(
                f"bad image magic 0x{magic:08x}, expected "
                f"0x{IDX_IMAGES_MAGIC:08x}"
            )
        raw = _read_exact(fh, count * rows * cols, "image data")
        images = np.frombuffer(raw, dtype=np.uint8).reshape(count, rows, cols)
    with _open_idx(labels_path) as fh:
        magic, lcount = struct.unpack(">II", _read_exact(fh, 8, "label header"))
        if magic != IDX_LABELS_MAGIC:
            raise DataError(
                f"bad label magic 0x{magic:08x}, expected "
                f"0x{IDX_LABELS_MAGIC:08x}"
            )
        labels = np.frombuffer(_read_exact(fh, lcount, "label data"),
                               dtype=np.uint8)
    if count != lcount:
        raise DataError(f"{count} images but {lcount} labels")
    samples = images.astype(np.float32)
    if normalize:
        samples = samples / np.float32(255.0)
    samples = samples[..., None]  # (N, r, c, 1)
    return Dataset(samples, labels.astype(np.int64),
                   make_splits(count, seed))


def write_idx_images(path, images) -> None:
    images = np.asarray(images, dtype=np.uint8)
    n, r, c = images.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, r, c))
        fh.write(images.tobytes())


def write_idx_labels(path, labels) -> None:
    labels = np.asarray(labels, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", IDX_LABELS_MAGIC, len(labels)))
        fh.write(labels.tobytes())


# -- synthetic blobs ----------------------------------------------------------


def synth_blobs(classes=10, per_class=100, dims=16, seed=0,
                separation=4.0) -> Dataset:
    """Gaussian clusters with controllable separation; seed-deterministic."""
    if classes < 2:
        raise ConfigError("classes must be >= 2")
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((classes, dims))
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    means *= separation
    labels = np.repeat(np.arange(classes), per_class)
    samples = means[labels] + rng.standard_normal((len(labels), dims))
    order = rng.permutation(len(labels))
    samples = samples[order].astype(np.float32)
    labels = labels[order].astype(np.int64)
    return Dataset(samples, labels, make_splits(len(labels), seed))
