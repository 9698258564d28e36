"""Dataset generation and loading.

Synthetic blobs (linearly separable at low noise) and spirals (not), plus a
parser for the standard IDX binary image/label format.  Everything is
deterministic per seed and split 90/10 into train/test.
"""

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FormatError

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass
class Dataset:
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    num_classes: int
    input_dim: int

    @property
    def n_train(self):
        return len(self.train_x)


def _split(x, y, num_classes, seed):
    rng = np.random.Generator(np.random.PCG64([seed, 0x5B11]))
    order = rng.permutation(len(x))
    x, y = x.take(order, axis=0), y.take(order)
    cut = (len(x) * 9) // 10
    return Dataset(x[:cut], y[:cut], x[cut:], y[cut:], num_classes, x.shape[1])


def _class_counts(n, num_classes):
    counts = [n // num_classes] * num_classes
    for c in range(n % num_classes):
        counts[c] += 1
    return counts


def gen_synthetic(kind, n, num_classes, input_dim, seed, noise=None):
    """Deterministic synthetic classification set with balanced classes."""
    if num_classes < 2 or input_dim < 1:
        raise ConfigError("need num_classes >= 2 and input_dim >= 1")
    if n < num_classes * 10:
        raise ConfigError(f"n={n} too small; need at least {num_classes * 10}")
    if kind == "synthetic-blobs":
        return _gen_blobs(n, num_classes, input_dim, seed, 0.5 if noise is None else noise)
    if kind == "synthetic-spirals":
        if input_dim != 2:
            raise ConfigError("spirals are two-dimensional; set input_dim = 2")
        return _gen_spirals(n, num_classes, seed, 0.2 if noise is None else noise)
    raise ConfigError(f"unknown synthetic kind {kind!r}")


def _gen_blobs(n, num_classes, input_dim, seed, noise):
    rng = np.random.Generator(np.random.PCG64([seed, 0xB10B]))
    # class centers on a circle in the first two dims (or a line for 1-D)
    centers = np.zeros((num_classes, input_dim))
    angles = 2.0 * np.pi * np.arange(num_classes) / num_classes
    centers[:, 0] = 4.0 * np.cos(angles)
    if input_dim > 1:
        centers[:, 1] = 4.0 * np.sin(angles)
    xs, ys = [], []
    for c, count in enumerate(_class_counts(n, num_classes)):
        xs.append(centers[c] + noise * rng.standard_normal((count, input_dim)))
        ys.append(np.full(count, c, dtype=np.int64))
    return _split(np.concatenate(xs), np.concatenate(ys), num_classes, seed)


def _gen_spirals(n, num_classes, seed, noise):
    rng = np.random.Generator(np.random.PCG64([seed, 0x5914]))
    counts = _class_counts(n, num_classes)
    x = np.empty((n, 2))
    for c, rows in enumerate(np.split(x, np.cumsum(counts[:-1]))):  # views of x
        count = len(rows)
        t = (np.arange(count) + 0.5) / count  # the radius, too
        theta = 2.0 * np.pi * c / num_classes + t * 4.5 + noise * rng.standard_normal(count)
        np.multiply(t, np.sin(theta), out=rows[:, 0])
        np.multiply(t, np.cos(theta), out=rows[:, 1])
    y = np.repeat(np.arange(num_classes, dtype=np.int64), counts)
    return _split(x, y, num_classes, seed)


# ---------------------------------------------------------------------------
# IDX binary format
# ---------------------------------------------------------------------------

def _read_exact(data, offset, count, path):
    if offset + count > len(data):
        raise FormatError(
            f"{path}: truncated at byte {len(data)}, expected {offset + count} bytes"
        )
    return data[offset:offset + count]


def load_idx_images(path):
    """Read an IDX3 image file (unsigned 32-bit header words) into a float array in [0, 1]."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic, count, rows, cols = struct.unpack(">IIII", _read_exact(data, 0, 16, path))
    if magic != IDX_IMAGES_MAGIC:
        raise FormatError(f"{path}: bad image magic {magic:#010x} at byte 0")
    expected = 16 + count * rows * cols
    if len(data) != expected:
        raise FormatError(f"{path}: expected {expected} bytes, got {len(data)}")
    pixels = np.frombuffer(data, dtype=np.uint8, offset=16)
    return pixels.reshape(count, rows * cols).astype(np.float64) / 255.0


def load_idx_labels(path, num_classes):
    with open(path, "rb") as fh:
        data = fh.read()
    magic, count = struct.unpack(">II", _read_exact(data, 0, 8, path))
    if magic != IDX_LABELS_MAGIC:
        raise FormatError(f"{path}: bad label magic {magic:#010x} at byte 0")
    expected = 8 + count
    if len(data) != expected:
        raise FormatError(f"{path}: expected {expected} bytes, got {len(data)}")
    labels = np.frombuffer(data, dtype=np.uint8, offset=8).astype(np.int64)
    if len(labels) and labels.max() >= num_classes:
        bad = int(np.argmax(labels >= num_classes))
        raise FormatError(
            f"{path}: label {labels[bad]} >= num_classes {num_classes} at record {bad}"
        )
    return labels


def load_idx(images_path, labels_path, num_classes, seed=0):
    """Load an IDX image/label pair into a Dataset (90/10 split)."""
    x = load_idx_images(images_path)
    y = load_idx_labels(labels_path, num_classes)
    if len(x) != len(y):
        raise FormatError(
            f"image count {len(x)} != label count {len(y)} ({images_path}, {labels_path})"
        )
    return _split(x, y, num_classes, seed)
