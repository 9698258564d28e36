import struct

import numpy as np
import pytest

from batchlab import data
from batchlab.errors import ConfigError, FormatError


class TestSynthetic:
    @pytest.mark.parametrize("kind", ["synthetic-blobs", "synthetic-spirals"])
    def test_same_seed_bitwise_identical(self, kind):
        a = data.gen_synthetic(kind, 300, 3, 2, seed=5)
        b = data.gen_synthetic(kind, 300, 3, 2, seed=5)
        assert np.array_equal(a.train_x, b.train_x)
        assert np.array_equal(a.train_y, b.train_y)
        assert np.array_equal(a.test_x, b.test_x)
        assert np.array_equal(a.test_y, b.test_y)

    def test_different_seed_differs(self):
        a = data.gen_synthetic("synthetic-blobs", 300, 3, 2, seed=5)
        b = data.gen_synthetic("synthetic-blobs", 300, 3, 2, seed=6)
        assert not np.array_equal(a.train_x, b.train_x)

    def test_split_sizes(self):
        ds = data.gen_synthetic("synthetic-blobs", 1000, 4, 3, seed=0)
        assert len(ds.train_x) == 900
        assert len(ds.test_x) == 100
        assert ds.input_dim == 3

    def test_classes_balanced(self):
        ds = data.gen_synthetic("synthetic-spirals", 900, 3, 2, seed=1)
        all_y = np.concatenate([ds.train_y, ds.test_y])
        counts = np.bincount(all_y, minlength=3)
        assert counts.max() - counts.min() <= 1

    def test_too_small_rejected(self):
        with pytest.raises(ConfigError):
            data.gen_synthetic("synthetic-blobs", 15, 3, 2, seed=0)

    def test_spirals_require_two_dims(self):
        with pytest.raises(ConfigError):
            data.gen_synthetic("synthetic-spirals", 300, 3, 5, seed=0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            data.gen_synthetic("synthetic-moons", 300, 3, 2, seed=0)

    def test_zero_noise_blobs_collapse_to_centers(self):
        ds = data.gen_synthetic("synthetic-blobs", 300, 3, 2, seed=2, noise=0.0)
        for c in range(3):
            pts = ds.train_x[ds.train_y == c]
            assert np.all(pts == pts[0])


def reference_split(xs, ys, seed):
    """The 90/10 split of the concatenated class arrays, gathered by fancy indexing."""
    x, y = np.concatenate(xs), np.concatenate(ys)
    order = np.random.Generator(np.random.PCG64([seed, 0x5B11])).permutation(len(x))
    x, y = x[order], y[order]
    cut = (len(x) * 9) // 10
    return x[:cut], y[:cut], x[cut:], y[cut:]


def reference_spirals(n, num_classes, seed, noise=0.2):
    rng = np.random.Generator(np.random.PCG64([seed, 0x5914]))
    xs, ys = [], []
    for c in range(num_classes):
        count = n // num_classes + (c < n % num_classes)
        t = (np.arange(count) + 0.5) / count
        theta = 2.0 * np.pi * c / num_classes + t * 4.5 + noise * rng.standard_normal(count)
        xs.append(np.stack([t * np.sin(theta), t * np.cos(theta)], axis=1))
        ys.append(np.full(count, c, dtype=np.int64))
    return reference_split(xs, ys, seed)


def reference_blobs(n, num_classes, input_dim, seed, noise=0.5):
    rng = np.random.Generator(np.random.PCG64([seed, 0xB10B]))
    centers = np.zeros((num_classes, input_dim))
    angles = 2.0 * np.pi * np.arange(num_classes) / num_classes
    centers[:, 0] = 4.0 * np.cos(angles)
    if input_dim > 1:
        centers[:, 1] = 4.0 * np.sin(angles)
    xs, ys = [], []
    for c in range(num_classes):
        count = n // num_classes + (c < n % num_classes)
        xs.append(centers[c] + noise * rng.standard_normal((count, input_dim)))
        ys.append(np.full(count, c, dtype=np.int64))
    return reference_split(xs, ys, seed)


class TestGeneratorsMatchPerClassReference:
    # the reference runs the same ufuncs on this machine, so the bytes must
    # agree wherever np.sin and np.cos round; a golden hash would not
    @staticmethod
    def assert_same_bytes(ds, ref):
        for got, want in zip((ds.train_x, ds.train_y, ds.test_x, ds.test_y), ref):
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n, num_classes, seed", [(10000, 3, 1), (1001, 4, 7)])
    def test_spirals(self, n, num_classes, seed):
        ds = data.gen_synthetic("synthetic-spirals", n, num_classes, 2, seed=seed)
        self.assert_same_bytes(ds, reference_spirals(n, num_classes, seed))

    @pytest.mark.parametrize("n, num_classes, input_dim, seed", [(5000, 5, 3, 2), (640, 2, 1, 1)])
    def test_blobs(self, n, num_classes, input_dim, seed):
        ds = data.gen_synthetic("synthetic-blobs", n, num_classes, input_dim, seed=seed)
        self.assert_same_bytes(ds, reference_blobs(n, num_classes, input_dim, seed))


def write_idx_pair(tmp_path, count=10, rows=4, cols=3, max_label=2):
    rng = np.random.default_rng(0)
    pixels = rng.integers(0, 256, size=count * rows * cols, dtype=np.uint8)
    labels = rng.integers(0, max_label + 1, size=count, dtype=np.uint8)
    img = tmp_path / "images.idx"
    lab = tmp_path / "labels.idx"
    img.write_bytes(struct.pack(">iiii", data.IDX_IMAGES_MAGIC, count, rows, cols) + pixels.tobytes())
    lab.write_bytes(struct.pack(">ii", data.IDX_LABELS_MAGIC, count) + labels.tobytes())
    return img, lab, pixels, labels


class TestIdx:
    def test_header_arithmetic(self, tmp_path):
        img, lab, pixels, labels = write_idx_pair(tmp_path, count=10, rows=28, cols=28)
        x = data.load_idx_images(img)
        assert x.shape == (10, 784)
        assert x.min() >= 0.0 and x.max() <= 1.0
        assert np.array_equal(x[0], pixels[:784] / 255.0)

    def test_truncated_payload_reports_byte_counts(self, tmp_path):
        img, _, _, _ = write_idx_pair(tmp_path, count=10, rows=4, cols=3)
        blob = img.read_bytes()
        img.write_bytes(blob[:-5])
        with pytest.raises(FormatError, match=r"expected 136 bytes, got 131"):
            data.load_idx_images(img)

    def test_header_dimensions_read_as_unsigned(self, tmp_path):
        # read as signed, count -16, rows -1 and cols 1 claim exactly the 16
        # pixel bytes; as the unsigned words they are, they claim far more
        img = tmp_path / "images.idx"
        img.write_bytes(struct.pack(">iiii", data.IDX_IMAGES_MAGIC, -16, -1, 1) + bytes(16))
        expected = 16 + (2**32 - 16) * (2**32 - 1)
        with pytest.raises(FormatError, match=rf"expected {expected} bytes, got 32"):
            data.load_idx_images(img)

    def test_bad_magic_rejected(self, tmp_path):
        bad = tmp_path / "bad.idx"
        bad.write_bytes(struct.pack(">iiii", 0x00000999, 1, 2, 2) + bytes(4))
        with pytest.raises(FormatError, match="magic"):
            data.load_idx_images(bad)

    def test_label_out_of_range_names_record(self, tmp_path):
        _, lab, _, labels = write_idx_pair(tmp_path, max_label=5)
        bad_index = int(np.argmax(labels >= 3))
        with pytest.raises(FormatError, match=f"record {bad_index}"):
            data.load_idx_labels(lab, num_classes=3)

    def test_pair_loads_into_dataset(self, tmp_path):
        img, lab, _, _ = write_idx_pair(tmp_path, count=20, rows=4, cols=3)
        ds = data.load_idx(img, lab, num_classes=3)
        assert ds.n_train == 18
        assert len(ds.test_x) == 2
        assert ds.input_dim == 12

    def test_count_mismatch_rejected(self, tmp_path):
        img, lab, _, _ = write_idx_pair(tmp_path, count=10)
        lab2 = tmp_path / "short.idx"
        lab2.write_bytes(struct.pack(">ii", data.IDX_LABELS_MAGIC, 5) + bytes(5))
        with pytest.raises(FormatError, match="image count"):
            data.load_idx(img, lab2, num_classes=3)
