"""IDX ingestion, sabotage injection, and the synthetic stand-in set."""

import gzip
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_dataset as oracle
from sabotagebench import cli
from sabotagebench.dataset import (
    IMAGE_MAGIC,
    LABEL_MAGIC,
    N_CLASSES,
    MnistSet,
    SabotageConfig,
    disjoint_subsets,
    inject_sabotage,
    invert,
    load_idx,
    load_mnist_dir,
    synthetic_mnist_set,
)
from sabotagebench.errors import FormatError, ValidationError


def idx_image_bytes(pixels: np.ndarray) -> bytes:
    n, rows, cols = pixels.shape
    return struct.pack(">IIII", IMAGE_MAGIC, n, rows, cols) + pixels.astype(
        np.uint8
    ).tobytes()


def idx_label_bytes(labels) -> bytes:
    labels = np.asarray(labels, dtype=np.uint8)
    return struct.pack(">II", LABEL_MAGIC, labels.size) + labels.tobytes()


@pytest.fixture
def idx_pair(tmp_path, rng):
    pixels = rng.integers(0, 256, size=(5, 4, 4), dtype=np.uint8)
    labels = np.array([0, 3, 9, 1, 7], dtype=np.uint8)
    images_path = tmp_path / "images-idx3-ubyte"
    labels_path = tmp_path / "labels-idx1-ubyte"
    images_path.write_bytes(idx_image_bytes(pixels))
    labels_path.write_bytes(idx_label_bytes(labels))
    return images_path, labels_path, pixels, labels


class TestIdxParsing:
    def test_parses_handcrafted_files(self, idx_pair):
        images_path, labels_path, pixels, labels = idx_pair
        ds = load_idx(images_path, labels_path)
        assert ds.images.shape == (5, 1, 4, 4)
        assert ds.images.dtype == np.float32
        np.testing.assert_allclose(
            ds.images[:, 0], pixels.astype(np.float32) / 255.0, atol=1e-7
        )
        np.testing.assert_array_equal(ds.labels, labels.astype(np.int64))

    def test_gzip_transparent(self, tmp_path, idx_pair):
        images_path, labels_path, pixels, labels = idx_pair
        gz_images = tmp_path / "images-idx3-ubyte.gz"
        gz_labels = tmp_path / "labels-idx1-ubyte.gz"
        gz_images.write_bytes(gzip.compress(images_path.read_bytes()))
        gz_labels.write_bytes(gzip.compress(labels_path.read_bytes()))
        plain = load_idx(images_path, labels_path)
        zipped = load_idx(gz_images, gz_labels)
        np.testing.assert_array_equal(plain.images, zipped.images)
        np.testing.assert_array_equal(plain.labels, zipped.labels)

    def test_bad_image_magic(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(struct.pack(">IIII", 123, 1, 2, 2) + b"\x00" * 4)
        labels = tmp_path / "labels"
        labels.write_bytes(idx_label_bytes([0]))
        with pytest.raises(FormatError, match="bad image magic 123"):
            load_idx(path, labels)

    def test_bad_label_magic(self, tmp_path, idx_pair):
        images_path = idx_pair[0]
        path = tmp_path / "badlab"
        path.write_bytes(struct.pack(">II", 9, 5) + b"\x00" * 5)
        with pytest.raises(FormatError, match="bad label magic 9"):
            load_idx(images_path, path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short"
        path.write_bytes(b"\x00" * 10)
        labels = tmp_path / "labels"
        labels.write_bytes(idx_label_bytes([0]))
        with pytest.raises(FormatError, match="truncated IDX image header"):
            load_idx(path, labels)

    def test_payload_length_mismatch(self, tmp_path):
        path = tmp_path / "shortpix"
        path.write_bytes(struct.pack(">IIII", IMAGE_MAGIC, 2, 4, 4) + b"\x00" * 31)
        labels = tmp_path / "labels"
        labels.write_bytes(idx_label_bytes([0, 1]))
        with pytest.raises(FormatError, match="payload length"):
            load_idx(path, labels)

    def test_image_label_count_mismatch(self, tmp_path, idx_pair):
        images_path = idx_pair[0]
        labels = tmp_path / "three"
        labels.write_bytes(idx_label_bytes([0, 1, 2]))
        with pytest.raises(FormatError, match="count mismatch"):
            load_idx(images_path, labels)

    def test_load_mnist_dir_finds_gz(self, tmp_path, idx_pair):
        images_path, labels_path, _, _ = idx_pair
        for stem in ("train-images-idx3-ubyte", "t10k-images-idx3-ubyte"):
            (tmp_path / f"{stem}.gz").write_bytes(
                gzip.compress(images_path.read_bytes())
            )
        for stem in ("train-labels-idx1-ubyte", "t10k-labels-idx1-ubyte"):
            (tmp_path / f"{stem}.gz").write_bytes(
                gzip.compress(labels_path.read_bytes())
            )
        train, test = load_mnist_dir(tmp_path)
        assert train.count == 5 and test.count == 5

    def test_load_mnist_dir_missing_file(self, tmp_path):
        with pytest.raises(FormatError, match="missing MNIST file train-images"):
            load_mnist_dir(tmp_path)

    @pytest.mark.parametrize("bad", [N_CLASSES, 11, 200, 255])
    def test_label_outside_the_classes_names_its_file(self, tmp_path, idx_pair, bad):
        images_path = idx_pair[0]
        path = tmp_path / "labels-idx1-ubyte.gz"
        path.write_bytes(gzip.compress(idx_label_bytes([0, 3, bad, 1, 9])))
        with pytest.raises(FormatError) as info:
            load_idx(images_path, path)
        assert str(info.value) == f"{path}: labels must lie in [0, {N_CLASSES}), got {bad}"

    def test_run_on_out_of_range_test_labels_is_a_config_error(self, tmp_path, idx_pair,
                                                                capsys):
        # every test label 200: the run used to finish with exit 0 and a
        # test error of 1.0
        images_path, labels_path = idx_pair[:2]
        mnist = tmp_path / "mnist"
        mnist.mkdir()
        for stem, body in (("train-images-idx3-ubyte", images_path.read_bytes()),
                           ("train-labels-idx1-ubyte", labels_path.read_bytes()),
                           ("t10k-images-idx3-ubyte", images_path.read_bytes()),
                           ("t10k-labels-idx1-ubyte", idx_label_bytes([200] * 5))):
            (mnist / stem).write_bytes(body)
        argv = ["run", "baseline", "--out", str(tmp_path / "out"),
                "--set", "dataset.source=mnist", "--set", f"dataset.mnist_dir={mnist}"]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert (f"config error: dataset.mnist_dir: {mnist / 't10k-labels-idx1-ubyte'}: "
                f"labels must lie in [0, {N_CLASSES}), got 200") in err


class TestMnistSet:
    def test_rejects_pixels_out_of_range(self):
        images = np.full((1, 1, 4, 4), 1.5, dtype=np.float32)
        with pytest.raises(ValidationError, match="pixel values"):
            MnistSet(images, np.array([0]))

    def test_rejects_count_mismatch(self):
        images = np.zeros((2, 1, 4, 4), dtype=np.float32)
        with pytest.raises(ValidationError):
            MnistSet(images, np.array([0]))

    def test_subset_picks_rows(self, rng):
        ds = synthetic_mnist_set(20, seed=5, image_size=16)
        sub = ds.subset(np.array([3, 7]))
        np.testing.assert_array_equal(sub.images, ds.images[[3, 7]])
        np.testing.assert_array_equal(sub.labels, ds.labels[[3, 7]])


class TestInvert:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_involution(self, seed):
        images = np.random.default_rng(seed).random((3, 1, 6, 6)).astype(np.float32)
        np.testing.assert_allclose(invert(invert(images)), images, atol=1e-6)

    def test_exact_on_representable_values(self):
        images = np.array([[[[0.0, 0.25, 0.5, 1.0]]]], dtype=np.float32)
        np.testing.assert_array_equal(invert(invert(images)), images)
        np.testing.assert_array_equal(
            invert(images), np.array([[[[1.0, 0.75, 0.5, 0.0]]]], dtype=np.float32)
        )


class TestSabotageConfig:
    def test_rejects_bad_rate(self):
        with pytest.raises(ValidationError, match="rate"):
            SabotageConfig(rate=1.5)

    def test_rejects_bad_mode(self):
        with pytest.raises(ValidationError):
            SabotageConfig(rate=0.1, label_mode="shuffle")


class TestInjectSabotage:
    def test_mask_rows_are_inverted_others_untouched(self, rng):
        ds = synthetic_mnist_set(40, seed=11, image_size=16)
        cfg = SabotageConfig(rate=0.5)
        batch = inject_sabotage(ds.images, ds.labels, cfg, rng)
        mask = batch.mask
        assert mask.dtype == bool and mask.shape == (40,)
        np.testing.assert_array_equal(
            batch.effective_images[mask], invert(ds.images[mask])
        )
        np.testing.assert_array_equal(
            batch.effective_images[~mask], ds.images[~mask]
        )
        np.testing.assert_array_equal(batch.effective_labels[~mask], ds.labels[~mask])

    def test_originals_not_mutated(self, rng):
        ds = synthetic_mnist_set(10, seed=12, image_size=16)
        images_before = ds.images.copy()
        labels_before = ds.labels.copy()
        inject_sabotage(ds.images, ds.labels, SabotageConfig(rate=1.0), rng)
        np.testing.assert_array_equal(ds.images, images_before)
        np.testing.assert_array_equal(ds.labels, labels_before)

    def test_rate_zero_and_one(self, rng):
        ds = synthetic_mnist_set(15, seed=13, image_size=16)
        none = inject_sabotage(ds.images, ds.labels, SabotageConfig(rate=0.0), rng)
        assert not none.mask.any()
        everything = inject_sabotage(
            ds.images, ds.labels, SabotageConfig(rate=1.0), rng
        )
        assert everything.mask.all()

    def test_reject_mode_pins_label_to_extra_class(self, rng):
        ds = synthetic_mnist_set(30, seed=14, image_size=16)
        cfg = SabotageConfig(rate=1.0, label_mode="reject")
        batch = inject_sabotage(ds.images, ds.labels, cfg, rng)
        assert (batch.effective_labels == 10).all()

    def test_random_mode_labels_in_range(self, rng):
        ds = synthetic_mnist_set(200, seed=15, image_size=16)
        cfg = SabotageConfig(rate=1.0, label_mode="random")
        batch = inject_sabotage(ds.images, ds.labels, cfg, rng)
        assert batch.effective_labels.min() >= 0
        assert batch.effective_labels.max() <= 9
        # uniform redraw should move a decent share of labels
        assert (batch.effective_labels != ds.labels).mean() > 0.5

    def test_rate_statistics(self):
        ds = synthetic_mnist_set(4000, seed=16, image_size=16)
        rng = np.random.default_rng(7)
        batch = inject_sabotage(ds.images, ds.labels, SabotageConfig(rate=0.2), rng)
        assert abs(batch.mask.mean() - 0.2) < 0.03

    def test_same_rng_state_reproduces(self):
        ds = synthetic_mnist_set(50, seed=17, image_size=16)
        cfg = SabotageConfig(rate=0.3)
        a = inject_sabotage(ds.images, ds.labels, cfg, np.random.default_rng(42))
        b = inject_sabotage(ds.images, ds.labels, cfg, np.random.default_rng(42))
        np.testing.assert_array_equal(a.mask, b.mask)
        np.testing.assert_array_equal(a.effective_labels, b.effective_labels)

    def test_label_shape_mismatch(self, rng):
        ds = synthetic_mnist_set(5, seed=18, image_size=16)
        with pytest.raises(ValidationError, match="labels"):
            inject_sabotage(ds.images, ds.labels[:3], SabotageConfig(rate=0.1), rng)


class TestDisjointSubsets:
    def test_subsets_are_disjoint_and_sized(self, rng):
        ds = synthetic_mnist_set(100, seed=20, image_size=16)
        parts = disjoint_subsets(ds, [30, 20, 10], rng)
        assert [p.count for p in parts] == [30, 20, 10]
        seen = [tuple(img.ravel()) for p in parts for img in p.images]
        assert len(set(seen)) == len(seen)

    def test_oversized_request_rejected(self, rng):
        ds = synthetic_mnist_set(10, seed=21, image_size=16)
        with pytest.raises(ValidationError, match="sum to 12"):
            disjoint_subsets(ds, [6, 6], rng)


class TestSyntheticSet:
    def test_shapes_and_range(self):
        ds = synthetic_mnist_set(64, seed=1, image_size=28)
        assert ds.images.shape == (64, 1, 28, 28)
        assert ds.images.dtype == np.float32
        assert ds.labels.shape == (64,)
        assert float(ds.images.min()) >= 0.0
        assert float(ds.images.max()) <= 1.0
        assert set(np.unique(ds.labels)) <= set(range(10))

    def test_deterministic_per_seed(self):
        a = synthetic_mnist_set(32, seed=9)
        b = synthetic_mnist_set(32, seed=9)
        c = synthetic_mnist_set(32, seed=10)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)
        assert not np.array_equal(a.images, c.images)

    def test_classes_visually_distinct(self):
        ds = synthetic_mnist_set(500, seed=2, noise=0.0, max_shift=0)
        by_label = {}
        for img, lab in zip(ds.images, ds.labels):
            by_label.setdefault(int(lab), tuple(img.ravel()))
        assert len(set(by_label.values())) == len(by_label)

    def test_glyph_that_does_not_fit_is_rejected(self):
        with pytest.raises(ValidationError, match="7x5 digit glyph"):
            synthetic_mnist_set(4, seed=3, image_size=6)


def assert_same_set(new, old):
    assert new.images.tobytes() == old.images.tobytes()
    assert new.labels.tobytes() == old.labels.tobytes()


class TestSyntheticSetMatchesOracle:
    """The vectorized placement draws the same set, byte for byte, as the
    per-image loop kept in `oracle_dataset`."""

    @settings(max_examples=200, deadline=None)
    @given(
        count=st.integers(0, 70),
        seed=st.integers(0, 2**32 - 1),
        image_size=st.integers(8, 40),
        max_shift=st.integers(0, 12),
        noise=st.one_of(st.just(0.0), st.floats(0.01, 1.5)),
    )
    def test_random_configurations(self, count, seed, image_size, max_shift, noise):
        kwargs = dict(image_size=image_size, noise=noise, max_shift=max_shift)
        assert_same_set(
            synthetic_mnist_set(count, seed, **kwargs),
            oracle.synthetic_mnist_set(count, seed, **kwargs),
        )

    def test_stock_size(self):
        assert_same_set(synthetic_mnist_set(3072, 4242), oracle.synthetic_mnist_set(3072, 4242))
