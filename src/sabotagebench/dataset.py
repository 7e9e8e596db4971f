"""MNIST-format ingestion, sabotage injection, and subset construction.

Sabotage corrupts a sample by inverting its pixels (x' = 1 - x) and replacing
its label: either a uniform random class (training poison) or the dedicated
rejection class N_CLASSES (for the integrated rejection model).

The class count is fixed: MNIST's ten digits, `N_CLASSES`. IDX labels outside
[0, N_CLASSES) are refused at load.

A deterministic synthetic digit set (rendered glyphs + jitter + noise) is
bundled so every pipeline runs without the real IDX files; quantitative
claims about MNIST hold only for the real data.
"""

import gzip
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, ValidationError

N_CLASSES = 10
IMAGE_MAGIC = 2051
LABEL_MAGIC = 2049
MNIST_STEMS = (
    "train-images-idx3-ubyte",
    "train-labels-idx1-ubyte",
    "t10k-images-idx3-ubyte",
    "t10k-labels-idx1-ubyte",
)

RANDOM_LABEL = "random"
REJECT_LABEL = "reject"


@dataclass
class MnistSet:
    """Images in [0,1], shape [N,1,H,W]; integer labels of equal count."""

    images: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        if self.images.ndim != 4 or self.images.shape[1] != 1:
            raise ValidationError(
                f"images must be [N,1,H,W], got shape {tuple(self.images.shape)}"
            )
        if self.labels.shape != (self.images.shape[0],):
            raise ValidationError(
                f"image/label counts differ: {self.images.shape[0]} vs {self.labels.shape}"
            )
        if self.images.size and (self.images.min() < 0 or self.images.max() > 1):
            raise ValidationError("pixel values must lie in [0, 1]")

    @property
    def count(self) -> int:
        return int(self.images.shape[0])

    def subset(self, indices: np.ndarray) -> "MnistSet":
        return MnistSet(self.images[indices], self.labels[indices])


def _read_payload(path) -> bytes:
    p = Path(path)
    try:
        if p.suffix != ".gz":
            return p.read_bytes()
        with gzip.open(p, "rb") as fh:
            return fh.read()
    except (gzip.BadGzipFile, EOFError, zlib.error) as exc:
        raise FormatError(f"{p}: corrupt gzip file ({exc})") from exc
    except OSError as exc:  # after BadGzipFile, which is one
        raise FormatError(f"{p}: cannot read ({exc.strerror})") from exc


def _parse_idx_images(data: bytes, path) -> np.ndarray:
    if len(data) < 16:
        raise FormatError(f"{path}: truncated IDX image header ({len(data)} bytes)")
    magic, count, rows, cols = struct.unpack(">IIII", data[:16])
    if magic != IMAGE_MAGIC:
        raise FormatError(f"{path}: bad image magic {magic}, expected {IMAGE_MAGIC}")
    expected = 16 + count * rows * cols
    if len(data) != expected:
        raise FormatError(
            f"{path}: payload length {len(data)} != expected {expected} for "
            f"{count} images of {rows}x{cols}"
        )
    pixels = np.frombuffer(data, dtype=np.uint8, offset=16)
    return pixels.reshape(count, 1, rows, cols).astype(np.float32) / 255.0


def _parse_idx_labels(data: bytes, path) -> np.ndarray:
    if len(data) < 8:
        raise FormatError(f"{path}: truncated IDX label header ({len(data)} bytes)")
    magic, count = struct.unpack(">II", data[:8])
    if magic != LABEL_MAGIC:
        raise FormatError(f"{path}: bad label magic {magic}, expected {LABEL_MAGIC}")
    if len(data) != 8 + count:
        raise FormatError(
            f"{path}: payload length {len(data)} != expected {8 + count} for {count} labels"
        )
    labels = np.frombuffer(data, dtype=np.uint8, offset=8).astype(np.int64)
    if labels.size and labels.max() >= N_CLASSES:
        raise FormatError(
            f"{path}: labels must lie in [0, {N_CLASSES}), got {labels.max()}"
        )
    return labels


def load_idx(images_path, labels_path) -> MnistSet:
    """Parse big-endian IDX image/label files (optionally gzipped)."""
    images = _parse_idx_images(_read_payload(images_path), images_path)
    labels = _parse_idx_labels(_read_payload(labels_path), labels_path)
    if images.shape[0] != labels.shape[0]:
        raise FormatError(
            f"image/label count mismatch: {images.shape[0]} images in {images_path}, "
            f"{labels.shape[0]} labels in {labels_path}"
        )
    return MnistSet(images, labels)


@dataclass
class DatasetConfig:
    """Where the train and test sets come from. `auto` reads `mnist_dir`
    when its four IDX files exist and draws the synthetic glyph set (of
    `synthetic_train` and `synthetic_test` images from `synthetic_seed`)
    otherwise, so every command runs without a download."""

    source: str = "auto"
    mnist_dir: str = "data/mnist"
    synthetic_train: int = 6000
    synthetic_test: int = 1000
    synthetic_seed: int = 1234

    def __post_init__(self) -> None:
        if self.source not in ("auto", "mnist", "synthetic"):
            raise ValidationError(
                f"source must be auto, mnist or synthetic, got {self.source!r}")
        for name in ("synthetic_train", "synthetic_test"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.synthetic_seed < 0:
            raise ValidationError(f"synthetic_seed must be >= 0, got {self.synthetic_seed}")


def mnist_files(root) -> list[Path | None]:
    """Each MNIST_STEMS file under `root`, plain or `.gz`; None where neither exists."""
    root = Path(root)
    return [
        next((p for p in (root / stem, root / f"{stem}.gz") if p.exists()), None)
        for stem in MNIST_STEMS
    ]


def load_mnist_dir(root) -> tuple[MnistSet, MnistSet]:
    """Load the four MNIST_STEMS files from a directory (.gz accepted)."""
    paths = mnist_files(root)
    for stem, path in zip(MNIST_STEMS, paths):
        if path is None:
            raise FormatError(f"missing MNIST file {stem}[.gz] under {root}")
    return load_idx(*paths[:2]), load_idx(*paths[2:])


# ------------------------------------------------------------- sabotage


@dataclass
class SabotageConfig:
    rate: float = 0.05
    label_mode: str = RANDOM_LABEL

    def __post_init__(self) -> None:
        if not 0 <= self.rate <= 1:
            raise ValidationError(f"sabotage rate must lie in [0, 1], got {self.rate}")
        if self.label_mode not in (RANDOM_LABEL, REJECT_LABEL):
            raise ValidationError(
                f"label_mode must be '{RANDOM_LABEL}' or '{REJECT_LABEL}', got {self.label_mode!r}"
            )


@dataclass
class SabotagedBatch:
    """Parallel arrays: original labels, mask, and effective (possibly
    corrupted) data."""

    labels: np.ndarray
    mask: np.ndarray
    effective_images: np.ndarray
    effective_labels: np.ndarray


def invert(images: np.ndarray) -> np.ndarray:
    """Pixel inversion in normalized space; an involution up to float32 rounding."""
    return 1.0 - images


def inject_sabotage(
    images: np.ndarray,
    labels: np.ndarray,
    config: SabotageConfig,
    rng: np.random.Generator,
) -> SabotagedBatch:
    """Independently sabotage each sample with probability config.rate.

    Sabotaged pixels are inverted; labels are redrawn uniformly over the
    N_CLASSES classes (random mode) or pinned to the rejection class
    N_CLASSES (reject mode).
    """
    n = images.shape[0]
    if labels.shape != (n,):
        raise ValidationError(f"labels must be [{n}], got shape {tuple(labels.shape)}")
    mask = rng.random(n) < config.rate
    effective_images = images.copy()
    effective_labels = labels.copy()
    if mask.any():
        effective_images[mask] = invert(images[mask])
        count = int(mask.sum())
        if config.label_mode == RANDOM_LABEL:
            effective_labels[mask] = rng.integers(0, N_CLASSES, size=count)
        else:
            effective_labels[mask] = N_CLASSES
    return SabotagedBatch(labels, mask, effective_images, effective_labels)


def disjoint_subsets(dataset: MnistSet, sizes, rng: np.random.Generator) -> list[MnistSet]:
    """Split off index-disjoint random subsets of the requested sizes."""
    total = int(sum(sizes))
    if total > dataset.count:
        raise ValidationError(
            f"requested subset sizes sum to {total} but dataset has {dataset.count}"
        )
    order = rng.permutation(dataset.count)
    out = []
    start = 0
    for size in sizes:
        out.append(dataset.subset(np.sort(order[start : start + size])))
        start += size
    return out


# ------------------------------------------------------------ synthetic

_GLYPHS = {
    0: ("01110", "10001", "10011", "10101", "11001", "10001", "01110"),
    1: ("00100", "01100", "00100", "00100", "00100", "00100", "01110"),
    2: ("01110", "10001", "00001", "00010", "00100", "01000", "11111"),
    3: ("11110", "00001", "00001", "01110", "00001", "00001", "11110"),
    4: ("00010", "00110", "01010", "10010", "11111", "00010", "00010"),
    5: ("11111", "10000", "11110", "00001", "00001", "10001", "01110"),
    6: ("00110", "01000", "10000", "11110", "10001", "10001", "01110"),
    7: ("11111", "00001", "00010", "00100", "01000", "01000", "01000"),
    8: ("01110", "10001", "10001", "01110", "10001", "10001", "01110"),
    9: ("01110", "10001", "10001", "01111", "00001", "00010", "01100"),
}


def _glyph_array(digit: int) -> np.ndarray:
    rows = _GLYPHS[digit]
    return np.array([[float(ch) for ch in row] for row in rows], dtype=np.float32)


def synthetic_mnist_set(
    count: int,
    seed: int,
    image_size: int = 28,
    noise: float = 0.12,
    max_shift: int = 3,
) -> MnistSet:
    """Render a learnable 10-class stand-in for MNIST: upscaled digit glyphs
    at random offsets with additive pixel noise. Deterministic per seed."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5D]))
    scale = max(1, image_size // 8)
    block = np.ones((scale, scale), dtype=np.float32)
    glyphs = np.stack([np.kron(_glyph_array(d), block) for d in range(N_CLASSES)])
    gh, gw = glyphs.shape[1:]
    if gh > image_size or gw > image_size:
        raise ValidationError(
            f"image_size {image_size} cannot hold the {gh}x{gw} digit glyph"
        )
    labels = rng.integers(0, N_CLASSES, size=count)
    images = np.zeros((count, 1, image_size, image_size), dtype=np.float32)
    base_r = (image_size - gh) // 2
    base_c = (image_size - gw) // 2
    shift_r = rng.integers(-max_shift, max_shift + 1, size=count)
    shift_c = rng.integers(-max_shift, max_shift + 1, size=count)
    r = np.clip(base_r + shift_r, 0, image_size - gh)
    c = np.clip(base_c + shift_c, 0, image_size - gw)
    # windows[i, y, x] is the gh x gw view of image i whose top-left is (y, x)
    windows = np.lib.stride_tricks.sliding_window_view(
        images[:, 0], (gh, gw), axis=(1, 2), writeable=True
    )
    windows[np.arange(count), r, c] = glyphs[labels]
    if noise:
        # The generator fills values in order, so 512-row draws equal one
        # draw of the whole set, without its float64 array.
        for start in range(0, count, 512):
            block = images[start:start + 512]
            block += rng.uniform(0, noise, size=block.shape).astype(np.float32)
        np.clip(images, 0.0, 1.0, out=images)
    return MnistSet(images, labels)
