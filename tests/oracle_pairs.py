"""Mirror pair sets as they were before pairs became row indices into one
embedding table: each pair's left and right embeddings copied into two
[count, dim] tables.

Test-only oracle: `PairSet` (without its file round trip), `merge`,
`_check_tables` and `build_pairs` are kept verbatim. The engine's index
pairs must give the same draws and the same feature bytes. Do not edit it.
"""

from dataclasses import dataclass

import numpy as np

from sabotagebench.errors import ShapeError, ValidationError
from sabotagebench.mirror_cnn import MODE_CROSS, MODE_SELF, _TARGETS


@dataclass
class PairSet:
    """Embedding pairs with their construction mode per row."""

    left: np.ndarray
    right: np.ndarray
    modes: np.ndarray

    def __post_init__(self) -> None:
        if self.left.shape != self.right.shape:
            raise ShapeError(
                f"pair halves disagree: left {self.left.shape} vs right {self.right.shape}"
            )
        if self.left.ndim != 2:
            raise ShapeError(f"pair embeddings must be [count, dim], got {self.left.shape}")
        if self.modes.shape != (self.left.shape[0],):
            raise ShapeError(
                f"modes length {self.modes.shape} does not match {self.left.shape[0]} pairs"
            )

    @property
    def count(self) -> int:
        return self.left.shape[0]

    @property
    def counts(self) -> dict:
        modes, counts = np.unique(self.modes, return_counts=True)
        return {str(m): int(c) for m, c in zip(modes, counts)}

    def targets(self) -> np.ndarray:
        """Classifier target per pair: 1 for self-like, 0 for cross."""
        return np.array([_TARGETS[str(m)] for m in self.modes])

    def features(self, rows=slice(None)) -> np.ndarray:
        """Classifier input of the pairs `rows` (an index array or a slice;
        all by default): left and right embeddings side by side, [rows, 2*dim].
        The trainers build it batch by batch, never for the whole set. Each
        half is gathered straight into its side of the result."""
        rows = np.arange(self.count)[rows]  # bounds-checked, non-negative
        dim = self.left.shape[1]
        out = np.empty((rows.size, 2 * dim), dtype=np.result_type(self.left, self.right))
        np.take(self.left, rows, axis=0, out=out[:, :dim], mode="clip")
        np.take(self.right, rows, axis=0, out=out[:, dim:], mode="clip")
        return out

    @staticmethod
    def merge(*sets: "PairSet") -> "PairSet":
        return PairSet(
            np.concatenate([s.left for s in sets]),
            np.concatenate([s.right for s in sets]),
            np.concatenate([s.modes for s in sets]),
        )


def _check_tables(emb_a: np.ndarray, emb_b: np.ndarray) -> None:
    if emb_a.ndim != 2 or emb_b.ndim != 2:
        raise ShapeError("embedding tables must be [count, dim]")
    if emb_a.shape[1] != emb_b.shape[1]:
        raise ShapeError(
            f"embedding dims differ: {emb_a.shape[1]} vs {emb_b.shape[1]}"
        )
    if emb_a.shape[0] == 0 or emb_b.shape[0] == 0:
        raise ValidationError("embedding tables must be nonempty")


def build_pairs(emb_a: np.ndarray, emb_b: np.ndarray, mode: str,
                rng: np.random.Generator, count: int, out=None) -> PairSet:
    """Draw `count` pairs of the given mode from the two embedding tables.

    Indices are drawn with replacement; cross and semi-self draw the B-side
    index independently of the A-side one. `out`, a (left, right) pair of
    [count, dim] arrays of the tables' dtype, receives the rows in place of
    new tables."""
    if mode not in _TARGETS:
        raise ValidationError(f"unknown pair mode {mode!r}")
    _check_tables(emb_a, emb_b)
    if count < 1:
        raise ValidationError(f"pair count must be >= 1, got {count}")
    dim = emb_a.shape[1]
    if out is None:
        # cross pairs copy B rows; self and semi-self pairs start from A rows
        right_dtype = emb_b.dtype if mode == MODE_CROSS else emb_a.dtype
        out = (np.empty((count, dim), dtype=emb_a.dtype),
               np.empty((count, dim), dtype=right_dtype))
    left, right = out
    # drawn indices are in range, so "clip" only skips take's buffering
    i = rng.integers(0, emb_a.shape[0], size=count)
    np.take(emb_a, i, axis=0, out=left, mode="clip")
    if mode == MODE_SELF:
        right[...] = left
    elif mode == MODE_CROSS:
        j = rng.integers(0, emb_b.shape[0], size=count)
        np.take(emb_b, j, axis=0, out=right, mode="clip")
    else:
        j = rng.integers(0, emb_b.shape[0], size=count)
        half = dim // 2
        right[:, :half] = left[:, :half]
        right[:, half:] = emb_b[j, half:]
    return PairSet(left, right, np.array([mode] * count))
