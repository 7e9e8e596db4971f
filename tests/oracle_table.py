"""The mirror pair table as it was before each net's embeddings were written
straight into their half: both nets' embedding tables, then one
concatenated copy of them.

Test-only oracle: `pair_table` is kept verbatim. The table that
`run_mirror_experiment` fills in place must hold its bytes. Do not edit it.
"""

import numpy as np

from sabotagebench.errors import ShapeError, ValidationError


def pair_table(emb_a: np.ndarray, emb_b: np.ndarray) -> np.ndarray:
    """One [2T, dim] table of two nets' embeddings of the same T inputs:
    A's rows, then B's."""
    if emb_a.ndim != 2 or emb_b.ndim != 2:
        raise ShapeError("embedding tables must be [count, dim]")
    if emb_a.shape[1] != emb_b.shape[1]:
        raise ShapeError(
            f"embedding dims differ: {emb_a.shape[1]} vs {emb_b.shape[1]}"
        )
    if emb_a.shape[0] == 0 or emb_b.shape[0] == 0:
        raise ValidationError("embedding tables must be nonempty")
    if emb_a.shape[0] != emb_b.shape[0]:
        raise ShapeError(
            f"embedding tables must embed the same inputs, got {emb_a.shape[0]} "
            f"and {emb_b.shape[0]} rows"
        )
    if emb_a.dtype != emb_b.dtype:
        raise ValidationError(
            f"embedding tables must share one dtype, got {emb_a.dtype} and {emb_b.dtype}"
        )
    return np.concatenate([emb_a, emb_b])
