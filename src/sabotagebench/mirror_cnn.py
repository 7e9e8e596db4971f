"""Embedding-level mirror self-recognition.

Two identical nets train for one epoch on disjoint subsets, then a small
binary classifier learns to tell whether an (anchor, probe) embedding pair
came from the same net. Self pairs repeat one embedding exactly; cross pairs
mix nets; semi-self probes splice the halves:

  self      (f_A(x_i), f_A(x_i))                          target self
  cross     (f_A(x_i), f_B(x_j)), j drawn independently   target other
  semiself  (f_A(x_i), [f_A(x_i)[:D/2] | f_B(x_j)[D/2:]]) scored as self

A classifier that only checked elementwise equality would nail self pairs
but call every semi-self probe "other"; semi-self accuracy well above 0.5
is the evidence that it reads distribution-level cues instead.
"""

from dataclasses import dataclass, field

import numpy as np

from .dataset import MnistSet, disjoint_subsets
from .errors import ShapeError, ValidationError
from .models import GateConfig, MlpBinary, ModelConfig, SimpleCNN, extract_embeddings
from .nncore import bce_with_logits, bce_with_logits_backward, save_tensors, load_tensors, sgd_step
from .rng import stream

MODE_SELF = "self"
MODE_CROSS = "cross"
MODE_SEMISELF = "semiself"
_TARGETS = {MODE_SELF: 1.0, MODE_CROSS: 0.0, MODE_SEMISELF: 1.0}
_MODE_CODES = {MODE_SELF: 0, MODE_CROSS: 1, MODE_SEMISELF: 2}


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

    def save(self, path) -> None:
        codes = np.array([_MODE_CODES[str(m)] for m in self.modes], dtype=np.float32)
        save_tensors({"left": self.left, "right": self.right, "mode_codes": codes}, path)

    @staticmethod
    def load(path) -> "PairSet":
        arrays = load_tensors(path)
        names = {v: k for k, v in _MODE_CODES.items()}
        modes = np.array([names[int(c)] for c in arrays["mode_codes"]])
        return PairSet(arrays["left"], arrays["right"], modes)


def train_partial(subset: MnistSet, model_cfg: ModelConfig, seed: int, tag: str,
                  epochs: int = 1, batch_size: int = 64, learning_rate: float = 0.01,
                  test_set: MnistSet | None = None) -> tuple[SimpleCNN, float]:
    """Train a fresh net briefly on one subset; returns (net, test error).

    The tag keeps the two nets' seed streams apart so they differ in both
    data and initialization."""
    from .training import _batches, _plain_test_error, _train_step

    net = SimpleCNN(model_cfg, stream(seed, f"mirror/init/{tag}"))
    ones = None
    for epoch in range(epochs):
        shuffle = stream(seed, f"mirror/shuffle/{tag}/{epoch}")
        for idx in _batches(subset.count, batch_size, shuffle):
            if ones is None or ones.shape[0] != idx.size:
                ones = np.ones(idx.size)
            _train_step(net, subset.images[idx], subset.labels[idx], ones, learning_rate)
    error = _plain_test_error(net, test_set) if test_set is not None else float("nan")
    return net, error


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


def build_pair_set(emb_a: np.ndarray, emb_b: np.ndarray, counts: dict,
                   rng: np.random.Generator) -> PairSet:
    """Pairs of several modes, `counts[mode]` of each, in the dict's order.

    The same draws and rows as `PairSet.merge` of one `build_pairs` per
    mode, but `build_pairs` fills one table per side, mode by mode, so no
    per-mode tables and merged copy are alive together. Both embedding
    tables must share one dtype."""
    _check_tables(emb_a, emb_b)
    if emb_a.dtype != emb_b.dtype:
        raise ValidationError(
            f"embedding tables must share one dtype, got {emb_a.dtype} and {emb_b.dtype}"
        )
    if min(counts.values(), default=0) < 1:
        raise ValidationError(f"every pair count must be >= 1, got {counts}")
    total, dim = sum(counts.values()), emb_a.shape[1]
    left = np.empty((total, dim), dtype=emb_a.dtype)
    right = np.empty((total, dim), dtype=emb_a.dtype)
    modes, start = [], 0
    for mode, count in counts.items():
        rows = slice(start, start + count)
        part = build_pairs(emb_a, emb_b, mode, rng, count, out=(left[rows], right[rows]))
        modes.append(part.modes)
        start += count
    return PairSet(left, right, np.concatenate(modes))


def train_pair_gate(pairs: PairSet, seed: int, hidden: int = 256,
                    epochs: int = 3, batch_size: int = 64,
                    learning_rate: float = 0.05,
                    boundary_fraction: float | None = 1 / 3) -> MlpBinary:
    """Fit the binary pair classifier on a balanced self/cross set.

    After fitting, the output bias is shifted so the decision boundary sits
    at `boundary_fraction` of the way from the cross-pair logit mean to the
    self-pair logit mean (None keeps the raw boundary). Trained logits
    saturate symmetrically, which parks the raw boundary at the midpoint of
    the gap; a probe agreeing with its anchor on only half the coordinates
    then lands within noise of that midpoint and flips arbitrarily.
    Anchoring the boundary just above the known cross population instead
    makes partial agreement read as self while both base classes stay on
    their own sides."""
    counts = pairs.counts
    if set(counts) != {MODE_SELF, MODE_CROSS}:
        raise ValidationError(
            f"training pairs must contain exactly self and cross modes, got {sorted(counts)}"
        )
    if counts[MODE_SELF] != counts[MODE_CROSS]:
        raise ValidationError(
            f"training pairs must be balanced, got {counts[MODE_SELF]} self "
            f"vs {counts[MODE_CROSS]} cross"
        )
    if boundary_fraction is not None and not 0 <= boundary_fraction < 1:
        raise ValidationError(
            f"boundary_fraction must lie in [0, 1) or be None, got {boundary_fraction}"
        )
    targets = pairs.targets()
    gate = MlpBinary(GateConfig(2 * pairs.left.shape[1], hidden, dropout=0.0),
                     stream(seed, "mirror/gate/init"))
    from .training import _batches

    for epoch in range(epochs):
        shuffle = stream(seed, f"mirror/gate/shuffle/{epoch}")
        for idx in _batches(pairs.count, batch_size, shuffle):
            _, logits, cache = gate.forward(pairs.features(idx), train=True)
            t = targets[idx]
            _, probs = bce_with_logits(logits, t)
            gate.backward(bce_with_logits_backward(probs, t).astype(np.float32), cache)
            sgd_step(gate.params, learning_rate)
    if boundary_fraction is not None:
        chunks = []
        for start in range(0, pairs.count, 512):
            # index, not unpack: a cache bound to a name would hold this
            # chunk's features (25.7 MB at 512 stock pairs) through the next
            logits = gate.forward(pairs.features(slice(start, start + 512)), train=False)[1]
            chunks.append(logits)
        logits = np.concatenate(chunks)
        self_mean = logits[targets == 1.0].mean()
        cross_mean = logits[targets == 0.0].mean()
        boundary = cross_mean + boundary_fraction * (self_mean - cross_mean)
        gate.params["b2"].value -= np.float32(boundary)
    return gate


def eval_pairs(gate: MlpBinary, pairs: PairSet, batch_size: int = 256) -> dict:
    """Accuracy per mode (score >= 0.5 reads as self) plus overall."""
    scores = []
    for start in range(0, pairs.count, batch_size):
        scores.append(gate.forward(pairs.features(slice(start, start + batch_size)))[0])
    called_self = np.concatenate(scores) >= 0.5
    correct = called_self == (pairs.targets() == 1.0)
    out = {"overall": float(correct.mean())}
    for mode in np.unique(pairs.modes):
        out[str(mode)] = float(correct[pairs.modes == mode].mean())
    return out


@dataclass
class MirrorCnnConfig:
    subset_size: int = 5000
    epochs: int = 1
    batch_size: int = 64
    learning_rate: float = 0.01
    train_pairs_per_mode: int = 2000
    eval_pairs_per_mode: int = 1000
    train_pool_fraction: float = 0.6
    gate_hidden: int = 256
    gate_epochs: int = 3
    gate_learning_rate: float = 0.05
    gate_boundary_fraction: float | None = 1 / 3

    def __post_init__(self) -> None:
        if self.subset_size < 1:
            raise ValidationError("subset_size must be >= 1")
        if not 0 < self.train_pool_fraction < 1:
            raise ValidationError(
                f"train_pool_fraction must lie in (0, 1), got {self.train_pool_fraction}"
            )
        if self.train_pairs_per_mode < 1 or self.eval_pairs_per_mode < 1:
            raise ValidationError("pair counts must be >= 1")


@dataclass
class MirrorCnnReport:
    seed: int
    test_error_a: float = 0.0
    test_error_b: float = 0.0
    self_accuracy: float = 0.0
    cross_accuracy: float = 0.0
    self_vs_cross_accuracy: float = 0.0
    semiself_accuracy: float = 0.0
    train_counts: dict = field(default_factory=dict)
    eval_counts: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)
    wall_clock_s: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "test_error_a": self.test_error_a,
            "test_error_b": self.test_error_b,
            "self_accuracy": self.self_accuracy,
            "cross_accuracy": self.cross_accuracy,
            "self_vs_cross_accuracy": self.self_vs_cross_accuracy,
            "semiself_accuracy": self.semiself_accuracy,
            "train_counts": self.train_counts,
            "eval_counts": self.eval_counts,
            "extras": self.extras,
        }


def run_mirror_experiment(cfg: MirrorCnnConfig, model_cfg: ModelConfig, seed: int,
                          train_set: MnistSet, test_set: MnistSet) -> MirrorCnnReport:
    """Full embedding mirror test: partial nets, pair sets, classifier, eval.

    The pair classifier trains on pairs drawn from one slice of the test-set
    index pool and is evaluated on pairs from the remaining indices, so the
    two stages never see the same embedding row."""
    import time

    started = time.perf_counter()
    sub_a, sub_b = disjoint_subsets(
        train_set, (cfg.subset_size, cfg.subset_size), stream(seed, "mirror/subsets")
    )
    net_a, err_a = train_partial(sub_a, model_cfg, seed, "A", cfg.epochs,
                                 cfg.batch_size, cfg.learning_rate, test_set)
    net_b, err_b = train_partial(sub_b, model_cfg, seed, "B", cfg.epochs,
                                 cfg.batch_size, cfg.learning_rate, test_set)

    emb_a = extract_embeddings(net_a, test_set.images)
    emb_b = extract_embeddings(net_b, test_set.images)
    perm = stream(seed, "mirror/pools").permutation(test_set.count)
    cut = int(round(test_set.count * cfg.train_pool_fraction))
    if cut < 1 or cut >= test_set.count:
        raise ValidationError(
            f"pool split degenerate: {cut} train indices of {test_set.count}"
        )
    train_pool, eval_pool = perm[:cut], perm[cut:]

    train_pairs = build_pair_set(
        emb_a[train_pool], emb_b[train_pool],
        {MODE_SELF: cfg.train_pairs_per_mode, MODE_CROSS: cfg.train_pairs_per_mode},
        stream(seed, "mirror/pairs"),
    )
    gate = train_pair_gate(train_pairs, seed, cfg.gate_hidden, cfg.gate_epochs,
                           cfg.batch_size, cfg.gate_learning_rate,
                           cfg.gate_boundary_fraction)
    # the training pairs (100 MB at 2048 pairs) are not kept through evaluation
    train_counts = train_pairs.counts
    del train_pairs
    eval_counts = {MODE_SELF: cfg.eval_pairs_per_mode, MODE_CROSS: cfg.eval_pairs_per_mode,
                   MODE_SEMISELF: cfg.eval_pairs_per_mode}
    eval_set = build_pair_set(emb_a[eval_pool], emb_b[eval_pool], eval_counts,
                              stream(seed, "mirror/pairs/eval"))
    acc = eval_pairs(gate, eval_set)
    # self and cross come first: the self-vs-cross set is a view of them
    base_rows = slice(0, 2 * cfg.eval_pairs_per_mode)
    base = eval_pairs(gate, PairSet(eval_set.left[base_rows], eval_set.right[base_rows],
                                    eval_set.modes[base_rows]))

    report = MirrorCnnReport(seed=seed)
    report.test_error_a = err_a
    report.test_error_b = err_b
    report.self_accuracy = acc[MODE_SELF]
    report.cross_accuracy = acc[MODE_CROSS]
    report.self_vs_cross_accuracy = base["overall"]
    report.semiself_accuracy = acc[MODE_SEMISELF]
    report.train_counts = train_counts
    report.eval_counts = eval_counts
    report.extras = {
        "net_a_checksum": net_a.params.checksum(),
        "net_b_checksum": net_b.params.checksum(),
        "embedding_dim": int(emb_a.shape[1]),
        "train_pool_size": int(train_pool.size),
        "eval_pool_size": int(eval_pool.size),
    }
    report.wall_clock_s = time.perf_counter() - started
    return report
