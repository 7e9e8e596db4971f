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

A pair stores no embedding floats: it is two row indices into one table of
both nets' test-set embeddings (A's rows, then B's), and the classifier's
input is gathered from that table batch by batch.
"""

from dataclasses import asdict, dataclass, field

import numpy as np

from .dataset import MnistSet, disjoint_subsets
from .errors import ShapeError, ValidationError
from .models import GateConfig, MlpBinary, ModelConfig, SimpleCNN, extract_embeddings
from .nncore import bce_with_logits, bce_with_logits_backward, sgd_step
from .rng import stream

MODE_SELF = "self"
MODE_CROSS = "cross"
MODE_SEMISELF = "semiself"
_TARGETS = {MODE_SELF: 1.0, MODE_CROSS: 0.0, MODE_SEMISELF: 1.0}


@dataclass
class PairSet:
    """Embedding pairs as row indices into one table, with a mode per pair.

    `rows[k]` holds the `table` rows of pair k's left and right embedding.
    A semi-self pair's right embedding starts with the left one's first
    `dim // 2` floats."""

    table: np.ndarray
    rows: np.ndarray
    modes: np.ndarray

    def __post_init__(self) -> None:
        if self.table.ndim != 2:
            raise ShapeError(f"pair table must be [rows, dim], got {self.table.shape}")
        if self.rows.ndim != 2 or self.rows.shape[1] != 2:
            raise ShapeError(f"pair rows must be [count, 2], got {self.rows.shape}")
        if self.rows.size and not 0 <= self.rows.min() <= self.rows.max() < len(self.table):
            raise ValidationError(f"pair rows must index the {len(self.table)} table rows")
        if self.modes.shape != (self.count,):
            raise ShapeError(
                f"modes length {self.modes.shape} does not match {self.count} pairs"
            )

    @property
    def count(self) -> int:
        return self.rows.shape[0]

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
        The trainers build it batch by batch, never for the whole set."""
        rows = np.arange(self.count)[rows]  # bounds-checked, non-negative
        dim = self.table.shape[1]
        out = np.empty((rows.size, 2 * dim), dtype=self.table.dtype)
        # Viewed as [2 * rows, dim], the result is the left and right table
        # rows of each pair in turn: one gather from the whole table fills
        # it. (A non-contiguous `out` or source would make `take` copy it.)
        np.take(self.table, self.rows[rows].ravel(), axis=0,
                out=out.reshape(2 * rows.size, dim), mode="clip")
        spliced = np.flatnonzero(self.modes[rows] == MODE_SEMISELF)
        out[spliced, dim : dim + dim // 2] = out[spliced, : dim // 2]
        return out


def train_partial(subset: MnistSet, model_cfg: ModelConfig, seed: int, tag: str,
                  epochs: int = 1, batch_size: int = 64,
                  learning_rate: float = 0.01) -> SimpleCNN:
    """Train a fresh net briefly on one subset.

    The tag keeps the two nets' seed streams apart so they differ in both
    data and initialization."""
    from .training import RunReport, UnitWeights, _batches, fit

    net = SimpleCNN(model_cfg, stream(seed, f"mirror/init/{tag}"))

    def batches(epoch: int):
        shuffle = stream(seed, f"mirror/shuffle/{tag}/{epoch}")
        for idx in _batches(subset.count, batch_size, shuffle):
            yield subset.images[idx], subset.labels[idx], None

    fit(net, RunReport(method=f"mirror/{tag}", seed=seed), epochs, batches, UnitWeights(),
        learning_rate)
    return net


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


def build_pairs(pool: np.ndarray, b_offset: int, mode: str,
                rng: np.random.Generator, count: int) -> np.ndarray:
    """Table rows, [count, 2], of `count` pairs of one mode drawn from `pool`.

    Indices into `pool` are drawn with replacement. The left row is net A's
    `pool[i]`; the right row repeats it for self pairs, and is net B's
    `b_offset + pool[j]` for cross and semi-self pairs, with j drawn
    independently of i."""
    rows = np.empty((count, 2), dtype=np.intp)
    rows[:, 0] = pool[rng.integers(0, pool.size, size=count)]
    if mode == MODE_SELF:
        rows[:, 1] = rows[:, 0]
    else:
        rows[:, 1] = b_offset + pool[rng.integers(0, pool.size, size=count)]
    return rows


def build_pair_set(table: np.ndarray, pool: np.ndarray, counts: dict,
                   rng: np.random.Generator) -> PairSet:
    """Pairs of several modes, `counts[mode]` of each, in the dict's order.

    `table` is a `pair_table`: net A's embeddings of T inputs, then net
    B's. `pool` holds the inputs (0 <= pool < T) that the pairs draw from."""
    if table.ndim != 2 or table.shape[0] % 2:
        raise ShapeError(f"pair table must be [2T, dim], got {table.shape}")
    half = table.shape[0] // 2
    if pool.size == 0 or half == 0:
        raise ValidationError("embedding tables and pool must be nonempty")
    if not 0 <= pool.min() <= pool.max() < half:
        raise ValidationError(f"pool indices must lie in [0, {half})")
    if min(counts.values(), default=0) < 1:
        raise ValidationError(f"every pair count must be >= 1, got {counts}")
    for mode in counts:
        if mode not in _TARGETS:
            raise ValidationError(f"unknown pair mode {mode!r}")
    rows = np.concatenate([build_pairs(pool, half, m, rng, n) for m, n in counts.items()])
    modes = np.repeat(list(counts), list(counts.values()))
    return PairSet(table, rows, modes)


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
    targets = pairs.targets()
    gate = MlpBinary(GateConfig(2 * pairs.table.shape[1], hidden, dropout=0.0),
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
        # Score in chunks of a training batch, whose features reuse the heap
        # blocks that training freed (512-pair chunks needed 25.7 MB each at
        # the stock shapes). The chunk is even, as the pair count is
        # (balanced modes), so no chunk has 1 row: a 1-row GEMM runs through
        # GEMV, which rounds differently from the same row of a larger chunk.
        chunk = batch_size + batch_size % 2
        chunks = []
        for start in range(0, pairs.count, chunk):
            # index, not unpack: a cache bound to a name would hold this
            # chunk's features through the next
            logits = gate.forward(pairs.features(slice(start, start + chunk)), train=False)[1]
            chunks.append(logits)
        logits = np.concatenate(chunks)
        self_mean = logits[targets == 1.0].mean()
        cross_mean = logits[targets == 0.0].mean()
        boundary = cross_mean + boundary_fraction * (self_mean - cross_mean)
        gate.params["b2"].value -= np.float32(boundary)
    return gate


def eval_pairs(gate: MlpBinary, pairs: PairSet, batch_size: int = 256,
               joint: tuple[str, ...] = ()) -> dict:
    """Accuracy per mode (score >= 0.5 reads as self) plus overall; with
    `joint` modes, also "joint": the accuracy over those modes' pairs
    together, from the same scores."""
    scores = []
    for start in range(0, pairs.count, batch_size):
        scores.append(gate.forward(pairs.features(slice(start, start + batch_size)))[0])
    called_self = np.concatenate(scores) >= 0.5
    correct = called_self == (pairs.targets() == 1.0)
    out = {"overall": float(correct.mean())}
    for mode in np.unique(pairs.modes):
        out[str(mode)] = float(correct[pairs.modes == mode].mean())
    if joint:
        out["joint"] = float(correct[np.isin(pairs.modes, joint)].mean())
    return out


def pool_split(count: int, train_fraction: float) -> int:
    """How many of `count` test inputs (after a shuffle) feed the pair
    classifier's training pairs; the rest feed its evaluation pairs."""
    cut = int(round(count * train_fraction))
    if cut < 1 or cut >= count:
        raise ValidationError(f"pool split degenerate: {cut} train indices of {count}")
    return cut


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
        fraction = self.gate_boundary_fraction
        if fraction is not None and not 0 <= fraction < 1:
            raise ValidationError(
                f"gate_boundary_fraction must lie in [0, 1) or be None, got {fraction}"
            )


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
        """Deterministic report payload; timing lives in run metadata instead."""
        out = asdict(self)
        del out["wall_clock_s"]
        return out


def run_mirror_experiment(cfg: MirrorCnnConfig, model_cfg: ModelConfig, seed: int,
                          train_set: MnistSet, test_set: MnistSet) -> MirrorCnnReport:
    """Full embedding mirror test: partial nets, pair sets, classifier, eval.

    The pair classifier trains on pairs drawn from one slice of the test-set
    index pool and is evaluated on pairs from the remaining indices, so the
    two stages never see the same embedding row."""
    import time

    from .training import _plain_test_error

    started = time.perf_counter()
    sub_a, sub_b = disjoint_subsets(
        train_set, (cfg.subset_size, cfg.subset_size), stream(seed, "mirror/subsets")
    )
    net_a = train_partial(sub_a, model_cfg, seed, "A", cfg.epochs,
                          cfg.batch_size, cfg.learning_rate)
    net_b = train_partial(sub_b, model_cfg, seed, "B", cfg.epochs,
                          cfg.batch_size, cfg.learning_rate)

    # one trunk pass over the test set per net gives both its embeddings and
    # its test error (the head over the embeddings)
    emb_a = extract_embeddings(net_a, test_set.images)
    err_a = _plain_test_error(net_a, test_set, emb_a)
    emb_b = extract_embeddings(net_b, test_set.images)
    err_b = _plain_test_error(net_b, test_set, emb_b)
    checksum_a, checksum_b = net_a.params.checksum(), net_b.params.checksum()
    del net_a, net_b  # the pair gate trains without the nets' 12.8 MB
    table = pair_table(emb_a, emb_b)
    del emb_a, emb_b  # the table holds copies; the pair gate trains without these
    perm = stream(seed, "mirror/pools").permutation(test_set.count)
    cut = pool_split(test_set.count, cfg.train_pool_fraction)
    train_pool, eval_pool = perm[:cut], perm[cut:]

    train_pairs = build_pair_set(
        table, train_pool,
        {MODE_SELF: cfg.train_pairs_per_mode, MODE_CROSS: cfg.train_pairs_per_mode},
        stream(seed, "mirror/pairs"),
    )
    gate = train_pair_gate(train_pairs, seed, cfg.gate_hidden, cfg.gate_epochs,
                           cfg.batch_size, cfg.gate_learning_rate,
                           cfg.gate_boundary_fraction)
    eval_counts = {MODE_SELF: cfg.eval_pairs_per_mode, MODE_CROSS: cfg.eval_pairs_per_mode,
                   MODE_SEMISELF: cfg.eval_pairs_per_mode}
    eval_set = build_pair_set(table, eval_pool, eval_counts,
                              stream(seed, "mirror/pairs/eval"))
    acc = eval_pairs(gate, eval_set, joint=(MODE_SELF, MODE_CROSS))

    report = MirrorCnnReport(seed=seed)
    report.test_error_a = err_a
    report.test_error_b = err_b
    report.self_accuracy = acc[MODE_SELF]
    report.cross_accuracy = acc[MODE_CROSS]
    report.self_vs_cross_accuracy = acc["joint"]
    report.semiself_accuracy = acc[MODE_SEMISELF]
    report.train_counts = train_pairs.counts
    report.eval_counts = eval_counts
    report.extras = {
        "net_a_checksum": checksum_a,
        "net_b_checksum": checksum_b,
        "embedding_dim": int(table.shape[1]),
        "train_pool_size": int(train_pool.size),
        "eval_pool_size": int(eval_pool.size),
    }
    report.wall_clock_s = time.perf_counter() - started
    return report
