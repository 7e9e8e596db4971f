"""Embedding mirror test: pair construction, the pair classifier, and the
multi-seed semi-self invariant that is the experiment's whole point.

Pairs are row indices into one embedding table; their classifier input,
`PairSet.features`, must give the bytes of the copied left/right tables
kept in `oracle_pairs`, from the same draws."""

import dataclasses
import statistics
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_pairs as oracle
from oracle_table import pair_table
from sabotagebench import mirror_cnn
from sabotagebench.config import PipelineConfig
from sabotagebench.dataset import synthetic_mnist_set
from sabotagebench.errors import ShapeError, ValidationError
from sabotagebench.mirror_cnn import (
    MODE_CROSS,
    MODE_SELF,
    MODE_SEMISELF,
    MirrorCnnConfig,
    MirrorCnnReport,
    PairSet,
    build_pair_set,
    eval_pairs,
    run_mirror_experiment,
    train_pair_gate,
)
from sabotagebench.models import ModelConfig, SimpleCNN, extract_embeddings
from sabotagebench.training import _plain_test_error

from conftest import TINY_MODEL


def toy_tables(rng, n=40, dim=8):
    return rng.normal(size=(n, dim)), rng.normal(size=(n, dim)) + 3.0


def make_pairs(emb_a, emb_b, counts, rng, pool=None) -> PairSet:
    pool = np.arange(emb_a.shape[0]) if pool is None else pool
    return build_pair_set(pair_table(emb_a, emb_b), pool, counts, rng)


def sides(pairs: PairSet):
    """(left, right) embeddings of every pair."""
    features = pairs.features()
    dim = features.shape[1] // 2
    return features[:, :dim], features[:, dim:]


class TestPairSet:
    def test_counts_targets_features(self, rng):
        emb_a, emb_b = toy_tables(rng)
        pairs = make_pairs(emb_a, emb_b, {MODE_SELF: 5, MODE_CROSS: 7, MODE_SEMISELF: 3}, rng)
        assert pairs.counts == {"self": 5, "cross": 7, "semiself": 3}
        assert pairs.count == 15
        np.testing.assert_array_equal(
            pairs.targets(), [1.0] * 5 + [0.0] * 7 + [1.0] * 3
        )
        assert pairs.features().shape == (15, 16)

    def test_shape_validation(self, rng):
        table = rng.normal(size=(4, 8))
        rows = np.zeros((4, 2), dtype=np.intp)
        modes = np.array(["self"] * 4)
        with pytest.raises(ShapeError, match=r"rows must be \[count, 2\]"):
            PairSet(table, rows[:, :1], modes)
        with pytest.raises(ShapeError, match="rows, dim"):
            PairSet(table[0], rows, modes)
        with pytest.raises(ShapeError, match="modes length"):
            PairSet(table, rows, modes[:3])
        with pytest.raises(ValidationError, match="index the 4 table rows"):
            PairSet(table, rows + 4, modes)


class TestBuildPairs:
    def test_self_right_equals_left(self, rng):
        emb_a, emb_b = toy_tables(rng)
        left, right = sides(make_pairs(emb_a, emb_b, {MODE_SELF: 20}, rng))
        np.testing.assert_array_equal(left, right)
        # and every row comes from table A
        rows = {tuple(r) for r in emb_a}
        assert all(tuple(r) in rows for r in left)

    def test_self_right_is_a_copy(self, rng):
        emb_a, emb_b = toy_tables(rng)
        pairs = make_pairs(emb_a, emb_b, {MODE_SELF: 5}, rng)
        left, right = sides(pairs)
        right[0, 0] += 1.0
        assert left[0, 0] != right[0, 0]
        # the features are a copy of the table rows, not a view of them
        assert pairs.features()[0, 0] == pairs.features()[0, 8] == left[0, 0]

    def test_semiself_splices_halves(self, rng):
        emb_a, emb_b = toy_tables(rng)
        left, right = sides(make_pairs(emb_a, emb_b, {MODE_SEMISELF: 25}, rng))
        np.testing.assert_array_equal(right[:, :4], left[:, :4])
        b_rows = {tuple(r) for r in emb_b[:, 4:]}
        assert all(tuple(r) in b_rows for r in right[:, 4:])
        # table B sits at +3, so spliced halves are far from the left halves
        assert not np.allclose(right[:, 4:], left[:, 4:])

    def test_cross_draws_b_side_independently(self, rng):
        emb_a, emb_b = toy_tables(rng)
        left, right = sides(make_pairs(emb_a, emb_b, {MODE_CROSS: 30}, rng))
        b_rows = {tuple(r) for r in emb_b}
        assert all(tuple(r) in b_rows for r in right)
        # drawn apart from the A side: the two sides embed different inputs
        a_row = {tuple(r): k for k, r in enumerate(emb_a)}
        b_row = {tuple(r): k for k, r in enumerate(emb_b)}
        assert any(a_row[tuple(x)] != b_row[tuple(y)] for x, y in zip(left, right))

    def test_deterministic_per_rng_seed(self, rng):
        emb_a, emb_b = toy_tables(rng)
        one = make_pairs(emb_a, emb_b, {MODE_CROSS: 10}, np.random.default_rng(5))
        two = make_pairs(emb_a, emb_b, {MODE_CROSS: 10}, np.random.default_rng(5))
        assert one.features().tobytes() == two.features().tobytes()

    def test_validation(self, rng):
        emb_a, emb_b = toy_tables(rng)
        with pytest.raises(ValidationError, match="unknown pair mode"):
            make_pairs(emb_a, emb_b, {"twin": 5}, rng)
        with pytest.raises(ShapeError, match="dims differ"):
            make_pairs(emb_a, emb_b[:, :4], {MODE_CROSS: 5}, rng)
        with pytest.raises(ValidationError, match="nonempty"):
            make_pairs(emb_a[:0], emb_b, {MODE_CROSS: 5}, rng)
        with pytest.raises(ValidationError, match="count"):
            make_pairs(emb_a, emb_b, {MODE_CROSS: 0}, rng)


MODES = (MODE_SELF, MODE_CROSS, MODE_SEMISELF)


def oracle_pairs(emb_a, emb_b, counts, rng, pool):
    """The copied left/right tables of the same draws."""
    a, b = emb_a[pool], emb_b[pool]
    return oracle.PairSet.merge(*(oracle.build_pairs(a, b, m, rng, n) for m, n in counts.items()))


@st.composite
def selections(draw, count):
    """Pair rows as the trainers and callers pass them: index arrays with
    duplicates and negatives, empty ones, and slices of any step."""
    kind = draw(st.sampled_from(["index", "slice"]))
    if kind == "index":
        return np.array(draw(st.lists(st.integers(-count, count - 1), max_size=2 * count)),
                        dtype=np.intp)
    bound = st.none() | st.integers(-count - 3, count + 3)
    step = draw(st.none() | st.integers(-4, 4).filter(lambda k: k != 0))
    return slice(draw(bound), draw(bound), step)


class TestBuildPairSet:
    """Row indices into one table: the same draws and feature bytes as the
    copied tables of one oracle build_pairs set per mode, merged."""

    @pytest.mark.parametrize(
        "counts",
        [
            {MODE_SELF: 6, MODE_CROSS: 6},
            {MODE_SELF: 3, MODE_CROSS: 5, MODE_SEMISELF: 4},
            {MODE_SEMISELF: 2, MODE_SELF: 1},
            {MODE_CROSS: 9},
        ],
    )
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_merge_of_build_pairs(self, rng, counts, dtype):
        emb_a, emb_b = (table.astype(dtype) for table in toy_tables(rng, dim=9))
        pool = np.arange(emb_a.shape[0])
        old_rng, new_rng = np.random.default_rng(3), np.random.default_rng(3)
        merged = oracle_pairs(emb_a, emb_b, counts, old_rng, pool)
        indexed = make_pairs(emb_a, emb_b, counts, new_rng)
        new, old = indexed.features(), np.concatenate([merged.left, merged.right], axis=1)
        assert new.dtype == old.dtype and new.tobytes() == old.tobytes()
        assert indexed.modes.dtype == merged.modes.dtype
        assert list(indexed.modes) == list(merged.modes)
        assert new_rng.bit_generator.state == old_rng.bit_generator.state

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_features_match_oracle(self, data):
        dtype = data.draw(st.sampled_from([np.float32, np.float64]))
        dim = data.draw(st.integers(1, 9))
        images = data.draw(st.integers(1, 12))
        modes = data.draw(st.permutations(MODES))[: data.draw(st.integers(1, 3))]
        counts = {m: data.draw(st.integers(1, 20)) for m in modes}
        pool = np.array(data.draw(st.lists(st.integers(0, images - 1), min_size=1,
                                           max_size=images)), dtype=np.intp)
        tables = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        emb_a = tables.normal(size=(images, dim)).astype(dtype)
        emb_b = tables.normal(size=(images, dim)).astype(dtype)
        seed = data.draw(st.integers(0, 2**32 - 1))
        old_rng, new_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        merged = oracle_pairs(emb_a, emb_b, counts, old_rng, pool)
        indexed = make_pairs(emb_a, emb_b, counts, new_rng, pool)
        assert new_rng.bit_generator.state == old_rng.bit_generator.state
        assert list(indexed.modes) == list(merged.modes)
        full = np.concatenate([merged.left, merged.right], axis=1)
        for rows in (slice(None), data.draw(selections(indexed.count))):
            got, expected = indexed.features(rows), full[rows]
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()

    def test_out_of_range_rows_raise(self, rng):
        emb_a, emb_b = toy_tables(rng)
        pairs = make_pairs(emb_a, emb_b, {MODE_SELF: 3}, rng)
        with pytest.raises(IndexError):
            pairs.features(np.array([3]))

    def test_pairs_hold_indices_not_floats(self):
        # 4000 pairs of 6272-wide embeddings would copy 2 x 100 MB of floats
        table = np.zeros((1000, 6272), dtype=np.float32)
        counts = {MODE_SELF: 2000, MODE_CROSS: 2000}
        tracemalloc.start()
        try:
            pairs = build_pair_set(table, np.arange(500), counts, np.random.default_rng(0))
            built = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            pairs.features(np.arange(64))
            batch = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert built < 100 * pairs.count, built
        # one batch's features, not a copy of the table or of a column slice
        assert batch < 2 * 64 * 2 * 6272 * 4, batch

    def test_validation(self, rng):
        emb_a, emb_b = toy_tables(rng)
        with pytest.raises(ValidationError, match="count"):
            make_pairs(emb_a, emb_b, {MODE_SELF: 2, MODE_CROSS: 0}, rng)
        with pytest.raises(ValidationError, match="count"):
            make_pairs(emb_a, emb_b, {}, rng)
        with pytest.raises(ValidationError, match="unknown pair mode"):
            make_pairs(emb_a, emb_b, {"twin": 2}, rng)
        with pytest.raises(ShapeError, match="dims differ"):
            make_pairs(emb_a, emb_b[:, :4], {MODE_SELF: 2}, rng)
        with pytest.raises(ValidationError, match="dtype"):
            make_pairs(emb_a, emb_b.astype(np.float32), {MODE_SELF: 2}, rng)
        with pytest.raises(ShapeError, match="same inputs"):
            make_pairs(emb_a, emb_b[:30], {MODE_SELF: 2}, rng)
        table = pair_table(emb_a, emb_b)
        with pytest.raises(ValidationError, match="nonempty"):
            build_pair_set(table, np.arange(0), {MODE_SELF: 2}, rng)
        with pytest.raises(ValidationError, match="pool indices"):
            build_pair_set(table, np.array([0, 40]), {MODE_SELF: 2}, rng)
        with pytest.raises(ShapeError, match="2T, dim"):
            build_pair_set(table[1:], np.arange(3), {MODE_SELF: 2}, rng)


class TestPairGate:
    def test_requires_balanced_self_cross(self, rng):
        emb_a, emb_b = toy_tables(rng)
        unbalanced = make_pairs(emb_a, emb_b, {MODE_SELF: 4, MODE_CROSS: 6}, rng)
        with pytest.raises(ValidationError, match="balanced"):
            train_pair_gate(PipelineConfig(), unbalanced)
        semis = make_pairs(emb_a, emb_b, {MODE_SELF: 4, MODE_SEMISELF: 4}, rng)
        with pytest.raises(ValidationError, match="exactly self and cross"):
            train_pair_gate(PipelineConfig(), semis)

    def test_boundary_fraction_validation(self):
        # checked where the experiment's config is built, before any net trains
        with pytest.raises(ValidationError, match="boundary_fraction"):
            MirrorCnnConfig(gate_boundary_fraction=1.0)
        with pytest.raises(ValidationError, match="boundary_fraction"):
            MirrorCnnConfig(gate_boundary_fraction=-0.1)
        assert MirrorCnnConfig(gate_boundary_fraction=None).gate_boundary_fraction is None

    def test_separates_toy_tables(self, rng):
        # tables A and B are 3 sigma apart, so this is trivially learnable
        emb_a, emb_b = toy_tables(rng, n=120)
        train = make_pairs(emb_a, emb_b, {MODE_SELF: 200, MODE_CROSS: 200}, rng)
        gate = train_pair_gate(PipelineConfig(mirror_cnn=MirrorCnnConfig(
            gate_hidden=16, gate_epochs=5)), train)
        held = make_pairs(emb_a, emb_b, {MODE_SELF: 100, MODE_CROSS: 100}, rng)
        acc = eval_pairs(gate, held)
        assert acc["overall"] >= 0.95
        assert set(acc) == {"overall", "self", "cross"}

    def test_gate_training_is_deterministic(self, rng):
        emb_a, emb_b = toy_tables(rng)
        pairs = make_pairs(emb_a, emb_b, {MODE_SELF: 16, MODE_CROSS: 16}, rng)
        cfg = PipelineConfig(seed=3, mirror_cnn=MirrorCnnConfig(gate_hidden=8, gate_epochs=2))
        one = train_pair_gate(cfg, pairs)
        two = train_pair_gate(cfg, pairs)
        assert one.params.checksum() == two.params.checksum()


class TestConfigAndReport:
    def test_config_validation(self):
        with pytest.raises(ValidationError, match="subset_size"):
            MirrorCnnConfig(subset_size=0)
        with pytest.raises(ValidationError, match="train_pool_fraction"):
            MirrorCnnConfig(train_pool_fraction=1.0)
        with pytest.raises(ValidationError, match="pair counts"):
            MirrorCnnConfig(eval_pairs_per_mode=0)

    def test_report_json_keys(self):
        # the report is written as `asdict(report)`, so its fields are the keys
        report = MirrorCnnReport(
            seed=1, test_error_a=0.5, test_error_b=0.5, self_accuracy=1.0, cross_accuracy=1.0,
            self_vs_cross_accuracy=1.0, semiself_accuracy=0.5, train_counts={},
            eval_counts={}, extras={})
        assert set(dataclasses.asdict(report)) == {
            "seed",
            "test_error_a",
            "test_error_b",
            "self_accuracy",
            "cross_accuracy",
            "self_vs_cross_accuracy",
            "semiself_accuracy",
            "train_counts",
            "eval_counts",
            "extras",
        }

    def test_report_carries_the_pair_gate_checksum(self):
        # a change to the gate's weights shows even where no decision flips
        train = synthetic_mnist_set(120, seed=30, image_size=8)
        test = synthetic_mnist_set(40, seed=31, image_size=8)
        model = ModelConfig(**TINY_MODEL, image_size=8)
        extras = [
            run_mirror_experiment(PipelineConfig(model=model, mirror_cnn=MirrorCnnConfig(
                subset_size=50, train_pairs_per_mode=20, eval_pairs_per_mode=10,
                gate_learning_rate=lr)), train, test).extras
            for lr in (0.05, 0.06)
        ]
        assert len(extras[0]["pair_gate_checksum"]) == 64
        assert extras[0]["pair_gate_checksum"] != extras[1]["pair_gate_checksum"]
        assert extras[0]["net_a_checksum"] == extras[1]["net_a_checksum"]
        assert extras[0]["net_b_checksum"] == extras[1]["net_b_checksum"]

    def test_degenerate_pool_split_rejected(self):
        train = synthetic_mnist_set(4, seed=30, image_size=8)
        test = synthetic_mnist_set(1, seed=31, image_size=8)
        cfg = PipelineConfig(model=ModelConfig(**TINY_MODEL, image_size=8),
                             mirror_cnn=MirrorCnnConfig(subset_size=1, train_pairs_per_mode=1,
                                                        eval_pairs_per_mode=1))
        with pytest.raises(ValidationError, match="pool split degenerate"):
            run_mirror_experiment(cfg, train, test)


class TestTrunkPasses:
    def test_each_net_runs_its_trunk_over_the_test_set_once(self, monkeypatch):
        # the test error and the embeddings come from the same trunk pass;
        # every other trunk run is a training forward
        train = synthetic_mnist_set(120, seed=30, image_size=8)
        test = synthetic_mnist_set(40, seed=31, image_size=8)
        mirror = MirrorCnnConfig(subset_size=50, train_pairs_per_mode=20, eval_pairs_per_mode=10)
        cached, cacheless = [], []
        trunk = SimpleCNN._trunk

        def counted(self, x, keep_cols=True):
            (cached if keep_cols else cacheless).append(x.shape[0])
            return trunk(self, x, keep_cols)

        monkeypatch.setattr(SimpleCNN, "_trunk", counted)
        run_mirror_experiment(PipelineConfig(model=ModelConfig(**TINY_MODEL, image_size=8),
                                             mirror_cnn=mirror), train, test)
        assert cacheless == [test.count, test.count]
        assert sum(cached) == 2 * mirror.epochs * mirror.subset_size


class TestPairTable:
    def test_filled_in_place_equals_the_concatenated_embeddings(self, monkeypatch):
        # stock shapes; 130 test images end each net's pass in a partial piece
        train = synthetic_mnist_set(128, seed=30)
        test = synthetic_mnist_set(130, seed=31)
        cfg = PipelineConfig(mirror_cnn=MirrorCnnConfig(
            subset_size=64, train_pairs_per_mode=8, eval_pairs_per_mode=8, gate_hidden=4,
            gate_epochs=1))
        nets, tables = [], []
        train_partial, build = mirror_cnn.train_partial, mirror_cnn.build_pair_set

        def trained(*args):
            nets.append(train_partial(*args))
            return nets[-1]

        def paired(table, *args):
            tables.append(table)
            return build(table, *args)

        monkeypatch.setattr(mirror_cnn, "train_partial", trained)
        monkeypatch.setattr(mirror_cnn, "build_pair_set", paired)
        report = run_mirror_experiment(cfg, train, test)
        expected = pair_table(*(extract_embeddings(net, test.images) for net in nets))
        assert tables[0] is tables[1]
        assert tables[0].dtype == expected.dtype and tables[0].tobytes() == expected.tobytes()
        assert [report.test_error_a, report.test_error_b] == [
            _plain_test_error(net, test) for net in nets
        ]


@pytest.mark.slow
class TestMirrorInvariant:
    def test_semiself_reads_as_self_across_seeds(self):
        train = synthetic_mnist_set(4000, seed=21)
        test = synthetic_mnist_set(1000, seed=22)
        mirror = MirrorCnnConfig(
            subset_size=1500, train_pairs_per_mode=800, eval_pairs_per_mode=400
        )
        semis = []
        for seed in (5, 6, 7, 8):
            report = run_mirror_experiment(PipelineConfig(seed=seed, mirror_cnn=mirror),
                                           train, test)
            assert report.self_vs_cross_accuracy >= 0.99
            assert report.self_accuracy >= 0.99
            assert report.cross_accuracy >= 0.99
            assert report.eval_counts == {"self": 400, "cross": 400, "semiself": 400}
            semis.append(report.semiself_accuracy)
        spread = statistics.pstdev(semis)
        assert statistics.mean(semis) - 3 * spread > 0.5
