"""Embedding mirror test: pair construction, the pair classifier, and the
multi-seed semi-self invariant that is the experiment's whole point."""

import statistics

import numpy as np
import pytest

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
    build_pairs,
    eval_pairs,
    run_mirror_experiment,
    train_pair_gate,
)
from sabotagebench.models import ModelConfig

from conftest import TINY_MODEL


def toy_tables(rng, n=40, dim=8):
    return rng.normal(size=(n, dim)), rng.normal(size=(n, dim)) + 3.0


class TestPairSet:
    def test_counts_targets_features(self, rng):
        emb_a, emb_b = toy_tables(rng)
        pairs = PairSet.merge(
            build_pairs(emb_a, emb_b, MODE_SELF, rng, 5),
            build_pairs(emb_a, emb_b, MODE_CROSS, rng, 7),
            build_pairs(emb_a, emb_b, MODE_SEMISELF, rng, 3),
        )
        assert pairs.counts == {"self": 5, "cross": 7, "semiself": 3}
        assert pairs.count == 15
        np.testing.assert_array_equal(
            pairs.targets(), [1.0] * 5 + [0.0] * 7 + [1.0] * 3
        )
        assert pairs.features().shape == (15, 16)

    def test_shape_validation(self, rng):
        left = rng.normal(size=(4, 8))
        with pytest.raises(ShapeError, match="halves disagree"):
            PairSet(left, rng.normal(size=(4, 6)), np.array(["self"] * 4))
        with pytest.raises(ShapeError, match="count, dim"):
            PairSet(left[0], left[0], np.array(["self"]))
        with pytest.raises(ShapeError, match="modes length"):
            PairSet(left, left.copy(), np.array(["self"] * 3))

    def test_save_load_round_trip(self, tmp_path, rng):
        emb_a, emb_b = toy_tables(rng)
        emb_a = emb_a.astype(np.float32)
        emb_b = emb_b.astype(np.float32)
        pairs = PairSet.merge(
            build_pairs(emb_a, emb_b, MODE_SELF, rng, 4),
            build_pairs(emb_a, emb_b, MODE_SEMISELF, rng, 4),
        )
        path = tmp_path / "pairs.ckpt"
        pairs.save(path)
        loaded = PairSet.load(path)
        np.testing.assert_array_equal(loaded.left, pairs.left)
        np.testing.assert_array_equal(loaded.right, pairs.right)
        assert list(loaded.modes) == list(pairs.modes)


class TestBuildPairs:
    def test_self_right_equals_left(self, rng):
        emb_a, emb_b = toy_tables(rng)
        pairs = build_pairs(emb_a, emb_b, MODE_SELF, rng, 20)
        np.testing.assert_array_equal(pairs.left, pairs.right)
        # and every row comes from table A
        rows = {tuple(r) for r in emb_a}
        assert all(tuple(r) in rows for r in pairs.left)

    def test_self_right_is_a_copy(self, rng):
        emb_a, emb_b = toy_tables(rng)
        pairs = build_pairs(emb_a, emb_b, MODE_SELF, rng, 5)
        pairs.right[0, 0] += 1.0
        assert pairs.left[0, 0] != pairs.right[0, 0]

    def test_semiself_splices_halves(self, rng):
        emb_a, emb_b = toy_tables(rng)
        pairs = build_pairs(emb_a, emb_b, MODE_SEMISELF, rng, 25)
        np.testing.assert_array_equal(pairs.right[:, :4], pairs.left[:, :4])
        b_rows = {tuple(r) for r in emb_b[:, 4:]}
        assert all(tuple(r) in b_rows for r in pairs.right[:, 4:])
        # table B sits at +3, so spliced halves are far from the left halves
        assert not np.allclose(pairs.right[:, 4:], pairs.left[:, 4:])

    def test_cross_draws_b_side_independently(self, rng):
        emb_a, emb_b = toy_tables(rng)
        pairs = build_pairs(emb_a, emb_b, MODE_CROSS, rng, 30)
        b_rows = {tuple(r) for r in emb_b}
        assert all(tuple(r) in b_rows for r in pairs.right)

    def test_deterministic_per_rng_seed(self, rng):
        emb_a, emb_b = toy_tables(rng)
        one = build_pairs(emb_a, emb_b, MODE_CROSS, np.random.default_rng(5), 10)
        two = build_pairs(emb_a, emb_b, MODE_CROSS, np.random.default_rng(5), 10)
        np.testing.assert_array_equal(one.right, two.right)

    def test_validation(self, rng):
        emb_a, emb_b = toy_tables(rng)
        with pytest.raises(ValidationError, match="unknown pair mode"):
            build_pairs(emb_a, emb_b, "twin", rng, 5)
        with pytest.raises(ShapeError, match="dims differ"):
            build_pairs(emb_a, emb_b[:, :4], MODE_CROSS, rng, 5)
        with pytest.raises(ValidationError, match="nonempty"):
            build_pairs(emb_a[:0], emb_b, MODE_CROSS, rng, 5)
        with pytest.raises(ValidationError, match="count"):
            build_pairs(emb_a, emb_b, MODE_CROSS, rng, 0)


class TestBuildPairSet:
    """One table per side, filled mode by mode: the same draws and row bytes
    as merging one build_pairs set per mode."""

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
        pair_rng = np.random.default_rng(3)
        merged = PairSet.merge(
            *(build_pairs(emb_a, emb_b, m, pair_rng, n) for m, n in counts.items())
        )
        filled = build_pair_set(emb_a, emb_b, counts, np.random.default_rng(3))
        for name in ("left", "right"):
            new, old = getattr(filled, name), getattr(merged, name)
            assert new.dtype == old.dtype and new.tobytes() == old.tobytes(), name
        assert filled.modes.dtype == merged.modes.dtype
        assert list(filled.modes) == list(merged.modes)

    def test_validation(self, rng):
        emb_a, emb_b = toy_tables(rng)
        with pytest.raises(ValidationError, match="count"):
            build_pair_set(emb_a, emb_b, {MODE_SELF: 2, MODE_CROSS: 0}, rng)
        with pytest.raises(ValidationError, match="count"):
            build_pair_set(emb_a, emb_b, {}, rng)
        with pytest.raises(ValidationError, match="unknown pair mode"):
            build_pair_set(emb_a, emb_b, {"twin": 2}, rng)
        with pytest.raises(ShapeError, match="dims differ"):
            build_pair_set(emb_a, emb_b[:, :4], {MODE_SELF: 2}, rng)
        with pytest.raises(ValidationError, match="dtype"):
            build_pair_set(emb_a, emb_b.astype(np.float32), {MODE_SELF: 2}, rng)


class TestPairGate:
    def test_requires_balanced_self_cross(self, rng):
        emb_a, emb_b = toy_tables(rng)
        unbalanced = PairSet.merge(
            build_pairs(emb_a, emb_b, MODE_SELF, rng, 4),
            build_pairs(emb_a, emb_b, MODE_CROSS, rng, 6),
        )
        with pytest.raises(ValidationError, match="balanced"):
            train_pair_gate(unbalanced, seed=0)
        semis = PairSet.merge(
            build_pairs(emb_a, emb_b, MODE_SELF, rng, 4),
            build_pairs(emb_a, emb_b, MODE_SEMISELF, rng, 4),
        )
        with pytest.raises(ValidationError, match="exactly self and cross"):
            train_pair_gate(semis, seed=0)

    def test_boundary_fraction_validation(self, rng):
        emb_a, emb_b = toy_tables(rng)
        pairs = PairSet.merge(
            build_pairs(emb_a, emb_b, MODE_SELF, rng, 4),
            build_pairs(emb_a, emb_b, MODE_CROSS, rng, 4),
        )
        with pytest.raises(ValidationError, match="boundary_fraction"):
            train_pair_gate(pairs, seed=0, boundary_fraction=1.0)

    def test_separates_toy_tables(self, rng):
        # tables A and B are 3 sigma apart, so this is trivially learnable
        emb_a, emb_b = toy_tables(rng, n=120)
        train = PairSet.merge(
            build_pairs(emb_a, emb_b, MODE_SELF, rng, 200),
            build_pairs(emb_a, emb_b, MODE_CROSS, rng, 200),
        )
        gate = train_pair_gate(train, seed=0, hidden=16, epochs=5)
        held = PairSet.merge(
            build_pairs(emb_a, emb_b, MODE_SELF, rng, 100),
            build_pairs(emb_a, emb_b, MODE_CROSS, rng, 100),
        )
        acc = eval_pairs(gate, held)
        assert acc["overall"] >= 0.95
        assert set(acc) == {"overall", "self", "cross"}

    def test_gate_training_is_deterministic(self, rng):
        emb_a, emb_b = toy_tables(rng)
        pairs = PairSet.merge(
            build_pairs(emb_a, emb_b, MODE_SELF, rng, 16),
            build_pairs(emb_a, emb_b, MODE_CROSS, rng, 16),
        )
        one = train_pair_gate(pairs, seed=3, hidden=8, epochs=2)
        two = train_pair_gate(pairs, seed=3, hidden=8, epochs=2)
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
        report = MirrorCnnReport(seed=1)
        assert set(report.to_json_dict()) == {
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

    def test_degenerate_pool_split_rejected(self):
        train = synthetic_mnist_set(4, seed=30, image_size=8)
        test = synthetic_mnist_set(1, seed=31, image_size=8)
        cfg = MirrorCnnConfig(subset_size=1, train_pairs_per_mode=1, eval_pairs_per_mode=1)
        with pytest.raises(ValidationError, match="pool split degenerate"):
            run_mirror_experiment(cfg, ModelConfig(**TINY_MODEL, image_size=8), 0, train, test)


@pytest.mark.slow
class TestMirrorInvariant:
    def test_semiself_reads_as_self_across_seeds(self):
        train = synthetic_mnist_set(4000, seed=21)
        test = synthetic_mnist_set(1000, seed=22)
        cfg = MirrorCnnConfig(
            subset_size=1500, train_pairs_per_mode=800, eval_pairs_per_mode=400
        )
        semis = []
        for seed in (5, 6, 7, 8):
            report = run_mirror_experiment(cfg, ModelConfig(), seed, train, test)
            assert report.self_vs_cross_accuracy >= 0.99
            assert report.self_accuracy >= 0.99
            assert report.cross_accuracy >= 0.99
            assert report.eval_counts == {"self": 400, "cross": 400, "semiself": 400}
            semis.append(report.semiself_accuracy)
        spread = statistics.pstdev(semis)
        assert statistics.mean(semis) - 3 * spread > 0.5
