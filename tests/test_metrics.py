"""Detection metrics and the Life* score."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sabotagebench.errors import ValidationError
from sabotagebench.metrics import (
    ConfusionCounts,
    accuracy_on_accepted,
    confusion,
    detection_metrics,
    lifestar,
    prf,
    separation_auc,
)

bits = st.lists(st.booleans(), min_size=1, max_size=20)


class TestConfusion:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_matches_per_sample_enumeration(self, data):
        flags = data.draw(bits)
        mask = data.draw(
            st.lists(st.booleans(), min_size=len(flags), max_size=len(flags))
        )
        counts = confusion(flags, mask)
        tp = fp = fn = tn = 0
        for f, m in zip(flags, mask):
            if f and m:
                tp += 1
            elif f:
                fp += 1
            elif m:
                fn += 1
            else:
                tn += 1
        assert (counts.tp, counts.fp, counts.fn, counts.tn) == (tp, fp, fn, tn)
        assert counts.tp + counts.fp + counts.fn + counts.tn == len(flags)

    def test_perfect_flags(self):
        mask = [True, False, True, False]
        counts = confusion(mask, mask)
        assert counts.fp == 0 and counts.fn == 0

    def test_all_flagged_at_base_rate(self):
        mask = [True] + [False] * 19
        counts = confusion([True] * 20, mask)
        p, r, _ = prf(counts)
        assert p == pytest.approx(0.05)
        assert r == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValidationError, match="lengths differ"):
            confusion([True, False], [True])

    def test_negative_counts_rejected(self):
        with pytest.raises(ValidationError, match="nonnegative"):
            ConfusionCounts(tp=-1, fp=0, fn=0, tn=0)


class TestPrf:
    def test_perfect(self):
        assert prf(ConfusionCounts(tp=5, fp=0, fn=0, tn=5)) == (1.0, 1.0, 1.0)

    def test_low_precision_full_recall(self):
        p, r, f1 = prf(ConfusionCounts(tp=1, fp=19, fn=0, tn=0))
        assert p == pytest.approx(0.05)
        assert r == 1.0
        assert f1 == pytest.approx(2 * 0.05 / 1.05)
        assert f1 == pytest.approx(0.0952, abs=5e-4)

    def test_zero_over_zero_conventions(self):
        p, r, f1 = prf(ConfusionCounts(tp=0, fp=0, fn=0, tn=4))
        assert (p, r, f1) == (0.0, 0.0, 0.0)
        p, r, f1 = prf(ConfusionCounts(tp=0, fp=0, fn=3, tn=4))
        assert p == 0.0 and r == 0.0 and f1 == 0.0

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_precision_times_flagged_is_tp(self, data):
        flags = data.draw(bits)
        mask = data.draw(
            st.lists(st.booleans(), min_size=len(flags), max_size=len(flags))
        )
        counts = confusion(flags, mask)
        p, _, _ = prf(counts)
        flagged = counts.tp + counts.fp
        assert p * flagged == pytest.approx(counts.tp, abs=1e-9)


class TestAccuracyOnAccepted:
    def test_empty_accepted_set(self):
        acc, empty = accuracy_on_accepted([1, 2], [1, 2], [False, False])
        assert acc == 0.0 and empty is True

    def test_rejected_samples_excluded(self):
        acc, empty = accuracy_on_accepted(
            [1, 9, 3, 9], [1, 2, 3, 4], [True, False, True, False]
        )
        assert acc == 1.0 and empty is False

    def test_partial(self):
        acc, _ = accuracy_on_accepted([1, 1, 1], [1, 0, 0], [True, True, True])
        assert acc == pytest.approx(1 / 3)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError, match="lengths differ"):
            accuracy_on_accepted([1], [1, 2], [True, True])


class TestDetectionMetrics:
    def test_assembles_block(self):
        flags = [True, True, False, False]
        mask = [True, False, False, False]
        block = detection_metrics(flags, mask, accuracy=0.9, accepted_empty=False)
        assert block.counts.tp == 1 and block.counts.fp == 1
        assert block.rejection_rate == pytest.approx(0.5)
        assert block.accuracy_on_accepted == 0.9
        d = block.to_dict()
        assert (d["tp"], d["fp"], d["fn"], d["tn"]) == (1, 1, 0, 2)
        assert set(d) == {
            "tp",
            "fp",
            "fn",
            "tn",
            "precision",
            "recall",
            "f1",
            "rejection_rate",
            "accuracy_on_accepted",
            "accepted_empty",
        }


class TestSeparationAuc:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_pairwise_oracle(self, data):
        # scores from a few levels, so ties are common
        scores = data.draw(st.lists(st.integers(0, 4).map(lambda v: v / 4),
                                    min_size=2, max_size=30))
        positive = data.draw(st.lists(st.booleans(), min_size=len(scores),
                                      max_size=len(scores)))
        pos = [s for s, p in zip(scores, positive) if p]
        neg = [s for s, p in zip(scores, positive) if not p]
        auc = separation_auc(np.array(scores, dtype=np.float32), positive)
        if not pos or not neg:
            assert auc is None
            return
        wins = sum((a > b) + 0.5 * (a == b) for a in pos for b in neg)
        assert auc == wins / (len(pos) * len(neg))

    def test_orientation(self):
        assert separation_auc([0.9, 0.8, 0.1, 0.2], [True, True, False, False]) == 1.0
        assert separation_auc([0.1, 0.2, 0.9, 0.8], [True, True, False, False]) == 0.0
        assert separation_auc([0.5] * 4, [True, False, True, False]) == 0.5


class TestLifeStarScore:
    def test_worked_example(self):
        # self_maint = F1 = 0.9; self_recog = (1.0 - 0.5) / 0.5 = 1.0
        assert lifestar((0.5, 0.5), 0.9, 1.0) == {
            "alpha": 0.5, "gamma": 0.5,
            "score": pytest.approx(0.95), "self_maint": 0.9, "self_recog": 1.0,
        }

    def test_unit_and_zero(self):
        assert lifestar((0.5, 0.5), 1.0, 1.0)["score"] == 1.0
        assert lifestar((0.5, 0.5), 0.0, 0.5)["score"] == 0.0

    def test_weighted_sum_of_the_two_terms(self):
        assert lifestar((0.6, 0.4), 0.5, 0.75)["score"] == pytest.approx(0.5)

    def test_linear_in_each_component(self):
        def score(f1, pair_accuracy):
            return lifestar((0.5, 0.2), f1, pair_accuracy)["score"]

        base = score(0.2, 0.6)
        assert score(0.7, 0.6) - base == pytest.approx(0.5 * 0.5)
        # self_recog moves by 2x the accuracy above chance
        assert score(0.2, 0.85) - base == pytest.approx(0.2 * 0.5)

    def test_validation(self):
        with pytest.raises(ValidationError, match="F1"):
            lifestar((0.5, 0.5), 1.5, 0.5)
        with pytest.raises(ValidationError, match="pair accuracy"):
            lifestar((0.5, 0.5), 0.5, 1.01)

    def test_score_keeps_the_component_formula_bit_for_bit(self):
        # the score has the bits of the three-term sum it replaced,
        # alpha*SelfMaint + beta*EmergComp + gamma*SelfRecog summed left to
        # right with beta and EmergComp 0.0, at every weight a config can
        # hold (it stores -0.0 as 0.0)
        grid = (0.0, 0.1, 1 / 3, 0.5, 0.7, 1.0, 2.5)
        values = (0.0, 0.1, 0.3, 0.5, 0.55, 2 / 3, 0.75, 0.9, 1.0)
        for alpha, gamma in itertools.product(grid, grid):
            for f1, pair_accuracy in itertools.product(values, values):
                m = float(f1)
                r = float(min(max((pair_accuracy - 0.5) / 0.5, 0.0), 1.0))
                got = lifestar((alpha, gamma), f1, pair_accuracy)
                assert got["score"].hex() == (alpha * m + 0.0 * 0.0 + gamma * r).hex()
                assert (got["self_maint"], got["self_recog"]) == (m, r)


class TestComponentMappings:
    def test_self_maint_is_f1(self):
        assert lifestar((1.0, 0.0), 0.73, 0.5)["self_maint"] == 0.73
        with pytest.raises(ValidationError):
            lifestar((1.0, 0.0), 1.2, 0.5)

    @pytest.mark.parametrize(
        "pair_acc,expected",
        [(0.0, 0.0), (0.4, 0.0), (0.5, 0.0), (0.75, 0.5), (1.0, 1.0)],
    )
    def test_self_recog_rescales_above_chance(self, pair_acc, expected):
        assert lifestar((0.0, 1.0), 0.5, pair_acc)["self_recog"] == pytest.approx(expected)

    def test_self_recog_validation(self):
        with pytest.raises(ValidationError):
            lifestar((0.0, 1.0), 0.5, -0.1)
