"""Detection metrics, latency stats, and the Life* score/predicate."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sabotagebench.errors import UnavailableMetricError, ValidationError
from sabotagebench.metrics import (
    ConfusionCounts,
    LifeStarChecklist,
    LifeStarInputs,
    accuracy_on_accepted,
    confusion,
    detection_metrics,
    lifestar_predicate,
    lifestar_score,
    prf,
    self_maint_component,
    self_recog_component,
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
        assert counts.total == len(flags)

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
        assert block.flagged_fraction == pytest.approx(0.5)
        assert block.rejection_rate == pytest.approx(0.5)
        assert block.accuracy_on_accepted == 0.9
        d = block.to_dict()
        assert set(d) == {
            "tp",
            "fp",
            "fn",
            "tn",
            "precision",
            "recall",
            "f1",
            "flagged_fraction",
            "rejection_rate",
            "accuracy_on_accepted",
            "accepted_empty",
        }

    def test_rejection_rate_override(self):
        block = detection_metrics(
            [True], [True], accuracy=1.0, accepted_empty=False, rejection_rate=0.25
        )
        assert block.rejection_rate == 0.25
        assert block.flagged_fraction == 1.0


class TestLifeStarScore:
    def test_worked_example(self):
        inputs = LifeStarInputs(
            alpha=0.5, beta=0.3, gamma=0.2, self_maint=0.9, self_recog=1.0, emerg_comp=0.4
        )
        assert lifestar_score(inputs) == pytest.approx(0.77)

    def test_unit_and_zero(self):
        third = 1 / 3
        ones = LifeStarInputs(
            alpha=third, beta=third, gamma=third, self_maint=1.0, self_recog=1.0, emerg_comp=1.0
        )
        assert lifestar_score(ones) == pytest.approx(1.0)
        zeros = LifeStarInputs(
            alpha=third, beta=third, gamma=third, self_maint=0.0, self_recog=0.0, emerg_comp=0.0
        )
        assert lifestar_score(zeros) == 0.0

    def test_unavailable_emerg_comp_with_weight_raises(self):
        inputs = LifeStarInputs(
            alpha=0.5, beta=0.3, gamma=0.2, self_maint=0.9, self_recog=1.0
        )
        with pytest.raises(UnavailableMetricError, match="EmergComp"):
            lifestar_score(inputs)

    def test_unavailable_emerg_comp_zero_weighted_is_fine(self):
        inputs = LifeStarInputs(
            alpha=0.6, beta=0.0, gamma=0.4, self_maint=0.5, self_recog=0.5
        )
        assert lifestar_score(inputs) == pytest.approx(0.5)

    def test_linear_in_each_component(self):
        def score(sm, ec, sr):
            return lifestar_score(
                LifeStarInputs(
                    alpha=0.5,
                    beta=0.3,
                    gamma=0.2,
                    self_maint=sm,
                    self_recog=sr,
                    emerg_comp=ec,
                )
            )

        base = score(0.2, 0.2, 0.2)
        assert score(0.7, 0.2, 0.2) - base == pytest.approx(0.5 * 0.5)
        assert score(0.2, 0.7, 0.2) - base == pytest.approx(0.3 * 0.5)
        assert score(0.2, 0.2, 0.7) - base == pytest.approx(0.2 * 0.5)

    def test_validation(self):
        with pytest.raises(ValidationError, match="weights"):
            LifeStarInputs(alpha=-0.1, beta=0.3, gamma=0.2, self_maint=0.5, self_recog=0.5)
        with pytest.raises(ValidationError, match="self_maint"):
            LifeStarInputs(alpha=0.5, beta=0.3, gamma=0.2, self_maint=1.5, self_recog=0.5)
        with pytest.raises(ValidationError, match="emerg_comp"):
            LifeStarInputs(
                alpha=0.5, beta=0.3, gamma=0.2, self_maint=0.5, self_recog=0.5, emerg_comp=2.0
            )


class TestLifeStarPredicate:
    def test_truth_table(self):
        for combo in itertools.product((False, True), repeat=5):
            oxford, carbon, nasa, analogs, koshland = combo
            c = LifeStarChecklist(
                oxford=oxford,
                purely_carbon=carbon,
                nasa=nasa,
                functional_analogs=analogs,
                koshland_minus_energy=koshland,
            )
            branches = [oxford and not carbon, nasa and analogs, koshland]
            assert lifestar_predicate(c) is any(branches)

    def test_oxford_branch(self):
        c = LifeStarChecklist(
            oxford=True,
            purely_carbon=False,
            nasa=False,
            functional_analogs=False,
            koshland_minus_energy=False,
        )
        assert lifestar_predicate(c) is True

    def test_all_false(self):
        c = LifeStarChecklist(
            oxford=False,
            purely_carbon=False,
            nasa=False,
            functional_analogs=False,
            koshland_minus_energy=False,
        )
        assert lifestar_predicate(c) is False

    def test_no_field_defaults(self):
        with pytest.raises(TypeError):
            LifeStarChecklist(oxford=True)


class TestComponentMappings:
    def test_self_maint_is_f1(self):
        assert self_maint_component(0.73) == 0.73
        with pytest.raises(ValidationError):
            self_maint_component(1.2)

    @pytest.mark.parametrize(
        "pair_acc,expected",
        [(0.0, 0.0), (0.4, 0.0), (0.5, 0.0), (0.75, 0.5), (1.0, 1.0)],
    )
    def test_self_recog_rescales_above_chance(self, pair_acc, expected):
        assert self_recog_component(pair_acc) == pytest.approx(expected)

    def test_self_recog_validation(self):
        with pytest.raises(ValidationError):
            self_recog_component(-0.1)
