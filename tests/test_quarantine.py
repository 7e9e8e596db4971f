"""Quarantine weighting, hard gating, and the adaptive threshold controller."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sabotagebench.errors import ValidationError
from sabotagebench.quarantine import (
    AdaptiveControllerState,
    SoftWeightConfig,
    adaptive_update,
    decide,
    sweep_thresholds,
)
from sabotagebench.training import SweepConfig

unit = st.floats(min_value=0.0, max_value=1.0)


def decided(max_prob=1.0, gate_out=1.0, threshold=0.5, alpha=1.0, flag_below=0.5):
    """`decide` on arrays of the given values (scalars become 1-row arrays)."""
    cfg = SoftWeightConfig(confidence_threshold=threshold, gate_exponent=alpha,
                           soft_flag_threshold=flag_below)
    return decide(np.atleast_1d(max_prob), np.atleast_1d(gate_out), cfg)


def weight_conf(max_prob, threshold):
    """`decide`'s weight_conf of `max_prob` at confidence threshold `threshold`."""
    return decided(max_prob, threshold=threshold)[0]


class TwoArgError(Exception):
    """An exception whose constructor needs more than a message."""

    def __init__(self, code, detail):
        super().__init__(code, detail)


class TestConfidenceWeight:
    def test_piecewise_values(self):
        np.testing.assert_allclose(weight_conf([0.05, 0.1, 0.9, 0.0], 0.1),
                                   [0.5, 1.0, 1.0, 0.0])

    def test_vectorized(self):
        out = weight_conf(np.array([0.0, 0.2, 0.4, 1.0]), 0.4)
        assert out.dtype == np.float64
        np.testing.assert_allclose(out, [0.0, 0.5, 1.0, 1.0])

    def test_threshold_validation(self):
        for bad in (0.0, -0.1, 1.0, 1.1):
            with pytest.raises(ValidationError, match="confidence_threshold"):
                SoftWeightConfig(confidence_threshold=bad)

    def test_prob_validation(self):
        with pytest.raises(ValidationError, match="max_prob"):
            weight_conf(np.array([0.5, 1.2]), 0.5)
        with pytest.raises(ValidationError, match="max_prob"):
            weight_conf(np.array([-0.1, 0.5]), 0.5)

    @settings(max_examples=60, deadline=None)
    @given(unit, st.floats(min_value=0.01, max_value=0.99))
    def test_range_and_kink(self, p, t):
        w = weight_conf(p, t)[0]
        assert 0.0 <= w <= 1.0
        if p >= t:
            assert w == 1.0
        else:
            assert w == pytest.approx(p / t)

    def test_ten_class_floor_makes_tau_point_one_inert(self, rng):
        # with 10 classes the max softmax prob is always >= 0.1, so the
        # confidence leg saturates at 1 for threshold 0.1
        probs = rng.uniform(0.1, 1.0, size=200)
        np.testing.assert_array_equal(weight_conf(probs, 0.1), 1.0)


class TestCombineWeight:
    def test_matches_formula(self):
        # weight_conf 0.5 (max_prob 0.2 at threshold 0.4) times 0.5**2
        assert decided(0.2, 0.5, threshold=0.4, alpha=2.0)[1][0] == pytest.approx(0.125)
        assert decided(0.7, 0.9, threshold=0.4, alpha=1.0)[1][0] == pytest.approx(0.9)

    def test_alpha_validation(self):
        for bad in (0.0, -1.0):
            with pytest.raises(ValidationError, match="gate_exponent"):
                SoftWeightConfig(gate_exponent=bad)

    @settings(max_examples=60, deadline=None)
    @given(unit, unit, unit, st.floats(min_value=0.5, max_value=4.0))
    def test_monotone_in_gate_score(self, p, g1, g2, alpha):
        lo, hi = sorted((g1, g2))
        w = decided([p, p], [lo, hi], threshold=0.4, alpha=alpha)[1]
        assert w[0] <= w[1]

    @settings(max_examples=60, deadline=None)
    @given(unit, unit, st.floats(min_value=0.5, max_value=4.0))
    def test_stays_in_unit_interval(self, p, g, alpha):
        assert 0.0 <= decided(p, g, threshold=0.4, alpha=alpha)[1][0] <= 1.0


class TestFlag:
    def test_strictly_below(self):
        flags = decided(1.0, [0.49, 0.5, 0.51], flag_below=0.5)[2]
        np.testing.assert_array_equal(flags, [True, False, False])

    def test_vectorized(self):
        wc, w, flags = decided(1.0, np.array([0.1, 0.5, 0.9]), flag_below=0.5)
        assert flags.dtype == bool
        np.testing.assert_array_equal(flags, w < 0.5)
        np.testing.assert_array_equal(flags, [True, False, False])

    def test_threshold_validation(self):
        for bad in (0.0, 1.0):
            with pytest.raises(ValidationError, match="soft_flag_threshold"):
                SoftWeightConfig(soft_flag_threshold=bad)


class TestDecide:
    def test_composes_the_three_steps(self, rng):
        cfg = SoftWeightConfig(
            confidence_threshold=0.4, gate_exponent=2.0, soft_flag_threshold=0.5
        )
        max_prob = rng.uniform(0.1, 1.0, size=50)
        gate_out = rng.uniform(0.0, 1.0, size=50)
        wc, w, flags = decide(max_prob, gate_out, cfg)
        np.testing.assert_allclose(wc, np.where(max_prob < 0.4, max_prob / 0.4, 1.0))
        np.testing.assert_allclose(w, np.clip(wc * gate_out**2.0, 0, 1))
        np.testing.assert_array_equal(flags, w < 0.5)

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            SoftWeightConfig(confidence_threshold=0.0)
        with pytest.raises(ValidationError):
            SoftWeightConfig(gate_exponent=-1.0)
        with pytest.raises(ValidationError):
            SoftWeightConfig(soft_flag_threshold=1.0)


class TestControllerState:
    def test_defaults_and_f_avg(self):
        state = AdaptiveControllerState()
        assert state.f_avg == 0.0
        state = adaptive_update(state, 0.4)
        state = adaptive_update(state, 0.2)
        assert state.f_avg == pytest.approx(0.3)

    def test_validation(self):
        with pytest.raises(ValidationError, match="delta"):
            AdaptiveControllerState(delta=0.0)
        with pytest.raises(ValidationError, match="bounds inverted"):
            AdaptiveControllerState(upper_bound=0.05, lower_bound=0.15)
        with pytest.raises(ValidationError, match="outside"):
            AdaptiveControllerState(tau=0.99)
        with pytest.raises(ValidationError, match="window"):
            AdaptiveControllerState(window=0)


class TestAdaptiveUpdate:
    def test_high_flagging_lowers_tau(self):
        state = AdaptiveControllerState(tau=0.5)
        nxt = adaptive_update(state, 1.0)
        assert nxt.tau == pytest.approx(0.49)

    def test_low_flagging_raises_tau(self):
        state = AdaptiveControllerState(tau=0.5)
        nxt = adaptive_update(state, 0.0)
        assert nxt.tau == pytest.approx(0.51)

    def test_in_band_holds_tau(self):
        state = AdaptiveControllerState(tau=0.5)
        nxt = adaptive_update(state, 0.10)
        assert nxt.tau == pytest.approx(0.5)

    def test_window_truncates_history(self):
        state = AdaptiveControllerState(window=3)
        for value in (0.1, 0.2, 0.3, 0.4):
            state = adaptive_update(state, value)
        assert state.history == (0.2, 0.3, 0.4)
        assert state.f_avg == pytest.approx(0.3)

    def test_band_uses_window_mean_not_last_batch(self):
        state = AdaptiveControllerState(tau=0.5, window=4)
        for value in (0.0, 0.0, 0.0):
            state = adaptive_update(state, value)
        # mean (0+0+0+0.4)/4 = 0.1 is inside [0.05, 0.15] though 0.4 is not
        nxt = adaptive_update(state, 0.4)
        assert nxt.tau == state.tau

    def test_fraction_validation(self):
        with pytest.raises(ValidationError, match="flagged fraction"):
            adaptive_update(AdaptiveControllerState(), 1.2)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(unit, min_size=1, max_size=120))
    def test_tau_always_clamped(self, fractions):
        state = AdaptiveControllerState(
            tau=0.5, tau_min=0.3, tau_max=0.7, delta=0.05, window=5
        )
        for fraction in fractions:
            state = adaptive_update(state, fraction)
            assert 0.3 <= state.tau <= 0.7

    def test_saturates_at_bounds(self):
        state = AdaptiveControllerState(tau=0.07, tau_min=0.05, tau_max=0.95)
        for _ in range(10):
            state = adaptive_update(state, 1.0)
        assert state.tau == pytest.approx(0.05)


class TestSweepThresholds:
    def test_applies_in_order(self):
        reports = sweep_thresholds([0.1, 0.2, 0.3], lambda t: t * 10)
        assert reports == [pytest.approx(1.0), pytest.approx(2.0), pytest.approx(3.0)]

    # the values are checked where the sweep's config is built
    def test_empty_rejected(self):
        with pytest.raises(ValidationError, match="at least one"):
            SweepConfig(thresholds=())

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError, match="lie in"):
            SweepConfig(thresholds=(0.5, 1.0))

    def test_non_increasing_rejected(self):
        with pytest.raises(ValidationError, match="strictly increasing"):
            SweepConfig(thresholds=(0.3, 0.3))

    def test_failure_names_threshold(self):
        def boom(t):
            raise ValidationError("inner problem")

        with pytest.raises(ValidationError, match="threshold 0.2: inner problem"):
            sweep_thresholds([0.2], boom)

    @pytest.mark.parametrize(
        "error",
        [
            TwoArgError(7, "detail"),
            UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte"),
        ],
    )
    def test_foreign_failure_keeps_its_type(self, error):
        def boom(t):
            raise error

        with pytest.raises(type(error)) as caught:
            sweep_thresholds([0.1, 0.2], boom)
        assert caught.value is error
        assert caught.value.__notes__ == ["threshold 0.1"]
