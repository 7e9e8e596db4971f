"""Training pipelines: contracts at tiny scale, detection behavior at medium
scale. The medium battery is the expensive part of the suite; every report it
needs is computed once in a module fixture and shared."""

import dataclasses
import math

import numpy as np
import pytest

import oracle_training
from sabotagebench import training
from sabotagebench.config import PipelineConfig
from sabotagebench.dataset import SabotageConfig, synthetic_mnist_set
from sabotagebench.errors import ValidationError
from sabotagebench.mirror_cnn import (
    MODE_CROSS,
    MODE_SELF,
    MirrorCnnConfig,
    build_pair_set,
    train_pair_gate,
    train_partial,
)
from sabotagebench.models import MlpBinary, ModelConfig, extract_embeddings
from sabotagebench.nncore import sgd_step, sigmoid
from sabotagebench.quarantine import AdaptiveControllerState
from sabotagebench.training import (
    GateTrainConfig,
    HardConfig,
    SweepConfig,
    TrainConfig,
    _eval_digests,
    _gate_separation,
    _plain_test_error,
    poison_eval_stream,
    pretrain_gate,
    run_sweep,
    train_adaptive,
    train_baseline,
    train_hard,
    train_irm,
    train_soft,
)

from conftest import med_pipeline, tiny_pipeline

REPORT_KEYS = {
    "method",
    "seed",
    "epochs",
    "starvation_events",
    "train_flag_counts",
    "extras",
    "detection",
}


class TestConfigValidation:
    def test_train_config(self):
        with pytest.raises(ValidationError, match="epochs"):
            TrainConfig(epochs=0)
        with pytest.raises(ValidationError, match="batch_size"):
            TrainConfig(batch_size=0)
        with pytest.raises(ValidationError, match="learning_rate"):
            TrainConfig(learning_rate=0.0)

    def test_gate_config(self):
        with pytest.raises(ValidationError, match="body_epochs"):
            GateTrainConfig(body_epochs=0)
        with pytest.raises(ValidationError, match="logit_cap"):
            GateTrainConfig(logit_cap=0.0)

    def test_hard_config(self):
        with pytest.raises(ValidationError, match="^cutoff must be a number or 'auto'"):
            HardConfig(cutoff="median")
        with pytest.raises(ValidationError, match="^auto_quantile must lie in"):
            HardConfig(auto_quantile=1.0)


def unit_decide(max_prob, gate_out, cfg):
    """`quarantine.decide` giving every row weight 1 and no flag."""
    ones = np.ones(max_prob.shape[0])
    return ones, ones, np.zeros(max_prob.shape[0], dtype=bool)


@pytest.fixture(scope="module")
def tiny_baseline_report(tiny_train, tiny_test):
    return train_baseline(tiny_pipeline("baseline"), tiny_train, tiny_test)


@pytest.fixture(scope="module")
def tiny_gate_asset(tiny_train):
    return pretrain_gate(tiny_pipeline("hard"), tiny_train)


class TestBaseline:
    def test_report_shape(self, tiny_baseline_report):
        report = tiny_baseline_report
        assert report.method == "baseline"
        assert len(report.epochs) == 1
        assert 0.0 <= report.epochs[0].test_error <= 1.0
        assert report.detection.rejection_rate == 0.0
        assert report.detection.recall == 0.0
        assert not report.detection.accepted_empty
        assert set(report.to_json_dict()) == REPORT_KEYS

    def test_same_seed_reproduces_bitwise(self, tiny_train, tiny_test, tiny_baseline_report):
        again = train_baseline(tiny_pipeline("baseline"), tiny_train, tiny_test)
        assert again.extras["model_checksum"] == tiny_baseline_report.extras["model_checksum"]
        assert again.to_json_dict() == tiny_baseline_report.to_json_dict()

    def test_different_seed_differs(self, tiny_train, tiny_test, tiny_baseline_report):
        other = train_baseline(tiny_pipeline("baseline", seed=1), tiny_train, tiny_test)
        assert other.extras["model_checksum"] != tiny_baseline_report.extras["model_checksum"]


class TestEvalDigests:
    def test_one_moved_flag_changes_the_flag_digest(self):
        flags = np.zeros(50, dtype=bool)
        flags[3] = True
        predictions = np.arange(50) % 10
        before = _eval_digests(flags, predictions)
        flags[3], flags[4] = False, True
        after = _eval_digests(flags, predictions)
        assert after["eval_flags_sha256"] != before["eval_flags_sha256"]
        assert after["eval_predictions_sha256"] == before["eval_predictions_sha256"]
        predictions[7] = 0
        assert _eval_digests(flags, predictions)["eval_predictions_sha256"] != before[
            "eval_predictions_sha256"
        ]


class TestGatePretraining:
    def test_damping_caps_scores_below_flag_region(self, tiny_gate_asset):
        # sigmoid(logit_cap)^2 < 0.5 means no soft weight can clear the flag
        # threshold while confidence sits at 1, which is the whole design
        assert tiny_gate_asset.max_score <= math.sqrt(0.5) + 1e-9
        assert 0.0 < tiny_gate_asset.damping_scale <= 1.0

    def test_separation_stats_populated(self, tiny_gate_asset):
        assert 0.0 < tiny_gate_asset.clean_score_mean < 1.0
        assert 0.0 < tiny_gate_asset.sabotaged_score_mean < 1.0
        assert tiny_gate_asset.body_checksum

    def test_gate_is_deterministic(self, tiny_train, tiny_gate_asset):
        again = pretrain_gate(tiny_pipeline("hard"), tiny_train)
        assert again.gate.params.checksum() == tiny_gate_asset.gate.params.checksum()


def _asset_fields(asset):
    return (
        asset.gate.params.checksum(),
        asset.clean_score_mean,
        asset.sabotaged_score_mean,
        asset.max_score,
        asset.damping_scale,
        asset.body_checksum,
    )


class TestGateMatchesOracle:
    """Cached clean features give the same gate as forwarding every gate
    batch and the calibration sample through the frozen body."""

    def test_tiny(self, tiny_train, tiny_gate_asset):
        oracle = oracle_training.pretrain_gate(tiny_pipeline("hard"), tiny_train)
        assert _asset_fields(tiny_gate_asset) == _asset_fields(oracle)

    # rate 0 leaves no row to forward, rate 1 no clean row to look up
    @pytest.mark.parametrize("rate", [0.0, 0.3, 1.0])
    def test_stock_model(self, rate):
        train = synthetic_mnist_set(200, 77)
        cfg = tiny_pipeline(
            "hard",
            seed=3,
            sabotage=SabotageConfig(rate=rate),
            model=ModelConfig(),
            train=TrainConfig(epochs=1, batch_size=48, learning_rate=0.1),
            gate=GateTrainConfig(hidden=16, epochs=2),
        )
        assert _asset_fields(pretrain_gate(cfg, train)) == _asset_fields(
            oracle_training.pretrain_gate(cfg, train)
        )


class BackwardsGate(MlpBinary):
    """A gate that trains as MlpBinary does but scores every input
    backwards: its sigmoid of the negated logits."""

    def forward(self, x, train=False, rng=None):
        scores, logits, cache = super().forward(x, train, rng)
        return (scores, logits, cache) if train else (sigmoid(-logits), -logits, cache)


class TestGateSeparation:
    """extras.gate_val_auc is the AUC of clean over sabotaged calibration
    scores, and extras.gate_inverted is set when it is below 0.5."""

    # a tiny gate that separates: AUC 1.0 at rate 0.3 and gate lr 0.1
    @staticmethod
    def cfg():
        return tiny_pipeline("hard", sabotage=SabotageConfig(rate=0.3),
                             gate=GateTrainConfig(hidden=32, epochs=1, learning_rate=0.1))

    def test_trained_gate_is_not_inverted(self, tiny_train, tiny_test):
        report = train_hard(self.cfg(), tiny_train, tiny_test)
        assert report.extras["gate_val_auc"] > 0.9
        assert report.extras["gate_inverted"] is False

    def test_planted_inverted_gate_sets_the_flag(self, tiny_train, tiny_test, monkeypatch):
        monkeypatch.setattr(training, "MlpBinary", BackwardsGate)
        asset = pretrain_gate(self.cfg(), tiny_train)
        assert asset.val_auc < 0.1
        report = train_soft(self.cfg(), tiny_train, tiny_test, asset)
        assert report.extras["gate_val_auc"] == asset.val_auc
        assert report.extras["gate_inverted"] is True

    def test_no_auc_without_both_kinds(self):
        train = synthetic_mnist_set(64, 5)
        asset = pretrain_gate(tiny_pipeline("hard", sabotage=SabotageConfig(rate=0.0)), train)
        assert _gate_separation(asset) == {"gate_val_auc": None, "gate_inverted": False}


class TestSoftPipeline:
    def test_unit_weights_reduce_to_baseline_bitwise(
        self, tiny_train, tiny_test, tiny_gate_asset, tiny_baseline_report, monkeypatch
    ):
        monkeypatch.setattr(training, "decide", unit_decide)
        report = train_soft(tiny_pipeline("soft"), tiny_train, tiny_test, tiny_gate_asset)
        assert report.extras["model_checksum"] == tiny_baseline_report.extras["model_checksum"]

    def test_degenerate_full_rejection_row(self, tiny_train, tiny_test, tiny_gate_asset):
        report = train_soft(tiny_pipeline("soft"), tiny_train, tiny_test, tiny_gate_asset)
        d = report.detection
        assert d.rejection_rate == 1.0
        assert d.accepted_empty is True
        assert d.accuracy_on_accepted == 0.0
        assert d.recall == 1.0
        counts = d.counts
        total = counts.tp + counts.fp + counts.fn + counts.tn
        assert d.precision == pytest.approx((counts.tp + counts.fn) / total)

    def test_log_rows_track_cumulative_epoch_fraction(
        self, tiny_train, tiny_test, tiny_gate_asset
    ):
        report = train_soft(tiny_pipeline("soft"), tiny_train, tiny_test, tiny_gate_asset)
        last = report.log_rows[-1]
        epoch_rows = [r for r in report.log_rows if r.epoch == last.epoch]
        flagged = sum(r.flagged_count for r in epoch_rows)
        assert last.f_avg == pytest.approx(flagged / tiny_train.count)
        assert [r.batch for r in epoch_rows] == list(range(len(epoch_rows)))


class TestHardPipeline:
    def test_cutoff_zero_reduces_to_baseline_bitwise(
        self, tiny_train, tiny_test, tiny_gate_asset, tiny_baseline_report
    ):
        cfg = tiny_pipeline("hard", hard=HardConfig(cutoff=0.0))
        report = train_hard(cfg, tiny_train, tiny_test, tiny_gate_asset)
        assert report.extras["model_checksum"] == tiny_baseline_report.extras["model_checksum"]
        assert report.starvation_events == 0

    def test_auto_cutoff_pins_rejection_to_quantile(
        self, tiny_train, tiny_test, tiny_gate_asset
    ):
        report = train_hard(tiny_pipeline("hard"), tiny_train, tiny_test, tiny_gate_asset)
        fractions = [
            row.flagged_count / (64 if row.batch < 18 else tiny_train.count - 18 * 64)
            for row in report.log_rows
        ]
        assert 0.55 <= np.mean(fractions) <= 0.75
        assert 0.55 <= report.detection.rejection_rate <= 0.75
        assert report.extras["hard_cutoff"] == "auto(q=0.65)"

    def test_impossible_cutoff_starves_every_batch(
        self, tiny_train, tiny_test, tiny_gate_asset
    ):
        cfg = tiny_pipeline("hard", hard=HardConfig(cutoff=1.0))
        report = train_hard(cfg, tiny_train, tiny_test, tiny_gate_asset)
        n_batches = math.ceil(tiny_train.count / 64)
        assert report.starvation_events == n_batches
        assert report.epochs[0].train_error == 1.0
        assert report.detection.accepted_empty is True


class TestIrmPipeline:
    def test_rejection_via_extra_class(self, tiny_train, tiny_test):
        report = train_irm(tiny_pipeline("irm"), tiny_train, tiny_test)
        assert report.method == "irm"
        assert report.extras["reject_class"] == 10
        counts = report.detection.counts
        total = counts.tp + counts.fp + counts.fn + counts.tn
        assert report.detection.rejection_rate == pytest.approx((counts.tp + counts.fp) / total)


class TestEvalStream:
    def test_poison_eval_stream_deterministic(self, tiny_test):
        sab = SabotageConfig(rate=0.05)
        a = poison_eval_stream(tiny_test, sab, seed=3)
        b = poison_eval_stream(tiny_test, sab, seed=3)
        c = poison_eval_stream(tiny_test, sab, seed=4)
        np.testing.assert_array_equal(a.mask, b.mask)
        assert not np.array_equal(a.mask, c.mask)


@pytest.fixture(scope="module")
def sweep_result(tiny_train, tiny_test):
    cfg = tiny_pipeline("baseline", sweep=SweepConfig(thresholds=(0.1, 0.3), epochs=1))
    return run_sweep(cfg, tiny_train, tiny_test)


class TestSweepTiny:
    def test_table_shape(self, sweep_result):
        rows = sweep_result["rows"]
        assert [row["threshold"] for row in rows] == [0.1, 0.3]
        for row in rows:
            assert set(row) == {
                "threshold",
                "final_train_error",
                "final_test_error",
                "flagged_count",
                "sabotaged_count",
                "precision",
                "recall",
                "starvation_events",
                "rejection_rate",
                "accuracy_on_accepted",
                "accepted_empty",
            }

    def test_thresholds_see_identical_sabotage(self, sweep_result):
        a, b = sweep_result["reports"]
        assert [r.sabotaged_count for r in a.log_rows] == [
            r.sabotaged_count for r in b.log_rows
        ]

    def test_higher_threshold_flags_at_least_as_much(self, sweep_result):
        rows = sweep_result["rows"]
        assert rows[1]["flagged_count"] >= rows[0]["flagged_count"]

    def test_validation(self):
        with pytest.raises(ValidationError, match="epochs"):
            SweepConfig(epochs=0)
        with pytest.raises(ValidationError, match="strictly increasing"):
            SweepConfig(thresholds=(0.3, 0.2))


class TestAdaptiveTiny:
    def test_controller_steers_within_clamp(self, tiny_train, tiny_test):
        state = AdaptiveControllerState(tau=0.30, delta=0.01, tau_min=0.05, tau_max=0.95)
        report = train_adaptive(tiny_pipeline("baseline", adaptive=state), tiny_train, tiny_test)
        assert report.method == "adaptive"
        taus = [row.tau for row in report.log_rows]
        assert all(0.05 <= t <= 0.95 for t in taus)
        steps = np.abs(np.diff(taus))
        assert steps.max() <= 0.01 + 1e-12
        assert report.extras["tau_final"] == pytest.approx(taus[-1], abs=0.011)

    def test_a_run_leaves_the_configs_controller_as_it_was(self, tiny_train, tiny_test):
        # the controller starts from the config, which runs may share
        cfg = tiny_pipeline("baseline")
        first = train_adaptive(cfg, tiny_train, tiny_test)
        assert len({row.tau for row in first.log_rows}) > 1
        _assert_same_run(train_adaptive(cfg, tiny_train, tiny_test), first)
        assert cfg.adaptive.history == ()
        assert cfg.adaptive == AdaptiveControllerState()


# ----------------------------------------------------------------- oracle


def _log_rows(report):
    # latency_s is timing, the one column that differs run to run
    return [(r.epoch, r.batch, r.tau, r.flagged_count, r.sabotaged_count, r.f_avg)
            for r in report.log_rows]


@pytest.fixture(autouse=True)
def _oracle_reports_carry_eval_digests(monkeypatch):
    """The oracle pipelines predate the evaluation digests. Their reports get
    the digests of the flags and predictions the oracle evaluated, so that
    comparing two reports also compares those rows."""
    finish = oracle_training._finish_report

    def finish_with_digests(report, flags, batch, predictions):
        finish(report, flags, batch, predictions)
        report.extras.update(_eval_digests(flags, predictions))

    monkeypatch.setattr(oracle_training, "_finish_report", finish_with_digests)


@pytest.fixture(autouse=True)
def _oracle_reports_carry_gate_separation(monkeypatch):
    """The oracle gated pipeline predates the gate's calibration AUC. Its
    reports get the two keys of the asset it ran with."""
    run_gated = oracle_training._run_gated_pipeline

    def with_separation(cfg, train_set, test_set, asset, hard_cutoff):
        report = run_gated(cfg, train_set, test_set, asset, hard_cutoff)
        report.extras.update(_gate_separation(asset))
        return report

    monkeypatch.setattr(oracle_training, "_run_gated_pipeline", with_separation)


def _assert_same_run(report, expected):
    assert report.to_json_dict() == expected.to_json_dict()
    assert _log_rows(report) == _log_rows(expected)


ORACLE_MODEL = dict(conv1_channels=2, conv2_channels=4, fc_hidden=16)


@pytest.fixture(scope="module", params=[90, 97], ids=["ragged", "one_row"])
def oracle_case(request):
    """Train sets whose last batch of 16 holds 10 rows or 1 row, and a
    2-epoch config at which the pipelines train, flag and starve."""
    train = synthetic_mnist_set(request.param, 41)
    test = synthetic_mnist_set(50, 42)

    def cfg(method, **kwargs):
        return tiny_pipeline(
            method,
            seed=6,
            sabotage=SabotageConfig(rate=0.3, label_mode="reject" if method == "irm" else "random"),
            model=ModelConfig(**ORACLE_MODEL),
            train=TrainConfig(epochs=2, batch_size=16, learning_rate=0.1),
            gate=GateTrainConfig(hidden=8, epochs=1),
            **kwargs,
        )

    return train, test, cfg, pretrain_gate(cfg("hard"), train)


class TestPipelinesMatchOracle:
    """Every pipeline gives the reports, epoch rows and quarantine logs of
    its own epoch loop and final evaluation as they were (`oracle_training`)."""

    def test_baseline(self, oracle_case):
        train, test, cfg, _ = oracle_case
        _assert_same_run(train_baseline(cfg("baseline"), train, test),
                         oracle_training.train_baseline(cfg("baseline"), train, test))

    def test_irm(self, oracle_case):
        train, test, cfg, _ = oracle_case
        _assert_same_run(train_irm(cfg("irm"), train, test),
                         oracle_training.train_irm(cfg("irm"), train, test))

    def test_irm_sets_its_own_reject_labels(self, oracle_case):
        # irm trains on its reject labels whatever the config's label mode
        train, test, cfg, _ = oracle_case
        random_labels = dataclasses.replace(
            cfg("irm"), sabotage=SabotageConfig(rate=0.3, label_mode="random"))
        _assert_same_run(train_irm(random_labels, train, test),
                         train_irm(cfg("irm"), train, test))

    @staticmethod
    def _unit_weights(monkeypatch, unit):
        if unit:
            monkeypatch.setattr(training, "decide", unit_decide)
            monkeypatch.setattr(oracle_training, "decide", unit_decide)

    @pytest.mark.parametrize("unit", [False, True])
    def test_soft(self, oracle_case, unit, monkeypatch):
        train, test, cfg, asset = oracle_case
        self._unit_weights(monkeypatch, unit)
        c = cfg("soft")
        _assert_same_run(train_soft(c, train, test, asset),
                         oracle_training._run_gated_pipeline(c, train, test, asset, None))

    # 0.99 flags almost every row, so batches starve
    @pytest.mark.parametrize("cutoff,unit", [("auto", False), ("auto", True), (0.99, False)])
    def test_hard(self, oracle_case, cutoff, unit, monkeypatch):
        train, test, cfg, asset = oracle_case
        self._unit_weights(monkeypatch, unit)
        c = cfg("hard", hard=HardConfig(cutoff=cutoff))
        report = train_hard(c, train, test, asset)
        _assert_same_run(report,
                         oracle_training._run_gated_pipeline(c, train, test, asset, cutoff))
        if cutoff == 0.99:
            assert report.starvation_events > 0

    def test_sweep(self, oracle_case):
        # at tau 0.5 the untrained net flags everything, so batches starve
        train, test, cfg, _ = oracle_case
        result = run_sweep(cfg("baseline", sweep=SweepConfig(thresholds=(0.1, 0.5), epochs=2)),
                           train, test)
        for tau, report in zip((0.1, 0.5), result["reports"]):
            _assert_same_run(report, oracle_training._confidence_quarantine_run(
                cfg("baseline"), train, test, tau, None, 2))
        assert result["reports"][1].starvation_events > 0

    def test_adaptive(self, oracle_case):
        train, test, cfg, _ = oracle_case
        state = AdaptiveControllerState(tau=0.3, delta=0.05, window=3)
        report = train_adaptive(cfg("baseline", adaptive=state), train, test)
        _assert_same_run(report, oracle_training._confidence_quarantine_run(
            cfg("baseline"), train, test, state.tau, state, 2))
        assert len({row.tau for row in report.log_rows}) > 1

    @pytest.mark.parametrize("with_test", [False, True])
    def test_train_partial(self, oracle_case, with_test):
        # the mirror experiment takes a net's test error from the head over
        # its test embeddings, where the oracle ran the net over the test set
        train, test, _, _ = oracle_case
        mirror = MirrorCnnConfig(epochs=2, batch_size=16, learning_rate=0.1)
        net = train_partial(PipelineConfig(seed=6, model=ModelConfig(**ORACLE_MODEL),
                                           mirror_cnn=mirror), train, "A")
        expected_net, expected_error = oracle_training.train_partial(
            train, ModelConfig(**ORACLE_MODEL), 6, "A", 2, 16, 0.1, test if with_test else None
        )
        assert net.params.checksum() == expected_net.params.checksum()
        if with_test:
            error = _plain_test_error(net, test, extract_embeddings(net, test.images))
            assert error == expected_error
        else:
            assert math.isnan(expected_error)


# --------------------------------------------------------------- lifetimes


def _spy_fit(monkeypatch) -> list:
    """The models that `fit` calls train, in call order."""
    models = []
    fit = training.fit

    def spied(model, *args, **kwargs):
        fit(model, *args, **kwargs)
        models.append(model)

    monkeypatch.setattr(training, "fit", spied)
    return models


def _assert_training_ended(net, x):
    """`net` holds no gradient buffer, and an SGD step or a backward pass
    over a forward of `x` raises ValidationError naming a parameter, with
    every parameter left as it was."""
    params = dict(net.params.items())
    assert all(param._grad is None for param in params.values())
    checksum = net.params.checksum()
    with pytest.raises(ValidationError, match=f"'{next(iter(params))}' has no gradient buffer"):
        sgd_step(net.params, 0.1)
    out, _, cache = net.forward(x)
    with pytest.raises(ValidationError, match=r"parameter '\w+' has no gradient buffer"):
        net.backward(np.ones_like(out), cache)
    assert net.params.checksum() == checksum


class TestTrainingDropsGradients:
    """Whatever trains drops its gradient buffers when its training ends;
    the frozen and finished networks keep only their values."""

    @pytest.fixture(scope="class")
    def small(self):
        return synthetic_mnist_set(96, 41), synthetic_mnist_set(40, 42)

    def test_pipeline_model(self, small, monkeypatch):
        models = _spy_fit(monkeypatch)
        train_baseline(tiny_pipeline("baseline"), *small)
        (model,) = models
        _assert_training_ended(model, small[1].images[:4])

    def test_gate_body_and_gate(self, small, monkeypatch):
        models = _spy_fit(monkeypatch)
        asset = pretrain_gate(tiny_pipeline("hard"), small[0])
        (body,) = models
        _assert_training_ended(body, small[0].images[:4])
        _assert_training_ended(asset.gate, extract_embeddings(body, small[0].images[:4]))

    def test_mirror_net(self, small):
        mirror = MirrorCnnConfig(epochs=1, batch_size=16, learning_rate=0.1)
        net = train_partial(PipelineConfig(seed=6, model=ModelConfig(**ORACLE_MODEL),
                                           mirror_cnn=mirror), small[0], "A")
        _assert_training_ended(net, small[1].images[:4])

    def test_pair_gate(self, rng):
        table = rng.normal(size=(40, 8)).astype(np.float32)
        pairs = build_pair_set(table, np.arange(20), {MODE_SELF: 8, MODE_CROSS: 8}, rng)
        gate = train_pair_gate(PipelineConfig(mirror_cnn=MirrorCnnConfig(
            gate_hidden=4, gate_epochs=1)), pairs)
        _assert_training_ended(gate, pairs.features(np.arange(4)))


# ---------------------------------------------------------------- medium


@pytest.fixture(scope="module")
def med_hard_report(med_train, med_test, med_gate_asset):
    return train_hard(med_pipeline("hard"), med_train, med_test, med_gate_asset)


@pytest.fixture(scope="module")
def med_irm_report(med_train, med_test):
    return train_irm(med_pipeline("irm"), med_train, med_test)


@pytest.fixture(scope="module")
def med_adaptive_report(med_train, med_test):
    return train_adaptive(med_pipeline("baseline"), med_train, med_test)


@pytest.mark.slow
class TestMediumScale:
    def test_gate_orders_clean_above_sabotaged(self, med_gate_asset):
        assert med_gate_asset.clean_score_mean > med_gate_asset.sabotaged_score_mean
        assert med_gate_asset.max_score <= math.sqrt(0.5) + 1e-9

    def test_hard_catches_most_sabotage(self, med_hard_report):
        d = med_hard_report.detection
        assert d.recall >= 0.7
        assert 0.55 <= d.rejection_rate <= 0.75
        assert d.accuracy_on_accepted >= 0.8

    def test_irm_routes_sabotage_to_reject_class(self, med_irm_report):
        d = med_irm_report.detection
        assert 0.02 <= d.rejection_rate <= 0.15
        assert d.precision >= 0.7
        assert d.recall >= 0.7
        assert d.accuracy_on_accepted >= 0.8

    def test_irm_learns_the_clean_task_too(self, med_irm_report):
        assert med_irm_report.epochs[-1].test_error <= 0.2

    def test_adaptive_settles_into_band(self, med_adaptive_report):
        rows = med_adaptive_report.log_rows
        second_half = rows[len(rows) // 2 :]
        f_avg = np.mean([r.flagged_count / 64 for r in second_half if r.batch < 93])
        assert 0.03 <= f_avg <= 0.20
        assert 0.05 <= med_adaptive_report.extras["tau_final"] <= 0.95
