"""Command-line orchestrator.

    sabotagebench run <experiment> [--config FILE] [--seed N] [--out DIR]
                                   [--offline] [--parallel] [--set key=value]
    sabotagebench check

Exit codes: 0 success, 1 configuration error, 2 runtime failure,
3 self-check failure.

`run all` executes every method; each method gets its own output
subdirectory and a seed offset by its position in the method list, so
the pipelines stay independent whether they run sequentially or (with
--parallel) as concurrent worker processes.
"""
from __future__ import annotations

import argparse
import os
import resource
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import reporting
from .config import ALL_METHODS, EXPERIMENTS, ExperimentConfig, parse_config, parse_override
from .dataset import MnistSet, invert, load_mnist_dir, synthetic_mnist_set
from .errors import ConfigError, UnavailableMetricError, ValidationError, WorkbenchError
from .heap import keep_heap
from .metrics import (
    LifeStarInputs,
    lifestar_score,
    self_maint_component,
    self_recog_component,
)
from .mirror_cnn import pool_split, run_mirror_experiment
from .training import (
    run_sweep,
    train_adaptive,
    train_baseline,
    train_hard,
    train_irm,
    train_soft,
)


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as config errors (exit 1)."""

    def error(self, message: str) -> None:
        raise ConfigError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="sabotagebench", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment (or all)")
    run.add_argument("experiment", choices=EXPERIMENTS)
    run.add_argument("--config", help="JSON config file layered over defaults")
    run.add_argument("--seed", type=int, help="override the seed")
    run.add_argument("--out", help="output directory root")
    run.add_argument(
        "--offline",
        action="store_true",
        help="force mirror-text to run from bundled fixtures",
    )
    run.add_argument(
        "--parallel",
        action="store_true",
        help="with 'all': run method pipelines in concurrent processes",
    )
    run.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override any config leaf by dotted path (repeatable)",
    )

    sub.add_parser("check", help="fast dataset-free self-check (exit 3 on failure)")
    return parser


def _mnist_available(mnist_dir: Path) -> bool:
    stems = (
        "train-images-idx3-ubyte",
        "train-labels-idx1-ubyte",
        "t10k-images-idx3-ubyte",
        "t10k-labels-idx1-ubyte",
    )
    return all(
        (mnist_dir / s).exists() or (mnist_dir / f"{s}.gz").exists() for s in stems
    )


def load_data(cfg: ExperimentConfig) -> tuple[MnistSet, MnistSet]:
    """Resolve the dataset section to (train, test) sets."""
    ds = cfg.section("dataset")
    source = ds["source"]
    mnist_dir = Path(ds["mnist_dir"])
    if source == "auto":
        source = "mnist" if _mnist_available(mnist_dir) else "synthetic"
    if source == "mnist":
        try:
            return load_mnist_dir(mnist_dir)
        except WorkbenchError as exc:
            raise ConfigError(f"dataset.mnist_dir: {exc}") from exc
    if source == "synthetic":
        image_size = cfg.section("model")["image_size"]
        try:
            train = synthetic_mnist_set(
                ds["synthetic_train"], ds["synthetic_seed"], image_size=image_size
            )
            test = synthetic_mnist_set(
                ds["synthetic_test"], ds["synthetic_seed"] + 1, image_size=image_size
            )
        except ValidationError as exc:
            raise ConfigError(f"model.image_size: {exc}") from exc
        return train, test
    raise ConfigError(
        f"dataset.source: expected auto, mnist, or synthetic, got {source!r}"
    )


def check_sizes(cfg: ExperimentConfig, experiment: str, train_count: int,
                test_count: int) -> None:
    """Raise ConfigError when the experiment's subsets do not fit the data,
    before anything trains. Only mirror-cnn takes sized subsets."""
    if experiment != "mirror-cnn":
        return
    mirror = cfg.build("mirror_cnn")
    if 2 * mirror.subset_size > train_count:
        raise ConfigError(
            f"mirror_cnn.subset_size: two disjoint subsets of {mirror.subset_size} "
            f"images need {2 * mirror.subset_size}, but the train set has {train_count}"
        )
    try:
        pool_split(test_count, mirror.train_pool_fraction)
    except ValidationError as exc:
        raise ConfigError(
            f"mirror_cnn.train_pool_fraction: {mirror.train_pool_fraction} of the "
            f"{test_count} test images leaves no train or no eval pool ({exc})"
        ) from exc


def run_single(
    cfg: ExperimentConfig, experiment: str, out_dir: Path, offline: bool
) -> dict:
    """Run one experiment, write its artifacts, return headline numbers."""
    started = resource.getrusage(resource.RUSAGE_SELF)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    resolved = {**cfg.data, "experiment": experiment}
    reporting.echo_config(out_dir, resolved)
    config_sha256 = reporting.config_digest(resolved)
    summary: dict = {"experiment": experiment, "out_dir": str(out_dir)}

    if experiment == "mirror-text":
        # imported here so the other experiments never load mirror_text
        from .mirror_text import http_providers, run_mirror_text_experiment

        mt = cfg.section("mirror_text")
        use_fixtures = offline or mt["offline"]
        providers = None if use_fixtures else http_providers()
        report = run_mirror_text_experiment(
            providers=providers, fixtures_path=mt["fixtures"]
        )
        reporting.write_mirror_text_report(out_dir, report)
        _write_metadata(
            out_dir,
            started,
            config_sha256,
            {"wall_clock_s": report.wall_clock_s, **report.metadata},
        )
        summary["recognition"] = {
            row["system"]: row["score_percent"] for row in report.recognition
        }
        return summary

    train_set, test_set = load_data(cfg)
    check_sizes(cfg, experiment, train_set.count, test_set.count)
    if experiment == "mirror-cnn":
        report = run_mirror_experiment(
            cfg.build("mirror_cnn"), cfg.build("model"), cfg.seed, train_set, test_set
        )
        reporting.write_mirror_cnn_report(out_dir, report, cfg.seed)
        _write_metadata(out_dir, started, config_sha256, {"wall_clock_s": report.wall_clock_s})
        summary["self_vs_cross_accuracy"] = report.self_vs_cross_accuracy
        summary["semiself_accuracy"] = report.semiself_accuracy
        return summary

    if experiment == "sweep":
        result = run_sweep(
            cfg.pipeline_config("baseline"), cfg.build("sweep"), train_set, test_set
        )
        reporting.write_sweep_artifacts(out_dir, cfg.seed, result)
        _write_metadata(
            out_dir,
            started,
            config_sha256,
            {"wall_clock_s": sum(r.wall_clock_s for r in result["reports"])},
        )
        summary["rows"] = result["rows"]
        return summary

    if experiment == "adaptive":
        report = train_adaptive(
            cfg.pipeline_config("baseline"), train_set, test_set, cfg.build("adaptive")
        )
    elif experiment == "baseline":
        report = train_baseline(cfg.pipeline_config("baseline"), train_set, test_set)
    elif experiment == "soft":
        report = train_soft(cfg.pipeline_config("soft"), train_set, test_set)
    elif experiment == "hard":
        report = train_hard(cfg.pipeline_config("hard"), train_set, test_set)
    elif experiment == "irm":
        report = train_irm(cfg.pipeline_config("irm"), train_set, test_set)
    else:
        raise ConfigError(f"unknown experiment {experiment!r}")

    reporting.write_run_report(out_dir, report)
    _write_metadata(
        out_dir,
        started,
        config_sha256,
        {"wall_clock_s": report.wall_clock_s, "latencies_s": report.latencies},
    )
    summary["rejection_rate"] = report.rejection_rate
    summary["accuracy_on_accepted"] = report.accuracy_on_accepted
    if report.detection is not None:
        summary["detection_f1"] = report.detection.f1
    if report.epochs:
        summary["final_test_error"] = report.epochs[-1].test_error
    return summary


def _write_metadata(
    out_dir: Path, started: resource.struct_rusage, config_sha256: str, payload: dict
) -> None:
    """metadata.json: `payload`, this process's resource use since `started`
    (faults and CPU seconds; peak RSS is the process's high-water mark), the
    numpy/BLAS build with the BLAS thread settings as found in the
    environment (None when unset), and the resolved config's digest."""
    now = resource.getrusage(resource.RUSAGE_SELF)
    rss_unit = 1 if sys.platform == "darwin" else 1024  # ru_maxrss: bytes vs KiB
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy before 1.26 prints its config and takes no mode
        blas = {}
    reporting.write_metadata(
        out_dir,
        {
            **payload,
            "resources": {
                "peak_rss_mb": now.ru_maxrss * rss_unit / 2**20,
                "minor_faults": now.ru_minflt - started.ru_minflt,
                "user_s": now.ru_utime - started.ru_utime,
                "sys_s": now.ru_stime - started.ru_stime,
            },
            "environment": {
                "numpy": np.__version__,
                "blas": blas.get("name"),
                "blas_version": blas.get("version"),
                "blas_config": blas.get("openblas configuration"),
                "blas_threads": {
                    name: os.environ.get(name)
                    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                },
            },
            "config_sha256": config_sha256,
        },
    )


def _all_worker(payload: tuple) -> dict:
    data, experiment, out_dir, offline = payload
    return run_single(ExperimentConfig(data), experiment, Path(out_dir), offline)


def run_all(cfg: ExperimentConfig, out_root: Path, offline: bool, parallel: bool) -> list[dict]:
    # every job reads the same dataset section: check all of them before any starts
    train_count, test_count = (data.count for data in load_data(cfg))
    for experiment in ALL_METHODS:
        check_sizes(cfg, experiment, train_count, test_count)
    jobs = []
    for index, experiment in enumerate(ALL_METHODS):
        data = {**cfg.data, "seed": cfg.seed + index, "experiment": experiment}
        jobs.append((data, experiment, str(out_root / experiment), offline))
    if parallel:
        # initializer, not fork inheritance: the start method may be spawn
        with ProcessPoolExecutor(max_workers=min(4, len(jobs)), initializer=keep_heap) as pool:
            summaries = list(pool.map(_all_worker, jobs))
    else:
        summaries = [_all_worker(job) for job in jobs]

    weights = cfg.lifestar_weights()
    if weights is not None:
        by_name = {s["experiment"]: s for s in summaries}
        alpha, beta, gamma = weights
        payload: dict = {"alpha": alpha, "beta": beta, "gamma": gamma}
        try:
            inputs = LifeStarInputs(
                alpha=alpha,
                beta=beta,
                gamma=gamma,
                self_maint=self_maint_component(by_name["irm"]["detection_f1"]),
                self_recog=self_recog_component(
                    by_name["mirror-cnn"]["self_vs_cross_accuracy"]
                ),
            )
            payload["score"] = lifestar_score(inputs)
            payload["self_maint"] = inputs.self_maint
            payload["self_recog"] = inputs.self_recog
        except UnavailableMetricError as exc:
            payload["error"] = str(exc)
        reporting.write_json(out_root / "lifestar.json", payload)
    return summaries


def cmd_run(args: argparse.Namespace) -> int:
    overrides = dict(parse_override(item) for item in args.overrides)
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["out_dir"] = args.out
    overrides["experiment"] = args.experiment
    cfg = parse_config(args.config, overrides)

    out_root = cfg.out_dir
    if args.experiment == "all":
        summaries = run_all(cfg, out_root, args.offline, args.parallel)
    else:
        summaries = [run_single(cfg, args.experiment, out_root, args.offline)]
    for summary in summaries:
        parts = [f"{k}={v}" for k, v in summary.items() if k not in ("rows",)]
        print("done:", ", ".join(parts))
    return 0


def _check_mirror_text() -> None:
    from .mirror_text import run_mirror_text_experiment

    report = run_mirror_text_experiment()
    expected = {"A": 25.0, "B": 100.0, "C": 50.0, "D": 100.0, "E": 100.0}
    got = {row["system"]: row["score_percent"] for row in report.recognition}
    if got != expected:
        raise AssertionError(f"fixture recognition {got} != {expected}")
    again = run_mirror_text_experiment()
    if reporting.canonical_json(report.to_json_dict()) != reporting.canonical_json(
        again.to_json_dict()
    ):
        raise AssertionError("two offline runs differ")


def _check_involution() -> None:
    rng = np.random.default_rng(7)
    x = rng.uniform(0, 1, size=(4, 1, 8, 8)).astype(np.float32)
    if not np.allclose(invert(invert(x)), x, atol=1e-6):
        raise AssertionError("invert(invert(x)) != x")


def _check_controller_clamp() -> None:
    from .quarantine import AdaptiveControllerState, adaptive_update

    state = AdaptiveControllerState()
    for fraction in (1.0,) * 200 + (0.0,) * 200:
        state = adaptive_update(state, fraction)
        if not state.tau_min <= state.tau <= state.tau_max:
            raise AssertionError(f"tau {state.tau} escaped the clamp")


def _check_gradients() -> None:
    from .models import GateConfig, MlpBinary
    from .nncore.gradcheck import grad_check
    from .nncore.ops import bce_with_logits, bce_with_logits_backward

    rng = np.random.default_rng(3)
    gate = MlpBinary(GateConfig(input_dim=6, hidden=5, dropout=0.0), rng)
    for _, param in gate.params.items():
        param.value = param.value.astype(np.float64)
        param.grad = param.grad.astype(np.float64)
    x = rng.normal(size=(4, 6))
    targets = np.array([1.0, 0.0, 1.0, 0.0])

    def loss_fn(backward: bool = False) -> float:
        _, logits, cache = gate.forward(x)
        loss, probs = bce_with_logits(logits, targets)
        if backward:
            gate.backward(bce_with_logits_backward(probs, targets), cache)
        return float(loss)

    worst = grad_check(loss_fn, gate.params)
    if worst >= 1e-4:
        raise AssertionError(f"grad check worst relative error {worst:.2e} >= 1e-4")


def cmd_check(_: argparse.Namespace) -> int:
    checks = (
        ("mirror-text fixtures reproduce recognition scores", _check_mirror_text),
        ("pixel inversion is an involution", _check_involution),
        ("adaptive controller stays clamped", _check_controller_clamp),
        ("gate gradients match finite differences", _check_gradients),
    )
    failures = 0
    for name, fn in checks:
        try:
            fn()
        except Exception as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"PASS {name}")
    return 3 if failures else 0


def main(argv: list[str] | None = None) -> int:
    keep_heap()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return cmd_run(args)
        return cmd_check(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except WorkbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
