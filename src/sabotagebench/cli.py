"""Command-line orchestrator.

    sabotagebench run <experiment> [--config FILE] [--seed N] [--out DIR]
                                   [--parallel] [--set key=value]
    sabotagebench check

Exit codes: 0 success, 1 configuration error, 2 runtime failure,
3 self-check failure.

The resolved config is the whole description of a run: `--seed` and
`--out` are shorthands for `--set seed=N` and `--set out_dir=DIR`, and
land in the echoed config.json.  `mirror-text` replays a recorded chat
session: the bundled one, or the file `mirror_text.fixtures` names.

Before anything trains, `cmd_run` makes every directory the run writes
(`out_dir` and each `run all` job's), reads any mirror-text fixtures it
replays and loads the dataset; a failure there removes what it made.

`run all` reads the dataset once and runs every method on it, each in a
fresh process that loads the dataset from one temporary .npz file;
--parallel sets only how many run at once. Each method gets its own
config tree, with an output subdirectory (its config.json names it as
`out_dir`) and a seed offset by its position in the method list. The
`wall_clock_s` and `resources` in each metadata.json count from the
experiment's start, so loading the dataset is not included, and its peak
RSS is the high-water mark of the process that ran it.
"""
from __future__ import annotations

import argparse
import contextlib
import os
import resource
import sys
import time
from dataclasses import astuple
from pathlib import Path

import numpy as np

from . import blas, reporting
from .config import ALL_METHODS, EXPERIMENTS, ExperimentConfig, parse_config, parse_override
from .dataset import MnistSet, invert, load_mnist_dir, mnist_files, synthetic_mnist_set
from .errors import ConfigError, ValidationError, WorkbenchError
from .metrics import lifestar
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
        "--parallel",
        action="store_true",
        help="with 'all': run up to four methods at once",
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


def load_data(cfg: ExperimentConfig) -> tuple[MnistSet, MnistSet]:
    """Resolve the dataset section to (train, test) sets, and check that
    their images are `model.image_size` square and that the mirror-cnn
    subsets fit them when the run includes mirror-cnn."""
    ds = cfg.pipeline.dataset
    source, mnist_dir = ds.source, Path(ds.mnist_dir)
    image_size = cfg.pipeline.model.image_size
    if source == "auto":
        source = "mnist" if all(mnist_files(mnist_dir)) else "synthetic"
    if source == "mnist":
        try:
            train, test = load_mnist_dir(mnist_dir)
        except WorkbenchError as exc:
            raise ConfigError(f"dataset.mnist_dir: {exc}") from exc
        for part in (train, test):
            rows, cols = part.images.shape[2:]
            if rows != image_size or cols != image_size:
                raise ConfigError(f"model.image_size: {image_size} does not match the "
                                  f"{rows}x{cols} images under {mnist_dir}")
    else:
        try:
            train = synthetic_mnist_set(ds.synthetic_train, ds.synthetic_seed,
                                        image_size=image_size)
            test = synthetic_mnist_set(ds.synthetic_test, ds.synthetic_seed + 1,
                                       image_size=image_size)
        except ValidationError as exc:
            raise ConfigError(f"model.image_size: {exc}") from exc
    if cfg.data["experiment"] in ("mirror-cnn", "all"):
        mirror = cfg.pipeline.mirror_cnn
        if 2 * mirror.subset_size > train.count:
            raise ConfigError(
                f"mirror_cnn.subset_size: two disjoint subsets of {mirror.subset_size} "
                f"images need {2 * mirror.subset_size}, but the train set has {train.count}"
            )
        try:
            pool_split(test.count, mirror.train_pool_fraction)
        except ValidationError as exc:
            raise ConfigError(
                f"mirror_cnn.train_pool_fraction: {mirror.train_pool_fraction} of the "
                f"{test.count} test images leaves no train or no eval pool ({exc})"
            ) from exc
    return train, test


def _make_out_dir(out_dir: Path, made: list[Path]) -> None:
    """Create `out_dir` and its parents, each new one put first in `made`
    (deepest first); one that cannot be made is a config error."""
    made[:0] = [folder for folder in (out_dir, *out_dir.parents) if not folder.exists()]
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"out_dir: cannot create {out_dir} ({exc.strerror})") from exc


def run_single(cfg: ExperimentConfig, data: tuple[MnistSet, MnistSet] | None) -> dict:
    """Run the experiment `cfg` names on the (train, test) sets `data` (None
    for mirror-text), write its artifacts to `cfg.out_dir`, which exists,
    and return headline numbers."""
    started, clock = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
    experiment, out_dir = cfg.data["experiment"], cfg.out_dir
    reporting.echo_config(out_dir, cfg.data)
    summary: dict = {"experiment": experiment, "out_dir": str(out_dir)}
    payload: dict = {}

    if experiment == "mirror-text":
        # imported here so the other experiments never load mirror_text
        from .mirror_text import run_mirror_text_experiment

        report = run_mirror_text_experiment(cfg.pipeline.mirror_text.fixtures)
        reporting.write_mirror_text_report(out_dir, report)
        payload = report.metadata
        summary["recognition"] = {
            row["system"]: row["score_percent"] for row in report.recognition
        }
    else:
        # Built per call: a function patched into this module after import
        # (bench/tracer.py wraps train_baseline, train_hard and
        # run_mirror_experiment) then runs.
        pipelines = {"baseline": train_baseline, "soft": train_soft, "hard": train_hard,
                     "irm": train_irm, "sweep": run_sweep, "adaptive": train_adaptive,
                     "mirror-cnn": run_mirror_experiment}
        report = pipelines[experiment](cfg.pipeline, *data)
        if experiment == "mirror-cnn":
            reporting.write_mirror_cnn_report(out_dir, report)
            summary["self_vs_cross_accuracy"] = report.self_vs_cross_accuracy
            summary["semiself_accuracy"] = report.semiself_accuracy
        elif experiment == "sweep":
            reporting.write_sweep_artifacts(out_dir, report)
            # keyed by threshold as the quarantine log names print it
            payload = {"latencies_s": {f"{run.extras['threshold']}": run.latencies
                                       for run in report["reports"]}}
        else:
            if report.extras.get("gate_inverted"):
                print(f"warning: the {experiment} gate is inverted: it scores sabotaged "
                      f"images above clean ones (calibration AUC "
                      f"{report.extras['gate_val_auc']:.3f})", file=sys.stderr)
            reporting.write_run_report(out_dir, report)
            payload = {"latencies_s": report.latencies}
            summary["rejection_rate"] = report.detection.rejection_rate
            summary["accuracy_on_accepted"] = report.detection.accuracy_on_accepted
            summary["detection_f1"] = report.detection.f1
            summary["final_test_error"] = report.epochs[-1].test_error
    _write_metadata(out_dir, started, clock, cfg.data, payload)
    return summary


def _peak_rss_mb(usage: resource.struct_rusage) -> float:
    """This process's peak RSS in MiB: VmHWM where /proc/self/status gives
    it, else `usage.ru_maxrss`."""
    # exec keeps the parent's high-water mark in ru_maxrss, not in VmHWM
    with contextlib.suppress(OSError):
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024  # kB
    rss_unit = 1 if sys.platform == "darwin" else 1024  # ru_maxrss: bytes vs KiB
    return usage.ru_maxrss * rss_unit / 2**20


def _write_metadata(out_dir: Path, started: resource.struct_rusage, clock: float,
                    resolved: dict, payload: dict) -> None:
    """metadata.json: the seconds since `clock` as `wall_clock_s`, `payload`,
    this process's resource use since `started` (faults and CPU seconds;
    peak RSS is the process's high-water mark, `_peak_rss_mb`), the
    numpy/BLAS build with the BLAS thread settings as found in the
    environment (None when unset), the OpenBLAS thread count in effect and
    its core name (None without numpy's bundled OpenBLAS), and the resolved
    config's digest."""
    wall_clock_s, now = time.perf_counter() - clock, resource.getrusage(resource.RUSAGE_SELF)
    try:
        build = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy before 1.26 prints its config and takes no mode
        build = {}
    in_effect = blas.in_effect()
    reporting.write_metadata(
        out_dir,
        {
            "wall_clock_s": wall_clock_s,
            **payload,
            "resources": {
                "peak_rss_mb": _peak_rss_mb(now),
                "minor_faults": now.ru_minflt - started.ru_minflt,
                "user_s": now.ru_utime - started.ru_utime,
                "sys_s": now.ru_stime - started.ru_stime,
            },
            "environment": {
                "numpy": np.__version__,
                "blas": build.get("name"),
                "blas_version": build.get("version"),
                "blas_config": build.get("openblas configuration"),
                "blas_threads": {
                    name: os.environ.get(name)
                    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                },
                "blas_threads_in_effect": in_effect["threads"],
                "blas_core": in_effect["core"],
            },
            "config_sha256": reporting.config_digest(resolved),
        },
    )


def _save_sets(path: Path, data: tuple[MnistSet, MnistSet]) -> None:
    """Write the (train, test) sets `data` to the .npz file `path`."""
    train, test = data
    np.savez(path, train_images=train.images, train_labels=train.labels,
             test_images=test.images, test_labels=test.labels)


def _run_saved(cfg: ExperimentConfig, sets: Path) -> dict:
    """run_single on the (train, test) sets `_save_sets` wrote to `sets`,
    which mirror-text does not read.

    A `run all` job gets its data from a file, not as a pickled argument:
    its process would hold the pickle beside the arrays rebuilt from it,
    and its peak RSS would count a second copy of the dataset."""
    data = None
    if cfg.data["experiment"] != "mirror-text":
        with np.load(sets) as saved:
            data = tuple(MnistSet(saved[f"{part}_images"], saved[f"{part}_labels"])
                         for part in ("train", "test"))
    return run_single(cfg, data)


def _jobs(cfg: ExperimentConfig) -> list[ExperimentConfig]:
    """The runs `cfg` asks for: itself, or under `all` one config tree per
    method (see the module docstring)."""
    if cfg.data["experiment"] != "all":
        return [cfg]
    return [
        ExperimentConfig({**cfg.data, "seed": cfg.seed + index, "experiment": experiment,
                          "out_dir": str(cfg.out_dir / experiment)})
        for index, experiment in enumerate(ALL_METHODS)
    ]


def run_all(cfg: ExperimentConfig, jobs: list[ExperimentConfig],
            data: tuple[MnistSet, MnistSet], parallel: bool) -> list[dict]:
    """Run the `jobs` of the `run all` config `cfg` on `data`, each into its
    out_dir, which exists, and write lifestar.json when `cfg` weighs it."""
    # imported here: every other run would pay for loading the process
    # pool and multiprocessing at start-up
    import multiprocessing
    import tempfile
    from concurrent.futures import ProcessPoolExecutor

    # A fresh process per job, so its metadata's resources are its own.
    # max_tasks_per_child refuses fork; the forkserver forks each job from
    # one interpreter that has imported the package, sooner than spawn.
    context = multiprocessing.get_context("forkserver")
    context.set_forkserver_preload(["sabotagebench.cli"])
    workers = min(4, len(jobs)) if parallel else 1
    # an initializer: importing the package sets no BLAS thread count
    with (tempfile.TemporaryDirectory(prefix="sabotagebench-") as folder,
          ProcessPoolExecutor(max_workers=workers, mp_context=context, max_tasks_per_child=1,
                              initializer=blas.one_thread) as pool):
        sets = Path(folder) / "sets.npz"
        _save_sets(sets, data)
        futures = []
        for index, job in enumerate(jobs):
            # at most `workers` jobs in the pool, since it queues calls
            # beyond its workers where no cancel reaches them; a failure
            # raises here, and no later job starts
            if index >= workers:
                futures[index - workers].result()
            futures.append(pool.submit(_run_saved, job, sets))
        summaries = [future.result() for future in futures]

    weights = astuple(cfg.pipeline.lifestar)
    if None not in weights:
        by_name = {s["experiment"]: s for s in summaries}
        reporting.write_json(cfg.out_dir / "lifestar.json", lifestar(
            weights, by_name["irm"]["detection_f1"],
            by_name["mirror-cnn"]["self_vs_cross_accuracy"]))
    return summaries


def cmd_run(args: argparse.Namespace) -> int:
    overrides = dict(parse_override(item) for item in args.overrides)
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["out_dir"] = args.out
    overrides["experiment"] = args.experiment
    cfg = parse_config(args.config, overrides)
    jobs, made = _jobs(cfg), []
    try:
        for out_dir in dict.fromkeys((cfg.out_dir, *(job.out_dir for job in jobs))):
            _make_out_dir(out_dir, made)
        if args.experiment in ("mirror-text", "all"):
            # imported here so the other experiments never load mirror_text
            from .mirror_text import import_fixtures

            import_fixtures(cfg.pipeline.mirror_text.fixtures)
        data = None if args.experiment == "mirror-text" else load_data(cfg)
    except WorkbenchError:
        # a run that cannot start removes the directories it made, deepest
        # first; one it cannot remove (a path through "..", say) stays
        for folder in made:
            with contextlib.suppress(OSError):
                folder.rmdir()
        raise
    if args.experiment == "all":
        summaries = run_all(cfg, jobs, data, args.parallel)
    else:
        summaries = [run_single(cfg, data)]
    for summary in summaries:
        print("done:", ", ".join(f"{k}={v}" for k, v in summary.items()))
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
        raise AssertionError("two replays differ")


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
    blas.one_thread()
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
