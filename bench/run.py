"""Benchmark of the sabotagebench workbench.

    python3 bench/run.py --workload {baseline,hard,mirror,all} --seed N
                         [--seconds S] [--trace 0|1]

Runs from the root of a source checkout (the package is imported from
`src/`, nothing is installed). Each repetition is its own process, started
with the BLAS thread count set to the number of usable cores.

--trace 0 repeats the untraced workload for about S seconds (at least two
repetitions) and reports the end-to-end metrics, each the median over the
repetitions: setup_s, run_s and peak_rss_mb. Set-up is also repeated in
processes that stop once their inputs are ready, so setup_s has more samples.
Times are reported at reference speed (see reference.py): scaled by how
much slower or faster than usual the machine ran a fixed job at the time.

--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones (see tracer.py), plus trace.overhead_s.

Every run checks that the deterministic artifacts of all its repetitions
are byte-identical, that every wrapped name the workload should call was
called (traced runs), that per-layer self times add up to the traced run_s,
and that the nets learned. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}; the lines before it
give every metric with its unit, the quality numbers and the environment.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import REFERENCE_S
from tracer import LAYER_TOTALS, WRAPS, binding
from workloads import WORKLOADS, Workload, digests, quality

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
WORKER = BENCH / "worker.py"
OUT = REPO / ".bench_out"

# Unit of each metric, by the last part of its name.
UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "ms": "ms",
    "ms_p50": "ms",
    "ms_p99": "ms",
    "calls": "count",
    "count": "count",
    "samples": "count",
    "samples_forwarded": "count",
    "samples_trained": "count",
    "samples_per_s": "1/s",
    "gflop": "GFLOP",
    "bytes": "B",
    "overhead_s": "s",
    "forward_reuse": "fraction",
    "flagged_share": "fraction",
    "test_error": "fraction",
    "detect_f1": "fraction",
}
CONCURRENT_REPS = 2
SETUP_PROBES = 4  # set-up-only processes per untraced run, after one warm-up
WORKER_TIMEOUT_S = 150
ADD_UP_TOLERANCE_MS = 0.01


def unit(metric: str) -> str:
    return UNITS[metric.rsplit(".", 1)[-1]]


class RepFailed(Exception):
    pass


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = REPO / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return None


class Runner:
    """Starts the worker processes of one benchmark run, checks their
    artifacts and keeps their results.

    Repetitions run `concurrency` at a time, side by side, and each worker
    gets nproc // concurrency BLAS threads, so the cores are shared out and
    never oversubscribed.
    """

    def __init__(self, workload: Workload, seed: int, work_dir: Path):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.nproc = len(os.sched_getaffinity(0))
        self.concurrency = min(CONCURRENT_REPS, self.nproc)
        self.threads = self.nproc // self.concurrency
        self.env = dict(os.environ)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(self.threads)
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] | None = None
        self.quality: dict[str, float] | None = None

    def out_dir(self, slot: int) -> Path:
        return self.work_dir / f"out{slot}"

    def _together(self, modes: list[str]) -> list[dict | RepFailed]:
        """Start one worker per mode at once and wait for all of them."""
        procs = []
        try:
            for slot, mode in enumerate(modes):
                out_dir = self.out_dir(slot)
                shutil.rmtree(out_dir, ignore_errors=True)
                spec = {"argv": self.workload.argv(self.seed, out_dir), "mode": mode}
                spec["spawned"] = time.monotonic()
                procs.append(subprocess.Popen(
                    [sys.executable, str(WORKER), json.dumps(spec)],
                    cwd=REPO, env=self.env, text=True,
                    stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                ))
            deadline = time.monotonic() + WORKER_TIMEOUT_S
            return [self._result(proc, mode, deadline) for proc, mode in zip(procs, modes)]
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.communicate()

    @staticmethod
    def _result(proc: subprocess.Popen, mode: str, deadline: float) -> dict | RepFailed:
        try:
            stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return RepFailed(f"{mode} worker timed out after {WORKER_TIMEOUT_S} s")
        lines = stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = "\n".join(stderr.strip().splitlines()[-8:])
            return RepFailed(f"{mode} worker exited {proc.returncode}:\n{tail}")
        try:
            result = json.loads(lines[-1])
        except ValueError:
            return RepFailed(f"{mode} worker printed no result: {lines[-1][:200]!r}")
        if result["exit"] != 0:
            return RepFailed(f"sabotagebench exited {result['exit']}")
        return result

    def chunks(self, modes: list[str]):
        """Yield (slot, mode, result) for `modes`, `concurrency` at a time;
        a chunk's output directories stay until the next chunk starts."""
        for start in range(0, len(modes), self.concurrency):
            chunk = modes[start : start + self.concurrency]
            yield from zip(range(len(chunk)), chunk, self._together(chunk))

    def setup(self, count: int) -> list[dict]:
        """Processes that stop once their inputs are ready."""
        results = [result for _, _, result in self.chunks(["setup"] * count)]
        for result in results:
            if isinstance(result, RepFailed):
                raise result
        return results

    def reps(self, modes: list[str]) -> list[tuple[str, dict]]:
        """Full workload repetitions, checked. Returns those that ran to the
        end, including any whose artifacts then failed a check: their
        timings stand, and the failure is counted."""
        ran = []
        try:
            for slot, mode, result in self.chunks(modes):
                self.attempted += 1
                if isinstance(result, RepFailed):
                    self.failures.append(f"{mode} repetition {self.attempted}: {result}")
                    continue
                ran.append((mode, result))
                try:
                    self.check(result, self.out_dir(slot))
                except (RepFailed, OSError, ValueError, KeyError) as exc:
                    self.failures.append(f"{mode} repetition {self.attempted}: {exc}")
        finally:
            for slot in range(self.concurrency):
                shutil.rmtree(self.out_dir(slot), ignore_errors=True)
        return ran

    def check(self, result: dict, out_dir: Path) -> None:
        found = digests(out_dir)
        if self.digests is None:
            self.digests = found
            self.quality = quality(self.workload.name, out_dir)
        elif found != self.digests:
            differ = sorted(k for k in set(found) | set(self.digests)
                            if found.get(k) != self.digests.get(k))
            raise RepFailed(f"artifacts differ from the first repetition: {differ}")
        limit = self.workload.max_test_error
        if limit is not None and not self.quality["test_error"] <= limit:
            raise RepFailed(
                f"test_error {self.quality['test_error']} > {limit}: the nets did not learn"
            )
        if "trace" in result:
            self.check_trace(result)

    def check_trace(self, result: dict) -> None:
        missing = [
            binding(w) for w in WRAPS
            if self.workload.name in w.workloads and not result["calls"].get(binding(w))
        ]
        if missing:
            raise RepFailed(f"wrapped names never called: {missing}")
        total_ms = sum(result["trace"][m] for m in LAYER_TOTALS.values())
        if abs(total_ms - result["run_s"] * 1e3) > ADD_UP_TOLERANCE_MS:
            raise RepFailed(
                f"layer self times add up to {total_ms} ms, traced run_s is {result['run_s'] * 1e3} ms"
            )


def reference_run_s(result: dict) -> float:
    """A repetition's run_s at reference speed."""
    return result["run_s"] * REFERENCE_S / result["reference_s"]


def measure(runner: Runner, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Repeat the workload for about `seconds`; returns (metrics, extras).

    A round is two repetitions of the same seed: two untraced ones, or an
    untraced and a traced one. Rounds repeat while another fits in time.
    """
    deadline = time.monotonic() + seconds
    (warm,) = runner.setup(1)  # fills the bytecode cache; not timed
    extras: dict = {"env": warm["env"]}
    setups = [] if trace else [r["setup_s"] for r in runner.setup(SETUP_PROBES)]
    modes = ["run", "trace"] if trace else ["run", "run"]
    done: dict[str, list[dict]] = {"run": [], "trace": []}
    walls: list[float] = []
    while not walls or time.monotonic() + statistics.median(walls) <= deadline:
        t0 = time.monotonic()
        for mode, result in runner.reps(modes):
            done[mode].append(result)
        walls.append(time.monotonic() - t0)
        if runner.failures:
            break
    plain, traced = done["run"], done["trace"]
    if not plain or (trace and not traced):
        raise RepFailed("no repetition ran to the end")

    if not trace:
        setups += [r["setup_s"] for r in plain]
        reference_s = statistics.median(r["reference_s"] for r in plain)
        run_s = sorted(map(reference_run_s, plain))
        metrics = {
            "setup_s": statistics.median(setups) * REFERENCE_S / reference_s,
            "run_s": statistics.median(run_s),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        extras.update(
            setup_samples=len(setups),
            run_samples=len(run_s),
            run_s_max=run_s[-1],
            measured_setup_s=statistics.median(setups),
            measured_run_s=statistics.median(r["run_s"] for r in plain),
            reference_s=reference_s,
        )
        return metrics, extras

    metrics = {
        name: statistics.median(r["trace"][name] for r in traced) for name in traced[0]["trace"]
    }
    # at reference speed, so that the two cores' speeds do not count as overhead
    metrics["trace.overhead_s"] = statistics.median(map(reference_run_s, traced)) - statistics.median(
        map(reference_run_s, plain)
    )
    quality = runner.quality or {}
    metrics["training.test_error"] = quality.get("test_error", 0.0)
    metrics["quarantine.detect_f1"] = quality.get("detect_f1", 0.0)
    metrics["quarantine.flagged_share"] = quality.get("flagged_share", 0.0)
    return metrics, extras


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict | None:
    work_dir = OUT / f"{name}-seed{seed}-{os.getpid()}"
    runner = Runner(WORKLOADS[name], seed, work_dir)
    try:
        metrics, extras = measure(runner, seconds, trace)
    except RepFailed as exc:
        print(f"{name}: {exc}", file=sys.stderr)
        for failure in runner.failures:
            print(f"  {failure}", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for failure in runner.failures:
        print(f"{name}: FAILED {failure}", file=sys.stderr)

    env = {
        "git_commit": git_commit(),
        **extras.pop("env"),
        "blas_threads_env": runner.threads,
        "concurrent_reps": runner.concurrency,
        "nproc": runner.nproc,
    }
    attempted, failed = runner.attempted, len(runner.failures)
    print(f"workload {name} seed {seed} trace {int(trace)}")
    for key, value in metrics.items():
        print(f"  {key:36s} {value:.6g} {unit(key)}")
    if not trace:
        print(f"  run_s max {extras['run_s_max']:.6g} s over n={extras['run_samples']};"
              f" setup_s over n={extras['setup_samples']}")
        print(f"  as measured: setup_s {extras['measured_setup_s']:.6g} s,"
              f" run_s {extras['measured_run_s']:.6g} s;"
              f" reference job {extras['reference_s']:.6g} s against {REFERENCE_S} s")
        for key, value in (runner.quality or {}).items():
            print(f"  {key:36s} {value:.6g} {unit(key)}")
    print(f"  {'failed_share':36s} {failed / attempted:.6g} fraction ({failed} of {attempted})")
    print("env " + json.dumps(env, sort_keys=True))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit(key)} for key, value in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # so that the finally blocks stop the workers when the run is terminated
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (REPO / "src" / "sabotagebench" / "cli.py").is_file():
        print(f"no workbench source under {REPO / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result = run_one(name, args.seed, args.seconds, bool(args.trace))
        if result is None:
            return 1
        out["correct"] = out["correct"] and result["correct"]
        out["attempted"] += result["attempted"]
        out["failed"] += result["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        out["metrics"].update({prefix + k: v for k, v in result["metrics"].items()})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
