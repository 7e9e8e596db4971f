"""Self-test of the benchmark itself (not of the workbench).

    python3 bench/selftest.py

Checks the span arithmetic on a synthetic tree, runs a tiny instance of each
workload traced and untraced, and fails if a wrapped name the workload
should call got zero calls, if the layer self times do not add up to the
traced run_s, if the artifacts differ between the two, or if the metrics
the benchmark emits are not the ones BENCHMARK.json declares. About a
minute on two cores.
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import run
from tracer import LAYER_TOTALS, Span, Tracer, WRAPS, binding, self_times
from workloads import WORKLOADS, digests

TINY = {
    "baseline": ("dataset.synthetic_train=128", "dataset.synthetic_test=64", "train.epochs=1"),
    "hard": (
        "dataset.synthetic_train=128",
        "dataset.synthetic_test=64",
        "train.epochs=1",
        "gate.epochs=1",
        "hard.cutoff=auto",
    ),
    "mirror": (
        "dataset.synthetic_train=128",
        "dataset.synthetic_test=64",
        "mirror_cnn.subset_size=32",
        "mirror_cnn.train_pairs_per_mode=16",
        "mirror_cnn.eval_pairs_per_mode=8",
        "mirror_cnn.gate_epochs=1",
    ),
}


def tiny(name: str):
    # too small to learn, so the learning check is off
    return dataclasses.replace(WORKLOADS[name], settings=TINY[name], max_test_error=None)


class SpanArithmetic(unittest.TestCase):
    def test_self_time_subtracts_the_union_of_overlapping_children(self):
        spans = [
            Span("root", 0.0, 10.0, None),
            Span("a", 1.0, 4.0, 0),
            Span("b", 3.0, 6.0, 0),  # overlaps a
            Span("c", 9.0, 12.0, 0),  # runs past the root's end
            Span("a1", 2.0, 3.0, 1),
            Span("a2", 2.5, 3.5, 1),  # overlaps a1
        ]
        got = self_times(spans)
        # root: 10 - |[1,6] u [9,10]| ; a: 3 - |[2,3.5]|
        self.assertEqual(got, [4.0, 1.5, 3.0, 3.0, 1.0, 1.0])

    def test_nested_spans_add_up_to_the_root(self):
        ticks = iter(range(100))
        t = Tracer(clock=lambda: float(next(ticks)))

        def leaf():
            return None

        def middle():
            wrapped_leaf()
            wrapped_leaf()

        wrapped_leaf = t.wrap(leaf, "nncore.leaf", "leaf")
        wrapped_middle = t.wrap(middle, "models.middle", "middle")
        t.open_root(t.clock())
        wrapped_middle()
        wrapped_leaf()
        t.close_root(t.clock())
        own = self_times(t.spans)
        root = t.spans[t.root]
        self.assertAlmostEqual(sum(own), root.end - root.start)
        self.assertEqual(t.calls, {"leaf": 3, "middle": 1})
        self.assertEqual([s.parent for s in t.spans], [None, 0, 1, 1, 0])

    def test_a_zero_call_name_fails_the_run(self):
        runner = run.Runner(tiny("baseline"), 0, Path("unused"))
        result = {"calls": {binding(w): 1 for w in WRAPS}, "trace": {}, "run_s": 0.0}
        del result["calls"]["sabotagebench.models.conv2d"]
        with self.assertRaisesRegex(run.RepFailed, "never called"):
            runner.check_trace(result)


class DeterminismCheck(unittest.TestCase):
    def test_latency_column_is_the_only_one_skipped(self):
        work = run.OUT / "selftest-digests"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            log = work / "quarantine_log_hard_seed0.csv"
            header = "epoch,batch,tau,flagged_count,sabotaged_count,f_avg,latency_s\n"
            log.write_text(header + "0,0,0.5,3,1,0.1,0.0012\n")
            (work / "metadata.json").write_text('{"wall_clock_s": 1.0}')
            first = digests(work)
            log.write_text(header + "0,0,0.5,3,1,0.1,0.0099\n")
            (work / "metadata.json").write_text('{"wall_clock_s": 2.0}')
            self.assertEqual(digests(work), first)
            log.write_text(header + "0,0,0.5,4,1,0.1,0.0012\n")
            self.assertNotEqual(digests(work), first)
        finally:
            shutil.rmtree(work, ignore_errors=True)


class TinyWorkloads(unittest.TestCase):
    """Each workload, tiny, traced and untraced, through run.measure."""

    declared = json.loads((run.REPO / "BENCHMARK.json").read_text())

    def measure(self, name: str, trace: bool) -> dict:
        work = run.OUT / f"selftest-{name}"
        runner = run.Runner(tiny(name), 3, work)
        try:
            metrics, _ = run.measure(runner, 0, trace)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        self.assertEqual(runner.failures, [])
        return metrics

    def check(self, name: str) -> None:
        per_layer = self.measure(name, trace=True)
        declared = {m["name"]: m["unit"] for m in self.declared["per_layer"]}
        self.assertEqual({k: run.unit(k) for k in per_layer}, declared)
        layers = sum(per_layer[m] for m in LAYER_TOTALS.values())
        self.assertGreater(layers, 0)
        end_to_end = self.measure(name, trace=False)
        declared = {m["name"]: m["unit"] for m in self.declared["end_to_end"]}
        self.assertEqual({k: run.unit(k) for k in end_to_end}, declared)

    def test_baseline(self):
        self.check("baseline")

    def test_hard(self):
        self.check("hard")

    def test_mirror(self):
        self.check("mirror")

    def test_every_wrapped_name_belongs_to_some_workload(self):
        for wrap in WRAPS:
            self.assertTrue(set(wrap.workloads) <= set(WORKLOADS), wrap)
            # config spans run only during set-up, outside the root
            self.assertIn(wrap.span.split(".")[0], {*LAYER_TOTALS, "config"}, wrap)


class BareDirectory(unittest.TestCase):
    def test_fails_without_the_workbench_source(self):
        bare = run.OUT / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(run.REPO / "BENCHMARK.json", bare)
            shutil.copytree(run.BENCH, bare / run.BENCH.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, f"{run.BENCH.name}/run.py", "--workload", "baseline",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
