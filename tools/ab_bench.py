"""Benchmark a git revision against the working tree, in alternating pairs.

    python3 tools/ab_bench.py REV --workload W --pairs N --seeds A-B
                              [--seconds S] [--out FILE]

W is one of the benchmark's workloads (`bench.workloads.WORKLOADS`); to
cover several, run the tool once for each.

REV (a commit, branch or tag) is exported with `git archive` into a
temporary directory, and the working tree is copied into another: the files
git tracks or does not ignore, as they are on disk, so neither side starts
with the caches or outputs (`__pycache__`, `.bench_out/`) of earlier runs.
Each pair then runs `bench/run.py --workload W --seed SEED --seconds S`
once in each copy, one after the other; even pairs run REV first and odd
pairs the working tree first, so a drift in machine speed does not favour
one side. Pair k uses the k-th seed of A-B, cycling when there are fewer
seeds than pairs.

The result goes to FILE (default `BENCH_<sha>.json` at the root of the
repository, after REV's short commit id), under the workload's name; the
entries of other workloads against the same REV are kept. For each
end-to-end metric of `BENCHMARK.json` it holds each side's median and
quartiles, both as the benchmark reports it (times scaled to the reference
job's speed) and as measured (raw setup_s and run_s), the change's wins
(pairs where the working tree is better), and every pair's values. Under
`reference_s` it holds each side's median reference job time (seconds, as
measured) and the pairs where the working tree's reference job was slower:
the scaled times are divided by it, so it can move them while the
workload does not.

After the table, one verdict line per end-to-end metric reads the scaled
values: `gain` when the working tree wins at least 9 in 10 of at least 10
pairs and its median is better than REV's by more than the interquartile
range of REV's runs; `regression` when its median is worse than REV's by
more than the metric's relative `bound` in `BENCHMARK.json`; `unresolved`
otherwise.

Exit status: 0 when every run finished, 2 when the arguments are refused or
a benchmark run failed.
"""
from __future__ import annotations

import argparse
import io
import json
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from bench.workloads import WORKLOADS  # noqa: E402

# bench/run.py prints the unscaled medians on one line
MEASURED = re.compile(r"as measured: setup_s (\S+) s, run_s (\S+) s; reference job (\S+) s")


def git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """Extract the files of commit `rev` into the directory `dest`."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", rev], check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def copy_worktree(dest: Path) -> None:
    """Copy the working tree's files that git tracks or does not ignore, as
    they are on disk, into the directory `dest`."""
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, names.split("\0")):
        source = ROOT / name
        if source.exists():  # a tracked file deleted on disk is left out
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name, follow_symlinks=False)


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `bench/run.py` run in `tree`: its metrics, scaled and raw."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = "\n".join(done.stderr.strip().splitlines()[-8:])
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {done.returncode}:\n{tail}")
    result = json.loads(lines[-1])
    scaled = {name: m["value"] for name, m in result["metrics"].items()}
    raw = dict(scaled)
    for line in lines:
        found = MEASURED.search(line)
        if found:
            raw["setup_s"], raw["run_s"], raw["reference_s"] = map(float, found.groups())
    return {"scaled": scaled, "raw": raw, "failed": result["failed"],
            "attempted": result["attempted"]}


def summary(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def verdict(scaled: dict, pairs: int, lower: bool, bound: float) -> str:
    """`gain`, `regression` or `unresolved` for one metric's scaled entry
    of `compare` (see the module docstring)."""
    base, change = scaled["base"]["median"], scaled["change"]["median"]
    gained = base - change if lower else change - base
    if pairs >= 10 and scaled["wins"] >= 0.9 * pairs and \
            gained > scaled["base"]["q3"] - scaled["base"]["q1"]:
        return "gain"
    if -gained > bound * base:
        return "regression"
    return "unresolved"


def compare(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: each side's median and quartiles, scaled and raw, the
    change's wins, and the verdict on the scaled values."""
    out = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        entry = {"unit": metric["unit"], "better": metric["better"]}
        for kind in ("scaled", "raw"):
            base = [p["base"][kind][name] for p in pairs]
            change = [p["change"][kind][name] for p in pairs]
            wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
            entry[kind] = {"base": summary(base), "change": summary(change), "wins": wins}
        entry["verdict"] = verdict(entry["scaled"], len(pairs), lower, metric["bound"])
        out[name] = entry
    return out


def reference(pairs: list[dict]) -> dict:
    """Each side's median reference job time, and the pairs where the
    change's reference job was slower."""
    base = [p["base"]["raw"]["reference_s"] for p in pairs]
    change = [p["change"]["raw"]["reference_s"] for p in pairs]
    return {"base": statistics.median(base), "change": statistics.median(change),
            "slower": sum(c > b for b, c in zip(base, change))}


def main(args: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to benchmark the working tree against")
    # one workload per file entry: `bench/run.py --workload all` names its
    # metrics per workload, and the pairs read the bare names
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seeds", type=seed_range, required=True, metavar="A-B")
    parser.add_argument("--seconds", type=float, default=30,
                        help="bench/run.py --seconds of each run (default 30)")
    parser.add_argument("--out", type=Path, help="result file (default BENCH_<sha>.json)")
    opts = parser.parse_args(args)
    if opts.pairs < 1:
        parser.error("--pairs must be at least 1")

    sha = git("rev-parse", "--verify", f"{opts.rev}^{{commit}}")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    pairs = []
    with tempfile.TemporaryDirectory(prefix="ab_bench_") as tmp:
        base_tree, change_tree = Path(tmp, "base"), Path(tmp, "change")
        export(sha, base_tree)
        copy_worktree(change_tree)
        for k in range(opts.pairs):
            seed = opts.seeds[k % len(opts.seeds)]
            order = ("base", "change") if k % 2 == 0 else ("change", "base")
            record = {"seed": seed, "first": order[0]}
            for side in order:
                tree = base_tree if side == "base" else change_tree
                try:
                    record[side] = bench(tree, opts.workload, seed, opts.seconds)
                except RuntimeError as exc:
                    print(exc, file=sys.stderr)
                    return 2
            pairs.append(record)
            line = ", ".join(
                f"{m['name']} {record['base']['scaled'][m['name']]:.4g} -> "
                f"{record['change']['scaled'][m['name']]:.4g}"
                for m in metrics
            )
            print(f"pair {k + 1}/{opts.pairs} seed {seed} ({order[0]} first): {line}", flush=True)

    result = {
        "change": {"head": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))},
        "seconds": opts.seconds,
        "metrics": compare(pairs, metrics),
        "reference_s": reference(pairs),
        "pairs": pairs,
    }
    out = opts.out or ROOT / f"BENCH_{sha[:7]}.json"
    # one file per base revision, one entry per workload
    stored = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    if stored.get("base", {}).get("sha") != sha:
        stored = {"base": {"rev": opts.rev, "sha": sha}, "workloads": {}}
    stored["workloads"][opts.workload] = result
    out.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for name, entry in result["metrics"].items():
        for kind in ("scaled", "raw"):
            e = entry[kind]
            print(f"{name:12s} {kind:6s} base {e['base']['median']:.4g} "
                  f"[{e['base']['q1']:.4g}, {e['base']['q3']:.4g}]  change "
                  f"{e['change']['median']:.4g} [{e['change']['q1']:.4g}, "
                  f"{e['change']['q3']:.4g}]  wins {e['wins']}/{len(pairs)}")
    ref = result["reference_s"]
    print(f"reference_s  raw    base {ref['base']:.4g}  change {ref['change']:.4g}  "
          f"change slower {ref['slower']}/{len(pairs)}")
    for name, entry in result["metrics"].items():
        print(f"verdict {name}: {entry['verdict']}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
