"""Benchmark a git revision against the working tree, in alternating pairs.

    python3 tools/ab_bench.py REV --workload W --pairs N --seeds A-B
                              [--seconds S] [--out FILE]

REV (a commit, branch or tag) is exported with `git archive` into a
temporary directory. Each pair then runs `bench/run.py --workload W --seed
SEED --seconds S` once in REV's tree and once in the working tree, one
after the other; even pairs run REV first and odd pairs the working tree
first, so a drift in machine speed does not favour one side. Pair k uses
the k-th seed of A-B, cycling when there are fewer seeds than pairs.

The result goes to FILE (default `BENCH_<sha>.json` at the root of the
repository, after REV's short commit id), under the workload's name; the
entries of other workloads against the same REV are kept. For each
end-to-end metric of `BENCHMARK.json` it holds each side's median and
quartiles, both as the benchmark reports it (times scaled to the reference
job's speed) and as measured (raw setup_s and run_s), the change's wins
(pairs where the working tree is better), and every pair's values.

Exit status: 0 when every run finished, 2 when a benchmark run failed.
"""
from __future__ import annotations

import argparse
import io
import json
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# bench/run.py prints the unscaled medians on one line
MEASURED = re.compile(r"as measured: setup_s (\S+) s, run_s (\S+) s; reference job (\S+) s")


def git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def export(rev: str, dest: Path) -> None:
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", rev], check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


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


def compare(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: each side's median and quartiles, scaled and raw, and
    the change's wins."""
    out = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        entry = {"unit": metric["unit"], "better": metric["better"]}
        for kind in ("scaled", "raw"):
            base = [p["base"][kind][name] for p in pairs]
            change = [p["change"][kind][name] for p in pairs]
            wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
            entry[kind] = {"base": summary(base), "change": summary(change), "wins": wins}
        out[name] = entry
    return out


def main(args: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to benchmark the working tree against")
    parser.add_argument("--workload", required=True)
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
        base_tree = Path(tmp)
        export(sha, base_tree)
        for k in range(opts.pairs):
            seed = opts.seeds[k % len(opts.seeds)]
            order = ("base", "change") if k % 2 == 0 else ("change", "base")
            record = {"seed": seed, "first": order[0]}
            for side in order:
                tree = base_tree if side == "base" else ROOT
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
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
