"""Run one experiment in a git revision and in the working tree, and compare
the artifacts of the two runs.

    python3 tools/compare_artifacts.py REV EXPERIMENT [--seed N] [--set key=value ...]
    python3 tools/compare_artifacts.py REV --workload NAME|all --seed N [--set key=value ...]

REV (a commit, branch or tag) is exported with `git archive` into a
temporary directory. Each tree then runs
`sabotagebench run EXPERIMENT --seed N --set ...` from its own `src/`, one
after the other, and the two output directories are compared with the
benchmark's `bench.workloads.digests`: metadata.json is skipped, the
quarantine logs are compared without their latency_s column and
config.json without its out_dir.

EXPERIMENT may be `all`. `run all` writes one subdirectory per experiment;
each is digested on its own, and its artifacts are named
`<experiment>/<file>`. Files beside the subdirectories (lifestar.json) keep
their own names.

With --workload, the experiment and its settings are those of the named
benchmark workload (`bench.workloads.WORKLOADS`), run as the benchmark
runs it at seed N; --set items are applied after the workload's own.
`--workload all` runs every workload in turn, and names each artifact
`<workload>: <file>`.

For each differing `.json` artifact, the dotted keys whose values differ
follow the list, one per line (`report_hard_seed5.json: extras.model_checksum`;
list items are numbered from 0, and config.json's out_dir is left out).

Exit status: 0 when every artifact agrees, 1 when any differs, 2 when a run
fails.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from bench.workloads import WORKLOADS, digests  # noqa: E402
from tools.ab_bench import export  # noqa: E402

RUN = "import sys; from sabotagebench.cli import main; sys.exit(main(sys.argv[1:]))"


def run(tree: Path, argv: list[str]) -> int:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    cmd = [sys.executable, "-c", RUN, *argv]
    return subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL).returncode


def tree_digests(out: Path) -> dict[str, str]:
    """`digests` of a run's output directory and of each of its
    subdirectories, whose artifacts are named `<subdirectory>/<file>`."""
    found = {}
    with tempfile.TemporaryDirectory(prefix="top_") as top:
        # `digests` reads every entry of a directory, so the top level's
        # files are digested through links in a directory of their own
        for path in sorted(out.iterdir()):
            if path.is_dir():
                found.update({f"{path.name}/{name}": digest
                              for name, digest in digests(path).items()})
            else:
                (Path(top) / path.name).symlink_to(path)
        found.update(digests(Path(top)))
    return found


def differing_keys(old, new, prefix: str = "") -> list[str]:
    """Dotted paths at which two JSON values differ; a key or list item
    present on one side only is a difference at its own path."""
    if isinstance(old, dict) and isinstance(new, dict):
        return [path
                for key in sorted(old.keys() | new.keys())
                for path in (differing_keys(old[key], new[key], f"{prefix}{key}.")
                             if key in old and key in new else [f"{prefix}{key}"])]
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [path for i, (a, b) in enumerate(zip(old, new))
                for path in differing_keys(a, b, f"{prefix}{i}.")]
    return [] if old == new else [prefix.rstrip(".") or "(whole file)"]


def json_keys(name: str, old_out: Path, new_out: Path) -> list[str]:
    """`differing_keys` of the `.json` artifact `name` of two runs."""
    old, new = (json.loads((out / name).read_text(encoding="utf-8")) for out in (old_out, new_out))
    if Path(name).name == "config.json":
        del old["out_dir"], new["out_dir"]
    return differing_keys(old, new)


def main(args: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare the working tree against")
    parser.add_argument(
        "experiment", nargs="?", help="experiment name or `all`, as for `sabotagebench run`"
    )
    parser.add_argument("--workload", choices=[*sorted(WORKLOADS), "all"],
                        help="run a benchmark workload (or all of them) instead of EXPERIMENT")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    opts = parser.parse_args(args)
    if (opts.experiment is None) == (opts.workload is None):
        parser.error("give either EXPERIMENT or --workload")
    if opts.workload is not None and opts.seed is None:
        parser.error("--workload needs --seed")

    def argv(workload: str | None, out: Path) -> list[str]:
        if workload is not None:
            cli_argv = WORKLOADS[workload].argv(opts.seed, out)
        else:
            cli_argv = ["run", opts.experiment, "--out", str(out)]
            if opts.seed is not None:
                cli_argv += ["--seed", str(opts.seed)]
        for item in opts.set:
            cli_argv += ["--set", item]
        return cli_argv

    workloads = sorted(WORKLOADS) if opts.workload == "all" else [opts.workload]
    with tempfile.TemporaryDirectory(prefix="compare_artifacts_") as tmp:
        tmp = Path(tmp)
        old_tree = tmp / "tree"
        old_tree.mkdir()
        export(opts.rev, old_tree)
        differ_total = total = 0
        for workload in workloads:
            prefix = "" if len(workloads) == 1 else f"{workload}: "
            found, outs = {}, []
            for label, tree in ((opts.rev, old_tree), ("working tree", ROOT)):
                out = tmp / f"out_{workload}_{len(found)}"
                cli_argv = argv(workload, out)
                code = run(tree, cli_argv)
                if code != 0:
                    print(f"{label}: `sabotagebench {' '.join(cli_argv)}` exited with {code}")
                    return 2
                found[label] = tree_digests(out)
                outs.append(out)

            old, new = found.values()
            names = sorted(old.keys() | new.keys())
            differ = [name for name in names if old.get(name) != new.get(name)]
            for name in names:
                print(f"{'DIFFERS' if name in differ else 'same   '} {prefix}{name}")
            for name in differ:
                if name.endswith(".json") and name in old and name in new:
                    for key in json_keys(name, *outs):
                        print(f"{prefix}{name}: {key}")
            differ_total += len(differ)
            total += len(names)
        print(f"{differ_total} of {total} artifacts differ")
    return 1 if differ_total else 0


if __name__ == "__main__":
    sys.exit(main())
