"""Rewrite tests/golden_digests.json from a `run all` of the working tree at
the tests' tiny config, tests/tiny_tree.json.

    python3 tools/golden_digests.py

The file holds the run's artifact digests, taken by `compare_artifacts`'s
`tree_digests` (the benchmark's digest rule: metadata.json skipped, config.json
without its out_dir, quarantine logs without their latency_s column), and the
environment they were taken in: the numpy version, the OpenBLAS core and the
machine. A test compares the tiny `run all` of the suite with the file, and
skips in another environment, whose float sums may round otherwise.

Rewrite the file only for a change that means to move an artifact, and say
which artifacts moved and why.

Exit status: 0 when the file was written, 2 when the run fails.
"""
from __future__ import annotations

import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from sabotagebench import blas  # noqa: E402
from tools.compare_artifacts import run, tree_digests  # noqa: E402

GOLDEN = ROOT / "tests" / "golden_digests.json"
TINY_TREE = ROOT / "tests" / "tiny_tree.json"


def environment() -> dict:
    """What a run's bytes depend on besides the code and its config."""
    return {"numpy": np.__version__, "blas_core": blas.in_effect()["core"],
            "machine": platform.machine()}


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="golden_digests_") as tmp:
        out = Path(tmp) / "all"
        argv = ["run", "all", "--parallel", "--config", str(TINY_TREE), "--out", str(out)]
        code = run(ROOT, argv)
        if code != 0:
            print(f"`sabotagebench {' '.join(argv)}` exited with {code}")
            return 2
        digests = tree_digests(out)
    GOLDEN.write_text(json.dumps({"environment": environment(), "digests": digests},
                                 indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {GOLDEN.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
