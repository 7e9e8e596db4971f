"""One workload process: `sabotagebench run <experiment>` through the CLI entry
point, timed, and optionally traced.

run.py starts this once per repetition with one JSON argument:

    {"argv": [...cli arguments...], "mode": "setup" | "run" | "trace",
     "spawned": <time.monotonic() just before the process was started>}

and reads the last line of its standard output, one JSON object:

    setup_s      process start to inputs ready (import, config, load_data)
    run_s        inputs ready to report files written
    reference_s  time of the reference job (reference.py), the mean of one
                 timing before the workload and one after it
    peak_rss_mb  ru_maxrss of this process
    exit         the CLI's exit code
    trace        per-layer metrics (mode "trace" only)
    calls        calls per wrapped binding (mode "trace" only)
    env          numpy and BLAS description (mode "setup" only)

In mode "setup" the process stops as soon as the inputs are ready.
"""
from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import reference

REPO = Path(__file__).resolve().parent.parent


class _InputsReady(Exception):
    """Raised in mode "setup" to stop the CLI once its inputs are ready."""


def environment() -> dict:
    import numpy

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
    }


def main(spec: dict) -> dict:
    sys.path.insert(1, str(REPO / "src"))
    from sabotagebench import cli

    mode = spec["mode"]
    # Timed before and after the workload, while the repetitions of a round
    # all still run side by side; its first run is left out of setup_s.
    reference_s = reference_spent = 0.0
    if mode != "setup":
        started = time.monotonic()
        reference_s = reference.measure()
        reference_spent = time.monotonic() - started
    tracer = None
    if mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    stamps: dict[str, float] = {}
    load_data, run_single = cli.load_data, cli.run_single

    def inputs_ready(cfg):
        data = load_data(cfg)
        stamps["ready"] = time.monotonic()
        if mode == "setup":
            raise _InputsReady
        if tracer is not None:
            tracer.open_root(stamps["ready"])
        return data

    def reports_written(*args):
        summary = run_single(*args)
        stamps["done"] = time.monotonic()
        if tracer is not None:
            tracer.close_root(stamps["done"])
        return summary

    cli.load_data, cli.run_single = inputs_ready, reports_written
    try:
        code = cli.main(spec["argv"])
    except _InputsReady:
        code = 0
    result = {
        "exit": code,
        "setup_s": stamps["ready"] - spec["spawned"] - reference_spent,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if mode == "setup":
        result["env"] = environment()
        return result
    result["run_s"] = stamps["done"] - stamps["ready"]
    if tracer is not None:
        result["trace"] = tracer.metrics()
        result["calls"] = dict(tracer.calls)
    result["reference_s"] = (reference_s + reference.measure()) / 2
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
