"""Runtime spans around the workbench's layers, and the self-time arithmetic.

`install(tracer)` replaces each name in `WRAPS` where its caller binds it
(`sabotagebench.models.conv2d`, `sabotagebench.training.sgd_step`, ...) with
a wrapper that records a span: name, start, end and the index of the span
that was open when it started. Nothing under `src/` is edited; the wrappers
live only in the traced worker process.

A span's self time is its duration minus the part of that interval its
child spans cover. The traced worker opens one root span, `cli.run`, when
the inputs are ready and closes it when the report files are written, so
the self times of the spans under it add up to the traced `run_s`.
"""
from __future__ import annotations

import functools
import importlib
import math
import os
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

ROOT = "cli.run"

# Layers whose self times, summed over the spans under the root, make up the
# traced run_s. Each maps to the metric that reports it.
LAYER_TOTALS = {
    "nncore": "nncore.self.ms",
    "models": "models.self.ms",
    "training": "training.self.ms",
    "dataset": "dataset.self.ms",
    "quarantine": "quarantine.self.ms",
    "mirror_cnn": "mirror_cnn.self.ms",
    "reporting": "reporting.write.ms",
    "cli": "cli.self.ms",
}


@dataclass(frozen=True)
class Wrap:
    """One name to wrap where `module` binds it.

    `attr` may be `Class.method`. `span` is the span name (its first dotted
    part is the layer). `workloads` lists the workloads that must call this
    binding at least once; the self-test fails on a zero.
    """

    module: str
    attr: str
    span: str
    workloads: tuple[str, ...]


ALL = ("baseline", "hard", "mirror")
BH = ("baseline", "hard")
HM = ("hard", "mirror")

_M = "sabotagebench.models"
_T = "sabotagebench.training"
_C = "sabotagebench.mirror_cnn"
_R = "sabotagebench.reporting"
_CLI = "sabotagebench.cli"

WRAPS = (
    # nncore ops, where models binds them
    Wrap(_M, "conv2d", "nncore.conv2d", ALL),
    Wrap(_M, "conv2d_backward", "nncore.conv2d_backward", ALL),
    Wrap(_M, "maxpool2x2", "nncore.maxpool2x2", ALL),
    Wrap(_M, "maxpool2x2_backward", "nncore.maxpool2x2_backward", ALL),
    Wrap(_M, "relu", "nncore.relu", ALL),
    Wrap(_M, "relu_backward", "nncore.relu_backward", ALL),
    Wrap(_M, "linear", "nncore.linear", ALL),
    Wrap(_M, "linear_backward", "nncore.linear_backward", ALL),
    Wrap(_M, "require_finite", "nncore.require_finite", ALL),
    Wrap(_M, "dropout", "nncore.dropout", HM),
    Wrap(_M, "dropout_backward", "nncore.dropout_backward", HM),
    Wrap(_M, "sigmoid", "nncore.sigmoid", HM),
    # nncore ops, where training binds them
    Wrap(_T, "sgd_step", "nncore.sgd_step", ALL),
    Wrap(_T, "softmax", "nncore.softmax", ALL),
    Wrap(_T, "weighted_softmax_ce", "nncore.weighted_softmax_ce", ALL),
    Wrap(_T, "weighted_softmax_ce_backward", "nncore.weighted_softmax_ce_backward", ALL),
    Wrap(_T, "bce_with_logits", "nncore.bce_with_logits", ("hard",)),
    Wrap(_T, "bce_with_logits_backward", "nncore.bce_with_logits_backward", ("hard",)),
    # nncore ops, where mirror_cnn binds them
    Wrap(_C, "sgd_step", "nncore.sgd_step", ("mirror",)),
    Wrap(_C, "bce_with_logits", "nncore.bce_with_logits", ("mirror",)),
    Wrap(_C, "bce_with_logits_backward", "nncore.bce_with_logits_backward", ("mirror",)),
    # models (methods are patched on the class, which every caller shares)
    Wrap(_M, "SimpleCNN.forward", "models.forward", ALL),
    Wrap(_M, "SimpleCNN.backward", "models.backward", ALL),
    Wrap(_M, "MlpBinary.forward", "models.gate_forward", HM),
    Wrap(_M, "MlpBinary.backward", "models.gate_backward", HM),
    # training
    Wrap(_CLI, "train_baseline", "training.train_baseline", ("baseline",)),
    Wrap(_CLI, "train_hard", "training.train_hard", ("hard",)),
    Wrap(_T, "pretrain_gate", "training.pretrain_gate", ("hard",)),
    Wrap(_T, "poison_eval_stream", "training.poison_eval_stream", BH),
    # private, but it is the per-epoch evaluation pass: forwards under it
    # are evaluation, not training work
    Wrap(_T, "_plain_test_error", "training.plain_test_error", ALL),
    # dataset
    Wrap(_T, "inject_sabotage", "dataset.inject_sabotage", BH),
    Wrap(_CLI, "synthetic_mnist_set", "dataset.synthetic_mnist_set", ALL),
    Wrap(_C, "disjoint_subsets", "dataset.disjoint_subsets", ("mirror",)),
    # quarantine
    Wrap(_T, "decide", "quarantine.decide", ("hard",)),
    # mirror_cnn
    Wrap(_CLI, "run_mirror_experiment", "mirror_cnn.run_mirror_experiment", ("mirror",)),
    Wrap(_C, "train_partial", "mirror_cnn.train_partial", ("mirror",)),
    Wrap(_C, "extract_embeddings", "mirror_cnn.extract_embeddings", ("mirror",)),
    Wrap(_C, "build_pairs", "mirror_cnn.build_pairs", ("mirror",)),
    Wrap(_C, "train_pair_gate", "mirror_cnn.train_pair_gate", ("mirror",)),
    Wrap(_C, "eval_pairs", "mirror_cnn.eval_pairs", ("mirror",)),
    # reporting (cli calls these through the module object)
    Wrap(_R, "echo_config", "reporting.echo_config", ALL),
    Wrap(_R, "write_run_report", "reporting.write_run_report", BH),
    Wrap(_R, "write_mirror_cnn_report", "reporting.write_mirror_cnn_report", ("mirror",)),
    Wrap(_R, "write_metadata", "reporting.write_metadata", ALL),
    Wrap(_R, "write_json", "reporting.write_json", ALL),
    Wrap(_R, "write_csv", "reporting.write_csv", ALL),
    # config / cli
    Wrap(_CLI, "parse_config", "config.parse_config", ALL),
    Wrap(_CLI, "load_data", "cli.load_data", ALL),
)

# Spans whose subtree is evaluation: forwards under them are not training work.
EVAL_SPANS = frozenset({"training.plain_test_error", "mirror_cnn.extract_embeddings"})
# Leaf writers whose returned file sizes make up reporting.bytes.
WRITERS = frozenset({"reporting.write_json", "reporting.write_csv", "reporting.write_metadata"})


def binding(wrap: Wrap) -> str:
    return f"{wrap.module}.{wrap.attr}"


class Span:
    __slots__ = ("name", "start", "end", "parent", "evaluating")

    def __init__(self, name: str, start: float, end: float, parent: int | None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        # Set on a span once evaluation starts inside it (poison_eval_stream):
        # the forwards that follow in that span are evaluation.
        self.evaluating = False


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of [start, end) intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children, clipped to it."""
    children: dict[int, list[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(index)
    out = []
    for index, span in enumerate(spans):
        clipped = []
        for child in children[index]:
            lo, hi = max(spans[child].start, span.start), min(spans[child].end, span.end)
            if hi > lo:
                clipped.append((lo, hi))
        out.append((span.end - span.start) - _covered(clipped))
    return out


def under(spans: list[Span], root: int) -> list[bool]:
    """Whether each span is `root` or lies in its subtree."""
    inside = [False] * len(spans)
    for index, span in enumerate(spans):
        # parents are recorded before their children
        inside[index] = index == root or (span.parent is not None and inside[span.parent])
    return inside


class Tracer:
    """Spans and counters of one traced workload process."""

    def __init__(self, clock=time.monotonic):
        self.clock = clock
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.calls: Counter = Counter()  # by binding
        self.root: int | None = None
        self.gflop: Counter = Counter()  # by span name
        self.forwards: dict[int, tuple[int, bool]] = {}  # span -> (samples, evaluating)
        self.written_bytes = 0
        self.step_s: list[float] = []
        self._forward_of_cache: dict[int, int] = {}
        self._step_start: dict[int, float] = {}

    # ------------------------------------------------------------ recording

    def open(self, name: str, start: float | None = None) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, self.clock() if start is None else start, 0.0, parent))
        self.stack.append(index)
        return index

    def close(self, index: int, end: float | None = None) -> None:
        if self.stack.pop() != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")
        self.spans[index].end = self.clock() if end is None else end

    def open_root(self, start: float) -> None:
        self.root = self.open(ROOT, start)

    def close_root(self, end: float) -> None:
        self.close(self.root, end)

    def evaluating(self) -> bool:
        return any(
            self.spans[i].evaluating or self.spans[i].name in EVAL_SPANS for i in self.stack
        )

    def wrap(self, fn, name: str, key: str):
        hook = _HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[key] += 1
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if hook is not None:
                hook(tracer, index, args, result)
            return result

        return wrapper

    # -------------------------------------------------------------- results

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics over the spans under the root (setup spans for
        the config/cli/dataset set-up metrics)."""
        if self.root is None:
            raise RuntimeError("the run never reached the point where its inputs are ready")
        own = self_times(self.spans)
        inside = under(self.spans, self.root)
        ms: Counter = Counter()
        calls: Counter = Counter()
        layer_ms: Counter = Counter()
        setup_ms: Counter = Counter()
        for index, span in enumerate(self.spans):
            if inside[index]:
                ms[span.name] += own[index] * 1e3
                calls[span.name] += 1
                layer_ms[span.name.split(".")[0]] += own[index] * 1e3
            else:
                setup_ms[span.name] += own[index] * 1e3

        trained = forwarded = infer_samples = 0
        for index, (samples, evaluating) in self.forwards.items():
            if not inside[index]:
                continue
            if self.spans[index].name == "models.forward_train":
                trained += samples
            else:
                infer_samples += samples
            if not evaluating:
                forwarded += samples
        steps_ms = sorted(s * 1e3 for s in self.step_s)

        def group(*names: str) -> tuple[float, int]:
            return sum(ms[n] for n in names), sum(calls[n] for n in names)

        out: dict[str, float] = {}
        for metric, names in (
            ("nncore.conv2d", ("nncore.conv2d",)),
            ("nncore.conv2d_backward", ("nncore.conv2d_backward",)),
            ("nncore.maxpool2x2", ("nncore.maxpool2x2",)),
            ("nncore.maxpool2x2_backward", ("nncore.maxpool2x2_backward",)),
            ("nncore.linear", ("nncore.linear", "nncore.linear_backward")),
            ("nncore.sgd_step", ("nncore.sgd_step",)),
            ("nncore.relu", ("nncore.relu", "nncore.relu_backward")),
            ("nncore.loss", tuple(_LOSS)),
            ("nncore.require_finite", ("nncore.require_finite",)),
        ):
            out[f"{metric}.ms"], out[f"{metric}.calls"] = group(*names)
        out["nncore.conv2d.gflop"] = self.gflop["nncore.conv2d"]
        out["nncore.linear.gflop"] = self.gflop["nncore.linear"]
        out["models.forward_train.ms"] = ms["models.forward_train"]
        out["models.forward_infer.ms"] = ms["models.forward_infer"]
        out["models.forward_infer.samples"] = infer_samples
        out["models.backward.ms"] = ms["models.backward"]
        out["models.gate.ms"] = group("models.gate_forward", "models.gate_backward")[0]
        out["training.train_step.ms_p50"] = _percentile(steps_ms, 0.50)
        out["training.train_step.ms_p99"] = _percentile(steps_ms, 0.99)
        out["training.train_step.count"] = len(steps_ms)
        out["training.samples_per_s"] = trained / (sum(steps_ms) / 1e3) if steps_ms else 0.0
        out["training.samples_forwarded"] = forwarded
        out["training.samples_trained"] = trained
        out["training.forward_reuse"] = trained / forwarded if forwarded else 0.0
        out["training.pretrain_gate.ms"] = ms["training.pretrain_gate"]
        out["dataset.inject_sabotage.ms"] = ms["dataset.inject_sabotage"]
        out["dataset.synthetic_mnist_set.ms"] = setup_ms["dataset.synthetic_mnist_set"]
        out["quarantine.decide.ms"] = ms["quarantine.decide"]
        for name in ("train_partial", "extract_embeddings", "train_pair_gate", "eval_pairs"):
            out[f"mirror_cnn.{name}.ms"] = ms[f"mirror_cnn.{name}"]
        out["reporting.bytes"] = self.written_bytes
        out["config.parse_config.ms"] = setup_ms["config.parse_config"]
        out["cli.load_data.ms"] = setup_ms["cli.load_data"]
        for layer, metric in LAYER_TOTALS.items():
            out[metric] = layer_ms[layer]
        unknown = set(layer_ms) - set(LAYER_TOTALS)
        if unknown:
            raise RuntimeError(f"spans of unlisted layers: {sorted(unknown)}")
        return out


_LOSS = frozenset(
    {
        "nncore.softmax",
        "nncore.weighted_softmax_ce",
        "nncore.weighted_softmax_ce_backward",
        "nncore.sigmoid",
        "nncore.bce_with_logits",
        "nncore.bce_with_logits_backward",
    }
)


def _percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(round(q * len(ordered), 9)))
    return ordered[rank - 1]


# ------------------------------------------------------------------ hooks
# A hook runs after the wrapped call returns, with the tracer, the span
# index, the positional arguments and the result.


def _conv2d(tracer: Tracer, index: int, args, result) -> None:
    y = result[0]
    w = args[1]
    n, k, ho, wo = y.shape
    _, c, kh, kw = w.shape
    tracer.gflop["nncore.conv2d"] += 2.0 * n * ho * wo * k * c * kh * kw / 1e9


def _linear(tracer: Tracer, index: int, args, result) -> None:
    x, w = args[0], args[1]
    tracer.gflop["nncore.linear"] += 2.0 * x.shape[0] * w.shape[0] * w.shape[1] / 1e9


def _linear_backward(tracer: Tracer, index: int, args, result) -> None:
    x, w = args[1]
    # dx = dy @ w.T and dw = x.T @ dy
    tracer.gflop["nncore.linear"] += 4.0 * x.shape[0] * w.shape[0] * w.shape[1] / 1e9


def _forward(tracer: Tracer, index: int, args, result) -> None:
    # args: (model, x, ...). A forward counts as training once its cache
    # reaches backward; until then it is an inference forward.
    tracer.spans[index].name = "models.forward_infer"
    tracer.forwards[index] = (int(args[1].shape[0]), tracer.evaluating())
    tracer._forward_of_cache[id(result[2])] = index


def _backward(tracer: Tracer, index: int, args, result) -> None:
    model, _, cache = args
    forward = tracer._forward_of_cache.pop(id(cache))
    tracer.spans[forward].name = "models.forward_train"
    tracer._step_start[id(model.params)] = tracer.spans[forward].start


def _sgd_step(tracer: Tracer, index: int, args, result) -> None:
    start = tracer._step_start.pop(id(args[0]), None)
    if start is not None:
        tracer.step_s.append(tracer.spans[index].end - start)


def _poison_eval_stream(tracer: Tracer, index: int, args, result) -> None:
    parent = tracer.spans[index].parent
    if parent is not None:
        tracer.spans[parent].evaluating = True


def _writer(tracer: Tracer, index: int, args, result) -> None:
    if tracer.root is not None and tracer.root in tracer.stack:
        tracer.written_bytes += os.path.getsize(result)


_HOOKS = {
    "nncore.conv2d": _conv2d,
    "nncore.linear": _linear,
    "nncore.linear_backward": _linear_backward,
    "models.forward": _forward,
    "models.backward": _backward,
    "nncore.sgd_step": _sgd_step,
    "training.poison_eval_stream": _poison_eval_stream,
    **{name: _writer for name in WRITERS},
}


def install(tracer: Tracer) -> None:
    """Replace every binding in WRAPS with a span-recording wrapper."""
    for wrap in WRAPS:
        owner = importlib.import_module(wrap.module)
        *path, attr = wrap.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        setattr(owner, attr, tracer.wrap(original, wrap.span, binding(wrap)))
