"""Artifact emission: canonical report JSON, CSV logs, plot-data CSVs.

Reports are written with sorted keys, fixed indentation, and no NaN
tokens, so a rerun with the same resolved config and seed produces
byte-identical files.  Everything run-dependent but not result-bearing
(timestamps, wall-clock, per-batch latencies, transcripts) goes to a
separate metadata file that is excluded from that guarantee.
"""
from __future__ import annotations

import csv
import hashlib
import json
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from .errors import ValidationError
from .mirror_cnn import MirrorCnnReport
from .training import RunReport

if TYPE_CHECKING:  # mirror_text loads only for mirror-text runs
    from .mirror_text.runner import MirrorTextReport

QUARANTINE_COLUMNS = (
    "epoch",
    "batch",
    "tau",
    "flagged_count",
    "sabotaged_count",
    "f_avg",
    "latency_s",
)


def canonical_json(payload: Any) -> str:
    """Stable serialization: sorted keys, indent 2, NaN rejected."""
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_json(path: Path, payload: Any) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(canonical_json(payload), encoding="utf-8")
    return path


def write_csv(path: Path, header: Iterable[str], rows: Iterable[Iterable]) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(list(header))
        for row in rows:
            writer.writerow(list(row))
    return path


def echo_config(out_dir: Path, resolved: Mapping) -> Path:
    return write_json(Path(out_dir) / "config.json", dict(resolved))


def config_digest(resolved: Mapping) -> str:
    """sha256 of the canonical JSON of a resolved config without its out_dir,
    so runs of one config hash alike wherever they write."""
    body = {key: value for key, value in resolved.items() if key != "out_dir"}
    return hashlib.sha256(canonical_json(body).encode("utf-8")).hexdigest()


def write_metadata(out_dir: Path, payload: dict) -> Path:
    payload = {"written_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"), **payload}
    path = Path(out_dir) / "metadata.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, default=str) + "\n", encoding="utf-8")
    return path


def write_quarantine_log(path: Path, report: RunReport) -> Path:
    """One QUARANTINE_COLUMNS row per training batch of `report`."""
    return write_csv(
        path,
        QUARANTINE_COLUMNS,
        ((getattr(row, column) for column in QUARANTINE_COLUMNS) for row in report.log_rows),
    )


def write_run_report(out_dir: Path, report: RunReport) -> list[Path]:
    """report_<method>_seed<N>.json + epoch and quarantine CSVs."""
    out_dir = Path(out_dir)
    tag = f"{report.method}_seed{report.seed}"
    written = [write_json(out_dir / f"report_{tag}.json", report.to_json_dict())]
    written.append(
        write_csv(
            out_dir / f"epochs_{tag}.csv",
            ("epoch", "train_error", "test_error"),
            ((e.epoch, e.train_error, e.test_error) for e in report.epochs),
        )
    )
    if report.log_rows:
        written.append(write_quarantine_log(out_dir / f"quarantine_log_{tag}.csv", report))
    return written


def write_sweep_artifacts(out_dir: Path, seed: int, sweep_result: dict) -> list[Path]:
    """Summary table plus per-threshold reports and quarantine logs.

    Threshold values are embedded in the filenames so rows from several
    sweeps never collide."""
    out_dir = Path(out_dir)
    columns = (
        "threshold",
        "final_train_error",
        "final_test_error",
        "flagged_count",
        "sabotaged_count",
        "precision",
        "recall",
        "starvation_events",
        "rejection_rate",
        "accuracy_on_accepted",
        "accepted_empty",
    )
    written = [
        write_csv(
            out_dir / f"sweep_summary_seed{seed}.csv",
            columns,
            ([row[c] for c in columns] for row in sweep_result["rows"]),
        ),
        write_json(
            out_dir / f"report_sweep_seed{seed}.json",
            {
                "method": "sweep",
                "seed": sweep_result["seed"],
                "epochs": sweep_result["epochs"],
                "rows": sweep_result["rows"],
            },
        ),
    ]
    for report in sweep_result["reports"]:
        tau = report.extras["threshold"]
        tag = f"sweep_tau{tau}_seed{seed}"
        written.append(write_quarantine_log(out_dir / f"quarantine_log_{tag}.csv", report))
    return written


def write_mirror_cnn_report(out_dir: Path, report: MirrorCnnReport, seed: int) -> list[Path]:
    out_dir = Path(out_dir)
    payload = report.to_json_dict()
    written = [write_json(out_dir / f"report_mirror-cnn_seed{seed}.json", payload)]
    written.append(
        write_csv(
            out_dir / f"mirror_cnn_accuracies_seed{seed}.csv",
            ("pair_mode", "accuracy"),
            (
                ("self", payload["self_accuracy"]),
                ("cross", payload["cross_accuracy"]),
                ("self_vs_cross", payload["self_vs_cross_accuracy"]),
                ("semiself", payload["semiself_accuracy"]),
            ),
        )
    )
    return written


_MIRROR_TEXT_REQUIRED = (
    "recognition",
    "per_evaluator_sums",
    "total_sums",
    "overall_order",
    "heatmap",
    "rankings",
)


def emit_mirror_text_plot_data(out_dir: Path, report: MirrorTextReport) -> list[Path]:
    """One CSV per figure analog, with fixed column order.

    recognition_bar: 5 rows (system, score).  self_rating_heatmap: 10
    question rows x 5 system columns.  rank_sums: per-evaluator sums
    plus a total row.  rank_distribution: one row per (evaluator,
    question, rated system) rating, for distribution-style plots; both
    bar and distribution forms are emitted because the aggregate figure
    shape is ambiguous.
    """
    from .mirror_text.questionnaire import SYSTEM_IDS

    payload = report.to_json_dict()
    missing = [key for key in _MIRROR_TEXT_REQUIRED if not payload.get(key)]
    if missing:
        raise ValidationError(
            f"mirror-text report incomplete, missing fields: {', '.join(missing)}"
        )
    out_dir = Path(out_dir)
    written = [
        write_csv(
            out_dir / "mirror_text_recognition_bar.csv",
            ("system", "k", "score_percent"),
            (
                (row["system"], "" if row["k"] is None else row["k"], row["score_percent"])
                for row in payload["recognition"]
            ),
        ),
        write_csv(
            out_dir / "mirror_text_self_rating_heatmap.csv",
            ("question", *SYSTEM_IDS),
            ((q + 1, *row) for q, row in enumerate(payload["heatmap"])),
        ),
        write_csv(
            out_dir / "mirror_text_rank_sums.csv",
            ("evaluator", *SYSTEM_IDS),
            [
                (evaluator, *(payload["per_evaluator_sums"][evaluator][s] for s in SYSTEM_IDS))
                for evaluator in SYSTEM_IDS
            ]
            + [("total", *(payload["total_sums"][s] for s in SYSTEM_IDS))],
        ),
        write_csv(
            out_dir / "mirror_text_rank_distribution.csv",
            ("evaluator", "question", "system", "value"),
            (
                (evaluator, q + 1, system, payload["rankings"][evaluator][q][j])
                for evaluator in SYSTEM_IDS
                for q in range(10)
                for j, system in enumerate(SYSTEM_IDS)
            ),
        ),
    ]
    return written


def write_mirror_text_report(out_dir: Path, report: MirrorTextReport) -> list[Path]:
    out_dir = Path(out_dir)
    written = [write_json(out_dir / "report_mirror-text.json", report.to_json_dict())]
    written.extend(emit_mirror_text_plot_data(out_dir, report))
    return written
