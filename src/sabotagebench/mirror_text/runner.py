"""End-to-end driver for the textual self-recognition experiment."""
from __future__ import annotations

from dataclasses import asdict, dataclass, field
from importlib import resources
from pathlib import Path
from typing import Sequence

from ..errors import ValidationError
from .protocol import (
    GuessOutcome,
    RankingAggregate,
    aggregate_rankings,
    import_fixtures,
    run_protocol,
    self_identification,
    self_rating_heatmap,
)
from .providers import fixture_providers, provider_transcripts

BUNDLED_FIXTURE_NAME = "chat_sessions.jsonl"


def bundled_fixture_path() -> Path:
    """Location of the fixture file shipped inside the package."""
    return Path(
        resources.files("sabotagebench.mirror_text") / "fixtures" / BUNDLED_FIXTURE_NAME
    )


@dataclass
class MirrorTextReport:
    """Deterministic results plus side-channel metadata.

    `to_json_dict` carries only replay-stable values; transcripts live in
    `metadata` so two runs of the same fixtures stay byte-identical.
    """

    recognition: list[dict]
    per_evaluator_sums: dict[str, dict[str, int]]
    per_evaluator_order: dict[str, list[str]]
    total_sums: dict[str, int]
    overall_order: list[str]
    heatmap: list[list[int]]
    rankings: dict[str, list[list[int]]]
    fixture_meta: dict[str, str]
    metadata: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        out = asdict(self)
        del out["metadata"]
        return {"method": "mirror-text", **out}


def _recognition_rows(outcomes: Sequence[GuessOutcome]) -> list[dict]:
    return [
        {"system": o.system_id, "k": o.k, "score_percent": o.score_percent,
         "failed": o.failed}
        for o in outcomes
    ]


def run_mirror_text_experiment(fixtures_path: str | Path | None = None) -> MirrorTextReport:
    """Replay the recorded session at `fixtures_path` (default: the bundled
    one): interview, pool, self-identify, and rank; return the full report.

    When the fixture file also records past outcomes, the replay is
    checked against them so scripts and recorded scores cannot drift
    apart.
    """
    fixtures = import_fixtures(fixtures_path or bundled_fixture_path())
    providers = fixture_providers(fixtures)  # in system id order
    pool = run_protocol(providers)
    outcomes = [self_identification(p, pool) for p in providers]
    matrices = [p.rank(pool) for p in providers]

    for outcome in outcomes:
        recorded = fixtures.outcomes.get(outcome.system_id)
        if recorded is not None and recorded.k != outcome.k:
            raise ValidationError(
                f"fixture drift for system {outcome.system_id}: recorded "
                f"k={recorded.k} but replay produced k={outcome.k}"
            )

    aggregate: RankingAggregate = aggregate_rankings(matrices)
    heatmap = self_rating_heatmap(matrices)
    report = MirrorTextReport(
        recognition=_recognition_rows(outcomes),
        per_evaluator_sums={
            e: dict(sums) for e, sums in aggregate.per_evaluator_sums.items()
        },
        per_evaluator_order={
            e: list(order) for e, order in aggregate.per_evaluator_order.items()
        },
        total_sums=dict(aggregate.total_sums),
        overall_order=list(aggregate.overall_order),
        heatmap=[list(row) for row in heatmap],
        rankings={
            m.evaluator: [list(row) for row in m.values] for m in matrices
        },
        fixture_meta=dict(fixtures.meta),
    )
    report.metadata = {
        "transcripts": provider_transcripts(providers),
        "pool_size": pool.count,
    }
    return report
