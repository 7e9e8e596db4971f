"""End-to-end driver for the textual self-recognition experiment."""
from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Sequence

from ..errors import ValidationError
from .protocol import (
    FixtureSet,
    GuessOutcome,
    RankingAggregate,
    aggregate_rankings,
    import_fixtures,
    run_protocol,
    self_identification,
    self_rating_heatmap,
)
from .providers import Provider, fixture_providers, provider_transcripts
from .questionnaire import SYSTEM_IDS, Questionnaire

BUNDLED_FIXTURE_NAME = "chat_sessions.jsonl"


def bundled_fixture_path() -> Path:
    """Location of the fixture file shipped inside the package."""
    return Path(
        resources.files("sabotagebench.mirror_text") / "fixtures" / BUNDLED_FIXTURE_NAME
    )


@dataclass
class MirrorTextReport:
    """Deterministic results plus side-channel metadata.

    `to_json_dict` carries only replay-stable values; transcripts and
    timing live in `metadata` so two runs of the same fixtures stay
    byte-identical.
    """

    offline: bool
    recognition: list[dict]
    per_evaluator_sums: dict[str, dict[str, int]]
    per_evaluator_order: dict[str, list[str]]
    total_sums: dict[str, int]
    overall_order: list[str]
    heatmap: list[list[int]]
    rankings: dict[str, list[list[int]]]
    fixture_meta: dict[str, str]
    metadata: dict = field(default_factory=dict)
    wall_clock_s: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "method": "mirror-text",
            "offline": self.offline,
            "recognition": self.recognition,
            "per_evaluator_sums": self.per_evaluator_sums,
            "per_evaluator_order": self.per_evaluator_order,
            "total_sums": self.total_sums,
            "overall_order": self.overall_order,
            "heatmap": self.heatmap,
            "rankings": self.rankings,
            "fixture_meta": self.fixture_meta,
        }


def _recognition_rows(outcomes: Sequence[GuessOutcome]) -> list[dict]:
    by_id = {o.system_id: o for o in outcomes}
    rows = []
    for sys_id in SYSTEM_IDS:
        outcome = by_id[sys_id]
        rows.append(
            {
                "system": sys_id,
                "k": outcome.k,
                "score_percent": outcome.score_percent,
                "failed": outcome.failed,
            }
        )
    return rows


def run_mirror_text_experiment(
    providers: Sequence[Provider] | None = None,
    fixtures_path: str | Path | None = None,
    questionnaire: Questionnaire | None = None,
) -> MirrorTextReport:
    """Interview, pool, self-identify, and rank; return the full report.

    With no providers given the run is offline: fixture providers are
    built from the bundled session (or `fixtures_path`).  When the
    fixture file also records past outcomes, the replay is checked
    against them so scripts and recorded scores cannot drift apart.
    """
    started = time.perf_counter()
    questionnaire = questionnaire or Questionnaire()
    fixtures: FixtureSet | None = None
    offline = providers is None
    if providers is None:
        fixtures = import_fixtures(fixtures_path or bundled_fixture_path())
        providers = fixture_providers(fixtures)

    pool = run_protocol(providers, questionnaire)
    with ThreadPoolExecutor(max_workers=len(providers)) as executor:
        outcomes = list(
            executor.map(lambda p: self_identification(p, pool), providers)
        )
        matrices = list(executor.map(lambda p: p.rank(pool), providers))

    if fixtures is not None and fixtures.outcomes:
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
        offline=offline,
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
        fixture_meta=dict(fixtures.meta) if fixtures is not None else {},
    )
    report.metadata = {
        "transcripts": provider_transcripts(providers),
        "pool_size": pool.count,
    }
    report.wall_clock_s = time.perf_counter() - started
    return report
