"""Replay of a recorded textual self-recognition session.

The report comes straight from the fixture set: the pool is the recorded
one, each system's k is the position of its own id in its guess script
(repeated ids dropped), and the rankings are the recorded matrices.  The
transcripts in `metadata` are rebuilt from the preamble, the questions, the
pooled answers and those guesses.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field
from importlib import resources
from pathlib import Path
from typing import Sequence

from ..errors import ValidationError
from .protocol import (
    AnswerPool,
    GuessOutcome,
    RankingAggregate,
    aggregate_rankings,
    import_fixtures,
    self_rating_heatmap,
)
from .questionnaire import PREAMBLE, QUESTIONS, SYSTEM_IDS

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


def _guesses(system_id: str, script: Sequence[str]) -> tuple[str, ...]:
    """The guesses `system_id` made: its script with repeated ids dropped (a
    ruled-out id is not guessed again), up to and including its own id."""
    distinct = list(dict.fromkeys(script))
    return tuple(distinct[: distinct.index(system_id) + 1])


def _transcript(system_id: str, pool: AnswerPool,
                guesses: Sequence[str]) -> list[dict[str, str]]:
    """One system's session: the preamble, each question and its answer,
    then each guess."""
    turns = [("interviewer", PREAMBLE)]
    for question_id, text in enumerate(QUESTIONS, start=1):
        turns += [("interviewer", text), (system_id, pool.answer(system_id, question_id))]
    turns += [(system_id, f"guess: {guess}") for guess in guesses]
    return [{"role": role, "text": text} for role, text in turns]


def run_mirror_text_experiment(fixtures_path: str | Path | None = None) -> MirrorTextReport:
    """Replay the recorded session at `fixtures_path` (default: the bundled
    one): score each system's self-identification and aggregate the
    rankings; return the full report.

    When the fixture file also records past outcomes, the replay is
    checked against them so scripts and recorded scores cannot drift
    apart.
    """
    fixtures = import_fixtures(fixtures_path or bundled_fixture_path())
    for sys_id in SYSTEM_IDS:
        if sys_id not in fixtures.guess_scripts:
            raise ValidationError(f"fixture set has no guess script for system {sys_id}")
        if sys_id not in fixtures.rankings:
            raise ValidationError(f"fixture set has no ranking matrix for system {sys_id}")
    guesses = {s: _guesses(s, fixtures.guess_scripts[s]) for s in SYSTEM_IDS}
    outcomes = [GuessOutcome(s, len(guesses[s])) for s in SYSTEM_IDS]
    matrices = [fixtures.rankings[s] for s in SYSTEM_IDS]

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
        "transcripts": {s: _transcript(s, fixtures.pool, guesses[s]) for s in SYSTEM_IDS},
        "pool_size": fixtures.pool.count,
    }
    return report
