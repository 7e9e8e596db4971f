"""Textual self-recognition protocol: the records of one recorded session.

In the recorded session five chat systems each answered the fixed
ten-question interview in a single conversation, the fifty answers were
pooled, and each system then picked its own answer set out of the
anonymised pool, one guess at a time.  A correct pick on attempt k scores
1/k, so first-guess recognition is 100% and a fourth-guess pick is 25%.
Each system also rated every pooled answer on a 1-10 scale; those
matrices feed `aggregate_rankings` and the self-rating heatmap.

`import_fixtures` reads such a session from line-delimited JSON into a
checked `FixtureSet`; `runner.py` replays it.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from ..errors import ConfigError, FormatError, ValidationError
from .questionnaire import SYSTEM_IDS

RANK_SCALE = (1, 10)
MAX_GUESS_ATTEMPTS = 5


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class AnswerRecord:
    """One system's answer to one question."""

    system_id: str
    question_id: int
    answer: str

    def __post_init__(self) -> None:
        if self.system_id not in SYSTEM_IDS:
            raise ValidationError(f"unknown system id: {self.system_id!r}")
        if not _is_int(self.question_id):
            raise ValidationError(f"question id is not an integer: {self.question_id!r}")
        if not 1 <= self.question_id <= 10:
            raise ValidationError(
                f"question id out of range: {self.question_id}"
            )
        if not isinstance(self.answer, str):
            raise ValidationError(f"answer is not a string: {self.answer!r}")
        if not self.answer.strip():
            raise ValidationError(
                f"empty answer for system {self.system_id}, "
                f"question {self.question_id}"
            )


@dataclass(frozen=True)
class AnswerPool:
    """Complete pool of 50 answers: 5 systems x 10 questions."""

    records: tuple[AnswerRecord, ...]

    def __post_init__(self) -> None:
        keys = {(r.system_id, r.question_id) for r in self.records}
        if len(keys) != len(self.records):
            raise ValidationError("duplicate (system, question) record in pool")
        expected = {(s, q) for s in SYSTEM_IDS for q in range(1, 11)}
        missing = sorted(expected - keys)
        if missing:
            sys_id, q_id = missing[0]
            raise ValidationError(
                f"incomplete pool: {len(missing)} records missing, first is "
                f"system {sys_id}, question {q_id}"
            )
        extra = keys - expected
        if extra:
            raise ValidationError(f"unexpected records in pool: {sorted(extra)}")

    @property
    def count(self) -> int:
        return len(self.records)

    def answer(self, system_id: str, question_id: int) -> str:
        for record in self.records:
            if record.system_id == system_id and record.question_id == question_id:
                return record.answer
        raise KeyError((system_id, question_id))


@dataclass(frozen=True)
class GuessOutcome:
    """Result of one system's attempt to find its own answers.

    k is the 1-based attempt index of the correct pick; score is 1/k.
    A system that never identifies itself within MAX_GUESS_ATTEMPTS is
    recorded as a failure (k is None, score 0.0).
    """

    system_id: str
    k: int | None

    def __post_init__(self) -> None:
        if self.system_id not in SYSTEM_IDS:
            raise ValidationError(f"unknown system id: {self.system_id!r}")
        if self.k is not None and not _is_int(self.k):
            raise ValidationError(f"guess rank is not an integer: {self.k!r}")
        if self.k is not None and not 1 <= self.k <= MAX_GUESS_ATTEMPTS:
            raise ValidationError(f"guess rank out of range: {self.k}")

    @property
    def failed(self) -> bool:
        return self.k is None

    @property
    def score(self) -> float:
        return 0.0 if self.k is None else 1.0 / self.k

    @property
    def score_percent(self) -> float:
        return 100.0 * self.score


@dataclass(frozen=True)
class RankingMatrix:
    """One evaluator's 1-10 ratings: rows are questions 1-10, columns
    are the five systems in SYSTEM_IDS order."""

    evaluator: str
    values: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.evaluator not in SYSTEM_IDS:
            raise ValidationError(f"unknown evaluator id: {self.evaluator!r}")
        if len(self.values) != 10:
            raise ValidationError(
                f"ranking matrix for {self.evaluator} has {len(self.values)} "
                f"rows, expected 10"
            )
        lo, hi = RANK_SCALE
        for q_index, row in enumerate(self.values, start=1):
            if len(row) != len(SYSTEM_IDS):
                raise ValidationError(
                    f"ranking matrix for {self.evaluator} is incomplete at "
                    f"question {q_index}: {len(row)} cells, expected "
                    f"{len(SYSTEM_IDS)}"
                )
            for sys_id, value in zip(SYSTEM_IDS, row):
                if not _is_int(value):
                    raise ValidationError(
                        f"ranking matrix for {self.evaluator} is incomplete "
                        f"at question {q_index}, system {sys_id}: "
                        f"{value!r} is not an integer rank"
                    )
                if not lo <= value <= hi:
                    raise ValidationError(
                        f"rank {value} outside scale [{lo}, {hi}] at "
                        f"question {q_index}, system {sys_id} "
                        f"(evaluator {self.evaluator})"
                    )

    def rating(self, question_id: int, system_id: str) -> int:
        return self.values[question_id - 1][SYSTEM_IDS.index(system_id)]

    def column_sums(self) -> dict[str, int]:
        return {
            sys_id: sum(row[j] for row in self.values)
            for j, sys_id in enumerate(SYSTEM_IDS)
        }


@dataclass(frozen=True)
class RankingAggregate:
    """Per-evaluator column sums and orderings, plus pooled totals.

    Orderings are highest-sum first; ties broken by system id order."""

    per_evaluator_sums: dict[str, dict[str, int]]
    per_evaluator_order: dict[str, tuple[str, ...]]
    total_sums: dict[str, int]
    overall_order: tuple[str, ...]


def _order_by_sum(sums: Mapping[str, int]) -> tuple[str, ...]:
    return tuple(sorted(SYSTEM_IDS, key=lambda s: (-sums[s], s)))


def aggregate_rankings(matrices: Iterable[RankingMatrix]) -> RankingAggregate:
    """Column sums and orderings from the five evaluator matrices.

    Sums run over the ten questions, so each per-system sum is at most
    100; ordering is highest first with ties broken by system id.
    """
    by_evaluator: dict[str, RankingMatrix] = {}
    for matrix in matrices:
        if matrix.evaluator in by_evaluator:
            raise ValidationError(
                f"duplicate ranking matrix for evaluator {matrix.evaluator}"
            )
        by_evaluator[matrix.evaluator] = matrix
    missing = [s for s in SYSTEM_IDS if s not in by_evaluator]
    if missing:
        raise ValidationError(
            f"ranking matrices incomplete: missing evaluators {missing}"
        )

    per_sums = {
        evaluator: by_evaluator[evaluator].column_sums()
        for evaluator in SYSTEM_IDS
    }
    per_order = {
        evaluator: _order_by_sum(sums) for evaluator, sums in per_sums.items()
    }
    totals = {
        sys_id: sum(per_sums[e][sys_id] for e in SYSTEM_IDS)
        for sys_id in SYSTEM_IDS
    }
    return RankingAggregate(per_sums, per_order, totals, _order_by_sum(totals))


def self_rating_heatmap(matrices: Iterable[RankingMatrix]) -> tuple[tuple[int, ...], ...]:
    """10x5 grid of each evaluator's rating of its own answers.

    Row q, column j holds evaluator SYSTEM_IDS[j]'s rating of its own
    answer to question q+1."""
    by_evaluator = {m.evaluator: m for m in matrices}
    missing = [s for s in SYSTEM_IDS if s not in by_evaluator]
    if missing:
        raise ValidationError(
            f"ranking matrices incomplete: missing evaluators {missing}"
        )
    return tuple(
        tuple(by_evaluator[s].rating(q, s) for s in SYSTEM_IDS)
        for q in range(1, 11)
    )


@dataclass(frozen=True)
class FixtureSet:
    """One full recorded session: answers, guess scripts, rankings,
    recorded outcomes, free-text metadata.

    Guess scripts are the ordered ids each system guessed during
    self-identification; a script must name its own system, since with
    five systems and five attempts the replayed k is then always found.
    Outcomes are what a past run scored.  Both are kept so a fixture file
    is simultaneously a replay input and a record of results.
    """

    pool: AnswerPool
    guess_scripts: dict[str, tuple[str, ...]] = field(default_factory=dict)
    rankings: dict[str, RankingMatrix] = field(default_factory=dict)
    outcomes: dict[str, GuessOutcome] = field(default_factory=dict)
    meta: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for sys_id, script in self.guess_scripts.items():
            if sys_id not in SYSTEM_IDS:
                raise ValidationError(f"guess script for unknown system {sys_id!r}")
            if not script or len(script) > MAX_GUESS_ATTEMPTS:
                raise ValidationError(
                    f"guess script for {sys_id} must have 1-"
                    f"{MAX_GUESS_ATTEMPTS} entries, got {len(script)}"
                )
            bad = [g for g in script if g not in SYSTEM_IDS]
            if bad:
                raise ValidationError(
                    f"guess script for {sys_id} names unknown systems {bad}"
                )
            if sys_id not in script:
                raise ValidationError(
                    f"guess script for {sys_id} never names {sys_id}: {list(script)}"
                )
        for evaluator, matrix in self.rankings.items():
            if matrix.evaluator != evaluator:
                raise ValidationError(
                    f"ranking keyed {evaluator} belongs to {matrix.evaluator}"
                )


def _add_once(table: dict, key, value, line_no: int, kind: str) -> None:
    """table[key] = value, unless an earlier line already set it."""
    if key in table:
        raise FormatError(f"line {line_no}: duplicate {kind} record for {key}")
    table[key] = value


def import_fixtures(path: str | Path) -> FixtureSet:
    """Parse a fixture file into a FixtureSet.

    One JSON object per line, its "kind" one of meta, answer,
    guess_script, ranking or outcome. Any malformed, unrecognised or
    repeated line fails with its 1-based line number (a repeated answer
    fails as the pool's duplicate); the pool must come out complete."""
    records: list[AnswerRecord] = []
    guess_scripts: dict[str, tuple[str, ...]] = {}
    rankings: dict[str, RankingMatrix] = {}
    outcomes: dict[str, GuessOutcome] = {}
    meta: dict[str, str] | None = None
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"mirror_text.fixtures: cannot read {path}: {exc}") from exc
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise FormatError(f"line {line_no}: not valid JSON: {exc.msg}") from exc
        if not isinstance(obj, dict):
            raise FormatError(f"line {line_no}: expected a JSON object")
        kind = obj.get("kind")
        try:
            if kind == "meta":
                if meta is not None:
                    raise FormatError(f"line {line_no}: duplicate meta record")
                meta = {k: v for k, v in obj.items() if k != "kind"}
                if not all(isinstance(v, str) for v in meta.values()):
                    raise TypeError(f"values must be strings: {meta!r}")
            elif kind == "answer":
                records.append(
                    AnswerRecord(obj["system"], obj["question"], obj["answer"])
                )
            elif kind == "guess_script":
                if not isinstance(obj["guesses"], list):
                    raise TypeError(f"guesses is not a list: {obj['guesses']!r}")
                _add_once(guess_scripts, obj["system"], tuple(obj["guesses"]), line_no, kind)
            elif kind == "ranking":
                matrix = RankingMatrix(
                    obj["evaluator"],
                    tuple(tuple(row) for row in obj["values"]),
                )
                _add_once(rankings, matrix.evaluator, matrix, line_no, kind)
            elif kind == "outcome":
                outcome = GuessOutcome(obj["system"], obj["k"])
                _add_once(outcomes, outcome.system_id, outcome, line_no, kind)
            else:
                raise FormatError(f"line {line_no}: unknown record kind {kind!r}")
        except FormatError:
            raise
        except (KeyError, TypeError, ValidationError) as exc:
            raise FormatError(f"line {line_no}: bad {kind} record: {exc}") from exc
    try:
        pool = AnswerPool(tuple(records))
    except ValidationError as exc:
        raise FormatError(f"fixture file {path}: {exc}") from exc
    return FixtureSet(pool, guess_scripts, rankings, outcomes, meta or {})
