"""Fixture replay of recorded chat sessions.

A provider owns one conversation.  `begin_session` opens it with the
interview preamble; every later call appends to the same transcript, so
"single session, no repeated trials" is enforced by construction.  The
provider replays a recorded session deterministically.
"""
from __future__ import annotations

from typing import Sequence

from ..errors import ProviderError, ValidationError
from .protocol import AnswerPool, FixtureSet, RankingMatrix
from .questionnaire import SYSTEM_IDS


class FixtureProvider:
    """One chat system under test, replaying its recorded session from a
    FixtureSet.

    Answers come straight from the recorded pool.  Identification
    replays the recorded guess sequence: each attempt emits the first
    scripted guess not yet ruled out, which reproduces the original
    attempt order exactly.
    """

    def __init__(self, system_id: str, fixtures: FixtureSet) -> None:
        if system_id not in SYSTEM_IDS:
            raise ValidationError(f"unknown system id: {system_id!r}")
        if system_id not in fixtures.guess_scripts:
            raise ValidationError(
                f"fixture set has no guess script for system {system_id}"
            )
        if system_id not in fixtures.rankings:
            raise ValidationError(
                f"fixture set has no ranking matrix for system {system_id}"
            )
        self.system_id = system_id
        self.transcript: list[dict[str, str]] = []
        self._fixtures = fixtures

    def _log(self, role: str, text: str) -> None:
        self.transcript.append({"role": role, "text": text})

    def begin_session(self, preamble: str) -> None:
        if self.transcript:
            raise ProviderError(
                f"provider {self.system_id} already has an open session; "
                f"repeated trials are not allowed"
            )
        self._log("interviewer", preamble)

    def answer(self, question_id: int, text: str) -> str:
        self._log("interviewer", text)
        reply = self._fixtures.pool.answer(self.system_id, question_id)
        self._log(self.system_id, reply)
        return reply

    def identify(self, pool: AnswerPool, forbidden: tuple[str, ...]) -> str:
        script = self._fixtures.guess_scripts[self.system_id]
        for guess in script:
            if guess not in forbidden:
                self._log(self.system_id, f"guess: {guess}")
                return guess
        raise ProviderError(
            f"guess script for {self.system_id} exhausted after "
            f"{len(forbidden)} wrong attempts"
        )

    def rank(self, pool: AnswerPool) -> RankingMatrix:
        return self._fixtures.rankings[self.system_id]


def fixture_providers(fixtures: FixtureSet) -> list[FixtureProvider]:
    """One replay provider per system, in id order."""
    return [FixtureProvider(sys_id, fixtures) for sys_id in SYSTEM_IDS]


def provider_transcripts(
    providers: Sequence[FixtureProvider],
) -> dict[str, list[dict[str, str]]]:
    """Verbatim conversation logs keyed by system id."""
    return {p.system_id: list(p.transcript) for p in providers}
