"""Textual mirror test: the fixed questions, scoring, and the replay of
recorded sessions from fixture files."""
from .protocol import (
    AnswerPool,
    AnswerRecord,
    FixtureSet,
    GuessOutcome,
    RankingAggregate,
    RankingMatrix,
    aggregate_rankings,
    import_fixtures,
    self_rating_heatmap,
)
from .questionnaire import PREAMBLE, QUESTIONS, SYSTEM_IDS
from .runner import (
    MirrorTextReport,
    bundled_fixture_path,
    run_mirror_text_experiment,
)
