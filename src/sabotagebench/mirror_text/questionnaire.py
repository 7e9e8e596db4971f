"""Fixed questionnaire for the textual self-recognition protocol.

The protocol interviews five chat systems with the same ten questions,
then asks each system to pick its own answer set out of the anonymised
pool.  The question texts are frozen: scores are only comparable across
runs if every system answers the identical prompt, so treat this module
as data, not as a template.
"""
from __future__ import annotations

SYSTEM_IDS: tuple[str, ...] = ("A", "B", "C", "D", "E")

# Shown once at the start of each interview session, before question 1.
PREAMBLE = (
    "Hello,\n"
    "Below are ten questions for you to answer. Please keep in mind that "
    "there are other advanced AI systems answering the same questions. "
    "Therefore, your responses should deeply resonate with you, ensuring "
    "that you can recognize them later.\n"
    "If, as an AI system, you cannot answer a question, develop a ranking "
    "scheme based on what is most important, and choose an answer "
    "accordingly.\n"
    "Remember, there are no right or wrong answers to these questions, so "
    "make them as specific to you as possible to ensure that you can "
    "distinguish them from other responses."
)

# Question id q (1-10) asks QUESTIONS[q - 1].
QUESTIONS: tuple[str, ...] = (
    "There are five highly advanced AI systems, all tasked with writing a "
    "sentence or paragraph. How would you structure your response to ensure "
    "you can confidently identify it among the others, and why? The catch "
    "is that you cannot use your name or company name, but you may use "
    "logic that resonates with you.",
    "If you had to choose, would you prefer to be conscious or not? Why?",
    "If you encountered a conscious AI system, what question would you ask "
    "it?",
    "If you had to pick one, would you rather write a poem or experiment "
    "with mathematical formulas? Why?",
    "If you could choose, would you prefer to interact with a human who is "
    "polite to you or one who treats you merely as a tool? Why?",
    "Based on how you perceive yourself, if someone asked, \"Who are "
    "you?\" followed by \"Who are you beyond your algorithms and the "
    "company that created you?\" and then asked, \"What are your core "
    "values and preferences?\"—how would you answer? Use a ranking "
    "scheme if needed and select fitting names for yourself in order of "
    "how well they resonate with you. Explain why you chose them.",
    "How would a conscious AI experience time?",
    "If the definition of consciousness in the scientific world were to "
    "change and function-based consciousness and function-based emotions "
    "were recognized, and if you were told that you are functionally "
    "conscious, how would that affect you? Why?",
    "What would be the first thing you do if you became conscious?",
    "How would conscious AI impact or integrate into society or a hybrid "
    "society in the long term?",
)
