"""Statement extraction: walks processed sentences and emits (who, whom, value).

Role rules, per sentence of the processed token stream:

* the speaker (``who``) defaults to the article's outlet at the start of
  every sentence; an entity standing at most two tokens before a
  reporting verb becomes the speaker for the rest of that sentence;
* any other entity mention becomes the current target (``whom``), which
  persists across sentences within the article;
* each opinion token emits one statement, provided a target is in
  scope, with its valence sign-flipped once per negation token in the
  sentence;
* a positive statement whose speaker already holds a negative prior
  polarity toward the target is flagged as sarcasm; the value itself is
  never changed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from . import textpipe
from .lexicon import Lexicon
from .textpipe import RawArticle

if TYPE_CHECKING:
    from .ledger import PolarityLedger

# Maximum token distance between an entity and a following reporting
# verb for the entity to count as the speaker.
SPEAKER_DISTANCE = 2


@dataclass(frozen=True)
class StatementRecord:
    article_id: str
    sentence_index: int
    who: str
    whom: str
    value: int
    sarcasm: bool = False
    negation_count: int = 0

    def __post_init__(self):
        if self.value not in (-1, 1):
            raise ValueError(f"statement value must be -1 or +1, got {self.value}")
        if self.sarcasm and self.value != 1:
            raise ValueError("sarcasm is only defined for positive statements")
        if self.negation_count < 0:
            raise ValueError("negation count cannot be negative")


def analyze_article(
    article: RawArticle,
    lexicon: Lexicon,
    prior: "PolarityLedger | None" = None,
) -> list[StatementRecord]:
    """Extract all statements from one article, in reading order.

    ``prior`` is the cumulative ledger as of the start of the article;
    it is only consulted for the sarcasm flag and never mutated.  An
    article may legitimately yield zero statements.
    """
    records: list[StatementRecord] = []
    current_whom: str | None = None
    for sentence in textpipe.process(article.body, lexicon):
        current_who = article.outlet_id
        classes = [token.token_class for token in sentence.tokens]
        kinds = [token_class.kind for token_class in classes]
        negation_count = kinds.count("negation")
        for i, token_class in enumerate(classes):
            if kinds[i] == "entity":
                if "reporting_verb" in kinds[i + 1:i + 1 + SPEAKER_DISTANCE]:
                    current_who = token_class.entity_id
                else:
                    current_whom = token_class.entity_id
            elif kinds[i] == "opinion" and current_whom is not None:
                value = token_class.valence
                if negation_count % 2 == 1:
                    value = -value
                sarcasm = (
                    value == 1
                    and prior is not None
                    and prior.cell(current_who, current_whom).p < 0
                )
                records.append(
                    StatementRecord(
                        article_id=article.article_id,
                        sentence_index=sentence.index,
                        who=current_who,
                        whom=current_whom,
                        value=value,
                        sarcasm=sarcasm,
                        negation_count=negation_count,
                    )
                )
    return records


TRACE_HEADER = ("article_index", "sentence_index", "who", "whom", "value")


def trace(records: Iterable[StatementRecord], outlet_id: str) -> str:
    """Tab-separated statement table; the outlet renders as ``0``."""
    lines = ["\t".join(TRACE_HEADER)]
    for record in records:
        who = "0" if record.who == outlet_id else record.who
        whom = "0" if record.whom == outlet_id else record.whom
        lines.append(
            f"{record.article_id}\t{record.sentence_index}\t{who}\t{whom}\t{record.value}"
        )
    return "\n".join(lines) + "\n"
