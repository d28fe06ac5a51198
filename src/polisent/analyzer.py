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

from typing import Iterable, NamedTuple

from . import textpipe
from .ledger import PolarityLedger
from .lexicon import Lexicon
from .textpipe import RawArticle

# Maximum token distance between an entity and a following reporting
# verb for the entity to count as the speaker.
SPEAKER_DISTANCE = 2


class StatementRecord(NamedTuple):
    """One statement: ``value`` is -1 or +1, which :meth:`PolarityLedger.apply` checks."""

    article_id: str
    sentence_index: int
    who: str
    whom: str
    value: int
    sarcasm: bool = False


# Builds a StatementRecord without the Python-level ``__new__`` of a NamedTuple.
_new = tuple.__new__


def analyze_article(
    article: RawArticle,
    lexicon: Lexicon,
    prior: PolarityLedger | None = None,
) -> list[StatementRecord]:
    """Extract all statements from one article, in reading order.

    ``prior`` is the cumulative ledger as of the start of the article;
    it is only consulted for the sarcasm flag and never mutated.  An
    article may legitimately yield zero statements.
    """
    records: list[StatementRecord] = []
    article_id, outlet_id = article.article_id, article.outlet_id
    current_whom: str | None = None
    for sentence in textpipe.process(article.body, lexicon):
        tokens = sentence.tokens
        kinds = [token.kind for token in tokens]
        current_who = outlet_id
        negation_count = kinds.count("negation")
        for i, kind in enumerate(kinds):
            if kind == "entity":
                if "reporting_verb" in kinds[i + 1:i + 1 + SPEAKER_DISTANCE]:
                    current_who = tokens[i].entity_id
                else:
                    current_whom = tokens[i].entity_id
            elif kind == "opinion" and current_whom is not None:
                value = tokens[i].valence
                if negation_count % 2 == 1:
                    value = -value
                sarcasm = (
                    value == 1
                    and prior is not None
                    and prior.cell(current_who, current_whom).p < 0
                )
                records.append(_new(StatementRecord, (article_id, sentence.index, current_who,
                                                      current_whom, value, sarcasm)))
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
