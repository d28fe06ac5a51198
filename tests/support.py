"""Shared generators for randomized tests."""

from __future__ import annotations

import random
from fractions import Fraction

from polisent.analyzer import StatementRecord
from polisent.cli import main
from polisent.kb import KnowledgeBase
from polisent.ledger import NEUTRAL, PolarityLedger
from polisent.lexicon import load_lexicon
from polisent.textpipe import RawArticle

IDS = ["k", "andi", "kpk", "deddy", "km", "ahmad", "p1", "p2"]

# Small ascii lexicon for synthetic analyzer articles.
MINI_LEXICON = load_lexicon("""\
[outlet] out
[stopwords]
the
a
is
[negations]
not
never
[reporting]
said
stated
[opinions]
good +1
fine +1
bad -1
poor -1
[entities]
e1
e2
e3
e4
""".splitlines())



def surfaces(lexicon, kind: str) -> list[str]:
    """The surfaces of one token kind, in the order the lexicon file declares them."""
    return [s for s, token in lexicon.tokens.items() if token.kind == kind]


_PLAIN = ["alpha", "beta", "gamma", "delta", "omega"]
_ENTITIES = surfaces(MINI_LEXICON, "entity")
_OPINIONS = surfaces(MINI_LEXICON, "opinion")
_NEGATIONS = sorted(surfaces(MINI_LEXICON, "negation"))
_REPORTING = sorted(surfaces(MINI_LEXICON, "reporting_verb"))


def run_cli(capsys, *argv):
    """Run the command line in this process: exit code, stdout and stderr."""
    try:
        code = main([str(arg) for arg in argv])
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def history_entries(history, outlet: str, whom: str) -> list[tuple[str, Fraction]]:
    """The ``(article_id, score)`` list of one history pair; empty if it has none."""
    return dict(history.items()).get((outlet, whom), [])


def random_records(rng: random.Random, n: int, article_id: str = "a") -> list[StatementRecord]:
    records = []
    for i in range(n):
        records.append(
            StatementRecord(
                article_id=article_id,
                sentence_index=i + 1,
                who=rng.choice(IDS),
                whom=rng.choice(IDS),
                value=rng.choice((-1, 1)),
            )
        )
    return records


def apply_all(records, scope=None) -> PolarityLedger:
    """A ledger of ``records``; ``scope`` is ignored (``test_acceptance.py`` passes one)."""
    ledger = PolarityLedger()
    for record in records:
        ledger.apply(record)
    return ledger


def brute_article_score(records, whom: str):
    """Oracle: score straight from the statement list, no ledger."""
    values = [r.value for r in records if r.whom == whom]
    if not values:
        return NEUTRAL
    return Fraction(sum(values), len(values))


def random_sentence_tokens(rng: random.Random, with_negations: bool = True) -> list[str]:
    tokens = []
    for _ in range(rng.randint(2, 10)):
        kind = rng.random()
        if kind < 0.30:
            tokens.append(rng.choice(_ENTITIES))
        elif kind < 0.55:
            tokens.append(rng.choice(_OPINIONS))
        elif kind < 0.70:
            tokens.append(rng.choice(_REPORTING))
        elif with_negations and kind < 0.80:
            tokens.append(rng.choice(_NEGATIONS))
        else:
            tokens.append(rng.choice(_PLAIN))
    return tokens


def random_article(rng: random.Random, article_id: str = "a",
                   sentences: int | None = None) -> RawArticle:
    sentences = sentences if sentences is not None else rng.randint(1, 4)
    body = " ".join(
        " ".join(random_sentence_tokens(rng)) + "." for _ in range(sentences)
    )
    return RawArticle(article_id=article_id, outlet_id="out", body=body)


def random_prior(rng: random.Random, n: int = 12) -> PolarityLedger:
    return apply_all(random_records(rng, n))


def random_kb(rng: random.Random) -> KnowledgeBase:
    """Directly assembled knowledge base honoring every invariant."""
    processed = {f"a{i}" for i in range(rng.randint(0, 6))}
    ledger = PolarityLedger()
    if processed:
        for record in random_records(rng, rng.randint(0, 20)):
            ledger.apply(record)
    kb = KnowledgeBase(
        cumulative=ledger,
        processed=processed,
        lexicon_fingerprint="f" * 64 if processed else None,
    )
    article_pool = sorted(processed)
    if article_pool:
        for _ in range(rng.randint(0, 5)):
            outlet = rng.choice(("k", "m"))
            whom = rng.choice(IDS)
            used = {
                aid for aid, _ in history_entries(kb.history, outlet, whom)
            }
            candidates = [a for a in article_pool if a not in used]
            if not candidates:
                continue
            num = rng.randint(-8, 8)
            den = rng.randint(max(1, abs(num)), 12)
            kb.history.record(outlet, whom, rng.choice(candidates), Fraction(num, den))
    return kb
