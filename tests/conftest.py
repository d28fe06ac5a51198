from pathlib import Path

import pytest

from polisent.kb import KnowledgeBase, ingest
from polisent.lexicon import load_lexicon_file
from polisent.textpipe import load_corpus

REPO = Path(__file__).resolve().parents[1]
FIXTURES = REPO / "fixtures"
DATA = Path(__file__).resolve().parent / "data"


@pytest.fixture(scope="session")
def lexicon():
    return load_lexicon_file(FIXTURES / "lexicon.txt")


@pytest.fixture(scope="session")
def corpus():
    return load_corpus(FIXTURES / "corpus")


@pytest.fixture(scope="session")
def article1(corpus):
    return corpus[0]


@pytest.fixture(scope="session")
def article2(corpus):
    return corpus[1]


@pytest.fixture()
def trained_kb(lexicon, corpus):
    """Fresh knowledge base with both demo articles ingested in order."""
    kb = KnowledgeBase()
    for article in corpus:
        ingest(kb, article, lexicon)
    return kb


@pytest.fixture(scope="session")
def golden_trace1():
    return (DATA / "trace_article1.tsv").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def golden_trace2():
    return (DATA / "trace_article2.tsv").read_text(encoding="utf-8")
