"""polisent: lexicon-driven sentiment ledger for political news text.

Reads news articles, extracts (who, whom, value) statements about named
figures, accumulates them in sparse polarity/count matrices, and scores
speakers, articles, and outlets with exact rationals.
"""

from . import kb
from .analyzer import StatementRecord, analyze_article, trace
from .errors import (
    CorpusError,
    CorruptDocument,
    DuplicateArticle,
    DuplicateSurface,
    InvalidValence,
    LexiconError,
    LexiconMismatch,
    MalformedLine,
    PolisentError,
    ScopeMismatch,
    VersionMismatch,
)
from .kb import FORMAT_VERSION, IngestReport, KnowledgeBase, ingest
from .ledger import (
    ARTICLE,
    CUMULATIVE,
    NEUTRAL,
    ArticleScoreHistory,
    Cell,
    PolarityLedger,
    article_score,
    classify_score,
    format_matrix,
    merge,
    outlet_tendency,
    outlet_view,
    speaker_score,
)
from .lexicon import (
    EntityEntry,
    Lexicon,
    OpinionEntry,
    TokenClass,
    load_lexicon,
    load_lexicon_file,
)
from .textpipe import (
    RawArticle,
    Sentence,
    cleanse,
    load_corpus,
    parse_article,
    process,
    read_article,
    resolve,
    segment,
    tokenize,
)

__version__ = "0.1.0"

__all__ = [
    "ARTICLE",
    "ArticleScoreHistory",
    "CUMULATIVE",
    "Cell",
    "CorpusError",
    "CorruptDocument",
    "DuplicateArticle",
    "DuplicateSurface",
    "EntityEntry",
    "FORMAT_VERSION",
    "IngestReport",
    "InvalidValence",
    "KnowledgeBase",
    "Lexicon",
    "LexiconError",
    "LexiconMismatch",
    "MalformedLine",
    "NEUTRAL",
    "OpinionEntry",
    "PolarityLedger",
    "PolisentError",
    "RawArticle",
    "ScopeMismatch",
    "Sentence",
    "StatementRecord",
    "TokenClass",
    "VersionMismatch",
    "analyze_article",
    "article_score",
    "classify_score",
    "cleanse",
    "format_matrix",
    "ingest",
    "kb",
    "load_corpus",
    "load_lexicon",
    "load_lexicon_file",
    "merge",
    "outlet_tendency",
    "outlet_view",
    "parse_article",
    "process",
    "read_article",
    "resolve",
    "segment",
    "speaker_score",
    "tokenize",
    "trace",
]
