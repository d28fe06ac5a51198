"""polisent: lexicon-driven sentiment ledger for political news text.

Reads news articles, extracts (who, whom, value) statements about named
figures, accumulates them in sparse polarity/count matrices, and scores
speakers, articles, and outlets with exact rationals.

This package exports the names below; everything else lives in its
submodule (``polisent.lexicon``, ``textpipe``, ``analyzer``, ``ledger``,
``kb``, ``errors``, ``cli``).
"""

from . import kb
from .analyzer import analyze_article, trace
from .errors import CorruptDocument, PolisentError
from .kb import KnowledgeBase, ingest
from .ledger import (
    NEUTRAL,
    ArticleScoreHistory,
    Cell,
    article_score,
    merge,
    outlet_tendency,
    outlet_view,
    speaker_score,
)
from .lexicon import load_lexicon_file

__version__ = "0.1.0"
