"""End to end: every command's output over generated inputs agrees with the benchmark's model.

The benchmark's generator (``bench/gen.py``) writes a lexicon and
articles from a seed and a shape, and its oracle (``bench/oracle.py``)
derives each command's expected stdout and the KB bytes from the tokens
it planted, without polisent.  Here the shapes, the start KB (empty or
synthesized) and the split of one batch over one to three ``train``
calls are drawn at random, and one earlier part is trained again: its
articles are already processed, so ``train`` skips each with a warning.
After each ``train``, ``analyze``, ``report`` (tsv and json) and
``kb export`` run over the KB it wrote.  Every command runs through
``cli.main`` in this process.  Each part is also folded article by
article through ``kb.ingest``, whose statements, sarcasm flags included,
must be the model's: no command prints a sarcasm flag.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polisent import kb as kbmod
from polisent.cli import main
from polisent.errors import DuplicateArticle
from polisent.lexicon import load_lexicon_file
from polisent.textpipe import parse_article

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import gen  # noqa: E402  from bench/, on the path above
from oracle import Extractor, Model, classify  # noqa: E402


def run(*argv) -> tuple[int, str, str]:
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main([str(arg) for arg in argv])
    return code, out.getvalue(), err.getvalue()


def json_report(model: Model) -> str:
    """``report --format json`` of the model's history, from its tendencies."""
    rows = []
    for outlet, whom in sorted(model.history, key=lambda key: (key[1], key[0])):
        tendency = model.tendency((outlet, whom))
        rows.append({
            "outlet": outlet,
            "whom": whom,
            "articles": len(model.history[(outlet, whom)]),
            "tendency": str(tendency),
            "decimal": f"{float(tendency):.4f}",
            "classification": classify(tendency),
        })
    return json.dumps({"rows": rows}, sort_keys=True, indent=2) + "\n"


def check_statements(extractor: Extractor, model: Model, lexicon, part) -> None:
    """Fold ``part`` in id order through ``kb.ingest`` into the KB as the model has it now.

    Each article's records must be the model's statements as of that
    article; an article already processed must be refused.
    """
    state = kbmod.loads(model.text())
    copy = model.copy()
    for article in sorted(part, key=lambda a: a.article_id):
        if article.article_id in copy.processed:
            with pytest.raises(DuplicateArticle):
                kbmod.ingest(state, parse_article(article.text), lexicon)
            continue
        expected = extractor.statements(article, copy.cells)
        records = kbmod.ingest(state, parse_article(article.text), lexicon).records
        assert [(r.who, r.whom, r.value, r.sarcasm) for r in records] == expected
        copy.fold(article.article_id, article.outlet, expected)


shares = st.sampled_from((0.0, 0.3, 0.7, 1.0))
lexicon_shapes = st.builds(
    gen.LexiconShape,
    entities=st.integers(3, 12),  # synthesize_kb samples up to three targets
    two_word_share=shares,
    nickname_share=shares,
    outlets=st.integers(1, 3),
    plain=st.just(30),
)
article_shapes = st.builds(
    gen.ArticleShape,
    sentences=st.just((1, 4)),
    tokens=st.just((3, 12)),
    cast=st.just((1, 3)),
    entity_density=st.sampled_from((0.12, 0.3)),
    opinion_density=st.sampled_from((0.10, 0.3)),
    speaker_share=shares,
    split_alias_share=shares,
)
start_kbs = st.none() | st.builds(
    gen.GrownShape,
    articles=st.integers(1, 12),
    targets=st.just((1, 3)),
    statements=st.just((1, 3)),
    entity_speaker_share=st.sampled_from((0.0, 0.3)),
)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    lexicon_shape=lexicon_shapes,
    article_shape=article_shapes,
    start=start_kbs,
    batch_size=st.integers(1, 9),
    cuts=st.lists(st.integers(1, 8), max_size=2),
    again=st.integers(0, 2),
)
def test_commands_agree_with_the_model(seed, lexicon_shape, article_shape, start, batch_size,
                                       cuts, again):
    lexicon = gen.make_lexicon(seed, lexicon_shape)
    batch = gen.make_articles(seed, lexicon, article_shape, batch_size, "n", "batch")
    queries = gen.make_articles(seed, lexicon, article_shape, 2, "q", "query")
    extractor = Extractor(lexicon)
    model = Model() if start is None else gen.synthesize_kb(seed, lexicon, start)
    model.fingerprint = lexicon.fingerprint()
    # One to three train calls over consecutive parts of the batch, then one
    # over an earlier part again.
    bounds = sorted({cut for cut in cuts if cut < batch_size})
    parts = [batch[i:j] for i, j in zip([0, *bounds], [*bounds, batch_size])]
    parts.append(parts[again % len(parts)])
    with tempfile.TemporaryDirectory() as directory:
        root = Path(directory)
        lexicon_path = root / "lexicon.txt"
        lexicon_path.write_text(lexicon.text(), encoding="utf-8")
        polisent_lexicon = load_lexicon_file(lexicon_path)
        kb_path = root / "kb.json"
        if start is not None:
            kb_path.write_text(model.text(), encoding="utf-8")
        gen.write_articles(root / "queries", queries)
        for n, part in enumerate(parts):
            corpus = root / f"part{n}"
            gen.write_articles(corpus, part)
            check_statements(extractor, model, polisent_lexicon, part)
            skipped = sorted(a.article_id for a in part if a.article_id in model.processed)
            expected = model.train(extractor, [a for a in part if a.article_id not in skipped])
            warnings = "".join(f"warning: skipping already processed article {article_id}\n"
                               for article_id in skipped)
            assert run("train", "--corpus", corpus, "--lexicon", lexicon_path,
                       "--kb", kb_path) == (0, expected, warnings)
            assert kb_path.read_text(encoding="utf-8") == model.text()
            for article in queries:
                assert run("analyze", root / "queries" / f"{article.article_id}.txt",
                           "--lexicon", lexicon_path, "--kb", kb_path) == (
                    0, model.analyze(extractor, article), "")
            assert run("report", "--kb", kb_path) == (0, model.report(), "")
            assert run("report", "--kb", kb_path, "--format", "json") == (
                0, json_report(model), "")
            outlet = lexicon.outlet
            warning = ("" if any(o == outlet for o, _ in model.history)
                       else f"warning: outlet {outlet} has no scores in the knowledge base\n")
            assert run("kb", "export", "--kb", kb_path, "--outlet", outlet) == (
                0, model.export(outlet), warning)
