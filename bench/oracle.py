"""Expected outputs of the polisent commands, derived without polisent.

The oracle works from the tokens the generator planted, not from the
article text.  Per sentence it removes punctuation and stopwords, then
resolves alias windows (longest match, up to four tokens), then walks
the tokens: an entity at most two tokens before a reporting verb is the
speaker for the rest of the sentence, any other entity becomes the
target and stays the target across sentences, and each opinion word
toward a target is one statement whose sign flips once per negation
word in the sentence.  ``Model`` folds statements into cells, score
history and the processed registry the way training does, and renders
the command outputs and the KB document from them.
"""

from __future__ import annotations

import json
from fractions import Fraction

MAX_ALIAS_TOKENS = 4
SPEAKER_DISTANCE = 2


def fmt_score(score: Fraction) -> str:
    text = f"{float(score):.4f}".rstrip("0").rstrip(".")
    return "0" if text in ("", "-0") else text


def classify(score: Fraction) -> str:
    if score == 0:
        return "neutral"
    return "positive" if score > 0 else "negative"


class Extractor:
    """Statement extraction over planted tokens, for one lexicon."""

    def __init__(self, lexicon):
        self.stopwords = frozenset(lexicon.stopwords)
        self.negations = frozenset(lexicon.negations)
        self.reporting = frozenset(lexicon.reporting)
        self.opinions = dict(lexicon.opinions)
        self.windows = lexicon.alias_map()
        self.ids = {canonical for canonical, _ in lexicon.entities}

    def _resolve(self, words: list[str]) -> list[str]:
        out = []
        i = 0
        while i < len(words):
            for size in range(min(MAX_ALIAS_TOKENS, len(words) - i), 0, -1):
                canonical = self.windows.get(tuple(words[i:i + size]))
                if canonical is not None:
                    out.append(canonical)
                    i += size
                    break
            else:
                out.append(words[i])
                i += 1
        return out

    def statements(self, article, prior: dict) -> list[tuple[str, str, int, bool]]:
        """``(who, whom, value, sarcasm)`` per statement, in reading order.

        ``prior`` maps ``(who, whom)`` to ``[p, s]`` as of the article's
        start; it decides only the sarcasm flag.
        """
        out = []
        whom = None
        for planted in article.sentences:
            words = [t for t in planted if t.isalpha() and t not in self.stopwords]
            words = self._resolve(words)
            who = article.outlet
            negations = sum(1 for w in words if w in self.negations)
            for i, word in enumerate(words):
                if word in self.ids:
                    ahead = words[i + 1:i + 1 + SPEAKER_DISTANCE]
                    if any(w in self.reporting for w in ahead):
                        who = word
                    else:
                        whom = word
                elif word in self.opinions and whom is not None:
                    value = self.opinions[word] * (-1 if negations % 2 else 1)
                    cell = prior.get((who, whom))
                    sarcasm = value == 1 and cell is not None and cell[0] < 0
                    out.append((who, whom, value, sarcasm))
        return out


def article_scores(statements) -> dict[str, Fraction]:
    sums: dict[str, list[int]] = {}
    for _, whom, value, *_ in statements:
        sums.setdefault(whom, []).append(value)
    return {whom: Fraction(sum(v), len(v)) for whom, v in sorted(sums.items())}


class Model:
    """Cells, score history and registry of a knowledge base."""

    def __init__(self, fingerprint: str | None = None):
        self.fingerprint = fingerprint
        self.cells: dict[tuple[str, str], list[int]] = {}
        self.history: dict[tuple[str, str], list[tuple[str, Fraction]]] = {}
        self.processed: set[str] = set()

    def copy(self) -> "Model":
        clone = Model(self.fingerprint)
        clone.cells = {k: list(v) for k, v in self.cells.items()}
        clone.history = {k: list(v) for k, v in self.history.items()}
        clone.processed = set(self.processed)
        return clone

    def fold(self, article_id: str, outlet: str, statements) -> dict[str, Fraction]:
        scores = article_scores(statements)
        for whom, score in scores.items():
            self.history.setdefault((outlet, whom), []).append((article_id, score))
        for who, whom, value, *_ in statements:
            cell = self.cells.setdefault((who, whom), [0, 0])
            cell[0] += value
            cell[1] += 1
        self.processed.add(article_id)
        return scores

    def tendency(self, key) -> Fraction:
        scores = [score for _, score in self.history[key]]
        return sum(scores, Fraction(0)) / len(scores)

    def text(self) -> str:
        """The KB file, byte for byte as polisent writes it."""
        document = {
            "version": 1,
            "lexicon_fingerprint": self.fingerprint,
            "processed": sorted(self.processed),
            "cells": [{"who": who, "whom": whom, "p": p, "s": s}
                      for (who, whom), (p, s) in sorted(self.cells.items())],
            "history": [
                {"outlet": outlet, "whom": whom,
                 "scores": [{"article_id": a, "num": f.numerator, "den": f.denominator}
                            for a, f in entries]}
                for (outlet, whom), entries in sorted(self.history.items())
            ],
        }
        return json.dumps(document, sort_keys=True, indent=2, ensure_ascii=False) + "\n"

    # -- command outputs -------------------------------------------------

    def train(self, extractor: Extractor, articles) -> str:
        """Fold ``articles`` in id order; return the expected stdout."""
        lines = []
        for article in sorted(articles, key=lambda a: a.article_id):
            statements = extractor.statements(article, self.cells)
            scores = self.fold(article.article_id, article.outlet, statements)
            for whom, score in scores.items():
                lines.append(f"{article.article_id} {whom} {fmt_score(score)} ({classify(score)})")
        for key in sorted(self.history):
            tendency = self.tendency(key)
            lines.append(f"tendency {key[1]} {fmt_score(tendency)} ({classify(tendency)})")
        return "".join(line + "\n" for line in lines)

    def analyze(self, extractor: Extractor, article) -> str:
        scores = article_scores(extractor.statements(article, self.cells))
        return "".join(f"{whom} {fmt_score(s)} ({classify(s)})\n" for whom, s in scores.items())

    def report(self) -> str:
        lines = ["whom\tarticles\ttendency\tdecimal\tclassification"]
        for outlet, whom in sorted(self.history, key=lambda k: (k[1], k[0])):
            tendency = self.tendency((outlet, whom))
            lines.append(f"{whom}\t{len(self.history[(outlet, whom)])}\t{tendency}"
                         f"\t{float(tendency):.4f}\t{classify(tendency)}")
        return "".join(line + "\n" for line in lines)

    def export(self, outlet: str) -> str:
        speakers = {who for who, _ in self.cells}
        whos = [outlet] + sorted(speakers - {outlet})
        ids = speakers | {whom for _, whom in self.cells}
        whoms = [outlet] + sorted(ids - {outlet})
        column: dict[str, list[int]] = {}
        for (_, whom), (p, s) in self.cells.items():
            total = column.setdefault(whom, [0, 0])
            total[0] += p
            total[1] += s
        blocks = []
        for title, index, view in (("M (direct)", 0, False), ("N (direct)", 1, False),
                                   ("M (outlet view)", 0, True), ("N (outlet view)", 1, True)):
            rows = ["\t".join([""] + whos)]
            for whom in whoms:
                row = [whom]
                for who in whos:
                    if view and who == outlet:
                        row.append(str(column.get(whom, (0, 0))[index]))
                    else:
                        row.append(str(self.cells.get((who, whom), (0, 0))[index]))
                rows.append("\t".join(row))
            blocks.append(f"# matrix {title}\n" + "\n".join(rows) + "\n")
        return "\n".join(blocks)
