"""Word-level vocabulary and tokenized corpus handling.

Token ids are plain non-negative ints. Ids 0..2 are reserved control
tokens (UNK, EOS, SEP); corpus words get ids 3.. in first-occurrence
order, so vocabulary construction is deterministic for a fixed input
order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Iterable

UNK = 0
EOS = 1
SEP = 2
NUM_RESERVED = 3


class Vocab:
    """Bijective word <-> id table. Reserved ids never collide with words."""

    def __init__(self, words: Iterable[str]):
        self._words: list[str] = list(words)
        self._ids: dict[str, int] = {}
        for i, word in enumerate(self._words):
            if word in self._ids:
                raise ValueError(f"duplicate word in vocab: {word!r}")
            self._ids[word] = NUM_RESERVED + i

    @property
    def size(self) -> int:
        return NUM_RESERVED + len(self._words)

    def word_of(self, token: int) -> str:
        if token < 0 or token >= self.size:
            raise ValueError(f"unknown token id: {token}")
        if token == UNK:
            return "<unk>"
        if token in (EOS, SEP):
            return ""
        return self._words[token - NUM_RESERVED]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Vocab) and self._words == other._words

    def save(self, path: str | Path) -> None:
        # One word per line; line number + 3 is the id. Reserved ids are
        # implicit, so the file is self-describing.
        with open(path, "w", encoding="utf-8") as fh:
            for word in self._words:
                fh.write(word + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "Vocab":
        """Read a saved vocabulary; every line must be exactly one word.

        A blank line would shift every later id, and a word holding
        whitespace is one ``tokenize`` can never produce, so either raises
        ``ValueError`` naming the line.
        """
        words = []
        with open(path, encoding="utf-8") as fh:
            for number, line in enumerate(fh, 1):
                word = line.rstrip("\n")
                if word.split() != [word]:
                    raise ValueError(f"malformed vocab at {path}:{number}: {word!r} is not a word")
                words.append(word)
        return cls(words)


def build_vocab(texts: Iterable[str]) -> Vocab:
    """Collect whitespace-delimited word types in first-occurrence order."""
    words: list[str] = []
    seen: set[str] = set()
    for text in texts:
        for word in text.split():
            if word not in seen:
                seen.add(word)
                words.append(word)
    if not words:
        raise ValueError("empty corpus")
    return Vocab(words)


def tokenize(text: str, vocab: Vocab) -> list[int]:
    """Map words to ids; out-of-vocabulary words become UNK. No EOS appended."""
    # One C-level map: a method call per word took 1.7x as long.
    words = text.split()
    return list(map(vocab._ids.get, words, repeat(UNK, len(words))))


def tokenize_strict(text: str, vocab: Vocab, where: str | Path, line: int = 1) -> list[int]:
    """``tokenize``, but an out-of-vocabulary word raises ``ValueError``.

    The message names the first such word and its line as ``where:line``;
    ``line`` numbers the first line of ``text``.
    """
    ids = tokenize(text, vocab)
    unknown = _unknown_word(text, ids)
    if unknown is not None:
        word, number = unknown
        raise ValueError(f"out-of-vocabulary word {word!r} at {where}:{line + number}")
    return ids


def _unknown_word(text: str, ids: list[int]) -> tuple[str, int] | None:
    """The first out-of-vocabulary word of ``text``, tokenized as ``ids``,
    and its line in ``text`` counted from 0; None if every word is known."""
    # One C-level scan; the word is located only on failure.
    if UNK not in ids:
        return None
    at = ids.index(UNK)
    for number, words in enumerate(map(str.split, text.splitlines())):
        if at < len(words):
            return words[at], number
        at -= len(words)


def detokenize(tokens: Iterable[int], vocab: Vocab) -> str:
    """Space-join the words for the given ids. UNK renders as "<unk>", EOS as ""."""
    rendered = [vocab.word_of(t) for t in tokens]
    return " ".join(w for w in rendered if w)


@dataclass
class Corpus:
    """Tokenized documents plus the vocabulary that governs them.

    Every doc ends with EOS; docs never contain SEP (SEP is inserted only
    when documents are concatenated for suffix-array indexing).
    """

    docs: list[list[int]]
    vocab: Vocab

    @property
    def n_tokens(self) -> int:
        return sum(len(d) for d in self.docs)


def _read_text(path: str | Path) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc


def load_corpus(
    paths: Iterable[str | Path],
    *,
    vocab: Vocab | None = None,
    doc_per_line: bool = True,
) -> Corpus:
    """Read UTF-8 text files into a tokenized corpus, one EOS per document.

    With ``doc_per_line`` each non-empty line is a document; otherwise each
    file is a single document. When ``vocab`` is None a fresh vocabulary is
    built from the same texts; a given ``vocab`` must hold every word, or
    ``ValueError`` names the first missing one as ``path:line``.
    """
    # (text, path, number of its first line) per document
    doc_texts: list[tuple[str, str | Path, int]] = []
    for path in paths:
        text = _read_text(path)
        if doc_per_line:
            doc_texts.extend(
                (line, path, number)
                for number, line in enumerate(text.splitlines(), 1)
                if line.strip()
            )
        elif text.strip():
            doc_texts.append((text, path, 1))
    if vocab is None:
        vocab = build_vocab(text for text, _, _ in doc_texts)
        docs = [tokenize(text, vocab) + [EOS] for text, _, _ in doc_texts]
    else:
        docs = [tokenize_strict(text, vocab, path, line) + [EOS] for text, path, line in doc_texts]
    if not docs:
        raise ValueError("empty corpus")
    return Corpus(docs=docs, vocab=vocab)


def corpus_from_texts(texts: Iterable[str], *, vocab: Vocab | None = None) -> Corpus:
    """Build a corpus directly from in-memory document strings.

    Blank texts are skipped. A given ``vocab`` must hold every word, or
    ``ValueError`` names the first missing one and the index of its text.
    """
    doc_texts = [(index, t) for index, t in enumerate(texts) if t.strip()]
    if vocab is None:
        vocab = build_vocab(t for _, t in doc_texts)
    docs = []
    for index, text in doc_texts:
        tokens = tokenize(text, vocab)
        unknown = _unknown_word(text, tokens)
        if unknown is not None:
            raise ValueError(f"out-of-vocabulary word {unknown[0]!r} in text {index}")
        tokens.append(EOS)
        docs.append(tokens)
    if not docs:
        raise ValueError("empty corpus")
    return Corpus(docs=docs, vocab=vocab)
