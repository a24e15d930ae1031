"""Vocabulary, word-level tokenization, truncation, JSONL ingestion, masking.

The tokenizer is deliberately simple: lowercase, then split into word and
single-punctuation tokens. The encoder is trained from scratch, so there is
no subword inventory to match; determinism matters more than coverage.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import DataError, check_fields, index_lines, read_jsonl, read_lines, write_text
from .model import ModelConfig
from .numerics import IGNORE_INDEX, Rng

PAD, UNK, CLS, MASK = "[PAD]", "[UNK]", "[CLS]", "[MASK]"
PAD_ID, UNK_ID, CLS_ID, MASK_ID = 0, 1, 2, 3
SPECIALS = (PAD, UNK, CLS, MASK)

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")


def word_split(text: str) -> list[str]:
    """Lowercased word/punctuation tokens, no specials."""
    return _TOKEN_RE.findall(text.lower())


class Vocab:
    """Immutable token↔id bijection with the four specials at fixed ids."""

    def __init__(self, tokens: Sequence[str]):
        tokens = tuple(tokens)
        if tokens[: len(SPECIALS)] != SPECIALS:
            raise ValueError(f"vocab must start with specials {SPECIALS}")
        self._tokens = tokens
        self._index = index_lines(tokens, "vocab", "token")

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def id(self, token: str) -> int:
        return self._index.get(token, UNK_ID)

    def token(self, idx: int) -> str:
        return self._tokens[idx]

    def __eq__(self, other) -> bool:
        return isinstance(other, Vocab) and self._tokens == other._tokens

    def save(self, path: str | Path) -> None:
        write_text(path, "\n".join(self._tokens) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "Vocab":
        lines = read_lines(path, "token")
        try:
            return cls(lines)
        except ValueError as exc:
            raise DataError(f"{path}: {exc}") from exc


def build_vocab(texts: Iterable[str], max_size: int = 50000) -> Vocab:
    """Rank tokens by frequency, ties lexicographic; specials always lead."""
    if max_size < len(SPECIALS) + 1:
        raise ValueError(f"max_size must exceed the {len(SPECIALS)} specials")
    counts: Counter[str] = Counter()
    n_texts = 0
    for text in texts:
        n_texts += 1
        counts.update(word_split(text))
    if n_texts == 0:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    counts = {t: c for t, c in counts.items() if t not in SPECIALS}
    ranked = sorted(counts, key=lambda t: (-counts[t], t))
    return Vocab(SPECIALS + tuple(ranked[: max_size - len(SPECIALS)]))


def tokenize(text: str, vocab: Vocab) -> list[int]:
    """[CLS] followed by word/punctuation token ids; unknowns become [UNK]."""
    return [CLS_ID] + [vocab.id(t) for t in word_split(text)]


def detokenize(ids: Sequence[int], vocab: Vocab) -> str:
    """Space-joined tokens, specials dropped. Whitespace is not restored."""
    return " ".join(vocab.token(i) for i in ids if i >= len(SPECIALS))


def truncate(ids: Sequence[int], config: ModelConfig) -> list[int]:
    """Keep [CLS] plus the leading tokens, within the config's budget."""
    return list(ids[: config.token_budget])


@dataclass(frozen=True)
class Document:
    text: str
    label: str | None = None
    id: str | None = None

    def __post_init__(self):
        check_fields(self)
        if not self.text.strip():
            raise ValueError("document text is empty after normalization")


@dataclass
class EncodedExample:
    """Token ids of one document, all real: ``collate`` adds the padding."""

    ids: list[int]
    label_id: int | None = None

    def __post_init__(self):
        check_fields(self)
        # types are collected in C, since a set-up builds thousands of
        # examples; the loop only finds the id to name
        if not set(map(type, self.ids)) <= {int}:
            for i, x in enumerate(self.ids):
                if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
                    raise ValueError(f"ids[{i}] must be an int, got {x!r}")
        if not self.ids or self.ids[0] != CLS_ID:
            raise ValueError("encoded example must start with [CLS]")
        if PAD_ID in self.ids:
            raise ValueError(f"[PAD] at position {self.ids.index(PAD_ID)} of an encoded example")


def encode_document(doc: Document, vocab: Vocab, config: ModelConfig,
                    label_id: int | None = None) -> EncodedExample:
    ids = truncate(tokenize(doc.text, vocab), config)
    return EncodedExample(ids=ids, label_id=label_id)


def collate(examples: Sequence[EncodedExample]
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Right-pad to the longest sequence, the only layout ``encode`` accepts:
    each row's real tokens come first. Labels use the ignore marker when
    absent."""
    if not examples:
        raise ValueError("cannot collate an empty batch")
    width = max(len(e.ids) for e in examples)
    ids = np.full((len(examples), width), PAD_ID, dtype=np.int64)
    mask = np.zeros((len(examples), width), dtype=np.int64)
    labels = np.full(len(examples), IGNORE_INDEX, dtype=np.int64)
    for i, e in enumerate(examples):
        ids[i, : len(e.ids)] = e.ids
        mask[i, : len(e.ids)] = 1
        if e.label_id is not None:
            labels[i] = e.label_id
    return ids, mask, labels


@dataclass
class MaskedBatch:
    """A corrupted batch and its MLM targets.

    ``positions`` is not an input: it is derived once from ``targets`` as the
    (rows, cols) of every non-ignored target, in row-major order.
    """

    input_ids: np.ndarray   # (B, T) after corruption
    targets: np.ndarray     # (B, T) original ids at selected positions, else ignore
    positions: tuple[np.ndarray, np.ndarray] = field(init=False)

    def __post_init__(self):
        self.positions = np.nonzero(self.targets != IGNORE_INDEX)


def apply_mlm_mask(ids: np.ndarray, attn_mask: np.ndarray, p_select: float,
                   rng: Rng, vocab_size: int) -> MaskedBatch | None:
    """BERT-style corruption: select ~p_select of maskable tokens, then
    80% -> [MASK], 10% -> random non-special token, 10% unchanged.

    No special token is ever selected, so targets and random replacements
    are always ordinary vocabulary entries. An empty selection is redrawn
    once; a second empty draw returns None so the caller can skip the batch.
    """
    if not 0.0 < p_select < 1.0:
        raise ValueError(f"p_select must be in (0, 1), got {p_select}")
    n_specials = len(SPECIALS)
    if vocab_size <= n_specials:
        raise ValueError("vocabulary holds no non-special tokens to sample")
    ids = np.asarray(ids)
    attn_mask = np.asarray(attn_mask)
    if attn_mask.shape != ids.shape:
        raise ValueError(f"attn_mask shape {attn_mask.shape} differs from ids shape {ids.shape}")
    maskable = (attn_mask == 1) & (ids >= n_specials)
    gen = rng.generator()

    selected = maskable & (gen.random(ids.shape) < p_select)
    if not selected.any():
        selected = maskable & (gen.random(ids.shape) < p_select)
        if not selected.any():
            return None

    targets = np.full(ids.shape, IGNORE_INDEX, dtype=np.int64)
    targets[selected] = ids[selected]
    out = ids.copy()
    roll = gen.random(ids.shape)
    to_mask = selected & (roll < 0.8)
    to_random = selected & (roll >= 0.8) & (roll < 0.9)
    out[to_mask] = MASK_ID
    out[to_random] = gen.integers(n_specials, vocab_size, size=int(to_random.sum()))
    return MaskedBatch(input_ids=out, targets=targets)


def load_jsonl(path: str | Path) -> list[Document]:
    """Documents read by ``read_jsonl``: "text" required, "label"/"id" optional."""
    return read_jsonl(path, lambda obj, _: Document(text=obj["text"], label=obj.get("label"),
                                                    id=obj.get("id")))


def save_jsonl(path: str | Path, docs: Iterable[Document]) -> None:
    """One line per document: its fields in order, None fields left out."""
    write_text(path, "".join(
        json.dumps({k: v for k, v in vars(doc).items() if v is not None},
                   ensure_ascii=False) + "\n" for doc in docs))
