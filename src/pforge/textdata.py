"""Vocabulary, word-level tokenization, truncation, JSONL ingestion, masking.

The tokenizer is deliberately simple: lowercase, then split into word and
single-punctuation tokens. The encoder is trained from scratch, so there is
no subword inventory to match; determinism matters more than coverage.
"""

from __future__ import annotations

import json
import logging
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import DataError
from .model import ModelConfig
from .numerics import IGNORE_INDEX, Rng

log = logging.getLogger(__name__)

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
        if any(not t for t in tokens):
            raise ValueError("empty token in vocab")
        self._tokens = tokens
        self._index = {t: i for i, t in enumerate(tokens)}
        if len(self._index) != len(tokens):
            dupes = [t for t, c in Counter(tokens).items() if c > 1]
            raise ValueError(f"duplicate tokens in vocab: {dupes[:5]}")

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
        Path(path).write_text("\n".join(self._tokens) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "Vocab":
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        try:
            return cls(lines)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc


def build_vocab(texts: Iterable[str], min_freq: int = 1,
                max_size: int = 50000) -> Vocab:
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
    counts = {t: c for t, c in counts.items() if c >= min_freq and t not in SPECIALS}
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
        if not isinstance(self.text, str):
            raise ValueError(f"document text must be a str, got {type(self.text).__name__}")
        for name in ("label", "id"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise ValueError(f"document {name} must be a str or None, "
                                 f"got {type(value).__name__}")
        if not self.text.strip():
            raise ValueError("document text is empty after normalization")


@dataclass
class EncodedExample:
    """Token ids of one document, all real: ``collate`` adds the padding."""

    ids: list[int]
    label_id: int | None = None

    def __post_init__(self):
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
    """Pad to the longest sequence; labels use the ignore marker when absent."""
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
    input_ids: np.ndarray   # (B, T) after corruption
    targets: np.ndarray     # (B, T) original ids at selected positions, else ignore
    positions: tuple[np.ndarray, np.ndarray]  # rows, cols of selections

    def __post_init__(self):
        sel = np.zeros(self.input_ids.shape, dtype=bool)
        sel[self.positions] = True
        if not np.array_equal(sel, self.targets != IGNORE_INDEX):
            raise ValueError("targets and selection positions disagree")


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
    rows, cols = np.nonzero(selected)
    return MaskedBatch(input_ids=out, targets=targets, positions=(rows, cols))


def load_jsonl(path: str | Path) -> list[Document]:
    """One JSON object per line: "text" required, "label"/"id" optional.

    Malformed lines are logged with their line numbers; more than 1% of
    non-blank lines malformed aborts the load.
    """
    path = Path(path)
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc

    docs: list[Document] = []
    bad: list[int] = []
    n_lines = 0
    for lineno, line in enumerate(raw.splitlines(), start=1):
        if not line.strip():
            log.warning("%s:%d: blank line skipped", path, lineno)
            continue
        n_lines += 1
        try:
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise ValueError("line is not a JSON object")
            docs.append(Document(
                text=obj["text"],
                label=obj.get("label"),
                id=obj.get("id"),
            ))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            bad.append(lineno)
            log.warning("%s:%d: malformed line (%s)", path, lineno, exc)
    if n_lines and len(bad) > 0.01 * n_lines:
        raise DataError(
            f"{path}: {len(bad)} of {n_lines} lines malformed (>1%); "
            f"first bad lines: {bad[:5]}"
        )
    return docs


def save_jsonl(path: str | Path, docs: Iterable[Document]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            obj = {"text": doc.text}
            if doc.label is not None:
                obj["label"] = doc.label
            if doc.id is not None:
                obj["id"] = doc.id
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")
