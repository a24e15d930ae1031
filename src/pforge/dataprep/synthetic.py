"""Synthetic corpora for desk-scale end-to-end experiments.

Three artifacts share one token distribution: a general corpus of filler
tokens, an unlabeled domain corpus that adds domain-marker tokens and class
keywords, and a labeled pool whose documents carry keywords of their class
at a configurable injection rate. The class signal therefore lives in
domain vocabulary that the general corpus never contains, which is what
gives domain adaptation something to learn.

A domain or pool document draws its label, then its length, then per token
an ``r`` that picks keyword, marker or filler, then the token among that
branch's choices; a general document draws its length, then per token a
filler. Each corpus reads the raw 64-bit words of its own Philox stream,
and document i owns words [i * S, (i + 1) * S) of it, a fixed stride S set
by the spec (the counter-based layout of Random123, Salmon et al., SC'11):

- a domain or pool document has S = 2 + 2 * doc_len_max: a label word, a
  length word, then an ``r`` word and an index word per token;
- a general document has S = 1 + doc_len_max: a length word, then an index
  word per token;
- the words past a document's length are read and dropped.

A document's words therefore depend on its index alone, and a corpus of m
documents is the first m documents of any larger one.

A choice among n values takes the low 32 bits x of its word and gives
``(x * n) >> 32``, Lemire's multiply-shift (arXiv 1805.10941) without its
rejection step, so a choice among one value reads its word like any other.
Each value's probability is off 1 / n by at most a share n / 2**32 of it,
below 1e-7 for the default vocabularies. An ``r`` word w picks the keyword
branch while ``(w >> 11) * 2**-53``, the float ``Generator.random()`` makes
of it, is below ``injection_rate``, and the marker branch while it is below
``injection_rate + marker_rate``; w is compared as an integer with the word
at which each rate starts.

numpy keeps the raw words of a seeded bit generator stable, not the
methods of ``Generator`` (NEP 19), so the corpora depend on the former only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .. import check_fields
from ..numerics import Rng, STREAM_SAMPLING
from ..textdata import Document, word_split


# raw words read per block: few enough that the word buffer and the arrays
# derived from it stay below glibc's default 128 KiB mmap threshold, since
# freeing a mapped block raises that threshold for the rest of the process
_BLOCK_WORDS = 4096
_HALF = np.uint64(32)
# a token's branch, the column of _Choices' tables
_KEYWORD, _MARKER, _FILLER = 0, 1, 2


def _default_keywords() -> tuple[tuple[str, ...], ...]:
    return (
        ("plaintiff", "contract", "liable"),
        ("tenant", "landlord", "lease"),
        ("visa", "border", "asylum"),
    )


@dataclass(frozen=True)
class SyntheticSpec:
    keywords: tuple[tuple[str, ...], ...] = field(default_factory=_default_keywords)
    filler_vocab_size: int = 400
    marker_vocab_size: int = 40
    doc_len_min: int = 12
    doc_len_max: int = 40
    injection_rate: float = 0.25
    marker_rate: float = 0.30
    general_size: int = 1500
    domain_size: int = 2500
    labeled_pool_size: int = 1500

    def __post_init__(self):
        check_fields(self)
        if not isinstance(self.keywords, tuple):
            raise ValueError(f"keywords must be a tuple, got {self.keywords!r}")
        if len(self.keywords) < 2:
            raise ValueError(f"need at least 2 classes, got {len(self.keywords)} keyword lists")
        # the general corpus holds no keyword and markers belong to no
        # class, so a keyword may be neither
        reserved = {*self.filler_tokens(), *self.marker_tokens()}
        for c, ks in enumerate(self.keywords):
            if not isinstance(ks, tuple) or not ks:
                raise ValueError(f"keywords of class {c} must be a non-empty tuple, "
                                 f"got {ks!r}")
            # documents are space-joined tokens, so a keyword is one token,
            # and the tokenizer must read it back as itself
            for k in ks:
                if not isinstance(k, str) or k.split() != [k]:
                    raise ValueError(f"keywords of class {c} must be non-empty str "
                                     f"without whitespace, got {k!r}")
                if word_split(k) != [k]:
                    raise ValueError(f"keywords of class {c} must each be one lowercase "
                                     f"token of word_split, got {k!r}")
                if k in reserved:
                    raise ValueError(f"keywords of class {c} must not be filler or "
                                     f"marker tokens, got {k!r}")
        flat = [k for ks in self.keywords for k in ks]
        if len(set(flat)) != len(flat):
            raise ValueError("keyword lists must be disjoint across classes")
        if not 0.0 <= self.injection_rate < 1.0:
            raise ValueError("injection_rate must be in [0, 1)")
        if not 0.0 <= self.marker_rate < 1.0:
            raise ValueError("marker_rate must be in [0, 1)")
        if self.injection_rate + self.marker_rate >= 1.0:
            raise ValueError("injection_rate + marker_rate must stay below 1")
        if self.filler_vocab_size < 1 or self.marker_vocab_size < 1:
            raise ValueError("vocabulary sizes must be positive")
        if not 1 <= self.doc_len_min <= self.doc_len_max:
            raise ValueError("document length bounds must satisfy 1 <= min <= max")
        if min(self.general_size, self.domain_size, self.labeled_pool_size) < 1:
            raise ValueError("corpus sizes must be positive")

    @property
    def num_classes(self) -> int:
        """One class per keyword list."""
        return len(self.keywords)

    def filler_tokens(self) -> list[str]:
        return [f"w{i:04d}" for i in range(self.filler_vocab_size)]

    def marker_tokens(self) -> list[str]:
        return [f"dm{i:03d}" for i in range(self.marker_vocab_size)]

    def class_names(self) -> list[str]:
        return [f"class{i}" for i in range(self.num_classes)]


class _Choices:
    """Every token a corpus can hold, as one array; per class and branch the
    number of choices and the index of the first in that array; and the
    words from which ``r`` leaves the keyword, then the marker branch."""

    def __init__(self, spec: SyntheticSpec):
        fillers, markers = spec.filler_tokens(), spec.marker_tokens()
        tokens, sizes, offsets = fillers + markers, [], []
        for ks in spec.keywords:
            sizes.append((len(ks), len(markers), len(fillers)))
            offsets.append((len(tokens), len(fillers), 0))
            tokens += ks
        self.tokens = np.array(tokens, dtype=object)
        self.sizes = np.array(sizes, dtype=np.uint64)
        self.offsets = np.array(offsets, dtype=np.int64)
        # r = (w >> 11) * 2**-53 >= rate exactly when w >= ceil(rate * 2**53)
        # << 11, which a float64 below 1 keeps below 2**64
        self.branch_words = [np.uint64(math.ceil(rate * 2.0 ** 53) << 11) for rate in
                             (spec.injection_rate, spec.injection_rate + spec.marker_rate)]


def _choose(low: np.ndarray, n) -> np.ndarray:
    """The choices among n values that the low word halves low make."""
    return ((low * np.uint64(n)) >> _HALF).astype(np.int64)


def _draw_corpus(spec: SyntheticSpec, bits: np.random.BitGenerator, size: int,
                 domain: bool) -> tuple[list[int], list[str]]:
    """The labels and texts of size documents read from bits' raw words as
    the module docstring lays them out; a general (not domain) corpus's labels are 0."""
    choices = _Choices(spec)
    stride = 2 + 2 * spec.doc_len_max if domain else 1 + spec.doc_len_max
    per_block = max(1, _BLOCK_WORDS // stride)
    width, labels, texts = spec.doc_len_max, [], []
    for start in range(0, size, per_block):
        words = bits.random_raw(min(per_block, size - start) * stride)
        block_labels, lengths, toks = _block(spec, choices, words.reshape(-1, stride), domain)
        labels += block_labels
        texts += [" ".join(toks[i * width:i * width + n]) for i, n in enumerate(lengths)]
    return labels, texts


def _block(spec: SyntheticSpec, choices: _Choices, words: np.ndarray,
           domain: bool) -> tuple[list[int], list[int], list[str]]:
    """The labels and lengths of the documents whose strides are the rows of
    words, and their doc_len_max tokens each, as one list. The arrays are freed
    before the caller builds the documents' strings, so that those strings do
    not land among freed arrays; a token list per document raised peak RSS."""
    # the low halves come from shifts and the branches from integer compares,
    # not from a mask or a float compare: no other part of a workload runs
    # numpy's code for those, and paging it in showed in peak RSS
    low = (words << _HALF) >> _HALF
    if domain:
        label = _choose(low[:, 0], spec.num_classes)
        keyword_end, marker_end = choices.branch_words
        r = words[:, 2::2]
        branch = (r >= keyword_end).astype(np.int64) + (r >= marker_end)
        row, x = label[:, None], low[:, 3::2]
    else:
        label = np.zeros(len(words), np.int64)
        row, branch, x = 0, _FILLER, low[:, 1:]
    length = spec.doc_len_min + _choose(low[:, int(domain)],
                                        spec.doc_len_max - spec.doc_len_min + 1)
    index = choices.offsets[row, branch] + _choose(x, choices.sizes[row, branch])
    return label.tolist(), length.tolist(), choices.tokens[index].ravel().tolist()


def _stream_bits(rng: Rng, corpus: str) -> np.random.BitGenerator:
    return rng.stream(STREAM_SAMPLING).stream(corpus).generator().bit_generator


def gen_general(spec: SyntheticSpec, rng: Rng) -> list[Document]:
    """Filler-only documents; zero domain markers or class keywords."""
    _, texts = _draw_corpus(spec, _stream_bits(rng, "general"), spec.general_size,
                            domain=False)
    return [Document(text=t, id=f"gen-{i:06d}") for i, t in enumerate(texts)]


def gen_domain(spec: SyntheticSpec, rng: Rng) -> list[Document]:
    """Unlabeled in-domain documents: filler + markers + mixed keywords."""
    _, texts = _draw_corpus(spec, _stream_bits(rng, "domain"), spec.domain_size,
                            domain=True)
    return [Document(text=t, id=f"dom-{i:06d}") for i, t in enumerate(texts)]


def gen_labeled_pool(spec: SyntheticSpec, rng: Rng) -> list[Document]:
    labels, texts = _draw_corpus(spec, _stream_bits(rng, "labeled"),
                                 spec.labeled_pool_size, domain=True)
    names = spec.class_names()
    return [Document(text=t, label=names[c], id=f"lab-{i:06d}")
            for i, (c, t) in enumerate(zip(labels, texts))]


def keyword_count_labels(spec: SyntheticSpec, docs: list[Document]) -> list[int]:
    """Bag-of-words oracle: argmax of per-class keyword counts (ties: lowest id)."""
    lookup = {k: c for c, ks in enumerate(spec.keywords) for k in ks}
    out = []
    for doc in docs:
        counts = [0] * spec.num_classes
        for tok in doc.text.split():
            if tok in lookup:
                counts[lookup[tok]] += 1
        out.append(max(range(spec.num_classes), key=lambda c: (counts[c], -c)))
    return out
