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
filler. Every draw comes from the raw 64-bit words of the corpus's own
Philox stream, and each value is derived from them exactly as numpy's
``Generator`` derives it from a fresh generator:

- ``random()`` is ``(w >> 11) * 2**-53`` of the next word;
- ``integers(lo, hi)`` over n = hi - lo values, 1 <= n <= 2**32, takes
  32-bit halves of the words, low half first; the high half waits for the
  next ``integers`` call, across any ``random()`` calls in between. A half
  x gives ``lo + (x * n >> 32)`` unless the low 32 bits of ``x * n`` fall
  below ``(2**32 - n) % n``, in which case the next half is tried
  (Lemire's method, arXiv 1805.10941). n = 1 gives lo and takes no bits.

The corpora are drawn from a plan. One Python pass over a block of
documents draws each label and length one at a time, and places each
document's token draws by arithmetic: a token's ``random()`` takes the next
word, its ``integers`` the waiting high half or else the next word's low
half. So a domain or pool document takes 3 words per 2 tokens and a general
one half a word per token. numpy then derives every planned token's
branch, index and string at once; a branch compares the ``r`` word with the
word at which each rate starts, which splits the words as ``random()``'s
float would. The plan cannot place a Lemire rejection; the first planned
document that holds one is drawn again one draw at a time from its exact
stream state, and the documents after it are planned again. Nor can it
place a choice among one value, which takes no bits, so a corpus whose
tokens can make one (a class of one keyword, one marker or one filler) is
drawn one draw at a time throughout. A block holds about ``_BLOCK_WORDS``
words, so a corpus of any size keeps a fixed transient footprint.

numpy keeps the raw words of a seeded bit generator stable, not the
methods of ``Generator`` (NEP 19), so the corpora depend on the former
only; ``Generator`` is the tests' oracle for this derivation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .. import check_fields
from ..numerics import Rng, STREAM_SAMPLING
from ..textdata import Document, word_split


# raw words planned per block: enough to amortise numpy's per-call cost over
# thousands of tokens, few enough that the word buffer and the per-token
# arrays stay below glibc's default 128 KiB mmap threshold, since freeing a
# mapped block raises that threshold for the rest of the process
_BLOCK_WORDS = 4096
_MASK32 = (1 << 32) - 1
_DOUBLE_UNIT = 2.0 ** -53
# a token's branch, the column of _Choices' tables
_KEYWORD, _MARKER, _FILLER = 0, 1, 2


class _Draws:
    """``random()`` and ``integers(lo, hi)`` of a fresh ``Generator`` on a bit
    generator, derived from its raw words (see the module docstring).

    It reads words ahead in blocks, so the bit generator must not be drawn
    from elsewhere. The stream state is public so that a plan can move it by
    arithmetic: ``p`` is the index of the next unread word and ``hw`` that of
    the word whose high half waits, or -1. Words from ``min(p, hw)`` on stay
    readable until ``release`` drops those before.
    """

    __slots__ = ("_bits", "_words", "_off", "p", "hw")

    def __init__(self, bits: np.random.BitGenerator):
        self._bits = bits
        self._words = np.empty(0, np.uint64)
        self._off = 0  # stream index of _words[0]
        self.p = 0
        self.hw = -1

    def _fetch(self, stop: int) -> None:
        """Read blocks until the words before stream index stop are held."""
        while self._off + len(self._words) < stop:
            self._words = np.concatenate(
                (self._words, self._bits.random_raw(_BLOCK_WORDS)))

    def take(self, idx: np.ndarray) -> np.ndarray:
        """The words at the stream indices idx, a non-empty int array."""
        self._fetch(int(idx.max()) + 1)
        return self._words[idx - self._off]

    def _word(self, i: int) -> int:
        if i - self._off >= len(self._words):
            self._fetch(i + 1)
        return self._words.item(i - self._off)

    def release(self) -> None:
        """Drop the words before the earliest one still to be read."""
        keep = self.p if self.hw < 0 else min(self.p, self.hw)
        self._words = self._words[keep - self._off:]
        self._off = keep

    def random(self) -> float:
        word = self._word(self.p)
        self.p += 1
        return (word >> 11) * _DOUBLE_UNIT

    def _uint32(self) -> int:
        if self.hw >= 0:
            half = self._word(self.hw) >> 32
            self.hw = -1
            return half
        self.hw = self.p
        self.p += 1
        return self._word(self.hw) & _MASK32

    def integers(self, lo: int, hi: int) -> int:
        """A uniform int in [lo, hi), for 1 <= hi - lo <= 2**32."""
        n = hi - lo
        if not 1 <= n <= 1 << 32:
            raise ValueError(f"integers needs 1 <= hi - lo <= 2**32, got {lo}, {hi}")
        if n == 1:
            return lo
        m = self._uint32() * n
        if m & _MASK32 < n:
            threshold = ((1 << 32) - n) % n
            while m & _MASK32 < threshold:
                m = self._uint32() * n
        return lo + (m >> 32)


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
    """Every token a corpus can hold, as one list, and per class and branch
    the number of choices and the index of the first in that list; with the
    plan's copies of the three as arrays, each size's Lemire threshold, and
    the words from which ``r`` leaves the keyword, then the marker branch."""

    def __init__(self, spec: SyntheticSpec):
        fillers, markers = spec.filler_tokens(), spec.marker_tokens()
        self.tokens = fillers + markers
        self.sizes, self.offsets = [], []
        for ks in spec.keywords:
            self.sizes.append((len(ks), len(markers), len(fillers)))
            self.offsets.append((len(self.tokens), len(fillers), 0))
            self.tokens += ks
        self.token_array = np.array(self.tokens, dtype=object)
        self.size_array = np.array(self.sizes, dtype=np.uint64)
        self.offset_array = np.array(self.offsets, dtype=np.int64)
        self.thresholds = ((1 << 32) - self.size_array) % self.size_array
        # r = (w >> 11) * 2**-53 >= rate exactly when w >= ceil(rate * 2**53)
        # << 11, which a float64 below 1 keeps below 2**64
        self.branch_words = [np.uint64(math.ceil(rate * 2.0 ** 53) << 11) for rate in
                             (spec.injection_rate, spec.injection_rate + spec.marker_rate)]


def _doc_one_draw_at_a_time(spec: SyntheticSpec, draws: _Draws, choices: _Choices,
                            domain: bool) -> tuple[int, str]:
    """One document's label and text, drawn one call at a time; a general
    (not domain) document draws no label and only fillers."""
    label = draws.integers(0, spec.num_classes) if domain else 0
    sizes, offsets = choices.sizes[label], choices.offsets[label]
    out = []
    for _ in range(draws.integers(spec.doc_len_min, spec.doc_len_max + 1)):
        branch = _FILLER
        if domain:
            r = draws.random()
            if r < spec.injection_rate:
                branch = _KEYWORD
            elif r < spec.injection_rate + spec.marker_rate:
                branch = _MARKER
        out.append(choices.tokens[offsets[branch] + draws.integers(0, sizes[branch])])
    return label, " ".join(out)


def _token_words(base, j, domain: bool):
    """Token j's words in a document whose tokens pair up from base on, j
    counting from the first pair: the next unread word before it, which is
    its ``r`` word in a domain document, and the word it takes a half of,
    which waits after it when j is odd. A pair takes the words r, integers,
    r in a domain document and one integers word in a general one. base and
    j are ints or int arrays alike."""
    if domain:
        half = base + 3 * (j // 2) + 1
        return half - 1 + 2 * (j % 2), half
    half = base + j // 2
    return half + j % 2, half


def _draw_corpus(spec: SyntheticSpec, bits: np.random.BitGenerator, size: int,
                 domain: bool) -> tuple[list[int], list[str]]:
    """The labels and texts of size documents drawn from bits' raw words by
    the plan of the module docstring; a general (not domain) corpus draws
    label 0 for every document, from no bits."""
    draws = _Draws(bits)
    choices = _Choices(spec)
    labels, texts = [], []
    if min(min(s) if domain else s[_FILLER] for s in choices.sizes) == 1:
        # a choice among one value takes no bits, so the plan cannot place
        # the draws after one; a corpus that can make one is drawn per draw
        for _ in range(size):
            label, text = _doc_one_draw_at_a_time(spec, draws, choices, domain)
            labels.append(label)
            texts.append(text)
            draws.release()
        return labels, texts
    while len(texts) < size:
        # per document, the stream state before it, and its label, its
        # length and the stream state at its first token
        starts, rows = [], []
        first = draws.p
        while len(texts) + len(rows) < size and draws.p - first < _BLOCK_WORDS:
            starts.append((draws.p, draws.hw))
            label = draws.integers(0, spec.num_classes) if domain else 0
            length = draws.integers(spec.doc_len_min, spec.doc_len_max + 1)
            p, hw = draws.p, draws.hw
            # a waiting half goes to the first token, whose r word comes
            # first in a domain document; the rest pair up, and the state
            # after them is that at a token numbered rest
            rest = length - (hw >= 0)
            draws.p, half = _token_words(p + (hw >= 0) * domain, rest, domain)
            draws.hw = half if rest % 2 else -1
            rows.append((label, length, p, hw))

        toks, kept = _planned_tokens(draws, choices, rows, domain)
        start = 0
        for label, length, _, _ in rows[:kept]:
            labels.append(label)
            texts.append(" ".join(toks[start:start + length]))
            start += length
        if kept < len(rows):
            draws.p, draws.hw = starts[kept]
            label, text = _doc_one_draw_at_a_time(spec, draws, choices, domain)
            labels.append(label)
            texts.append(text)
        draws.release()
    return labels, texts


def _planned_tokens(draws: _Draws, choices: _Choices, rows: list[tuple[int, int, int, int]],
                    domain: bool) -> tuple[list[str], int]:
    """The tokens of the planned documents, rows of (label, length, stream
    state at the first token), up to the first document the plan cannot
    place, as one list; and the number of documents before that one.

    Its arrays are freed on return, before the caller builds the documents'
    strings, so that those strings do not end up among freed arrays.
    """
    label, length, p, hw = (np.array(c, dtype=np.int64) for c in zip(*rows))
    # j numbers a document's tokens as _token_words does, -1 for a token
    # that takes the waiting half; its r word is then the one before base
    doc = np.repeat(np.arange(len(rows)), length)
    doc_start = np.cumsum(length) - length
    waits = hw[doc] >= 0
    j = np.arange(len(doc)) - doc_start[doc] - waits
    r_word, half_word = _token_words(p[doc] + waits * domain, j, domain)
    half = draws.take(np.where(j < 0, hw[doc], half_word))
    # an odd j takes the high half, an even one the low half. The halves and
    # branches come from shifts and integer compares, not from a mask or a
    # float compare: no other part of a workload runs numpy's code for those,
    # and paging it in showed in peak RSS
    x = (half << (32 * (1 - j % 2)).astype(np.uint64)) >> np.uint64(32)
    tok_label = label[doc]
    if domain:
        word = draws.take(r_word)
        keyword_end, marker_end = choices.branch_words
        branch = (word >= keyword_end).astype(np.int64) + (word >= marker_end)
    else:
        branch = np.full(len(doc), _FILLER)
    n = choices.size_array[tok_label, branch]
    m = x * n
    unplaced = np.flatnonzero(((m << np.uint64(32)) >> np.uint64(32))
                              < choices.thresholds[tok_label, branch])
    kept = int(doc[unplaced[0]]) if len(unplaced) else len(rows)
    n_toks = doc_start[kept] if kept < len(rows) else len(doc)
    index = choices.offset_array[tok_label, branch] + (m >> np.uint64(32)).astype(np.int64)
    return choices.token_array[index[:n_toks]].tolist(), kept


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
