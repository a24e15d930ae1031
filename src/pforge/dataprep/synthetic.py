"""Synthetic corpora for desk-scale end-to-end experiments.

Three artifacts share one token distribution: a general corpus of filler
tokens, an unlabeled domain corpus that adds domain-marker tokens and class
keywords, and a labeled pool whose documents carry keywords of their class
at a configurable injection rate. The class signal therefore lives in
domain vocabulary that the general corpus never contains, which is what
gives domain adaptation something to learn.

Every draw comes from the raw 64-bit words of the corpus's own Philox
stream, read in blocks, and each value is derived from them exactly as
numpy's ``Generator`` derives it from a fresh generator:

- ``random()`` is ``(w >> 11) * 2**-53`` of the next word;
- ``integers(lo, hi)`` over n = hi - lo values, 1 <= n <= 2**32, takes
  32-bit halves of the words, low half first; the high half waits for the
  next ``integers`` call, across any ``random()`` calls in between. A half
  x gives ``lo + (x * n >> 32)`` unless the low 32 bits of ``x * n`` fall
  below ``(2**32 - n) % n``, in which case the next half is tried
  (Lemire's method, arXiv 1805.10941). n = 1 gives lo and takes no bits.

numpy keeps the raw words of a seeded bit generator stable, not the
methods of ``Generator`` (NEP 19), so the corpora depend on the former
only; ``Generator`` is the tests' oracle for this derivation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import check_fields
from ..numerics import Rng, STREAM_SAMPLING
from ..textdata import Document


# raw words fetched per block: enough to amortise the call, few enough that
# the block's Python ints do not show in peak memory
_BLOCK_WORDS = 512
_MASK32 = (1 << 32) - 1
_DOUBLE_UNIT = 2.0 ** -53


def _raw_words(bits: np.random.BitGenerator):
    while True:
        yield from bits.random_raw(_BLOCK_WORDS).tolist()


class _Draws:
    """``random()`` and ``integers(lo, hi)`` of a fresh ``Generator`` on gen's
    bit generator, derived from its raw words (see the module docstring).

    It reads words ahead in blocks, so gen must not be drawn from elsewhere.
    """

    __slots__ = ("_next_word", "_half")

    def __init__(self, gen: np.random.Generator):
        self._next_word = _raw_words(gen.bit_generator).__next__
        self._half = None  # the high half of a word whose low half was used

    def random(self) -> float:
        return (self._next_word() >> 11) * _DOUBLE_UNIT

    def _uint32(self) -> int:
        half = self._half
        if half is None:
            word = self._next_word()
            self._half = word >> 32
            return word & _MASK32
        self._half = None
        return half

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
        for c, ks in enumerate(self.keywords):
            if not isinstance(ks, tuple) or not ks:
                raise ValueError(f"keywords of class {c} must be a non-empty tuple, "
                                 f"got {ks!r}")
            # documents are space-joined tokens, so a keyword is one token
            for k in ks:
                if not isinstance(k, str) or k.split() != [k]:
                    raise ValueError(f"keywords of class {c} must be non-empty str "
                                     f"without whitespace, got {k!r}")
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


def _doc_tokens(spec: SyntheticSpec, draws: _Draws, label: int,
                fillers: list[str], markers: list[str]) -> list[str]:
    """One document's tokens; fillers and markers are the spec's token lists,
    built once per corpus by the caller."""
    length = draws.integers(spec.doc_len_min, spec.doc_len_max + 1)
    out = []
    for _ in range(length):
        r = draws.random()
        if r < spec.injection_rate:
            ks = spec.keywords[label]
            out.append(ks[draws.integers(0, len(ks))])
        elif r < spec.injection_rate + spec.marker_rate:
            out.append(markers[draws.integers(0, len(markers))])
        else:
            out.append(fillers[draws.integers(0, len(fillers))])
    return out


def gen_general(spec: SyntheticSpec, rng: Rng) -> list[Document]:
    """Filler-only documents; zero domain markers or class keywords."""
    draws = _Draws(rng.stream(STREAM_SAMPLING).stream("general").generator())
    fillers = spec.filler_tokens()
    docs = []
    for i in range(spec.general_size):
        length = draws.integers(spec.doc_len_min, spec.doc_len_max + 1)
        toks = [fillers[draws.integers(0, len(fillers))] for _ in range(length)]
        docs.append(Document(text=" ".join(toks), id=f"gen-{i:06d}"))
    return docs


def gen_domain(spec: SyntheticSpec, rng: Rng) -> list[Document]:
    """Unlabeled in-domain documents: filler + markers + mixed keywords."""
    draws = _Draws(rng.stream(STREAM_SAMPLING).stream("domain").generator())
    fillers, markers = spec.filler_tokens(), spec.marker_tokens()
    docs = []
    for i in range(spec.domain_size):
        label = draws.integers(0, spec.num_classes)
        toks = _doc_tokens(spec, draws, label, fillers, markers)
        docs.append(Document(text=" ".join(toks), id=f"dom-{i:06d}"))
    return docs


def gen_labeled_pool(spec: SyntheticSpec, rng: Rng) -> list[Document]:
    draws = _Draws(rng.stream(STREAM_SAMPLING).stream("labeled").generator())
    names = spec.class_names()
    fillers, markers = spec.filler_tokens(), spec.marker_tokens()
    docs = []
    for i in range(spec.labeled_pool_size):
        label = draws.integers(0, spec.num_classes)
        toks = _doc_tokens(spec, draws, label, fillers, markers)
        docs.append(Document(text=" ".join(toks), label=names[label],
                             id=f"lab-{i:06d}"))
    return docs


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
