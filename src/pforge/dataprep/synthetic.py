"""Synthetic corpora for desk-scale end-to-end experiments.

Three artifacts share one token distribution: a general corpus of filler
tokens, an unlabeled domain corpus that adds domain-marker tokens and class
keywords, and a labeled pool whose documents carry keywords of their class
at a configurable injection rate. The class signal therefore lives in
domain vocabulary that the general corpus never contains, which is what
gives domain adaptation something to learn.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..numerics import Rng, STREAM_SAMPLING
from ..textdata import Document


def _default_keywords() -> tuple[tuple[str, ...], ...]:
    return (
        ("plaintiff", "contract", "liable"),
        ("tenant", "landlord", "lease"),
        ("visa", "border", "asylum"),
    )


@dataclass(frozen=True)
class SyntheticSpec:
    num_classes: int = 3
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
        if self.num_classes < 2:
            raise ValueError("need at least 2 classes")
        if len(self.keywords) != self.num_classes:
            raise ValueError(
                f"{len(self.keywords)} keyword lists for {self.num_classes} classes"
            )
        if any(not ks for ks in self.keywords):
            raise ValueError("every class needs at least one keyword")
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

    def filler_tokens(self) -> list[str]:
        return [f"w{i:04d}" for i in range(self.filler_vocab_size)]

    def marker_tokens(self) -> list[str]:
        return [f"dm{i:03d}" for i in range(self.marker_vocab_size)]

    def class_names(self) -> list[str]:
        return [f"class{i}" for i in range(self.num_classes)]


def _doc_tokens(spec: SyntheticSpec, gen, label: int | None,
                fillers: list[str], markers: list[str]) -> list[str]:
    """One document's tokens; fillers and markers are the spec's token lists,
    built once per corpus by the caller."""
    length = int(gen.integers(spec.doc_len_min, spec.doc_len_max + 1))
    out = []
    for _ in range(length):
        r = gen.random()
        if label is not None and r < spec.injection_rate:
            ks = spec.keywords[label]
            out.append(ks[int(gen.integers(0, len(ks)))])
        elif label is not None and r < spec.injection_rate + spec.marker_rate:
            out.append(markers[int(gen.integers(0, len(markers)))])
        else:
            out.append(fillers[int(gen.integers(0, len(fillers)))])
    return out


def gen_general(spec: SyntheticSpec, rng: Rng) -> list[Document]:
    """Filler-only documents; zero domain markers or class keywords."""
    gen = rng.stream(STREAM_SAMPLING).stream("general").generator()
    fillers = spec.filler_tokens()
    docs = []
    for i in range(spec.general_size):
        length = int(gen.integers(spec.doc_len_min, spec.doc_len_max + 1))
        toks = [fillers[int(gen.integers(0, len(fillers)))] for _ in range(length)]
        docs.append(Document(text=" ".join(toks), id=f"gen-{i:06d}"))
    return docs


def gen_domain(spec: SyntheticSpec, rng: Rng) -> list[Document]:
    """Unlabeled in-domain documents: filler + markers + mixed keywords."""
    gen = rng.stream(STREAM_SAMPLING).stream("domain").generator()
    fillers, markers = spec.filler_tokens(), spec.marker_tokens()
    docs = []
    for i in range(spec.domain_size):
        label = int(gen.integers(0, spec.num_classes))
        toks = _doc_tokens(spec, gen, label, fillers, markers)
        docs.append(Document(text=" ".join(toks), id=f"dom-{i:06d}"))
    return docs


def gen_labeled_pool(spec: SyntheticSpec, rng: Rng) -> list[Document]:
    gen = rng.stream(STREAM_SAMPLING).stream("labeled").generator()
    names = spec.class_names()
    fillers, markers = spec.filler_tokens(), spec.marker_tokens()
    docs = []
    for i in range(spec.labeled_pool_size):
        label = int(gen.integers(0, spec.num_classes))
        toks = _doc_tokens(spec, gen, label, fillers, markers)
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
