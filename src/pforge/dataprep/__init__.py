"""Dataset builders: raw dumps in, DatasetManifest directories out.

A manifest directory holds train.jsonl / dev.jsonl / test.jsonl,
labels.txt (line n names class n - 1), unlabeled.jsonl (the
domain-adaptation corpus), and provenance.json. ``DatasetManifest.write``
is its one writer, and works the files out from the documents by these
rules:

- every document, labeled or not, has an id that no other document of the
  directory uses;
- labels.txt lists the labels that the labeled documents carry, at least
  2, by descending count, ties by name, so a label that no labeled document
  carries is no class;
- split membership is a pure function of each labeled document's id:
  blake2s("<dataset>/<id>") scaled to [0, 1) against 70/10/20 boundaries.
  Each split is sorted by id, so the splits do not depend on input order;
  unlabeled.jsonl keeps the order it is given.
"""

from __future__ import annotations

import hashlib
import json
import re
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from .. import DataError, index_lines, read_jsonl, read_lines, write_text
from ..numerics import Rng
from ..textdata import Document, load_jsonl, save_jsonl
from .htmlmd import html_to_markdown
from .synthetic import (
    SyntheticSpec,
    gen_domain,
    gen_general,
    gen_labeled_pool,
    keyword_count_labels,
)

__all__ = [
    "DatasetManifest", "RawPost", "SyntheticSpec", "build_echr", "build_lse",
    "build_reddit", "clean_echr", "gen_synthetic", "html_to_markdown",
    "keyword_count_labels", "parse_stackexchange_xml", "split_of",
]

SPLIT_BOUNDS = (("train", 0.7), ("dev", 0.8), ("test", 1.0))


@dataclass(frozen=True)
class RawPost:
    id: str
    title: str
    body: str
    tags: tuple[str, ...] = ()
    flair: str | None = None
    created: float = 0.0

    def __post_init__(self):
        if not isinstance(self.tags, tuple) or not all(isinstance(t, str) for t in self.tags):
            raise ValueError(f"tags must be a tuple of str, got {self.tags!r:.60}")


def split_of(dataset: str, doc_id: str) -> str:
    """Deterministic 70/10/20 assignment from a salted id hash."""
    digest = hashlib.blake2s(f"{dataset}/{doc_id}".encode("utf-8"),
                             digest_size=8).digest()
    frac = int.from_bytes(digest, "big") / 2**64
    for name, bound in SPLIT_BOUNDS:
        if frac < bound:
            return name
    return "test"


class DatasetManifest:
    """Handle on a built dataset directory."""

    SPLITS = ("train", "dev", "test")

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def split_path(self, name: str) -> Path:
        if name not in self.SPLITS:
            raise ValueError(f"unknown split {name!r}")
        return self.root / f"{name}.jsonl"

    @property
    def labels_path(self) -> Path:
        return self.root / "labels.txt"

    @property
    def unlabeled_path(self) -> Path:
        return self.root / "unlabeled.jsonl"

    def labels(self) -> list[str]:
        """labels.txt's lines: line n names class n - 1, so a blank or
        repeated line is refused rather than skipped."""
        return read_lines(self.labels_path, "label")

    def label_map(self) -> dict[str, int]:
        return {label: i for i, label in enumerate(self.labels())}

    def load_split(self, name: str) -> list[Document]:
        return load_jsonl(self.split_path(name))

    def load_unlabeled(self) -> list[Document]:
        return load_jsonl(self.unlabeled_path)

    def validate(self) -> None:
        """Refuse labels that ``index_lines`` refuses, a split label missing
        from them, and an id used twice among the splits, naming the file
        each was read from."""
        splits = {name: self.load_split(name) for name in self.SPLITS}
        labels = set(self.labels())
        seen: dict[str, str] = {}
        for split, docs in splits.items():
            path = self.split_path(split)
            for doc in docs:
                if doc.label is not None and doc.label not in labels:
                    raise DataError(f"{path}: label {doc.label!r} missing from labels.txt")
                if doc.id is None:
                    continue
                if seen.get(doc.id) == split:
                    raise DataError(f"id {doc.id!r} repeats in {path}")
                if doc.id in seen:
                    raise DataError(f"id {doc.id!r} appears in both "
                                    f"{self.split_path(seen[doc.id])} and {path}")
                seen[doc.id] = split

    @classmethod
    def write(cls, root: str | Path, dataset: str, labeled: list[Document],
              unlabeled: list[Document], provenance: dict) -> "DatasetManifest":
        """Write ``dataset``'s directory by the rules of this module, adding
        ``builder`` and ``split_sizes`` to the provenance.

        Refused before any file is written: a document without an id, an id
        used twice among the labeled and unlabeled documents, a labeled
        document without a label, fewer than 2 labels, and a label that
        ``index_lines`` refuses.
        """
        manifest = cls(root)
        seen: set[str] = set()
        for doc in labeled + unlabeled:
            if doc.id is None:
                raise DataError(f"{manifest.root}: document without an id "
                                f"({doc.text[:40]!r})")
            if doc.id in seen:
                raise DataError(f"{manifest.root}: id {doc.id!r} is used twice")
            seen.add(doc.id)
        counts = Counter(doc.label for doc in labeled)
        if None in counts:
            raise DataError(f"{manifest.root}: {counts[None]} of the labeled "
                            "documents have no label")
        labels = sorted(counts, key=lambda t: (-counts[t], t))
        if len(labels) < 2:
            raise DataError(f"{manifest.root}: need at least 2 labels, the labeled "
                            f"documents carry {labels}")
        index_lines(labels, manifest.labels_path, "label")
        splits: dict[str, list[Document]] = {name: [] for name in cls.SPLITS}
        for doc in sorted(labeled, key=lambda d: d.id):
            splits[split_of(dataset, doc.id)].append(doc)
        for name, docs in splits.items():
            save_jsonl(manifest.split_path(name), docs)
        write_text(manifest.labels_path, "".join(f"{label}\n" for label in labels))
        save_jsonl(manifest.unlabeled_path, unlabeled)
        provenance = {"builder": dataset, **provenance,
                      "split_sizes": {name: len(docs) for name, docs in splits.items()}}
        write_text(manifest.root / "provenance.json",
                   json.dumps(provenance, indent=2, sort_keys=True) + "\n")
        return manifest


def _rank_labels(counts: Counter, first_use: dict[str, float], k: int
                 ) -> list[str]:
    """Top-k by frequency; boundary ties go to earlier first use, then name."""
    return sorted(counts, key=lambda t: (-counts[t], first_use[t], t))[:k]


def _build_top_k(dataset, posts, out_dir, k_name, k, what, candidates, label_of,
                 text_of, provenance) -> DatasetManifest:
    """Rank candidates(post) labels over the dump and keep the top k, where
    k is the builder's parameter k_name.

    label_of(post, top) is a post's label, or None to route it to
    unlabeled.jsonl; text_of(post) is its document text.
    """
    if isinstance(k, bool) or not isinstance(k, int) or k < 2:
        raise DataError(f"{k_name} must be an int of at least 2, got {k!r}")
    counts: Counter[str] = Counter()
    first_use: dict[str, float] = {}
    for p in posts:
        for label in candidates(p):
            counts[label] += 1
            if label not in first_use or p.created < first_use[label]:
                first_use[label] = p.created
    if len(counts) < k:
        raise DataError(f"dump has {len(counts)} distinct {what}, need at least {k}")
    top = set(_rank_labels(counts, first_use, k))
    labeled, unlabeled = [], []
    for p in posts:
        doc = Document(text=text_of(p), label=label_of(p, top), id=p.id)
        (unlabeled if doc.label is None else labeled).append(doc)
    unlabeled.sort(key=lambda d: d.id)
    return DatasetManifest.write(
        out_dir, dataset, labeled, unlabeled,
        {k_name: k, **provenance, "posts": len(posts), "labeled": len(labeled)})


def build_reddit(posts: list[RawPost], out_dir: str | Path,
                 k_classes: int = 11) -> DatasetManifest:
    """Flair classification: top-k flairs labeled, the rest unlabeled.

    Text is title + newline + body. Posts without a flair, or with a flair
    outside the top k, feed unlabeled.jsonl.
    """
    return _build_top_k(
        "reddit", posts, out_dir, "k_classes", k_classes, "flairs",
        candidates=lambda p: [p.flair] if p.flair else [],
        label_of=lambda p, top: p.flair if p.flair in top else None,
        text_of=lambda p: f"{p.title}\n{p.body}",
        provenance={})


def build_lse(posts: list[RawPost], out_dir: str | Path,
              country_tags: set[str] | list[str] | None,
              k_tags: int = 16) -> DatasetManifest:
    """Tag classification for Stack Exchange law questions.

    Tags are ranked over the whole dump with country tags excluded; the
    labeled set keeps single-tag posts whose tag ranks in the top k. A top-k
    tag that no single-tag post carries gives no class, so labels.txt can
    list fewer than k tags. Bodies are HTML and get converted to Markdown
    everywhere.
    """
    if country_tags is None or isinstance(country_tags, str):
        raise DataError(f"build_lse requires country_tags, a set or list of tags to "
                        f"exclude; got {country_tags!r}")
    country = set(country_tags)
    return _build_top_k(
        "lse", posts, out_dir, "k_tags", k_tags, "non-country tags",
        candidates=lambda p: [tag for tag in p.tags if tag not in country],
        label_of=lambda p, top: p.tags[0] if len(p.tags) == 1 and p.tags[0] in top else None,
        text_of=lambda p: f"{p.title}\n{html_to_markdown(p.body)}",
        provenance={"country_tags": sorted(country)})


_FACT_NUMBER_RE = re.compile(r"^\d+\.\s+")

ECHR_VIOLATION = "violation"
ECHR_NO_VIOLATION = "no-violation"


def clean_echr(title: str, facts: list[str], violated_articles: list[str],
               case_id: str | None = None) -> Document:
    """Title plus renumber-stripped facts, labeled by any-violation."""
    if not isinstance(title, str):
        raise ValueError(f"title must be a str, got {title!r:.60}")
    for field, value in (("facts", facts), ("violated_articles", violated_articles)):
        if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
            raise ValueError(f"{field} must be a list of str, got {value!r:.60}")
    cleaned = [_FACT_NUMBER_RE.sub("", fact) for fact in facts]
    label = ECHR_VIOLATION if violated_articles else ECHR_NO_VIOLATION
    return Document(text="\n".join([title] + cleaned), label=label, id=case_id)


def build_echr(path: str | Path, out_dir: str | Path) -> DatasetManifest:
    """Binary violation prediction from a JSONL export of cases.

    Expected fields per line: title, facts (list of strings),
    violated_articles (list of strings), optional id.
    """
    first_line: dict[str, int] = {}

    def case(obj: dict, lineno: int) -> Document:
        doc = clean_echr(obj["title"], obj["facts"], obj.get("violated_articles", []),
                         case_id=obj.get("id", f"case-{lineno}"))
        if doc.id in first_line:
            raise ValueError(f"case id {doc.id!r} repeats line {first_line[doc.id]}")
        first_line[doc.id] = lineno
        return doc

    docs = read_jsonl(path, case)
    if not docs:
        raise DataError(f"{path}: no cases found")
    return DatasetManifest.write(out_dir, "echr", docs, [], {"cases": len(docs)})


_TAG_WIRE_RE = re.compile(r"<([^<>]+)>")


def parse_stackexchange_xml(path: str | Path) -> list[RawPost]:
    """Read a Stack Exchange Posts XML dump (question rows only).

    Attributes used: Id, Title, Body, Tags (wire format "<tag1><tag2>"),
    CreationDate. Rows without Title or Tags (answers, wikis) are skipped,
    and a question row without an Id is refused by its row number.
    """
    path = Path(path)
    posts = []
    try:
        rows = (elem for _, elem in ET.iterparse(str(path), events=("end",))
                if elem.tag == "row")
        for rowno, elem in enumerate(rows, start=1):
            title = elem.get("Title")
            tags_raw = elem.get("Tags")
            if title is None or tags_raw is None:
                elem.clear()
                continue
            if not elem.get("Id"):
                raise DataError(f"{path}: row {rowno}: question row has no Id")
            created = 0.0
            stamp = elem.get("CreationDate")
            if stamp:
                try:
                    created = datetime.fromisoformat(stamp).replace(
                        tzinfo=timezone.utc).timestamp()
                except ValueError as exc:
                    raise DataError(f"{path}: row Id={elem.get('Id')!r}: bad CreationDate "
                                    f"{stamp!r} ({exc})") from exc
            posts.append(RawPost(
                id=elem.get("Id"),
                title=title,
                body=elem.get("Body", ""),
                tags=tuple(_TAG_WIRE_RE.findall(tags_raw)),
                created=created,
            ))
            elem.clear()
    except ET.ParseError as exc:
        raise DataError(f"{path}: bad XML ({exc})") from exc
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    return posts


def gen_synthetic(spec: SyntheticSpec, rng: Rng, out_dir: str | Path
                  ) -> tuple[list[Document], list[Document], DatasetManifest]:
    """Deterministic synthetic corpora plus a built manifest.

    Returns (general corpus, domain corpus, manifest). The domain corpus is
    the manifest's unlabeled.jsonl; the general corpus is written alongside
    as general.jsonl.
    """
    general = gen_general(spec, rng)
    domain = gen_domain(spec, rng)
    pool = gen_labeled_pool(spec, rng)
    manifest = DatasetManifest.write(
        out_dir, "synthetic", pool, domain,
        {"seed": rng.seed, "num_classes": spec.num_classes,
         "sizes": {"general": len(general), "domain": len(domain), "pool": len(pool)}})
    save_jsonl(Path(out_dir) / "general.jsonl", general)
    return general, domain, manifest
