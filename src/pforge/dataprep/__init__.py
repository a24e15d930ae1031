"""Dataset builders: raw dumps in, DatasetManifest directories out.

A manifest directory holds train.jsonl / dev.jsonl / test.jsonl,
labels.txt (line number = class id), unlabeled.jsonl (the domain-adaptation
corpus), and provenance.json. Split membership is a pure function of each
document id: blake2s("<dataset>/<id>") scaled to [0, 1) against 70/10/20
boundaries, so builders are insensitive to input order.
"""

from __future__ import annotations

import hashlib
import json
import logging
import re
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from .. import DataError
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

log = logging.getLogger(__name__)

SPLIT_BOUNDS = (("train", 0.7), ("dev", 0.8), ("test", 1.0))


@dataclass(frozen=True)
class RawPost:
    id: str
    title: str
    body: str
    tags: tuple[str, ...] = ()
    flair: str | None = None
    created: float = 0.0


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
        lines = self.labels_path.read_text(encoding="utf-8").splitlines()
        return [line for line in lines if line]

    def label_map(self) -> dict[str, int]:
        return {label: i for i, label in enumerate(self.labels())}

    def load_split(self, name: str) -> list[Document]:
        return load_jsonl(self.split_path(name))

    def load_unlabeled(self) -> list[Document]:
        return load_jsonl(self.unlabeled_path)

    def validate(self) -> None:
        """Invariants: labels cover every split, split ids disjoint."""
        known = set(self.labels())
        seen: dict[str, str] = {}
        for split in self.SPLITS:
            for doc in self.load_split(split):
                if doc.label is not None and doc.label not in known:
                    raise DataError(
                        f"{split}.jsonl: label {doc.label!r} missing from labels.txt"
                    )
                if doc.id is not None:
                    if doc.id in seen and seen[doc.id] != split:
                        raise DataError(
                            f"id {doc.id!r} appears in both {seen[doc.id]} and {split}"
                        )
                    seen[doc.id] = split

    @classmethod
    def write(cls, root: str | Path, splits: dict[str, list[Document]],
              labels: list[str], unlabeled: list[Document],
              provenance: dict) -> "DatasetManifest":
        manifest = cls(root)
        manifest.root.mkdir(parents=True, exist_ok=True)
        for name in cls.SPLITS:
            save_jsonl(manifest.split_path(name), splits.get(name, []))
        manifest.labels_path.write_text(
            "".join(f"{label}\n" for label in labels), encoding="utf-8")
        save_jsonl(manifest.unlabeled_path, unlabeled)
        (manifest.root / "provenance.json").write_text(
            json.dumps(provenance, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        manifest.validate()
        return manifest


def _check_unique_ids(posts: list[RawPost]) -> None:
    counts = Counter(p.id for p in posts)
    dupes = [pid for pid, c in counts.items() if c > 1]
    if dupes:
        raise DataError(f"duplicate post ids in dump: {dupes[:5]}")


def _rank_labels(counts: Counter, first_use: dict[str, float], k: int
                 ) -> list[str]:
    """Top-k by frequency; boundary ties go to earlier first use, then name."""
    return sorted(counts, key=lambda t: (-counts[t], first_use[t], t))[:k]


def _split_documents(dataset: str, docs: list[Document]
                     ) -> dict[str, list[Document]]:
    out: dict[str, list[Document]] = {name: [] for name, _ in SPLIT_BOUNDS}
    for doc in docs:
        if doc.id is None:
            raise DataError("split hashing needs a document id")
        out[split_of(dataset, doc.id)].append(doc)
    # sort by id so output bytes do not depend on dump order
    return {name: sorted(docs, key=lambda d: d.id) for name, docs in out.items()}


def _write_labeled(dataset: str, out_dir: str | Path, labeled: list[Document],
                   label_counts: dict[str, int], unlabeled: list[Document],
                   provenance: dict) -> DatasetManifest:
    """Split the labeled documents and write the manifest.

    labels.txt lists the keys of label_counts by descending count, ties
    lexicographic; provenance gains the builder name and the split sizes.
    """
    splits = _split_documents(dataset, labeled)
    labels = sorted(label_counts, key=lambda t: (-label_counts[t], t))
    return DatasetManifest.write(
        out_dir, splits, labels, unlabeled,
        provenance={"builder": dataset, **provenance,
                    "split_sizes": {name: len(docs) for name, docs in splits.items()}})


def _build_top_k(dataset, posts, out_dir, k, what, candidates, label_of, text_of,
                 provenance) -> DatasetManifest:
    """Rank candidates(post) labels over the dump and keep the top k.

    label_of(post, top) is a post's label, or None to route it to
    unlabeled.jsonl; text_of(post) is its document text.
    """
    _check_unique_ids(posts)
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
    return _write_labeled(
        dataset, out_dir, labeled, {t: counts[t] for t in top}, unlabeled,
        {**provenance, "posts": len(posts), "labeled": len(labeled)})


def build_reddit(posts: list[RawPost], out_dir: str | Path,
                 k_classes: int = 11) -> DatasetManifest:
    """Flair classification: top-k flairs labeled, the rest unlabeled.

    Text is title + newline + body. Posts without a flair, or with a flair
    outside the top k, feed unlabeled.jsonl.
    """
    return _build_top_k(
        "reddit", posts, out_dir, k_classes, "flairs",
        candidates=lambda p: [p.flair] if p.flair else [],
        label_of=lambda p, top: p.flair if p.flair in top else None,
        text_of=lambda p: f"{p.title}\n{p.body}",
        provenance={"k_classes": k_classes})


def build_lse(posts: list[RawPost], out_dir: str | Path,
              country_tags: set[str] | list[str] | None,
              k_tags: int = 16) -> DatasetManifest:
    """Tag classification for Stack Exchange law questions.

    Tags are ranked over the whole dump with country tags excluded; the
    labeled set keeps single-tag posts whose tag ranks in the top k. Bodies
    are HTML and get converted to Markdown everywhere.
    """
    if country_tags is None:
        raise DataError("build_lse requires a country-tag exclusion list")
    country = set(country_tags)
    return _build_top_k(
        "lse", posts, out_dir, k_tags, "non-country tags",
        candidates=lambda p: [tag for tag in p.tags if tag not in country],
        label_of=lambda p, top: p.tags[0] if len(p.tags) == 1 and p.tags[0] in top else None,
        text_of=lambda p: f"{p.title}\n{html_to_markdown(p.body)}",
        provenance={"k_tags": k_tags, "country_tags": sorted(country)})


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
    path = Path(path)
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    docs = []
    for lineno, line in enumerate(raw.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            docs.append(clean_echr(
                obj["title"], obj["facts"], obj.get("violated_articles", []),
                case_id=obj.get("id", f"case-{lineno}")))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path}:{lineno}: bad case record ({exc})") from exc
    if not docs:
        raise DataError(f"{path}: no cases found")
    return _write_labeled("echr", out_dir, docs, Counter(d.label for d in docs), [],
                          {"cases": len(docs)})


_TAG_WIRE_RE = re.compile(r"<([^<>]+)>")


def parse_stackexchange_xml(path: str | Path) -> list[RawPost]:
    """Read a Stack Exchange Posts XML dump (question rows only).

    Attributes used: Id, Title, Body, Tags (wire format "<tag1><tag2>"),
    CreationDate. Rows without Title or Tags (answers, wikis) are skipped.
    """
    path = Path(path)
    posts = []
    try:
        for _, elem in ET.iterparse(str(path), events=("end",)):
            if elem.tag != "row":
                continue
            title = elem.get("Title")
            tags_raw = elem.get("Tags")
            if title is None or tags_raw is None:
                elem.clear()
                continue
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
                id=elem.get("Id", ""),
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
    manifest = _write_labeled(
        "synthetic", out_dir, pool, Counter(d.label for d in pool), domain,
        {"seed": rng.seed, "num_classes": spec.num_classes,
         "sizes": {"general": len(general), "domain": len(domain), "pool": len(pool)}})
    save_jsonl(Path(out_dir) / "general.jsonl", general)
    return general, domain, manifest
