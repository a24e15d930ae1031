"""HTML conversion golden files, dump builders, and synthetic corpora."""

import hashlib
import json
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pforge import DataError
from pforge.dataprep import (
    DatasetManifest,
    RawPost,
    SyntheticSpec,
    build_echr,
    build_lse,
    build_reddit,
    clean_echr,
    gen_synthetic,
    html_to_markdown,
    keyword_count_labels,
    parse_stackexchange_xml,
    split_of,
)
from pforge.dataprep import synthetic
from pforge.dataprep.synthetic import _Draws, gen_domain, gen_general, gen_labeled_pool
from pforge.metrics import PredictionLog, macro_f1
from pforge.numerics import STREAM_SAMPLING, Rng
from pforge.textdata import Document, save_jsonl

# mapping-table golden pairs; expected text derived by hand from the rules
HTML_GOLDEN = [
    ("<p>hi</p>", "hi"),
    ("<p>a</p><p>b</p>", "a\n\nb"),
    ("a<br>b", "a\nb"),
    ("a<br/>b", "a\nb"),
    ("<b>x</b>", "**x**"),
    ("<strong>x</strong>", "**x**"),
    ("<i>x</i>", "*x*"),
    ("<em>x</em>", "*x*"),
    ("<b><i>x</i></b>", "***x***"),
    ("<i><b>x</b></i>", "***x***"),
    ("<code>f(x)</code>", "`f(x)`"),
    ("<pre>line1\nline2</pre>", "```\nline1\nline2\n```"),
    ("<pre>code with  spaces</pre>", "```\ncode with  spaces\n```"),
    ('<a href="u">t</a>', "[t](u)"),
    ("<a>t</a>", "t"),
    ('<b><a href="u">t</a></b>', "**[t](u)**"),
    ("<ul><li>one</li><li>two</li></ul>", "- one\n- two"),
    ("<ol><li>first</li><li>second</li></ol>", "- first\n- second"),
    ("<ul>\n<li>one</li>\n<li>two</li>\n</ul>", "- one\n- two"),
    ("<ul><li><b>bold</b> item</li></ul>", "- **bold** item"),
    ("<blockquote>quoted</blockquote>", "> quoted"),
    ("<blockquote><p>a</p><p>b</p></blockquote>", "> a\n> \n> b"),
    ("&amp; &lt; &gt;", "& < >"),
    ("x &#39;quoted&#39;", "x 'quoted'"),
    ("<div>wrapped</div>", "wrapped"),
    ("<span>a</span>b", "ab"),
    ("<p>mix <b>bold</b> and <i>it</i></p>", "mix **bold** and *it*"),
    ('<p>see <a href="http://e.com">link</a> now</p>',
     "see [link](http://e.com) now"),
    ("<p>code <code>x=1</code> inline</p>", "code `x=1` inline"),
    ("", ""),
    ("plain text", "plain text"),
    ("<p></p>", ""),
    ("<b></b>", ""),
    ("<p>a</p>text after", "a\n\ntext after"),
    ("<p>one<br><br>two</p>", "one\n\ntwo"),
    ("<p>unclosed", "unclosed"),
    ("text</b> more", "text more"),
    ("<b>a</b> <i>b</i>", "**a** *b*"),
]


class TestHtmlToMarkdown:
    @pytest.mark.parametrize("html,expected", HTML_GOLDEN,
                             ids=[f"case{i}" for i in range(len(HTML_GOLDEN))])
    def test_golden(self, html, expected):
        assert html_to_markdown(html) == expected

    @pytest.mark.parametrize("html,expected", HTML_GOLDEN,
                             ids=[f"case{i}" for i in range(len(HTML_GOLDEN))])
    def test_idempotent_on_own_output(self, html, expected):
        once = html_to_markdown(html)
        assert html_to_markdown(once) == once

    def test_fixture_suite_is_big_enough(self):
        assert len(HTML_GOLDEN) >= 25


class TestCleanEchr:
    def test_numbered_fact_stripped(self):
        doc = clean_echr("Case A", ["1. The applicant was born"], ["3"])
        assert doc.text == "Case A\nThe applicant was born"

    def test_multi_digit_number_stripped(self):
        doc = clean_echr("T", ["12.  Double spaced fact"], [])
        assert doc.text.splitlines()[1] == "Double spaced fact"

    def test_unnumbered_fact_unchanged(self):
        doc = clean_echr("T", ["The facts speak"], [])
        assert doc.text.splitlines()[1] == "The facts speak"

    def test_decimal_number_not_a_list_marker(self):
        doc = clean_echr("T", ["10.5 percent rise was noted"], [])
        assert doc.text.splitlines()[1] == "10.5 percent rise was noted"

    def test_number_mid_sentence_unchanged(self):
        doc = clean_echr("T", ["born in 1958. He moved"], [])
        assert doc.text.splitlines()[1] == "born in 1958. He moved"

    def test_binary_label_from_violations(self):
        assert clean_echr("T", ["f"], ["6"]).label == "violation"
        assert clean_echr("T", ["f"], []).label == "no-violation"

    @pytest.mark.parametrize("facts", ["1. a fact", ["a fact", 2]])
    def test_facts_must_be_a_list_of_str(self, facts):
        with pytest.raises(ValueError, match="facts must be a list of str"):
            clean_echr("T", facts, [])

    @pytest.mark.parametrize("violated", ["none", ["6", 6], None])
    def test_violated_articles_must_be_a_list_of_str(self, violated):
        with pytest.raises(ValueError, match="violated_articles must be a list of str"):
            clean_echr("T", ["a fact"], violated)

    def test_title_must_be_a_str(self):
        with pytest.raises(ValueError, match="title must be a str"):
            clean_echr(5, ["a fact"], [])

    def test_build_echr_names_the_line_of_mistyped_violations(self, tmp_path):
        path = tmp_path / "cases.jsonl"
        good = {"title": "T", "facts": ["1. a fact"], "violated_articles": []}
        path.write_text(json.dumps(good) + "\n"
                        + json.dumps({**good, "violated_articles": "none"}) + "\n",
                        encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(f"{path}:2: malformed line "
                                                      "(violated_articles")):
            build_echr(path, tmp_path / "echr")

    def test_build_echr_names_the_line_of_a_bad_record(self, tmp_path):
        path = tmp_path / "cases.jsonl"
        good = {"title": "T", "facts": ["1. a fact"], "violated_articles": []}
        path.write_text(json.dumps(good) + "\n"
                        + json.dumps({**good, "facts": "1. a fact"}) + "\n",
                        encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(f"{path}:2: malformed line (facts")):
            build_echr(path, tmp_path / "echr")


    def test_build_echr_refuses_a_repeated_case_id(self, tmp_path):
        path = tmp_path / "cases.jsonl"
        good = {"title": "T", "facts": ["1. a fact"], "violated_articles": []}
        path.write_text("".join(json.dumps({**good, "id": case}) + "\n"
                                for case in ("A", "B", "A")), encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(f"{path}:3: malformed line "
                                                      "(case id 'A' repeats line 1)")):
            build_echr(path, tmp_path / "echr")

    def test_build_echr_keeps_a_raw_line_separator_in_a_title(self, tmp_path):
        path = tmp_path / "cases.jsonl"
        cases = [{"title": f"T{i}\u2028part", "facts": ["1. a fact"], "id": f"c{i}",
                  "violated_articles": ["6"] if i % 2 else []} for i in range(20)]
        path.write_text("".join(json.dumps(c, ensure_ascii=False) + "\n" for c in cases),
                        encoding="utf-8")
        manifest = build_echr(path, tmp_path / "echr")
        docs = [d for name in manifest.SPLITS for d in manifest.load_split(name)]
        assert sorted(d.text for d in docs) == sorted(f"T{i}\u2028part\na fact"
                                                      for i in range(20))

    def test_build_echr_names_a_non_utf8_file(self, tmp_path):
        path = tmp_path / "cases.jsonl"
        path.write_bytes(b'{"title": "caf\xe9", "facts": ["a fact"]}\n')
        with pytest.raises(DataError, match=re.escape(f"cannot read {path}: not UTF-8")):
            build_echr(path, tmp_path / "echr")


def reddit_dump(n: int = 200) -> list[RawPost]:
    """Synthetic dump: 13 flairs with distinct frequencies, some unflaired."""
    gen = np.random.default_rng(77)
    flairs = [f"flair{c:02d}" for c in range(13)]
    posts = []
    for i in range(n):
        # earlier flairs more frequent; ~10% unflaired
        if i % 10 == 9:
            flair = None
        else:
            flair = flairs[min(int(gen.exponential(3.0)), 12)]
        posts.append(RawPost(
            id=f"r{i:04d}", title=f"title {i}", body=f"body text {i}",
            flair=flair, created=float(1000 + i)))
    return posts


class TestBuildReddit:
    def test_manifest_satisfies_invariants(self, tmp_path):
        manifest = build_reddit(reddit_dump(), tmp_path / "reddit")
        manifest.validate()
        labels = manifest.labels()
        assert len(labels) == 11
        total = sum(len(manifest.load_split(s)) for s in manifest.SPLITS)
        assert total > 0
        assert len(manifest.load_unlabeled()) > 0

    def test_text_is_title_newline_body(self, tmp_path):
        manifest = build_reddit(reddit_dump(), tmp_path / "reddit")
        doc = manifest.load_split("train")[0]
        title, body = doc.text.split("\n", 1)
        assert title.startswith("title ") and body.startswith("body text ")

    def test_out_of_topk_flair_goes_unlabeled(self, tmp_path):
        posts = reddit_dump()
        manifest = build_reddit(posts, tmp_path / "reddit")
        labels = set(manifest.labels())
        flair_by_id = {p.id: p.flair for p in posts}
        unlabeled_ids = {d.id for d in manifest.load_unlabeled()}
        for pid in unlabeled_ids:
            assert flair_by_id[pid] is None or flair_by_id[pid] not in labels
        for split in manifest.SPLITS:
            for doc in manifest.load_split(split):
                assert doc.label in labels

    def test_labels_sorted_by_frequency_then_name(self, tmp_path):
        posts = reddit_dump()
        manifest = build_reddit(posts, tmp_path / "reddit")
        counts = {}
        for p in posts:
            if p.flair:
                counts[p.flair] = counts.get(p.flair, 0) + 1
        labels = manifest.labels()
        keys = [(-counts[l], l) for l in labels]
        assert keys == sorted(keys)

    def test_rank_boundary_tie_breaks_on_earliest_use(self, tmp_path):
        # two flairs tied in count at the boundary; "late" was used first
        posts = []
        pid = 0
        for flair, count, created0 in [("a", 5, 0), ("b", 4, 0),
                                       ("late", 2, 10), ("early", 2, 5)]:
            for j in range(count):
                posts.append(RawPost(id=f"p{pid}", title="t", body="b",
                                     flair=flair, created=float(created0 + j)))
                pid += 1
        manifest = build_reddit(posts, tmp_path / "r", k_classes=3)
        assert set(manifest.labels()) == {"a", "b", "early"}

    def test_rank_boundary_tie_falls_back_to_lexicographic(self, tmp_path):
        posts = []
        pid = 0
        for flair in ["a", "a", "b", "zeta", "beta"]:
            posts.append(RawPost(id=f"p{pid}", title="t", body="b",
                                 flair=flair, created=1.0))
            pid += 1
        manifest = build_reddit(posts, tmp_path / "r", k_classes=3)
        # zeta and beta tie on count and created; beta wins alphabetically
        assert set(manifest.labels()) == {"a", "b", "beta"}

    def test_too_few_flairs_rejected(self, tmp_path):
        posts = [RawPost(id="1", title="t", body="b", flair="only")]
        with pytest.raises(DataError, match="distinct flairs"):
            build_reddit(posts, tmp_path / "r")

    def test_duplicate_ids_rejected(self, tmp_path):
        posts = reddit_dump()
        posts.append(posts[0])
        with pytest.raises(DataError, match="duplicate"):
            build_reddit(posts, tmp_path / "r")

    def test_output_independent_of_input_order(self, tmp_path):
        posts = reddit_dump()
        shuffled = list(posts)
        np.random.default_rng(0).shuffle(shuffled)
        a = build_reddit(posts, tmp_path / "a")
        b = build_reddit(shuffled, tmp_path / "b")
        for name in ("train.jsonl", "dev.jsonl", "test.jsonl", "labels.txt",
                     "unlabeled.jsonl"):
            assert (a.root / name).read_bytes() == (b.root / name).read_bytes()


def lse_dump() -> list[RawPost]:
    gen = np.random.default_rng(5)
    tags = [f"tag{c:02d}" for c in range(20)]
    posts = []
    for i in range(200):
        k = int(gen.integers(1, 4))
        chosen = tuple(tags[min(int(gen.exponential(4.0)), 19)] for _ in range(k))
        if i % 17 == 0:
            chosen = chosen[:1] + ("usa",)
        posts.append(RawPost(
            id=f"q{i:04d}", title=f"Question {i}",
            body=f"<p>Body <b>{i}</b></p>", tags=chosen, created=float(i)))
    return posts


class TestBuildLse:
    def test_manifest_invariants_and_conversion(self, tmp_path):
        manifest = build_lse(lse_dump(), tmp_path / "lse", country_tags={"usa"},
                             k_tags=8)
        manifest.validate()
        assert len(manifest.labels()) == 8
        sample = (manifest.load_split("train") + manifest.load_split("dev")
                  + manifest.load_split("test"))[0]
        assert "<p>" not in sample.text and "**" in sample.text

    def test_multi_tag_posts_unlabeled(self, tmp_path):
        posts = lse_dump()
        manifest = build_lse(posts, tmp_path / "lse", country_tags={"usa"},
                             k_tags=8)
        tags_by_id = {p.id: p.tags for p in posts}
        for split in manifest.SPLITS:
            for doc in manifest.load_split(split):
                assert len(tags_by_id[doc.id]) == 1

    def test_country_tags_never_become_labels(self, tmp_path):
        posts = lse_dump() + [
            RawPost(id=f"c{i}", title="t", body="b", tags=("usa",),
                    created=0.0) for i in range(50)]
        manifest = build_lse(posts, tmp_path / "lse", country_tags={"usa"},
                             k_tags=8)
        assert "usa" not in manifest.labels()

    def test_missing_country_list_rejected(self, tmp_path):
        with pytest.raises(DataError, match="country"):
            build_lse(lse_dump(), tmp_path / "lse", country_tags=None)

    def test_country_tags_as_one_str_rejected(self, tmp_path):
        # set("usa") would be {"u", "s", "a"} and exclude nothing
        with pytest.raises(DataError, match="country_tags, a set or list .*; got 'usa'"):
            build_lse(lse_dump(), tmp_path / "lse", country_tags="usa")
        assert not (tmp_path / "lse").exists()

    # a str would be read as one tag per letter
    @pytest.mark.parametrize("tags", ["tax", ["tax"], ("tax", 3)])
    def test_raw_post_tags_must_be_a_tuple_of_str(self, tags):
        with pytest.raises(ValueError,
                           match=re.escape(f"tags must be a tuple of str, got {tags!r}")):
            RawPost(id="1", title="t", body="b", tags=tags)


class TestStackExchangeXml:
    XML = """<?xml version="1.0" encoding="utf-8"?>
<posts>
  <row Id="1" PostTypeId="1" Title="May I?" Body="&lt;p&gt;hi&lt;/p&gt;"
       Tags="&lt;copyright&gt;&lt;usa&gt;" CreationDate="2020-01-02T03:04:05.000"/>
  <row Id="2" PostTypeId="2" Body="&lt;p&gt;an answer&lt;/p&gt;"/>
  <row Id="3" PostTypeId="1" Title="Second" Body="b" Tags="&lt;lease&gt;"/>
</posts>
"""

    def test_parses_questions_and_tag_wire_format(self, tmp_path):
        path = tmp_path / "Posts.xml"
        path.write_text(self.XML)
        posts = parse_stackexchange_xml(path)
        assert [p.id for p in posts] == ["1", "3"]
        assert posts[0].tags == ("copyright", "usa")
        assert posts[0].body == "<p>hi</p>"
        assert posts[0].created > 0
        assert posts[1].tags == ("lease",)

    def test_bad_xml_rejected(self, tmp_path):
        path = tmp_path / "Posts.xml"
        path.write_text("<posts><row broken")
        with pytest.raises(DataError, match="XML"):
            parse_stackexchange_xml(path)

    def test_question_row_without_id_refused_by_row(self, tmp_path):
        path = tmp_path / "Posts.xml"
        path.write_text(self.XML.replace('<row Id="3" ', '<row '))
        with pytest.raises(DataError, match=re.escape(f"{path}: row 3: question row has no Id")):
            parse_stackexchange_xml(path)

    def test_bad_creation_date_names_path_row_and_field(self, tmp_path):
        path = tmp_path / "Posts.xml"
        path.write_text(self.XML.replace("2020-01-02T03:04:05.000", "not-a-date"))
        with pytest.raises(DataError, match=re.escape(f"{path}: row Id='1': bad CreationDate "
                                                      "'not-a-date'")):
            parse_stackexchange_xml(path)


class TestSplitHashing:
    def test_split_proportions_and_stability(self):
        names = [split_of("demo", f"id{i}") for i in range(20000)]
        frac_train = names.count("train") / len(names)
        frac_dev = names.count("dev") / len(names)
        frac_test = names.count("test") / len(names)
        assert abs(frac_train - 0.7) < 0.02
        assert abs(frac_dev - 0.1) < 0.01
        assert abs(frac_test - 0.2) < 0.015
        assert split_of("demo", "id0") == split_of("demo", "id0")

    def test_salt_changes_assignment_for_some_ids(self):
        moved = sum(split_of("a", f"id{i}") != split_of("b", f"id{i}")
                    for i in range(500))
        assert moved > 0


class TestDatasetManifestValidation:
    def test_unknown_label_caught(self, tmp_path):
        root = tmp_path / "bad"
        root.mkdir()
        save_jsonl(root / "train.jsonl", [Document(text="x", label="mystery", id="1")])
        save_jsonl(root / "dev.jsonl", [])
        save_jsonl(root / "test.jsonl", [])
        save_jsonl(root / "unlabeled.jsonl", [])
        (root / "labels.txt").write_text("known\n")
        with pytest.raises(DataError, match="missing from labels"):
            DatasetManifest(root).validate()

    def test_unknown_label_names_dataset_directory(self, tmp_path):
        root = tmp_path / "bad"
        root.mkdir()
        save_jsonl(root / "train.jsonl", [Document(text="x", label="z", id="1")])
        for name in ("dev", "test", "unlabeled"):
            save_jsonl(root / f"{name}.jsonl", [])
        (root / "labels.txt").write_text("a\n")
        with pytest.raises(DataError, match=re.escape(f"{root / 'train.jsonl'}: label 'z'")):
            DatasetManifest(root).validate()

    def test_cross_split_id_caught(self, tmp_path):
        root = tmp_path / "bad"
        root.mkdir()
        save_jsonl(root / "train.jsonl", [Document(text="x", label="a", id="1")])
        save_jsonl(root / "dev.jsonl", [Document(text="y", label="a", id="1")])
        save_jsonl(root / "test.jsonl", [])
        save_jsonl(root / "unlabeled.jsonl", [])
        (root / "labels.txt").write_text("a\n")
        with pytest.raises(DataError, match=re.escape(
                f"appears in both {root / 'train.jsonl'} and {root / 'dev.jsonl'}")):
            DatasetManifest(root).validate()

    @pytest.mark.parametrize("splits, labels, message", [
        ({"train": [Document(text="x", label="z", id="1")]}, ["a"],
         "train.jsonl: label 'z' missing from labels.txt"),
        ({"train": [Document(text="x", label="a", id="1")],
          "test": [Document(text="y", label="a", id="1")]}, ["a"],
         "id '1' appears in both"),
        ({}, ["a", ""], "labels.txt:2: blank label"),
        ({}, ["a", "b\u2028c"], r"labels.txt:2: label 'b\u2028c' is not one line of text"),
        ({}, ["a", 3], "labels.txt:2: label 3 is not one line of text"),
        ({}, ["a", "b", "a"], "labels.txt:3: label 'a' repeats line 1"),
        ({"validation": [Document(text="x", label="a", id="1")]}, ["a"],
         "unknown split 'validation'"),
    ], ids=["unknown-label", "cross-split-id", "blank", "two-lines", "not-str", "repeated",
            "unknown-split"])
    def test_write_refuses_before_writing_any_file(self, tmp_path, splits, labels, message):
        root = tmp_path / "ds"
        with pytest.raises(DataError, match=re.escape(message)):
            DatasetManifest.write(root, splits, labels, [], {})
        assert not root.exists()

    @staticmethod
    def _manifest_with_labels(tmp_path, labels: bytes | None):
        root = tmp_path / "ds"
        root.mkdir()
        for name in ("train", "dev", "test", "unlabeled"):
            save_jsonl(root / f"{name}.jsonl", [])
        if labels is not None:
            (root / "labels.txt").write_bytes(labels)
        return DatasetManifest(root)

    @pytest.mark.parametrize("labels, why", [(None, "No such file"),
                                             (b"caf\xe9\n", "utf-8")],
                             ids=["missing", "not UTF-8"])
    @pytest.mark.parametrize("call", ["labels", "validate"])
    def test_unreadable_labels_file_names_it(self, tmp_path, labels, why, call):
        manifest = self._manifest_with_labels(tmp_path, labels)
        with pytest.raises(DataError, match=re.escape(
                f"cannot read {manifest.labels_path}: ") + f".*{why}"):
            getattr(manifest, call)()

    # line n names class n - 1, so neither line may be skipped or merged
    @pytest.mark.parametrize("labels, why", [
        (b"a\n\nb\n", "2: blank label"),
        (b"a\nb\n\n", "3: blank label"),
        (b"a\na\nb\n", "2: label 'a' repeats line 1"),
        (b"a\r\nb\r\na\r\n", "3: label 'a' repeats line 1"),
    ])
    @pytest.mark.parametrize("call", ["labels", "label_map", "validate"])
    def test_blank_or_repeated_label_names_its_line(self, tmp_path, labels, why, call):
        manifest = self._manifest_with_labels(tmp_path, labels)
        with pytest.raises(DataError, match=re.escape(f"{manifest.labels_path}:{why}")):
            getattr(manifest, call)()


class TestSyntheticSpec:
    def test_overlapping_keywords_rejected(self):
        with pytest.raises(ValueError, match="disjoint"):
            SyntheticSpec(keywords=(("a", "b"), ("b", "c")))

    def test_rate_bounds(self):
        with pytest.raises(ValueError, match="injection_rate"):
            SyntheticSpec(injection_rate=1.0)
        with pytest.raises(ValueError, match="marker_rate"):
            SyntheticSpec(marker_rate=-0.1)
        with pytest.raises(ValueError, match="below 1"):
            SyntheticSpec(injection_rate=0.6, marker_rate=0.5)

    def test_one_class_per_keyword_list(self):
        spec = SyntheticSpec(keywords=(("a",), ("b",), ("c",), ("d",)))
        assert spec.num_classes == 4 and spec.class_names()[-1] == "class3"
        with pytest.raises(ValueError, match="^need at least 2 classes, got 1 keyword lists$"):
            SyntheticSpec(keywords=(("a",),))

    @pytest.mark.parametrize("keywords, message", [
        (("ab", "cd", "ef"), "keywords of class 0 must be a non-empty tuple, got 'ab'"),
        ([("a",), ("b",), ("c",)], "keywords must be a tuple, got [("),
        ((("a",), ["b"], ("c",)), "keywords of class 1 must be a non-empty tuple, got ['b']"),
        ((("a",), (), ("c",)), "keywords of class 1 must be a non-empty tuple, got ()"),
        ((("a",), ("b",), (3,)), "keywords of class 2 must be non-empty str without "
                                 "whitespace, got 3"),
        ((("a b",), ("c",), ("d",)), "keywords of class 0 must be non-empty str without "
                                     "whitespace, got 'a b'"),
        ((("a",), ("b", ""), ("c",)), "keywords of class 1 must be non-empty str without "
                                      "whitespace, got ''"),
        ((("a",), ("b",), ("c\n",)), "keywords of class 2 must be non-empty str without "
                                      "whitespace, got 'c\\n'"),
        # word_split lowercases and splits off punctuation
        ((("Visa",), ("visa",)), "keywords of class 0 must each be one lowercase token "
                                 "of word_split, got 'Visa'"),
        ((("a",), ("don't",)), "keywords of class 1 must each be one lowercase token "
                               "of word_split, got \"don't\""),
        ((("a",), ("b", "w0005")), "keywords of class 1 must not be filler or marker "
                                   "tokens, got 'w0005'"),
        ((("dm001",), ("b",)), "keywords of class 0 must not be filler or marker "
                               "tokens, got 'dm001'"),
    ])
    def test_malformed_keywords_name_the_class(self, keywords, message):
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            SyntheticSpec(keywords=keywords)

    def test_zero_injection_allowed(self):
        spec = SyntheticSpec(injection_rate=0.0)
        assert spec.injection_rate == 0.0

    @pytest.mark.parametrize("name, value, kind", [
        ("doc_len_max", 40.5, "an int"),
        ("doc_len_min", True, "an int"),
        ("general_size", 3.0, "an int"),
        ("injection_rate", "0.1", "a real number"),
        ("marker_vocab_size", np.int64(40), "an int"),
        ("marker_rate", False, "a real number"),
    ])
    def test_mistyped_field_is_named(self, name, value, kind):
        with pytest.raises(ValueError, match=f"^{name} must be {kind}, got "):
            SyntheticSpec(**{name: value})

    def test_integer_rates_are_real_numbers(self):
        assert SyntheticSpec(injection_rate=0, marker_rate=0).marker_rate == 0


# ranges of Generator.integers' 32-bit path: n = 1 takes no bits, 2**31 + 1
# rejects about half its first draws, 2**32 is the widest
_DRAW_RANGES = (1, 2, 3, 40, 400, 2**31 + 1, 2**32)


class TestDraws:
    @pytest.mark.parametrize("seed", [0, 1, 23, 2**64 - 1])
    def test_matches_a_fresh_generator(self, seed):
        # a seeded script of interleaved calls, long enough to cross several
        # blocks of raw words; runs of random() between two integers calls
        # leave a high half waiting
        script = np.random.default_rng(seed % 1000)
        calls = []
        for _ in range(4000):
            if script.random() < 0.4:
                calls.append(None)
            else:
                lo = int(script.integers(-5, 6))
                calls.append((lo, lo + int(script.choice(_DRAW_RANGES))))
        gen, draws = Rng(seed).generator(), _Draws(Rng(seed).generator().bit_generator)
        for call in calls:
            if call is None:
                want, got = gen.random(), draws.random()
                assert type(got) is float and got.hex() == want.hex()
            else:
                want, got = int(gen.integers(*call)), draws.integers(*call)
                assert type(got) is int and got == want, call

    @pytest.mark.parametrize("lo, hi", [(0, 0), (3, 2), (0, 2**32 + 1), (-1, 2**32)])
    def test_range_outside_32_bits_refused(self, lo, hi):
        with pytest.raises(ValueError, match=r"1 <= hi - lo <= 2\*\*32"):
            _Draws(Rng(1).generator().bit_generator).integers(lo, hi)


class TestGenSynthetic:
    def test_deterministic_given_rng(self, tmp_path):
        spec = SyntheticSpec(general_size=40, domain_size=40, labeled_pool_size=60)
        g1, d1, _ = gen_synthetic(spec, Rng(3), tmp_path / "a")
        g2, d2, _ = gen_synthetic(spec, Rng(3), tmp_path / "b")
        assert g1 == g2 and d1 == d2

    def test_general_corpus_has_no_domain_tokens(self):
        spec = SyntheticSpec(general_size=200, domain_size=10, labeled_pool_size=10)
        general = gen_general(spec, Rng(1))
        markers = set(spec.marker_tokens())
        keywords = {k for ks in spec.keywords for k in ks}
        for doc in general:
            toks = set(doc.text.split())
            assert not toks & markers
            assert not toks & keywords

    def test_domain_corpus_contains_markers(self):
        spec = SyntheticSpec(general_size=10, domain_size=100, labeled_pool_size=10)
        domain = gen_domain(spec, Rng(1))
        markers = set(spec.marker_tokens())
        hits = sum(bool(set(d.text.split()) & markers) for d in domain)
        assert hits > 50

    def test_high_injection_rate_recoverable_by_keyword_oracle(self):
        spec = SyntheticSpec(injection_rate=0.95, marker_rate=0.02,
                             general_size=10, domain_size=10,
                             labeled_pool_size=256)
        pool = gen_labeled_pool(spec, Rng(9))
        names = spec.class_names()
        true = np.array([names.index(d.label) for d in pool])
        pred = np.array(keyword_count_labels(spec, pool))
        probs = np.zeros((len(pool), spec.num_classes))
        probs[np.arange(len(pool)), pred] = 1.0
        assert macro_f1(PredictionLog(probs=probs, labels=true)) > 0.95

    def test_zero_injection_rate_leaves_no_keywords(self):
        spec = SyntheticSpec(injection_rate=0.0, general_size=10,
                             domain_size=10, labeled_pool_size=120)
        pool = gen_labeled_pool(spec, Rng(4))
        keywords = {k for ks in spec.keywords for k in ks}
        for doc in pool:
            assert not set(doc.text.split()) & keywords

    def test_manifest_built_and_valid(self, tmp_path):
        spec = SyntheticSpec(general_size=30, domain_size=30, labeled_pool_size=80)
        _, domain, manifest = gen_synthetic(spec, Rng(2), tmp_path / "syn")
        manifest.validate()
        counts = Counter(d.label for d in gen_labeled_pool(spec, Rng(2)))
        assert manifest.labels() == sorted(counts, key=lambda l: (-counts[l], l))
        assert len(manifest.load_unlabeled()) == len(domain)
        assert (manifest.root / "general.jsonl").exists()

    def test_files_keep_their_bytes(self, tmp_path):
        # sha256 of every file gen_synthetic writes, pinned so that a change
        # to how the corpora are generated cannot move a single byte
        spec = SyntheticSpec(general_size=30, domain_size=30, labeled_pool_size=80)
        gen_synthetic(spec, Rng(2), tmp_path / "syn")
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in (tmp_path / "syn").iterdir()}
        assert got == {
            "dev.jsonl": "7d63da0013073d56ac3052b604f65b80ae11ad960f3a8a0cc9243f421bbf3591",
            "general.jsonl": "319a7d57d0ea87589671a024d408cafbcec10345d30862c3a8bd143e9ff008bd",
            "labels.txt": "2929d347679d307ab9935998e203ffaf2d4b661c30d129214b5eb67e7051cb6c",
            "provenance.json": "372de7dc33ead4d930c23e2db3ff73f254ce6297a16501d20b7f850a4173b8ab",
            "test.jsonl": "0df8a935f693d7cd14be9cba02667f785a5fc0e654d11f05851ec83692bd0aa4",
            "train.jsonl": "62951731fc4a008db2606c5e0f29cb24cd9feab64f847ab62e5f1a4fbeee6835",
            "unlabeled.jsonl": "7f49d5596633e1937e62f581f47dfeac68907e00687a254a6f54b022854b4863",
        }

    def test_files_keep_their_bytes_on_other_branches(self, tmp_path):
        # a second pin: documents of 64-111 words, a class with one keyword
        # and a single marker, where drawing from a range of one value takes
        # no bits
        spec = SyntheticSpec(
            keywords=(("plaintiff",), ("tenant", "landlord", "lease"),
                      ("visa", "border", "asylum")),
            marker_vocab_size=1, doc_len_min=64, doc_len_max=111,
            general_size=20, domain_size=30, labeled_pool_size=60)
        gen_synthetic(spec, Rng(5), tmp_path / "syn")
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in (tmp_path / "syn").iterdir()}
        assert got == {
            "dev.jsonl": "8370be0fce1110a1fbb7523e6144592209b428becc71ab2b9516edf63ad532b0",
            "general.jsonl": "98efb9db529fab7062928b98258f4497e7ed42d48af58dfd8339786ad58aaf72",
            "labels.txt": "711d3ca180e7ba2b19643ed1ec060b9d3825cf2b27c0cc1ee75b84b85a2fa800",
            "provenance.json": "da0b21e416847c1c6532ce2bcf5f079569a893f3ad2a467353ab97ea2a95565a",
            "test.jsonl": "7a1020275b220a56c83f6a993c4d2390b8f785fe6e31b881ad414e0cb74db9bd",
            "train.jsonl": "5bb9bfd162394602ccc7dc512ccc63242024e7f93311f1a8236d5099dbf8d43b",
            "unlabeled.jsonl": "93fdf3470d1b86ef1c8fb26a227a0e48c38f29ab7afe0ec31535cec8d3ccb0f7",
        }


def one_call_at_a_time(spec, gen, size, domain):
    """(label, text) of a corpus's size documents drawn through gen's random()
    and integers() one call at a time, as the generators' docstring states
    the draws; a general (not domain) document draws no label and only
    fillers. With a fresh Generator for gen it is the plan's oracle."""
    fillers, markers = spec.filler_tokens(), spec.marker_tokens()
    docs = []
    for _ in range(size):
        label = int(gen.integers(0, spec.num_classes)) if domain else 0
        toks = []
        for _ in range(int(gen.integers(spec.doc_len_min, spec.doc_len_max + 1))):
            choices = fillers
            if domain:
                r = gen.random()
                if r < spec.injection_rate:
                    choices = spec.keywords[label]
                elif r < spec.injection_rate + spec.marker_rate:
                    choices = markers
            toks.append(choices[int(gen.integers(0, len(choices)))])
        docs.append((label, " ".join(toks)))
    return docs


@st.composite
def synthetic_specs(draw):
    keywords = tuple(tuple(f"k{c}x{i}" for i in range(draw(st.integers(1, 3))))
                     for c in range(draw(st.integers(2, 4))))
    doc_len_min = draw(st.integers(1, 40))
    return SyntheticSpec(
        keywords=keywords,
        filler_vocab_size=draw(st.integers(1, 500)),
        marker_vocab_size=draw(st.integers(1, 50)),
        doc_len_min=doc_len_min,
        doc_len_max=doc_len_min + draw(st.one_of(st.just(0), st.integers(0, 40))),
        injection_rate=draw(st.sampled_from([0.0, 0.05, 0.25, 0.6])),
        marker_rate=draw(st.sampled_from([0.0, 0.3, 0.39])),
        general_size=draw(st.integers(1, 150)),
        domain_size=draw(st.integers(1, 150)),
        labeled_pool_size=draw(st.integers(1, 150)))


class _Words:
    """A bit generator stand-in whose raw words are given."""

    def __init__(self, words):
        self._words = words

    def random_raw(self, n):
        if n > len(self._words):
            raise ValueError(f"{n} words asked for, {len(self._words)} left")
        out, self._words = self._words[:n], self._words[n:]
        return out


class TestDrawPlan:
    @given(synthetic_specs(), st.integers(0, 1000))
    # one-value choices everywhere: equal length bounds, a one-keyword class
    # and one marker
    @example(SyntheticSpec(keywords=(("k0",), ("k1", "k2")), marker_vocab_size=1,
                           doc_len_min=9, doc_len_max=9, general_size=40,
                           domain_size=60, labeled_pool_size=60), 1)
    # corpora of several blocks of raw words each, no keywords
    @example(SyntheticSpec(doc_len_min=30, doc_len_max=60, injection_rate=0.0,
                           general_size=900, domain_size=400, labeled_pool_size=400), 23)
    @settings(max_examples=40, deadline=None)
    def test_corpora_match_a_fresh_generator(self, spec, seed):
        names = spec.class_names()
        for gen_corpus, stream, size, domain in (
                (gen_general, "general", spec.general_size, False),
                (gen_domain, "domain", spec.domain_size, True),
                (gen_labeled_pool, "labeled", spec.labeled_pool_size, True)):
            gen = Rng(seed).stream(STREAM_SAMPLING).stream(stream).generator()
            want = one_call_at_a_time(spec, gen, size, domain)
            got = gen_corpus(spec, Rng(seed))
            assert [d.text for d in got] == [text for _, text in want], stream
            if gen_corpus is gen_labeled_pool:
                assert [d.label for d in got] == [names[c] for c, _ in want]

    @pytest.mark.parametrize("domain", [False, True])
    def test_documents_after_a_rejection_are_planned_again(self, monkeypatch, domain):
        # a zero half is rejected for every range the default spec draws
        # from, none being a power of two; three zero words in a row hold at
        # least one token's integers half in either corpus layout
        words = np.random.Philox(7).random_raw(20000)
        for at in (100, 1500, 3000):
            words[at:at + 3] = 0
        spec = SyntheticSpec()
        per_draw = []

        def spy(*args):
            per_draw.append(args)
            return one_draw_at_a_time(*args)

        one_draw_at_a_time = synthetic._doc_one_draw_at_a_time
        monkeypatch.setattr(synthetic, "_doc_one_draw_at_a_time", spy)
        labels, texts = synthetic._draw_corpus(spec, _Words(words.copy()), 300, domain)
        assert len(per_draw) == 3
        assert list(zip(labels, texts)) == one_call_at_a_time(
            spec, _Draws(_Words(words.copy())), 300, domain)

    @pytest.mark.parametrize("injection_rate,marker_rate", [
        (0.0, 0.3), (0.25, 0.3), (0.1, 0.2), (1 / 3, 1 / 3), (2.0 ** -60, 0.5),
        (0.5, 0.5 - 2.0 ** -53)])
    def test_branch_words_split_the_words_as_random_does(self, injection_rate,
                                                         marker_rate):
        # the plan picks a branch by comparing words, random() by comparing
        # (w >> 11) * 2**-53; the two agree on every word around each bound
        spec = SyntheticSpec(injection_rate=injection_rate, marker_rate=marker_rate)
        for bound, rate in zip(synthetic._Choices(spec).branch_words,
                               (injection_rate, injection_rate + marker_rate)):
            bound = int(bound)
            for w in (bound - 2049, bound - 2048, bound - 1, bound, bound + 1,
                      bound + 2047, bound + 2048):
                if 0 <= w < 1 << 64:
                    assert (w >= bound) == ((w >> 11) * 2.0 ** -53 >= rate), (rate, w)
