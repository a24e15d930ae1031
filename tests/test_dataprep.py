"""HTML conversion golden files, dump builders, and synthetic corpora."""

import hashlib
import json
import re
from collections import Counter
from dataclasses import replace

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
from pforge.dataprep.synthetic import gen_domain, gen_general, gen_labeled_pool
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


def echr_export(path, violated=lambda i: ["6"] if i % 2 else []):
    """A JSONL export of 20 cases, each title holding a raw U+2028; case i
    violates the articles violated(i)."""
    cases = [{"title": f"T{i}\u2028part", "facts": ["1. a fact"], "id": f"c{i}",
              "violated_articles": violated(i)} for i in range(20)]
    path.write_text("".join(json.dumps(c, ensure_ascii=False) + "\n" for c in cases),
                    encoding="utf-8")
    return path


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
        manifest = build_echr(echr_export(tmp_path / "cases.jsonl"), tmp_path / "echr")
        docs = [d for name in manifest.SPLITS for d in manifest.load_split(name)]
        assert sorted(d.text for d in docs) == sorted(f"T{i}\u2028part\na fact"
                                                      for i in range(20))

    def test_build_echr_refuses_an_export_of_one_label(self, tmp_path):
        path = echr_export(tmp_path / "cases.jsonl", violated=lambda i: ["6"])
        with pytest.raises(DataError, match=re.escape(
                "need at least 2 labels, the labeled documents carry ['violation']")):
            build_echr(path, tmp_path / "echr")
        assert not (tmp_path / "echr").exists()

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
        with pytest.raises(DataError, match="id 'r0000' is used twice"):
            build_reddit(posts, tmp_path / "r")

    # unchecked, -1 would slice the last flair off the top k, 0 would write
    # no class and True one
    @pytest.mark.parametrize("k", [-1, 0, 1, True, 2.0])
    def test_bad_k_classes_refused(self, tmp_path, k):
        with pytest.raises(DataError, match=re.escape(
                f"k_classes must be an int of at least 2, got {k!r}")):
            build_reddit(reddit_dump(), tmp_path / "r", k_classes=k)
        assert not (tmp_path / "r").exists()

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

    def test_top_k_tag_without_a_single_tag_post_is_no_class(self, tmp_path):
        posts = [RawPost(id=f"p{i}", title="t", body="b", tags=tags, created=float(i))
                 for i, tags in enumerate([("contract",)] * 5 + [("lease",)] * 3
                                          + [("contract", "tenancy")] * 6)]
        manifest = build_lse(posts, tmp_path / "lse", country_tags=[], k_tags=3)
        manifest.validate()
        assert manifest.labels() == ["contract", "lease"]

    def test_bad_k_tags_refused(self, tmp_path):
        with pytest.raises(DataError, match=re.escape("k_tags must be an int of at least 2, "
                                                      "got -1")):
            build_lse(lse_dump(), tmp_path / "lse", country_tags={"usa"}, k_tags=-1)

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


@pytest.mark.parametrize("build, digests", [
    # the Reddit and ECHR digests are those of the builders that passed their
    # own splits and labels to the writer; LSE's labels.txt lists tags by
    # labeled count
    (lambda out: build_reddit(reddit_dump(), out), {
        "dev.jsonl": "dd4734a6f11a4a2414b3ab8474cae817b350515dbe4cf68dfb17b8483302ce3c",
        "labels.txt": "5892a94de42c2867a29fcb5760c691f83927b674171148319ad13514de360476",
        "provenance.json": "7ba6ad6325ca29b0698abf7ffe79a37fa3ba177047ebc8a62bce300dc001e367",
        "test.jsonl": "b1fc662e9de471d12700666c9d0da2b51af3caf4668452317408784f93bd0bcb",
        "train.jsonl": "e632077e5ae755d5a4582efa3b67c89505acdc16f296ef5feb26ffeb57ec4de2",
        "unlabeled.jsonl": "8565e7d5c22410a917a214ecd4398612e1990a9fb8fdc89a0aa2f4d9397448ba",
    }),
    (lambda out: build_echr(echr_export(out.parent / "cases.jsonl"), out), {
        "dev.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "labels.txt": "f040b0c539fd6af415d97ade14f4f41c6ca1001b96a0ad346e7aa897df278bab",
        "provenance.json": "da761ab9445b1087f484b1fca563bd5ee8d958054c09fc9b86d1c37b0bf13a1f",
        "test.jsonl": "dd7c2da1462bdabeef636e014e1c684f60a4cbabe6b692e4cdb778a877ef69b1",
        "train.jsonl": "81eaf53ef8158f078a2ecd3cfd90ba2c69e2a6f255d06a31416ec0a9d421ab4d",
        "unlabeled.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    }),
    (lambda out: build_lse(lse_dump(), out, country_tags={"usa"}, k_tags=8), {
        "dev.jsonl": "ecce5d44bdcf41fa0d6cc7d0307f3923503b13839827cce0b102142dc5699be0",
        "labels.txt": "05da6a95d1597e43ec9f5592a5283a94081720dac99c5b2249f22c144eb9c08a",
        "provenance.json": "fd097912b8e276f8765c3c9b91d2059968513ebc32b70a6aa3236bf442174fc8",
        "test.jsonl": "18d40b4682bea403699d0fbbddf200670157fc5eadeeb2b9736835dce2af7f65",
        "train.jsonl": "f69ad8b4d69fc6227fb5333d1ed741c01c7da08e1fe78e2e2de7c3307c4ea38f",
        "unlabeled.jsonl": "377349cbe2d272d0693f2fd0a12a64cf9806ed32b778ee61f3b9ae4cfb7a9d49",
    }),
], ids=["reddit", "echr", "lse"])
def test_builders_keep_their_bytes(tmp_path, build, digests):
    build(tmp_path / "out")
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in (tmp_path / "out").iterdir()}
    assert got == digests


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

    def test_id_repeated_in_one_split_caught(self, tmp_path):
        root = tmp_path / "bad"
        save_jsonl(root / "train.jsonl", [Document(text="x", label="a", id="1"),
                                          Document(text="y", label="a", id="1")])
        for name in ("dev", "test", "unlabeled"):
            save_jsonl(root / f"{name}.jsonl", [])
        (root / "labels.txt").write_text("a\n")
        with pytest.raises(DataError, match=re.escape(
                f"id '1' repeats in {root / 'train.jsonl'}")):
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

    @pytest.mark.parametrize("labeled, unlabeled, message", [
        ([Document(text="x", label="a")], [], "document without an id ('x')"),
        ([Document(text="x", label="a", id="1"), Document(text="y", label="b", id="2")],
         [Document(text="z", id="1")], "id '1' is used twice"),
        ([Document(text="x", label="a", id="1"), Document(text="y", id="2")], [],
         "1 of the labeled documents have no label"),
        ([Document(text="x", label="a", id="1"), Document(text="y", label="a", id="2")], [],
         "need at least 2 labels, the labeled documents carry ['a']"),
        ([Document(text="x", label="a", id="1"), Document(text="y", label="b\u2028c", id="2")],
         [], r"labels.txt:2: label 'b\u2028c' is not one line of text"),
    ], ids=["missing-id", "repeated-id", "no-label", "one-label", "two-lines"])
    def test_write_refuses_before_writing_any_file(self, tmp_path, labeled, unlabeled,
                                                   message):
        root = tmp_path / "ds"
        with pytest.raises(DataError, match=re.escape(message)):
            DatasetManifest.write(root, "demo", labeled, unlabeled, {})
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

    @pytest.mark.parametrize("spec, seed, digests", [
        (SyntheticSpec(general_size=30, domain_size=30, labeled_pool_size=80), 2, {
            "dev.jsonl": "5d60474ec9607c679a5e567871a15c24013f53c3837a7fcdfa100cd7fe37500c",
            "general.jsonl": "8269466422ab24fd3adf194bf622e4461f38dba971568f7c0b6f0895eba47a75",
            "labels.txt": "8e99c6383f3baa2ab0afd1948a55100ea441c79f85dceddbc4a0dd5296852a88",
            "provenance.json": "372de7dc33ead4d930c23e2db3ff73f254ce6297a16501d20b7f850a4173b8ab",
            "test.jsonl": "b007580462c27f56868cd42ef8e2a37dacd45e12f21db9310e28e54c16cc792e",
            "train.jsonl": "6dac789a7c73163e8179050a69d86a0f068631ac3d1237fd15dbe76826c0c65b",
            "unlabeled.jsonl": "2d5c35bada660602bc94e6260f0d7d92fde5660fdc7645d9a6d7c887946f5fe8",
        }),
        # documents of 64-111 words, a class with one keyword and a single
        # marker
        (SyntheticSpec(keywords=(("plaintiff",), ("tenant", "landlord", "lease"),
                                 ("visa", "border", "asylum")),
                       marker_vocab_size=1, doc_len_min=64, doc_len_max=111,
                       general_size=20, domain_size=30, labeled_pool_size=60), 5, {
            "dev.jsonl": "fc927fc4ac418fdf95cb537e7375c369232da55306b16af761143d611cf23d2c",
            "general.jsonl": "c8290b76fd6137a5728b3cceebf9770bbcab0776172ede40bff05d820c38bbf9",
            "labels.txt": "bd4b8b80da3019d65d4062b771326b33da5a8619fd5f9a4d3b50e9aa753d666c",
            "provenance.json": "da0b21e416847c1c6532ce2bcf5f079569a893f3ad2a467353ab97ea2a95565a",
            "test.jsonl": "51c948e69b0cf3b5be2bd120f34338d41046e4169f21c398504c8486561bb43b",
            "train.jsonl": "5e5e8af15737ceb8a3e6ca8371a7a34ece9c3f9b954399089c40f8b6cd1cc9da",
            "unlabeled.jsonl": "b4beb9beebaada52d9492bb9adab7fcf81c254ed0a290e3cd191a4bd6c75549f",
        }),
    ])
    def test_files_keep_their_bytes(self, tmp_path, spec, seed, digests):
        # sha256 of every file gen_synthetic writes, pinned so that a change
        # to how the corpora are generated cannot move a single byte
        gen_synthetic(spec, Rng(seed), tmp_path / "syn")
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in (tmp_path / "syn").iterdir()}
        assert got == digests


def per_document_reference(spec, seed, stream, size, domain):
    """(label, text) of a corpus's size documents, each read from its own
    stride of the stream's raw words as Python ints, one draw at a time, as
    the generators' docstring states the layout; a general (not domain)
    document has label 0 and only fillers. Branches use random()'s float."""
    fillers, markers = spec.filler_tokens(), spec.marker_tokens()
    stride = 2 + 2 * spec.doc_len_max if domain else 1 + spec.doc_len_max
    bits = Rng(seed).stream(STREAM_SAMPLING).stream(stream).generator().bit_generator
    assert isinstance(bits, np.random.Philox)
    words = [int(w) for w in bits.random_raw(size * stride)]

    def choose(word, n):
        return (word % 2**32) * n >> 32

    docs = []
    for i in range(size):
        doc = iter(words[i * stride:(i + 1) * stride])
        label = choose(next(doc), spec.num_classes) if domain else 0
        toks = []
        for _ in range(spec.doc_len_min + choose(next(doc), spec.doc_len_max
                                                 - spec.doc_len_min + 1)):
            choices = fillers
            if domain:
                r = (next(doc) >> 11) * 2.0 ** -53
                if r < spec.injection_rate:
                    choices = spec.keywords[label]
                elif r < spec.injection_rate + spec.marker_rate:
                    choices = markers
            toks.append(choices[choose(next(doc), len(choices))])
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


_CORPORA = ((gen_general, "general", "general_size", False),
            (gen_domain, "domain", "domain_size", True),
            (gen_labeled_pool, "labeled", "labeled_pool_size", True))


# choice ranges from one value to the widest a low word half serves;
# 2**31 + 1 is where a rejection step would throw away about half the words
_CHOICE_RANGES = (1, 2, 3, 40, 400, 2**31 + 1, 2**32)


class TestChoose:
    @pytest.mark.parametrize("n", _CHOICE_RANGES)
    def test_each_value_starts_at_its_word(self, n):
        # value k is the choice of every half x from ceil(k * 2**32 / n) on,
        # up to where value k + 1 starts: so each value has floor or ceil of
        # 2**32 / n of the halves, a share off 1 / n by at most n / 2**32 of it
        ks = {0, 1 % n, n // 2, n - 1, *np.random.default_rng(n).integers(0, n, 40).tolist()}
        for k in sorted(ks):
            start, end = -(-k * 2**32 // n), -(-(k + 1) * 2**32 // n)
            halves = np.array([start, end - 1], dtype=np.uint64)
            got = synthetic._choose(halves, n)
            assert got.dtype == np.int64 and got.tolist() == [k, k], (k, start, end)
            if k:
                assert synthetic._choose(halves[:1] - np.uint64(1), n).tolist() == [k - 1]
            assert abs((end - start) * n / 2**32 - 1) <= n / 2**32
        assert synthetic._choose(np.array([2**32 - 1], dtype=np.uint64), n).tolist() == [n - 1]


class TestStrides:
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
    def test_corpora_match_a_per_document_reference(self, spec, seed):
        names = spec.class_names()
        for gen_corpus, stream, size, domain in _CORPORA:
            want = per_document_reference(spec, seed, stream, getattr(spec, size), domain)
            got = gen_corpus(spec, Rng(seed))
            assert [d.text for d in got] == [text for _, text in want], stream
            if gen_corpus is gen_labeled_pool:
                assert [d.label for d in got] == [names[c] for c, _ in want]

    @given(synthetic_specs(), st.integers(0, 1000), st.data())
    @settings(max_examples=25, deadline=None)
    def test_a_smaller_corpus_is_a_prefix_of_a_larger_one(self, spec, seed, data):
        for gen_corpus, _, size, _ in _CORPORA:
            full = gen_corpus(spec, Rng(seed))
            m = data.draw(st.integers(1, len(full)), label=size)
            assert gen_corpus(replace(spec, **{size: m}), Rng(seed)) == full[:m], size

    @pytest.mark.parametrize("seed", [0, 1, 23, 2**64 - 1])
    def test_reading_from_stride_k_on_starts_at_document_k(self, seed):
        spec = SyntheticSpec()
        for domain, stride in ((False, 1 + spec.doc_len_max), (True, 2 + 2 * spec.doc_len_max)):
            full = synthetic._draw_corpus(spec, synthetic._stream_bits(Rng(seed), "domain"),
                                          120, domain)
            for k in (1, 37, 100):
                bits = synthetic._stream_bits(Rng(seed), "domain")
                bits.random_raw(k * stride)
                labels, texts = synthetic._draw_corpus(spec, bits, 120 - k, domain)
                assert (labels, texts) == (full[0][k:], full[1][k:]), (domain, k)

    @pytest.mark.parametrize("block_words", [1, 81, 82, 83, 250])
    def test_corpora_do_not_depend_on_the_block_size(self, monkeypatch, block_words):
        # the default strides are 41 words (general) and 82 (domain), so these
        # give blocks of one document, of one or two, and of several
        spec = SyntheticSpec(general_size=50, domain_size=50, labeled_pool_size=50)
        want = [gen_corpus(spec, Rng(3)) for gen_corpus, *_ in _CORPORA]
        monkeypatch.setattr(synthetic, "_BLOCK_WORDS", block_words)
        assert [gen_corpus(spec, Rng(3)) for gen_corpus, *_ in _CORPORA] == want

    @pytest.mark.parametrize("gen_corpus", [c[0] for c in _CORPORA])
    def test_a_one_value_length_reads_its_word(self, gen_corpus):
        # a token's words sit at the same place whatever the document's
        # length, and a length of one value still reads its word; so with
        # equal bounds every document keeps its label and holds the tokens of
        # the same document under wider bounds, and more
        fixed = SyntheticSpec(doc_len_min=40, doc_len_max=40, general_size=200,
                              domain_size=200, labeled_pool_size=200)
        ranged = gen_corpus(replace(fixed, doc_len_min=1), Rng(4))
        fixed = gen_corpus(fixed, Rng(4))
        assert [d.label for d in fixed] == [d.label for d in ranged]
        for f, r in zip(fixed, ranged, strict=True):
            toks = f.text.split()
            assert len(toks) == 40 and toks[:len(r.text.split())] == r.text.split()

    @pytest.mark.parametrize("injection_rate,marker_rate", [
        (0.0, 0.3), (0.25, 0.3), (0.1, 0.2), (1 / 3, 1 / 3), (2.0 ** -60, 0.5),
        (0.5, 0.5 - 2.0 ** -53)])
    def test_branch_words_split_the_words_as_random_does(self, injection_rate,
                                                         marker_rate):
        # a corpus picks a branch by comparing words, random() by comparing
        # (w >> 11) * 2**-53; the two agree on every word around each bound
        spec = SyntheticSpec(injection_rate=injection_rate, marker_rate=marker_rate)
        for bound, rate in zip(synthetic._Choices(spec).branch_words,
                               (injection_rate, injection_rate + marker_rate)):
            bound = int(bound)
            for w in (bound - 2049, bound - 2048, bound - 1, bound, bound + 1,
                      bound + 2047, bound + 2048):
                if 0 <= w < 1 << 64:
                    assert (w >= bound) == ((w >> 11) * 2.0 ** -53 >= rate), (rate, w)
