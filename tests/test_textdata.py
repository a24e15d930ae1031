"""Vocabulary, tokenization, truncation, JSONL loading, and MLM masking."""

import json
import re
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pforge import DataError
from pforge.model import ModelConfig, roberta_base_shape
from pforge.numerics import IGNORE_INDEX, Rng
from pforge.textdata import (
    CLS_ID,
    MASK_ID,
    PAD_ID,
    SPECIALS,
    UNK_ID,
    _TOKEN_RE,
    _WORD_OR_SPACE,
    Document,
    EncodedExample,
    MaskedBatch,
    Vocab,
    apply_mlm_mask,
    build_vocab,
    collate,
    detokenize,
    encode_document,
    load_jsonl,
    save_jsonl,
    tokenize,
    truncate,
    word_split,
)

CFG = ModelConfig(num_layers=2, d_model=8, num_heads=2, ffn_dim=16,
                  vocab_size=40, max_positions=128, prefix_length=8)

WORDS = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot", ",", "."]
VOCAB = Vocab(SPECIALS + tuple(WORDS))


class TestVocab:
    def test_specials_at_fixed_ids(self):
        assert VOCAB.id("[PAD]") == 0 == PAD_ID
        assert VOCAB.id("[UNK]") == 1 == UNK_ID
        assert VOCAB.id("[CLS]") == 2 == CLS_ID
        assert VOCAB.id("[MASK]") == 3 == MASK_ID

    def test_bijection(self):
        for i in range(len(VOCAB)):
            assert VOCAB.id(VOCAB.token(i)) == i

    def test_unknown_token_maps_to_unk(self):
        assert VOCAB.id("zulu") == UNK_ID

    def test_specials_must_lead(self):
        with pytest.raises(ValueError, match="specials"):
            Vocab(("a", "b") + SPECIALS)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="^vocab:6: token 'a' repeats line 5$"):
            Vocab(SPECIALS + ("a", "a"))

    def test_empty_token_rejected(self):
        with pytest.raises(ValueError, match="^vocab:6: blank token$"):
            Vocab(SPECIALS + ("a", ""))

    # every line boundary str.splitlines knows, which save/load could not
    # round-trip, and a token that is not text at all
    @pytest.mark.parametrize("token", [
        *(f"c{brk}d" for brk in ("\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                                 "\x85", "\u2028", "\u2029")),
        3])
    def test_token_not_one_line_of_text_rejected(self, token):
        with pytest.raises(ValueError, match=re.escape(f"vocab:6: token {token!r} is not "
                                                       "one line of text")):
            Vocab(SPECIALS + ("a b", token))

    def test_save_load_round_trip(self, tmp_path):
        path = tmp_path / "vocab.txt"
        VOCAB.save(path)
        assert Vocab.load(path) == VOCAB
        # file format: one token per line, line number = id
        lines = path.read_text().splitlines()
        assert lines[:4] == list(SPECIALS)
        assert lines[4] == "alpha"

    @pytest.mark.parametrize("lines, message", [
        (["a", "b", *SPECIALS], "must start with specials"),
        ([*SPECIALS, "a", "", "b"], ":6: blank token"),
        ([*SPECIALS, "a", "b", "a"], ":7: token 'a' repeats line 5"),
    ], ids=["specials-not-first", "empty-token", "repeated-token"])
    def test_load_errors_name_the_file(self, tmp_path, lines, message):
        path = tmp_path / "vocab.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(str(path)) + ".*" + re.escape(message)):
            Vocab.load(path)

    @pytest.mark.parametrize("content, message", [
        (None, "No such file"),
        ("\n".join(SPECIALS).encode() + b"\ncaf\xe9\n", "can't decode byte 0xe9"),
    ], ids=["missing", "not-utf8"])
    def test_unreadable_file_is_named(self, tmp_path, content, message):
        path = tmp_path / "vocab.txt"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(ValueError, match=re.escape(f"{path}: ") + ".*" + message):
            Vocab.load(path)


class TestBuildVocab:
    def test_frequency_order(self):
        v = build_vocab(["a a b"], max_size=5)
        assert len(v) == 5
        assert v.token(4) == "a"
        assert v.id("b") == UNK_ID

    def test_tie_breaks_lexicographic(self):
        v = build_vocab(["b a", "a b"], max_size=10)
        assert v.token(4) == "a"
        assert v.token(5) == "b"

    def test_deterministic(self):
        corpus = ["the cat sat", "the dog ran", "cat and dog"]
        assert build_vocab(corpus) == build_vocab(corpus)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty corpus"):
            build_vocab([])

    def test_max_size_must_cover_specials(self):
        with pytest.raises(ValueError, match="specials"):
            build_vocab(["a"], max_size=4)


class TestTokenize:
    def test_empty_text_gives_cls_only(self):
        assert tokenize("", VOCAB) == [CLS_ID]

    def test_punctuation_splits(self):
        ids = tokenize("Alpha, bravo", VOCAB)
        assert ids == [CLS_ID, VOCAB.id("alpha"), VOCAB.id(","), VOCAB.id("bravo")]

    def test_unknown_word_becomes_unk(self):
        assert tokenize("zulu", VOCAB) == [CLS_ID, UNK_ID]

    def test_lowercases(self):
        assert tokenize("ALPHA", VOCAB) == tokenize("alpha", VOCAB)

    def test_word_split_keeps_punctuation_separate(self):
        assert word_split("don't stop.") == ["don", "'", "t", "stop", "."]

    @given(st.lists(st.sampled_from(range(len(SPECIALS), len(SPECIALS) + len(WORDS))),
                    min_size=0, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_tokenize_detokenize_round_trip(self, ids):
        text = detokenize(ids, VOCAB)
        assert tokenize(text, VOCAB) == [CLS_ID] + ids

    @given(st.lists(st.sampled_from(WORDS + ["zulu", "Alpha", " ", "\t", "\n", "é", "!"]))
           .map("".join))
    @settings(max_examples=200, deadline=None)
    def test_ids_are_the_per_token_ids(self, text):
        # unknown tokens included: "zulu", "é" and "!" are not in VOCAB
        assert tokenize(text, VOCAB) == [CLS_ID] + [VOCAB.id(t) for t in word_split(text)]


# every ASCII character, plus non-ASCII ones that lower to ASCII ("K", KELVIN
# SIGN), lower to more than one character ("İ"), are \w or \s outside ASCII,
# or cannot be encoded (a lone surrogate, which a JSON "\ud800" escape yields)
SPLIT_ALPHABET = [chr(c) for c in range(128)] + ["\u212a", "\u0130", "\xe9", "\x85", "\xa0",
                                                "\u3000", "\ud800"]


class TestWordSplit:
    """``word_split``'s ``str.split`` path gives what the regex gives."""

    @pytest.mark.parametrize("c", [chr(c) for c in range(128)])
    def test_each_ascii_character_splits_as_the_regex_does(self, c):
        for text in (c, "a" + c + "b", "A" + c + c + "B"):
            assert word_split(text) == _TOKEN_RE.findall(text.lower())

    def test_word_or_space_is_what_the_regex_reads_as_word_or_space(self):
        # an ASCII character is punctuation when the regex keeps it as a token
        # of its own between two words
        punctuation = {c for c in range(128)
                       if _TOKEN_RE.findall("a" + chr(c) + "a") == ["a", chr(c), "a"]}
        assert sorted(_WORD_OR_SPACE) == sorted(set(range(128)) - punctuation)
        assert _WORD_OR_SPACE.decode() == "".join(sorted(
            string.ascii_letters + string.digits + "_" + string.whitespace + "\x1c\x1d\x1e\x1f"))

    @given(st.text(st.sampled_from(SPLIT_ALPHABET)))
    @settings(max_examples=300, deadline=None)
    def test_any_text_splits_as_the_regex_does(self, text):
        assert word_split(text) == _TOKEN_RE.findall(text.lower())


class TestTruncate:
    def test_short_input_unchanged(self):
        ids = [CLS_ID, 5, 6]
        assert truncate(ids, CFG) == ids

    def test_budget_is_max_minus_prefix_minus_reserve(self):
        # T_max=128, n=8 -> budget 116
        assert CFG.token_budget == 116
        long = [CLS_ID] + list(range(4, 504))
        out = truncate(long, CFG)
        assert out == long[:116]

    def test_paper_shape_keeps_500(self):
        cfg = roberta_base_shape()
        long = [CLS_ID] + list(range(4, 604))
        assert len(truncate(long, cfg)) == 500


class TestEncodedExample:
    def test_must_start_with_cls(self):
        with pytest.raises(ValueError, match="CLS"):
            EncodedExample(ids=[5, 6])

    def test_mask_pad_agreement_enforced(self):
        with pytest.raises(ValueError, match=r"\[PAD\] at position 2"):
            EncodedExample(ids=[CLS_ID, 5, PAD_ID])
        with pytest.raises(ValueError, match=r"\[PAD\] at position 1"):
            EncodedExample(ids=[CLS_ID, PAD_ID, 5])

    # collate would truncate these when it writes the int64 row
    @pytest.mark.parametrize("ids, bad", [([CLS_ID, 5.5, 7], "ids[1] must be an int, got 5.5"),
                                          ([CLS_ID, 7, True], "ids[2] must be an int, got True"),
                                          ([CLS_ID, np.float64(7.0)], "ids[1] must be an int")])
    def test_non_integer_id_rejected_naming_its_position(self, ids, bad):
        with pytest.raises(ValueError, match=re.escape(bad)):
            EncodedExample(ids=ids)

    def test_numpy_integer_ids_accepted(self):
        ids, _, _ = collate([EncodedExample(ids=[np.int64(CLS_ID), np.int32(5), 6])])
        np.testing.assert_array_equal(ids, [[CLS_ID, 5, 6]])

    def test_encode_document_truncates(self):
        doc = Document(text=" ".join(["alpha"] * 300))
        enc = encode_document(doc, VOCAB, CFG)
        assert len(enc.ids) == CFG.token_budget
        assert enc.ids[0] == CLS_ID


class TestCollate:
    def test_pads_to_longest(self):
        a = EncodedExample(ids=[CLS_ID, 5, 6], label_id=1)
        b = EncodedExample(ids=[CLS_ID, 7])
        ids, mask, labels = collate([a, b])
        assert ids.shape == (2, 3)
        assert ids[1, 2] == PAD_ID and mask[1, 2] == 0
        assert labels[0] == 1 and labels[1] == IGNORE_INDEX

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            collate([])


class TestDocument:
    def test_blank_text_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            Document(text="   ")

    @pytest.mark.parametrize("fields, match", [
        ({"text": 5}, "text must be a non-empty str, got 5"),
        ({"text": "x", "label": 3}, "label must be a non-empty str, got 3"),
        ({"text": "x", "id": 7}, "id must be a non-empty str, got 7"),
    ])
    def test_mistyped_field_named(self, fields, match):
        with pytest.raises(ValueError, match=match):
            Document(**fields)


def make_batch(n_rows: int, n_cols: int, vocab_size: int = 100):
    gen = np.random.default_rng(0)
    ids = gen.integers(len(SPECIALS), vocab_size, size=(n_rows, n_cols))
    ids[:, 0] = CLS_ID
    mask = np.ones_like(ids)
    return ids, mask


class TestApplyMlmMask:
    def test_p_out_of_range_rejected(self):
        ids, mask = make_batch(2, 8)
        for p in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError, match="p_select"):
                apply_mlm_mask(ids, mask, p, Rng(0), 100)

    def test_tiny_p_skips_after_one_resample(self):
        ids, mask = make_batch(2, 4)
        assert apply_mlm_mask(ids, mask, 1e-9, Rng(0), 100) is None

    def test_reproducible_given_rng(self):
        ids, mask = make_batch(4, 20)
        a = apply_mlm_mask(ids, mask, 0.15, Rng(7), 100)
        b = apply_mlm_mask(ids, mask, 0.15, Rng(7), 100)
        assert np.array_equal(a.input_ids, b.input_ids)
        assert np.array_equal(a.targets, b.targets)
        assert np.array_equal(a.positions[0], b.positions[0])

    def test_cls_and_pad_never_selected(self):
        gen = np.random.default_rng(1)
        ids = gen.integers(len(SPECIALS), 100, size=(8, 12))
        ids[:, 0] = CLS_ID
        ids[:, -3:] = PAD_ID
        mask = (ids != PAD_ID).astype(np.int64)
        for seed in range(20):
            out = apply_mlm_mask(ids, mask, 0.9, Rng(seed), 100)
            rows, cols = out.positions
            assert np.all(ids[rows, cols] >= len(SPECIALS))

    def test_no_special_in_targets_or_replacements(self):
        ids, mask = make_batch(16, 40)
        for seed in range(10):
            out = apply_mlm_mask(ids, mask, 0.3, Rng(seed), 100)
            kept = out.targets[out.targets != IGNORE_INDEX]
            assert np.all(kept >= len(SPECIALS))
            changed = out.input_ids != ids
            replaced = changed & (out.input_ids != MASK_ID)
            assert np.all(out.input_ids[replaced] >= len(SPECIALS))

    def test_selection_and_corruption_rates(self):
        # 100,000 maskable tokens at p=0.15: selection fraction has std
        # sqrt(.15*.85/1e5) ~ 0.0011, so [0.145, 0.155] is a ~4.4 sigma band;
        # the 80/10/10 split over ~15,000 selections has std <= 0.0033, so
        # +/-0.02 is >6 sigma.
        gen = np.random.default_rng(2)
        ids = gen.integers(len(SPECIALS), 5000, size=(200, 501))
        ids[:, 0] = CLS_ID
        mask = np.ones_like(ids)
        out = apply_mlm_mask(ids, mask, 0.15, Rng(42), 5000)
        n_maskable = 200 * 500
        n_sel = out.positions[0].size
        assert 0.145 <= n_sel / n_maskable <= 0.155

        rows, cols = out.positions
        sel_in = out.input_ids[rows, cols]
        sel_orig = ids[rows, cols]
        frac_masked = np.mean(sel_in == MASK_ID)
        frac_kept = np.mean(sel_in == sel_orig)
        frac_random = np.mean((sel_in != MASK_ID) & (sel_in != sel_orig))
        assert abs(frac_masked - 0.8) <= 0.02
        # random draws can collide with the original token (~1/V of 10%)
        assert abs(frac_random - 0.1) <= 0.02
        assert abs(frac_kept - 0.1) <= 0.02

    def test_positions_derived_from_targets_in_row_major_order(self):
        targets = np.array([[IGNORE_INDEX, 7, 5], [9, IGNORE_INDEX, 6]])
        mb = MaskedBatch(input_ids=np.full((2, 3), MASK_ID), targets=targets)
        rows, cols = mb.positions
        assert rows.tolist() == [0, 0, 1, 1] and cols.tolist() == [1, 2, 0, 2]
        assert mb.targets[mb.positions].tolist() == [7, 5, 9, 6]

    def test_mask_shape_must_match_ids(self):
        ids, mask = make_batch(2, 8)
        with pytest.raises(ValueError, match=re.escape("attn_mask shape (8,) differs from "
                                                       "ids shape (2, 8)")):
            apply_mlm_mask(ids, mask[0], 0.15, Rng(0), 100)

    def test_vocab_without_plain_tokens_rejected(self):
        ids, mask = make_batch(2, 8)
        with pytest.raises(ValueError, match="non-special"):
            apply_mlm_mask(ids, mask, 0.15, Rng(0), len(SPECIALS))


class TestLoadJsonl:
    def write(self, tmp_path, lines):
        path = tmp_path / "data.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_basic_document(self, tmp_path):
        path = self.write(tmp_path, [json.dumps({"text": "x", "label": "a"})])
        docs = load_jsonl(path)
        assert docs == [Document(text="x", label="a")]

    def test_blank_lines_skipped(self, tmp_path):
        path = self.write(tmp_path, [json.dumps({"text": "x"}), "", "  "])
        assert len(load_jsonl(path)) == 1

    def test_missing_text_counts_malformed(self, tmp_path):
        path = self.write(tmp_path, [json.dumps({"label": "a"})] +
                          [json.dumps({"text": "x"})] * 10)
        with pytest.raises(DataError, match="malformed"):
            load_jsonl(path)

    def test_first_malformed_line_named(self, tmp_path):
        good = [json.dumps({"text": f"doc {i}"}) for i in range(98)]
        path = self.write(tmp_path, good + ["{broken", "also broken"])
        with pytest.raises(DataError, match=re.escape(f"{path}:99: malformed line (")):
            load_jsonl(path)

    def test_torn_last_line_refused(self, tmp_path):
        path = tmp_path / "data.jsonl"
        save_jsonl(path, [Document(text=f"doc {i}") for i in range(200)])
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(DataError, match=re.escape(f"{path}:200: malformed line")):
            load_jsonl(path)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_jsonl(tmp_path / "nope.jsonl")

    def test_non_utf8_file_names_path(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_bytes(b'{"text": "caf\xe9"}\n')
        with pytest.raises(DataError, match=re.escape(f"cannot read {path}: ") + ".*utf-8"):
            load_jsonl(path)

    def test_non_object_line_malformed(self, tmp_path):
        path = self.write(tmp_path, ["[1, 2]"] + [json.dumps({"text": "x"})] * 10)
        with pytest.raises(DataError):
            load_jsonl(path)

    @pytest.mark.parametrize("bad", [{"text": 5}, {"text": "x", "label": 3},
                                     {"text": "x", "id": 7}, {"text": "x", "label": ""},
                                     {"text": "x", "id": ""}])
    def test_mistyped_field_counts_malformed(self, tmp_path, bad):
        good = [json.dumps({"text": f"doc {i}"}) for i in range(99)]
        path = self.write(tmp_path, good + [json.dumps(bad)])
        with pytest.raises(DataError, match=re.escape(f"{path}:100: malformed line (")):
            load_jsonl(path)
        path = self.write(tmp_path, good[:10] + [json.dumps(bad)])
        with pytest.raises(DataError, match=re.escape(f"{path}:11: malformed line (")):
            load_jsonl(path)

    def test_empty_text_malformed(self, tmp_path):
        path = self.write(tmp_path, [json.dumps({"text": "  "})] +
                          [json.dumps({"text": "x"})] * 10)
        with pytest.raises(DataError):
            load_jsonl(path)

    def test_save_load_round_trip(self, tmp_path):
        docs = [Document(text="one two", label="a", id="p1"),
                Document(text="three", id="p2")]
        path = tmp_path / "out.jsonl"
        save_jsonl(path, docs)
        assert load_jsonl(path) == docs

    @pytest.mark.parametrize("sep", ["\u2028", "\u2029", "\x85", "\r"])
    def test_text_with_a_line_separator_round_trips(self, tmp_path, sep):
        # json.dumps escapes \r but leaves the others raw, and str.splitlines
        # would break the line at each of them
        docs = [Document(text=f"one{sep}two", id="p1"), Document(text="three")]
        path = tmp_path / "out.jsonl"
        save_jsonl(path, docs)
        assert load_jsonl(path) == docs
