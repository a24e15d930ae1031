"""PFORGE1 checkpoint format round-trips and corruption handling."""

import json
import re
import struct
from dataclasses import asdict, replace

import numpy as np
import pytest

from pforge.checkpoint import (
    MAGIC,
    load_encoder,
    load_head,
    load_prefix,
    load_tensors,
    save_encoder,
    save_head,
    save_prefix,
    save_tensors,
)
from pforge.model import (
    ClassificationHead,
    EncoderWeights,
    ModelConfig,
    PrefixSet,
    desk_config,
)
from pforge.numerics import Rng, Tensor

CFG = ModelConfig(num_layers=2, d_model=8, num_heads=2, ffn_dim=16,
                  vocab_size=40, max_positions=32, prefix_length=4)


def _meta(kind: str) -> dict:
    return {"kind": kind, "config": asdict(CFG), "fingerprint": CFG.fingerprint()}


class TestRawFormat:
    def test_round_trip_arbitrary_tensors(self, tmp_path):
        path = tmp_path / "t.ckpt"
        gen = np.random.default_rng(0)
        tensors = {
            "a": gen.normal(size=(3, 4)).astype(np.float32),
            "b.c": gen.normal(size=(5,)).astype(np.float32),
            "scalarish": np.float32(2.5).reshape(()),
        }
        save_tensors(path, tensors, {"kind": "raw", "note": "x"})
        loaded, meta = load_tensors(path)
        assert meta == {"kind": "raw", "note": "x"}
        assert set(loaded) == set(tensors)
        for name in tensors:
            assert np.array_equal(loaded[name], tensors[name])

    def test_header_line_is_literal_magic(self, tmp_path):
        path = tmp_path / "t.ckpt"
        save_tensors(path, {"a": np.zeros(2, dtype=np.float32)}, {})
        assert path.read_bytes().startswith(b"PFORGE1\n")

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTAFMT\n{}\n")
        with pytest.raises(ValueError, match="not a PFORGE1"):
            load_tensors(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "t.ckpt"
        save_tensors(path, {"a": np.ones((10, 10), dtype=np.float32)}, {})
        whole = path.read_bytes()
        path.write_bytes(whole[:-17])
        with pytest.raises(ValueError, match="truncated"):
            load_tensors(path)

    def test_duplicate_name_rejected(self, tmp_path):
        path = tmp_path / "t.ckpt"
        block = struct.pack("<I", 1) + b"a" + struct.pack("<II", 1, 2) \
            + np.zeros(2, dtype="<f4").tobytes()
        path.write_bytes(MAGIC + b"{}\n" + block + block)
        with pytest.raises(ValueError, match="duplicate"):
            load_tensors(path)

    def test_float64_input_stored_as_float32(self, tmp_path):
        path = tmp_path / "t.ckpt"
        save_tensors(path, {"a": np.array([1.0, 1 / 3], dtype=np.float64)}, {})
        loaded, _ = load_tensors(path)
        assert loaded["a"].dtype == np.float32
        np.testing.assert_allclose(loaded["a"], [1.0, 1 / 3], atol=1e-7)

    def test_tensor_objects_accepted(self, tmp_path):
        path = tmp_path / "t.ckpt"
        save_tensors(path, {"a": Tensor(np.ones(3), dtype="float32")}, {})
        loaded, _ = load_tensors(path)
        assert np.array_equal(loaded["a"], np.ones(3, dtype=np.float32))


class TestEncoderCheckpoints:
    def test_round_trip_bit_identical(self, tmp_path):
        path = tmp_path / "enc.ckpt"
        weights = EncoderWeights(CFG, Rng(5))
        save_encoder(path, weights, extra={"step": 12})
        loaded, meta = load_encoder(path)
        assert meta["step"] == 12
        assert meta["fingerprint"] == CFG.fingerprint()
        src, dst = weights.named_tensors(), loaded.named_tensors()
        assert set(src) == set(dst)
        for name in src:
            assert np.array_equal(src[name].data, dst[name].data), name

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        path = tmp_path / "enc.ckpt"
        save_encoder(path, EncoderWeights(CFG, Rng(5)))
        with pytest.raises(ValueError, match="fingerprint"):
            load_encoder(path, expect=desk_config())

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "p.ckpt"
        save_prefix(path, PrefixSet.init_random(CFG, Rng(1)), CFG)
        with pytest.raises(ValueError, match="kind"):
            load_encoder(path)

    def test_missing_tensor_rejected(self, tmp_path):
        path = tmp_path / "enc.ckpt"
        weights = EncoderWeights(CFG, Rng(5))
        tensors = dict(weights.named_tensors())
        tensors.pop("final_ln_g")
        save_tensors(path, tensors, _meta("encoder"))
        with pytest.raises(ValueError, match="mismatch"):
            load_encoder(path)

    def test_reserved_metadata_key_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="reserved"):
            save_encoder(tmp_path / "x.ckpt", EncoderWeights(CFG, Rng(0)),
                         extra={"fingerprint": "boom"})


class TestPrefixCheckpoints:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "p.ckpt"
        prefix = PrefixSet.init_random(CFG, Rng(9))
        save_prefix(path, prefix, CFG, extra={"source": "adapt"})
        loaded, meta = load_prefix(path, expect=CFG)
        assert meta["source"] == "adapt"
        for a, b in zip(prefix.named_tensors().values(),
                        loaded.named_tensors().values()):
            assert np.array_equal(a.data, b.data)
        assert all(t.requires_grad for t in loaded.named_tensors().values())

    def test_contains_only_prefix_tensors(self, tmp_path):
        path = tmp_path / "p.ckpt"
        save_prefix(path, PrefixSet.init_random(CFG, Rng(9)), CFG)
        tensors, meta = load_tensors(path)
        assert set(tensors) == {f"prefix.{i}.{p}" for i in range(CFG.num_layers)
                                for p in "kv"}
        assert meta["fingerprint"] == CFG.fingerprint()

    def test_incompatible_prefix_save_rejected(self, tmp_path):
        other = ModelConfig(num_layers=3, d_model=8, num_heads=2, ffn_dim=16,
                            vocab_size=40, max_positions=32, prefix_length=4)
        prefix = PrefixSet.init_random(other, Rng(0))
        with pytest.raises(ValueError, match="layers"):
            save_prefix(tmp_path / "p.ckpt", prefix, CFG)


class TestHeadCheckpoints:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "h.ckpt"
        head = ClassificationHead.init_random(CFG.d_model, 5, Rng(2))
        save_head(path, head, CFG)
        loaded, _ = load_head(path, expect=CFG)
        assert loaded.num_classes == 5
        assert np.array_equal(head.w.data, loaded.w.data)
        assert np.array_equal(head.b.data, loaded.b.data)


def _prefix_arrays(rows: int = CFG.prefix_length) -> dict:
    gen = np.random.default_rng(0)
    return {f"prefix.{i}.{p}": gen.normal(size=(rows, CFG.d_model))
            for i in range(CFG.num_layers) for p in "kv"}


def _head_arrays() -> dict:
    return {"head.w": np.zeros((CFG.d_model, 3)), "head.b": np.zeros(3)}


def _nan_prefix() -> dict:
    arrays = _prefix_arrays()
    arrays["prefix.1.v"][2, 3] = np.nan
    return arrays


class TestStrictness:
    @pytest.mark.parametrize("kind, tensors, metadata", [
        ("prefix", {**_prefix_arrays(), "junk": np.zeros(2)}, _meta("prefix")),
        ("head", {**_head_arrays(), "junk": np.zeros(2)}, _meta("head")),
        ("head", {"head.w": np.zeros((CFG.d_model, 3))}, _meta("head")),
        ("prefix", _prefix_arrays(rows=7), _meta("prefix")),
        ("prefix", _nan_prefix(), _meta("prefix")),
        ("prefix", _prefix_arrays(), {"kind": "prefix"}),
        ("prefix", _prefix_arrays(), {**_meta("prefix"), "config": {"num_layers": 2}}),
        ("prefix", _prefix_arrays(), {**_meta("prefix"), "config": [2, 8, 2]}),
        ("prefix", _prefix_arrays(),
         {**_meta("prefix"), "config": {**asdict(CFG), "num_layers": "2"}}),
        ("head", _head_arrays(), ["head", asdict(CFG)]),
    ], ids=["surplus-prefix-tensor", "surplus-head-tensor", "missing-head-bias",
            "prefix-rows-not-prefix-length", "non-finite-prefix", "no-config",
            "partial-config", "non-mapping-config", "mistyped-config-field",
            "metadata-is-a-list"])
    def test_bad_file_rejected_naming_path(self, tmp_path, kind, tensors, metadata):
        path = tmp_path / "bad.ckpt"
        save_tensors(path, tensors, metadata)
        load = {"prefix": load_prefix, "head": load_head}[kind]
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load(path)

    @pytest.mark.parametrize("save", [
        lambda path: save_prefix(
            path, PrefixSet.init_random(replace(CFG, prefix_length=7), Rng(0)), CFG),
        lambda path: save_head(path, ClassificationHead.init_random(5, 3, Rng(0)), CFG),
    ], ids=["prefix-rows-not-prefix-length", "head-width-not-d-model"])
    def test_group_not_implied_by_config_never_written(self, tmp_path, save):
        path = tmp_path / "bad.ckpt"
        with pytest.raises(ValueError, match=re.escape(str(path))):
            save(path)
        assert not path.exists()


def _u32(*values: int) -> bytes:
    return struct.pack(f"<{len(values)}I", *values)


def _corrupt_body(meta: bytes) -> dict:
    """Each damaged tensor section load_tensors must refuse, after a valid header."""
    block = _u32(1) + b"a" + _u32(1, 2) + np.zeros(2, dtype="<f4").tobytes()
    return {
        "metadata-line": meta.rstrip(b"\n"),
        "tensor-header": meta + b"\x01\x00",
        "tensor-body": meta + block[:-3],
        "body-past-end": meta + _u32(1) + b"a" + _u32(2, 2**31, 2**31),
        "duplicate-name": meta + block + block,
        "name-length": meta + _u32(0),
        "name-not-utf8": meta + _u32(1) + b"\xff",
        "rank": meta + _u32(1) + b"a" + _u32(9),
    }


class TestCorruptFileNamesPath:
    @pytest.mark.parametrize("case, message", [
        ("metadata-line", "truncated"), ("tensor-header", "truncated"),
        ("tensor-body", "truncated"), ("body-past-end", "truncated"),
        ("duplicate-name", "duplicate tensor name"), ("name-length", "name length"),
        ("name-not-utf8", "tensor name"), ("rank", "rank"),
    ])
    @pytest.mark.parametrize("kind, load", [("encoder", load_encoder),
                                            ("prefix", load_prefix)])
    def test_error_names_path(self, tmp_path, case, message, kind, load):
        meta = MAGIC + json.dumps(_meta(kind)).encode() + b"\n"
        path = tmp_path / f"{kind}.ckpt"
        path.write_bytes(_corrupt_body(meta)[case])
        with pytest.raises(ValueError, match=re.escape(str(path)) + ".*" + message):
            load(path)


def test_mistyped_config_field_named_with_path(tmp_path):
    path = tmp_path / "bad.ckpt"
    save_tensors(path, _prefix_arrays(),
                 {**_meta("prefix"), "config": {**asdict(CFG), "num_layers": "2"}})
    with pytest.raises(ValueError, match=re.escape(str(path)) + ".*num_layers"):
        load_prefix(path)
