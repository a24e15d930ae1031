"""Checkpoint archives: round-trips, strictness and corruption handling."""

import io
import json
import re
import time
import warnings
import zipfile
from dataclasses import asdict, replace
from functools import partial

import numpy as np
import pytest
from numpy.lib import format as npy

from pforge.checkpoint import (
    load_group,
    load_prefix,
    load_tensors,
    save_group,
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
            "empty": np.zeros((0, 3), dtype=np.float32),
            "layer/ünïcode.k": gen.normal(size=(2, 2)).astype(np.float32),
        }
        save_tensors(path, tensors, {"kind": "raw", "note": "x"})
        loaded, meta = load_tensors(path)
        assert meta == {"kind": "raw", "note": "x"}
        assert set(loaded) == set(tensors)
        for name in tensors:
            assert loaded[name].shape == tensors[name].shape
            assert np.array_equal(loaded[name], tensors[name])

    def test_empty_tensor_name_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty tensor name"):
            save_tensors(tmp_path / "t.ckpt", {"": np.zeros(2)}, {})
        assert list(tmp_path.iterdir()) == []

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"PFORGE1\n{}\n")
        with pytest.raises(ValueError, match=re.escape(str(path)) + ".*not a zip file"):
            load_tensors(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "t.ckpt"
        save_tensors(path, {"a": np.ones((10, 10), dtype=np.float32)}, {})
        whole = path.read_bytes()
        path.write_bytes(whole[:-17])
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_tensors(path)

    def test_duplicate_name_rejected(self, tmp_path):
        path = tmp_path / "t.ckpt"
        _zip(path, [("meta.json", b"{}"), _TENSOR, _TENSOR])
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
        save_group(path, weights, CFG, extra={"step": 12})
        loaded, meta = load_group(EncoderWeights, path)
        assert meta["step"] == 12
        assert meta["fingerprint"] == CFG.fingerprint()
        src, dst = weights.named_tensors(), loaded.named_tensors()
        assert set(src) == set(dst)
        for name in src:
            assert np.array_equal(src[name].data, dst[name].data), name

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        path = tmp_path / "enc.ckpt"
        save_group(path, EncoderWeights(CFG, Rng(5)), CFG)
        with pytest.raises(ValueError, match="fingerprint"):
            load_group(EncoderWeights, path, expect=desk_config())

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "p.ckpt"
        save_prefix(path, PrefixSet.init_random(CFG, Rng(1)), CFG)
        with pytest.raises(ValueError, match="kind"):
            load_group(EncoderWeights, path)

    def test_missing_tensor_rejected(self, tmp_path):
        path = tmp_path / "enc.ckpt"
        weights = EncoderWeights(CFG, Rng(5))
        tensors = dict(weights.named_tensors())
        tensors.pop("final_ln_g")
        save_tensors(path, tensors, _meta("encoder"))
        with pytest.raises(ValueError, match="mismatch"):
            load_group(EncoderWeights, path)

    def test_reserved_metadata_key_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="reserved"):
            save_group(tmp_path / "x.ckpt", EncoderWeights(CFG, Rng(0)), CFG,
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
        save_group(path, head, CFG)
        loaded, _ = load_group(ClassificationHead, path, expect=CFG)
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
        cls = {"prefix": PrefixSet, "head": ClassificationHead}[kind]
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_group(cls, path)

    @pytest.mark.parametrize("save", [
        lambda path: save_group(
            path, PrefixSet.init_random(replace(CFG, prefix_length=7), Rng(0)), CFG),
        lambda path: save_group(path, ClassificationHead.init_random(5, 3, Rng(0)), CFG),
    ], ids=["prefix-rows-not-prefix-length", "head-width-not-d-model"])
    def test_group_not_implied_by_config_never_written(self, tmp_path, save):
        path = tmp_path / "bad.ckpt"
        with pytest.raises(ValueError, match=re.escape(str(path))):
            save(path)
        assert not path.exists()


def _zip(path, members, compression=zipfile.ZIP_STORED) -> None:
    """Write ``members``, (name, bytes) pairs that may repeat a name, as a zip."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # zipfile warns on a repeated name
        with zipfile.ZipFile(path, "w", compression) as zf:
            for name, data in members:
                zf.writestr(name, data)


def _npy(arr: np.ndarray) -> bytes:
    buf = io.BytesIO()
    npy.write_array(buf, arr)
    return buf.getvalue()


def _oversized_npy() -> bytes:
    """A .npy header declaring (1000, 1000) float32 over two values of data."""
    buf = io.BytesIO()
    npy.write_array_header_1_0(buf, {"descr": "<f4", "fortran_order": False,
                                     "shape": (1000, 1000)})
    return buf.getvalue() + np.zeros(2, dtype="<f4").tobytes()


_TENSOR = ("a.npy", _npy(np.zeros(2, dtype="<f4")))


def _archive(path, meta: bytes) -> None:
    _zip(path, [("meta.json", meta), _TENSOR])


def _rewrite(path, edit) -> None:
    path.write_bytes(edit(bytearray(path.read_bytes())))


def _inflate_last_member(blob: bytearray) -> bytearray:
    """Declare the last central-directory entry 100 MB uncompressed."""
    at = blob.rfind(b"PK\x01\x02") + 24
    blob[at:at + 4] = (10**8).to_bytes(4, "little")
    return blob


# each case, keyed by its test id: (writer of a damaged archive given its
# meta.json bytes, message regex)
_CORRUPT = {
    "truncated-archive": (lambda path, meta: (_archive(path, meta),
                                              _rewrite(path, lambda b: b[:-30])),
                          "not a zip file"),
    "no-meta-json": (lambda path, meta: _zip(path, [_TENSOR]), "meta.json"),
    "metadata-line-truncated": (lambda path, meta: _zip(path, [("meta.json", meta[:-1]),
                                                               _TENSOR]),
                                "Expecting"),
    "tensor-header-truncated": (lambda path, meta: _zip(path, [
        ("meta.json", meta), ("a.npy", _npy(np.zeros(2, "<f4"))[:20])]), "EOF"),
    "tensor-body-truncated": (lambda path, meta: _zip(path, [
        ("meta.json", meta), ("a.npy", _npy(np.zeros(10, "<f4"))[:-8])]), "it takes 40"),
    "body-past-end-truncated": (lambda path, meta: _zip(path, [
        ("meta.json", meta), ("a.npy", _oversized_npy())]), "it takes 4000000"),
    "duplicate-name-duplicate tensor name": (
        lambda path, meta: _zip(path, [("meta.json", meta), _TENSOR, _TENSOR]),
        "duplicate member"),
    "member-without-npy": (lambda path, meta: _zip(path, [("meta.json", meta), ("a", b"")]),
                           "not meta.json or"),
    "compressed-member": (lambda path, meta: _zip(path, [
        ("meta.json", meta), ("a.npy", _npy(np.zeros(200, "<f4")))], zipfile.ZIP_DEFLATED),
                          "compressed"),
    "float64-member": (lambda path, meta: _zip(path, [
        ("meta.json", meta), ("a.npy", _npy(np.zeros(2, "<f8")))]), "<f8"),
    "member-sizes-exceed-file": (lambda path, meta: (_archive(path, meta),
                                                     _rewrite(path, _inflate_last_member)),
                                 "exceed the file size"),
}


class TestCorruptFileNamesPath:
    @pytest.mark.parametrize("case", list(_CORRUPT))
    @pytest.mark.parametrize("kind, load", [("encoder", partial(load_group, EncoderWeights)),
                                            ("prefix", load_prefix)])
    def test_error_names_path(self, tmp_path, case, kind, load):
        write, message = _CORRUPT[case]
        path = tmp_path / f"{kind}.ckpt"
        write(path, json.dumps(_meta(kind)).encode())
        with pytest.raises(ValueError, match=re.escape(str(path)) + ".*" + message):
            load(path)


def test_flipped_byte_in_tensor_data_rejected(tmp_path):
    path = tmp_path / "p.ckpt"
    prefix = PrefixSet.init_random(CFG, Rng(9))
    save_prefix(path, prefix, CFG)
    blob = bytearray(path.read_bytes())
    start = blob.find(prefix.p_v[1].data.astype("<f4").tobytes())
    assert start > 0
    blob[start + 4 * 5] ^= 0x01  # lowest mantissa byte: the value stays finite
    path.write_bytes(blob)
    with pytest.raises(ValueError, match=re.escape(str(path)) + ".*CRC"):
        load_group(PrefixSet, path)


def test_equal_inputs_give_equal_bytes(tmp_path, monkeypatch):
    prefix = PrefixSet.init_random(CFG, Rng(9))
    save_prefix(tmp_path / "a.ckpt", prefix, CFG)
    later = time.time() + 3600
    monkeypatch.setattr(time, "time", lambda: later)
    save_prefix(tmp_path / "b.ckpt", prefix, CFG)
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_np_load_reads_every_tensor(tmp_path):
    path = tmp_path / "p.ckpt"
    prefix = PrefixSet.init_random(CFG, Rng(9))
    save_prefix(path, prefix, CFG)
    with np.load(path) as archive:
        assert set(archive.files) == {"meta.json", *prefix.named_tensors()}
        for name, t in prefix.named_tensors().items():
            assert archive[name].dtype == np.dtype("<f4")
            assert np.array_equal(archive[name], t.data)


def test_mistyped_config_field_named_with_path(tmp_path):
    path = tmp_path / "bad.ckpt"
    save_tensors(path, _prefix_arrays(),
                 {**_meta("prefix"), "config": {**asdict(CFG), "num_layers": "2"}})
    with pytest.raises(ValueError, match=re.escape(str(path)) + ".*num_layers"):
        load_prefix(path)
