"""Checkpoint files for encoder weights, prefix sets and heads.

A checkpoint is an uncompressed zip in numpy's ``.npz`` layout, so
``np.load(path)`` reads every tensor: a ``meta.json`` member holds the
metadata (kind, model config, config fingerprint, extra keys) and each tensor
is a ``<name>.npy`` member of little-endian float32 in C order, whatever its
in-memory dtype. The fingerprint lets a later load refuse tensors produced
under an incompatible ModelConfig.

``load_tensors`` checks the archive before it reads tensor bytes: members are
stored uncompressed and unencrypted, their sizes add up to no more than the
file (so the bytes read stay bounded by it), names are unique and all but
``meta.json`` end in ``.npy``, and each ``.npy`` header is version 1.0, ``<f4``
and C order, declaring exactly its member's remaining bytes. Reading a member
checks its CRC-32.

``save_group``/``load_group`` are strict both ways and take the kind from the
group class. The metadata must be a mapping of the right ``kind`` holding a
complete, valid ``config``. The tensors must be exactly those of the group
that config implies, with its shapes and finite values; a head's class count
is read from ``head.b``. Any violation raises ValueError naming the path.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import zipfile
from dataclasses import asdict, fields
from functools import partial
from pathlib import Path

import numpy as np
from numpy.lib import format as npy

from .model import ClassificationHead, EncoderWeights, ModelConfig, ParamGroup, PrefixSet
from .numerics import Rng, Tensor

_META = "meta.json"
# the "kind" each group class is stored under; these strings are part of the format
_KINDS = {EncoderWeights: "encoder", PrefixSet: "prefix", ClassificationHead: "head"}


def save_tensors(path: str | Path, tensors: dict[str, Tensor | np.ndarray],
                 metadata: dict) -> None:
    """Write a checkpoint atomically (tmp file + rename)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh, zipfile.ZipFile(fh, "w") as zf:
            # ZipInfo(name) carries a fixed 1980 timestamp, so equal inputs give equal bytes
            zf.writestr(zipfile.ZipInfo(_META), json.dumps(metadata, sort_keys=True))
            for name, t in tensors.items():
                if not name:
                    raise ValueError("empty tensor name")
                arr = np.asarray(t.data if isinstance(t, Tensor) else t,
                                 dtype="<f4", order="C")
                with zf.open(zipfile.ZipInfo(name + ".npy"), "w") as member:
                    npy.write_array(member, arr, version=(1, 0), allow_pickle=False)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_npy(zf: zipfile.ZipFile, info: zipfile.ZipInfo) -> np.ndarray:
    with zf.open(info) as fh:
        if npy.read_magic(fh) != (1, 0):
            raise ValueError(f"{info.filename!r} is not a version 1.0 .npy member")
        shape, fortran, dtype = npy.read_array_header_1_0(fh)
        nbytes, left = 4 * math.prod(shape), info.file_size - fh.tell()
        if dtype != np.dtype("<f4") or fortran or nbytes != left:
            raise ValueError(f"{info.filename!r} holds {dtype.str} {shape}, fortran_order="
                             f"{fortran}, in {left} bytes; as <f4 in C order it takes {nbytes}")
        return np.frombuffer(fh.read(nbytes), dtype="<f4").reshape(shape).copy()


def load_tensors(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    path = Path(path)
    try:
        with zipfile.ZipFile(path) as zf:
            infos, size = zf.infolist(), path.stat().st_size
            if len({info.filename for info in infos}) != len(infos):
                raise ValueError("duplicate member name")
            for info in infos:
                if info.filename != _META and not info.filename.endswith(".npy"):
                    raise ValueError(f"member {info.filename!r} is not meta.json or <name>.npy")
                if info.compress_type != zipfile.ZIP_STORED or info.flag_bits & 0x1:
                    raise ValueError(f"member {info.filename!r} is compressed or encrypted")
            if sum(info.file_size for info in infos) > size:
                raise ValueError(f"member sizes exceed the file size of {size} bytes")
            metadata = json.loads(zf.read(_META))
            tensors = {info.filename[:-4]: _read_npy(zf, info)
                       for info in infos if info.filename != _META}
    except (zipfile.BadZipFile, OSError, EOFError, KeyError, ValueError) as exc:
        # ValueError covers JSONDecodeError and UnicodeDecodeError
        raise ValueError(f"{path}: bad checkpoint file: {exc}") from exc
    return tensors, metadata


def _read_config(metadata, kind: str, expect: ModelConfig | None,
                 path: str | Path) -> ModelConfig:
    if not isinstance(metadata, dict):
        raise ValueError(f"{path}: metadata is a {type(metadata).__name__}, not a mapping")
    if metadata.get("kind") != kind:
        raise ValueError(
            f"{path}: checkpoint kind {metadata.get('kind')!r}, expected {kind!r}"
        )
    raw, names = metadata.get("config"), {f.name for f in fields(ModelConfig)}
    if not isinstance(raw, dict) or raw.keys() != names:
        raise ValueError(
            f"{path}: metadata 'config' must map exactly {sorted(names)}, got {raw!r}"
        )
    try:
        config = ModelConfig(**raw)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: metadata 'config': {exc}") from exc
    if expect is not None and config.fingerprint() != expect.fingerprint():
        raise ValueError(
            f"{path}: config fingerprint {config.fingerprint()} does not match "
            f"expected {expect.fingerprint()}"
        )
    return config


def _implied_group(cls: type, config: ModelConfig, arrays: dict[str, np.ndarray],
                   path: str | Path) -> ParamGroup:
    """The ``cls`` group ``config`` implies, checked against ``arrays``.

    The group holds placeholder values. A head's class count is not part of
    the config, so it is taken from ``head.b``; a missing ``head.b`` is
    reported by the tensor-set check.
    """
    try:
        if cls is EncoderWeights:
            group = EncoderWeights(config)
        elif cls is PrefixSet:
            group = PrefixSet.init_random(config, Rng(0))
        else:
            num_classes = arrays["head.b"].size if "head.b" in arrays else 2
            group = ClassificationHead.init_random(config.d_model, num_classes, Rng(0),
                                                   config.precision)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    slots = group.named_tensors()
    missing = slots.keys() - arrays.keys()
    surplus = arrays.keys() - slots.keys()
    if missing or surplus:
        raise ValueError(
            f"{path}: tensor set mismatch for num_layers={config.num_layers}; "
            f"missing {sorted(missing)[:3]}, unexpected {sorted(surplus)[:3]}"
        )
    for name, slot in slots.items():
        if arrays[name].shape != slot.shape:
            raise ValueError(f"{path}: tensor {name!r} has shape {arrays[name].shape}, "
                             f"expected {slot.shape}")
        if not np.isfinite(arrays[name]).all():
            raise ValueError(f"{path}: tensor {name!r} has non-finite values")
    return group


def save_group(path: str | Path, group: ParamGroup, config: ModelConfig,
               extra: dict | None = None) -> None:
    """Write ``group`` as a checkpoint after checking it fits ``config``."""
    meta = {"kind": _KINDS[type(group)], "config": asdict(config),
            "fingerprint": config.fingerprint()}
    reserved = meta.keys() & (extra or {}).keys()
    if reserved:
        raise ValueError(f"{path}: metadata keys {sorted(reserved)} are reserved")
    meta.update(extra or {})
    arrays = {name: t.data for name, t in group.named_tensors().items()}
    _implied_group(type(group), config, arrays, path)
    save_tensors(path, arrays, meta)


def load_group(cls: type, path: str | Path, expect: ModelConfig | None = None
               ) -> tuple[ParamGroup, dict]:
    """Read a ``cls`` checkpoint into a trainable group; returns (group, metadata)."""
    arrays, metadata = load_tensors(path)
    config = _read_config(metadata, _KINDS[cls], expect, path)
    group = _implied_group(cls, config, arrays, path)
    for name, slot in group.named_tensors().items():
        slot.data = arrays[name].astype(slot.dtype)
    return group, metadata


# bench/workloads.py imports these two names, and bench/tests patches load_prefix
save_prefix = save_group
load_prefix = partial(load_group, PrefixSet)
