"""Binary checkpoint files for encoder weights, prefix sets and heads.

Layout: the ASCII header line ``PFORGE1``, one JSON metadata line (kind,
model config, config fingerprint), then each tensor as

    u32 name length, UTF-8 name, u32 rank, rank * u32 dims,
    little-endian float32 values in C order.

All integers are little-endian. Values are stored at 32-bit precision
regardless of the in-memory dtype. The fingerprint lets a later load refuse
tensors produced under an incompatible ModelConfig.

``save_group``/``load_group`` are strict both ways. The metadata must be a
mapping of the right ``kind`` holding a complete, valid ``config``. The
tensors must be exactly those of the group that config implies, with its
shapes and finite values; a head's class count is read from ``head.b``.
Any violation raises ValueError naming the checkpoint path.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile
from dataclasses import asdict, fields
from functools import partial
from pathlib import Path

import numpy as np

from .model import ClassificationHead, EncoderWeights, ModelConfig, ParamGroup, PrefixSet
from .numerics import Rng, Tensor

MAGIC = b"PFORGE1\n"
_U32 = struct.Struct("<I")
_NAME_LIMIT = 4096


def _write_tensor(fh, name: str, arr: np.ndarray) -> None:
    raw = name.encode("utf-8")
    if not raw or len(raw) > _NAME_LIMIT:
        raise ValueError(f"tensor name length {len(raw)} outside (0, {_NAME_LIMIT}]")
    fh.write(_U32.pack(len(raw)))
    fh.write(raw)
    fh.write(_U32.pack(arr.ndim))
    for dim in arr.shape:
        fh.write(_U32.pack(dim))
    fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def _read_exact(fh, n: int, path: Path) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise ValueError(f"{path}: truncated checkpoint file")
    return buf


def save_tensors(path: str | Path, tensors: dict[str, Tensor | np.ndarray],
                 metadata: dict) -> None:
    """Write a checkpoint atomically (tmp file + rename)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    meta_line = json.dumps(metadata, sort_keys=True).encode("utf-8")
    if b"\n" in meta_line:
        raise ValueError("metadata must serialize to a single line")
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(MAGIC)
            fh.write(meta_line + b"\n")
            for name, t in tensors.items():
                arr = t.data if isinstance(t, Tensor) else np.asarray(t)
                _write_tensor(fh, name, arr)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_tensors(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    path = Path(path)
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.read(len(MAGIC)) != MAGIC:
            raise ValueError(f"{path}: not a PFORGE1 checkpoint")
        meta_raw = fh.readline()
        if not meta_raw.endswith(b"\n"):
            raise ValueError(f"{path}: truncated checkpoint file")
        try:
            metadata = json.loads(meta_raw)
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise ValueError(f"{path}: bad metadata line: {exc}") from exc
        tensors: dict[str, np.ndarray] = {}
        while True:
            head = fh.read(_U32.size)
            if not head:
                break
            if len(head) != _U32.size:
                raise ValueError(f"{path}: truncated checkpoint file")
            (name_len,) = _U32.unpack(head)
            if not 0 < name_len <= _NAME_LIMIT:
                raise ValueError(f"{path}: corrupt checkpoint: name length {name_len}")
            try:
                name = _read_exact(fh, name_len, path).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}: corrupt checkpoint: tensor name: {exc}") from exc
            if name in tensors:
                raise ValueError(f"{path}: duplicate tensor name {name!r}")
            (rank,) = _U32.unpack(_read_exact(fh, _U32.size, path))
            if rank > 8:
                raise ValueError(f"{path}: corrupt checkpoint: rank {rank}")
            shape = tuple(
                _U32.unpack(_read_exact(fh, _U32.size, path))[0] for _ in range(rank)
            )
            count = math.prod(shape)
            # checked before reading: a corrupt shape can ask for terabytes
            if 4 * count > size - fh.tell():
                raise ValueError(f"{path}: truncated checkpoint file: tensor {name!r} "
                                 f"of shape {shape} runs past the end")
            data = np.frombuffer(_read_exact(fh, 4 * count, path), dtype="<f4")
            tensors[name] = data.reshape(shape).copy()
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


def _implied_group(kind: str, config: ModelConfig, arrays: dict[str, np.ndarray],
                   path: str | Path) -> ParamGroup:
    """The group ``config`` implies for ``kind``, checked against ``arrays``.

    The group holds placeholder values. A head's class count is not part of
    the config, so it is taken from ``head.b``; a missing ``head.b`` is
    reported by the tensor-set check.
    """
    try:
        if kind == "encoder":
            group = EncoderWeights(config)
        elif kind == "prefix":
            group = PrefixSet.init_random(config, Rng(0))
        elif kind == "head":
            num_classes = arrays["head.b"].size if "head.b" in arrays else 2
            group = ClassificationHead.init_random(config.d_model, num_classes, Rng(0),
                                                   config.precision)
        else:
            raise ValueError(f"unknown checkpoint kind {kind!r}")
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


def save_group(kind: str, path: str | Path, group: ParamGroup, config: ModelConfig,
               extra: dict | None = None) -> None:
    """Write ``group`` as a ``kind`` checkpoint after checking it fits ``config``."""
    meta = {"kind": kind, "config": asdict(config), "fingerprint": config.fingerprint()}
    reserved = meta.keys() & (extra or {}).keys()
    if reserved:
        raise ValueError(f"{path}: metadata keys {sorted(reserved)} are reserved")
    meta.update(extra or {})
    arrays = {name: t.data for name, t in group.named_tensors().items()}
    _implied_group(kind, config, arrays, path)
    save_tensors(path, arrays, meta)


def load_group(kind: str, path: str | Path, expect: ModelConfig | None = None
               ) -> tuple[ParamGroup, dict]:
    """Read a ``kind`` checkpoint into a trainable group; returns (group, metadata)."""
    arrays, metadata = load_tensors(path)
    config = _read_config(metadata, kind, expect, path)
    group = _implied_group(kind, config, arrays, path)
    for name, slot in group.named_tensors().items():
        slot.data = arrays[name].astype(slot.dtype)
    return group, metadata


def save_encoder(path: str | Path, weights: EncoderWeights,
                 extra: dict | None = None) -> None:
    save_group("encoder", path, weights, weights.config, extra)


load_encoder = partial(load_group, "encoder")
save_prefix = partial(save_group, "prefix")
load_prefix = partial(load_group, "prefix")
save_head = partial(save_group, "head")
load_head = partial(load_group, "head")
