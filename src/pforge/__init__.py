"""pforge: prefix domain adaptation at desk scale.

A from-scratch encoder transformer whose per-layer key/value prefixes are
pre-trained with masked language modelling on a domain corpus and then
reused to initialize fewshot classification, with full finetuning, full
domain adaptation, and plain prefix tuning as baselines.

Bad input is refused in one way: a ``ValueError`` naming its file or field.
``read_text`` reads every text file, ``check_fields`` checks the int, real
and str fields of the records, and ``DataError`` is a ``ValueError``.

Files are written in one way, whole or not at all: ``write_file`` writes
every file through a temporary file renamed over the target once complete,
and ``write_text`` writes UTF-8 text through it.
"""

from __future__ import annotations

import contextlib
import functools
import numbers
import os
import typing
from dataclasses import fields
from pathlib import Path

__version__ = "0.1.0"


class DataError(ValueError):
    """Raised for unreadable, malformed, or inconsistent input data."""


class TrainingError(Exception):
    """Raised when a training run cannot proceed (divergence, bad inputs)."""


def read_text(path: str | Path) -> str:
    """The file's bytes decoded as UTF-8, with no newline translation: a
    ``\\r\\n`` inside a quoted CSV cell stays as written."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"cannot read {path}: not UTF-8: {exc}") from exc


@contextlib.contextmanager
def write_file(path: str | Path) -> typing.Iterator[typing.BinaryIO]:
    """A binary handle on a new temporary file beside ``path``, renamed over
    ``path`` when the block ends and deleted if it raises. Parent directories
    are created, and the file gets the mode a plain ``open`` gives: 0o666
    less the umask. Nothing is synced: this guards against a failed or
    interrupted process, not a power cut."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(4).hex()}.tmp")
    fh = open(tmp, "xb")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text(path: str | Path, text: str) -> None:
    """Write ``text`` as UTF-8 through ``write_file``, with no newline translation."""
    with write_file(path) as fh:
        fh.write(text.encode("utf-8"))


# the refusal for each checked annotation, and what it accepts besides bools
_KINDS = {
    int: ("must be an int", lambda v: isinstance(v, int)),
    float: ("must be a real number", lambda v: isinstance(v, numbers.Real)),
    str: ("must be a non-empty str", lambda v: isinstance(v, str) and v != ""),
}


@functools.cache
def field_kinds(cls: type) -> tuple[tuple[str, type, bool], ...]:
    """``(field, kind, None allowed)`` for each field of dataclass ``cls``
    annotated ``int``, ``float`` or ``str``, alone or as ``X | None``, in
    field order. Fields with any other annotation are left out.

    Cached per class: resolving the annotations costs many times more than
    the rest of a record's construction.
    """
    hints = typing.get_type_hints(cls)
    return tuple((f.name, kind, hints[f.name] != kind)
                 for f in fields(cls) for kind in _KINDS
                 if hints[f.name] in (kind, kind | None))


def check_fields(record) -> None:
    """Refuse a field of dataclass ``record`` that its annotation does not
    allow: ``int`` is an int, ``float`` any real number, ``str`` a non-empty
    str, never a bool; ``X | None`` also allows None. Ranges and other
    annotations are the record's own checks."""
    for name, kind, optional in field_kinds(type(record)):
        value = getattr(record, name)
        if value is None and optional:
            continue
        refusal, accepts = _KINDS[kind]
        if isinstance(value, bool) or not accepts(value):
            raise ValueError(f"{name} {refusal}, got {value!r}")
