"""pforge: prefix domain adaptation at desk scale.

A from-scratch encoder transformer whose per-layer key/value prefixes are
pre-trained with masked language modelling on a domain corpus and then
reused to initialize fewshot classification, with full finetuning, full
domain adaptation, and plain prefix tuning as baselines.

Bad input is refused in one way: a ``ValueError`` naming its file or field.
``read_text`` reads every text file, ``check_fields`` checks the int, real
and str fields of the records, and ``DataError`` is a ``ValueError``.
``read_jsonl`` reads every JSON-lines file, ``read_lines`` every file of one
entry per line, and ``index_lines`` holds the rule of such a file before it
is written: each entry is one non-empty line of text and none repeats.

Files are written in one way, whole or not at all: ``write_file`` writes
every file through a temporary file renamed over the target once complete,
and ``write_text`` writes UTF-8 text through it.
"""

from __future__ import annotations

import contextlib
import functools
import json
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


def read_jsonl(path: str | Path, build: typing.Callable[[dict, int], typing.Any]) -> list:
    """``build(obj, line)`` for the JSON object on each line of ``path``. Lines
    end at ``"\\n"`` alone and blank ones are skipped; the first that is not an
    object, or that ``build`` refuses, is refused by ``path:line``."""
    records = []
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise ValueError("line is not a JSON object")
            records.append(build(obj, lineno))
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path}:{lineno}: malformed line ({exc})") from exc
    return records


def index_lines(entries: typing.Sequence[str], where: str | Path, noun: str) -> dict[str, int]:
    """Each entry's position, after refusing by ``where:line`` an entry that
    is blank, not a single line of text, or a repeat."""
    index: dict[str, int] = {}
    for lineno, entry in enumerate(entries, start=1):
        if entry == "":
            raise DataError(f"{where}:{lineno}: blank {noun}")
        if not isinstance(entry, str) or entry.splitlines() != [entry]:
            raise DataError(f"{where}:{lineno}: {noun} {entry!r} is not one line of text")
        if entry in index:
            raise DataError(f"{where}:{lineno}: {noun} {entry!r} repeats line "
                            f"{index[entry] + 1}")
        index[entry] = lineno - 1
    return index


def read_lines(path: str | Path, noun: str) -> list[str]:
    """The entries of a file of one entry per line, checked by ``index_lines``."""
    return list(index_lines(read_text(path).splitlines(), path, noun))


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


# the refusal for each checked annotation, and the type it accepts besides bools
_KINDS = {
    int: ("must be an int", int),
    float: ("must be a real number", numbers.Real),
    str: ("must be a non-empty str", str),
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
        if isinstance(value, bool) or not isinstance(value, accepts) or value == "":
            raise ValueError(f"{name} {refusal}, got {value!r}")
