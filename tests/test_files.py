"""The write rule: every pforge writer goes through ``write_file``, so a file
is replaced whole or not at all, its parent directories are created, and a
new file gets the mode a plain ``open`` gives it."""

import contextlib
import os
import resource
import signal
import stat

import numpy as np
import pytest

from pforge import write_file, write_text
from pforge.checkpoint import save_tensors
from pforge.dataprep import DatasetManifest
from pforge.metrics import Curve, MetricsRow, render_report
from pforge.textdata import SPECIALS, Document, Vocab, save_jsonl

ROWS = [MetricsRow(method="ft", dataset="synthetic", fewshot_size=8, seed=1, macro_f1=0.5)]
CURVES = [Curve(name="loss", steps=[0.0, 1.0], values=[2.0, 1.0])]

# every writer, each writing into the directory it is given; the first file
# each writes is longer than LIMIT bytes
WRITERS = {
    "save_tensors": lambda d: save_tensors(d / "t.ckpt", {"w": np.ones((4, 4))}, {"k": 1}),
    "save_jsonl": lambda d: save_jsonl(d / "docs.jsonl", [Document(text="some words")] * 3),
    "Vocab.save": lambda d: Vocab(SPECIALS + ("alpha", "bravo")).save(d / "vocab.txt"),
    "DatasetManifest.write": lambda d: DatasetManifest.write(
        d, "test", [Document(text="some words", label=label, id=label) for label in "ab"],
        [], {}),
    "render_report": lambda d: render_report(ROWS, d, {"loss": CURVES}),
}
LIMIT = 16


@contextlib.contextmanager
def file_size_limit(nbytes: int):
    """Fail every write past ``nbytes`` of a file with an OSError, as a full
    disk would, for this process only."""
    soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
    handler = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    resource.setrlimit(resource.RLIMIT_FSIZE, (nbytes, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
        signal.signal(signal.SIGXFSZ, handler)


def files(root):
    """Every file under root, subdirectories included."""
    return [p for p in root.rglob("*") if p.is_file()]


def contents(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in files(root)}


@pytest.mark.parametrize("writer", WRITERS)
def test_failed_write_keeps_the_old_file(tmp_path, writer):
    WRITERS[writer](tmp_path)
    for p in files(tmp_path):
        p.write_bytes(b"old " + p.name.encode())
    old = contents(tmp_path)
    with pytest.raises(OSError), file_size_limit(LIMIT):
        WRITERS[writer](tmp_path)
    # equal names also mean that no temporary file is left
    assert contents(tmp_path) == old


@pytest.mark.parametrize("writer", WRITERS)
def test_missing_parent_directories_created(tmp_path, writer):
    WRITERS[writer](tmp_path / "a" / "b")
    assert any((tmp_path / "a" / "b").iterdir())


@pytest.mark.parametrize("writer", WRITERS)
def test_new_files_get_the_mode_open_gives(tmp_path, writer):
    umask = os.umask(0o027)
    try:
        WRITERS[writer](tmp_path)
    finally:
        os.umask(umask)
    assert {stat.S_IMODE(p.stat().st_mode) for p in files(tmp_path)} == {0o666 & ~0o027}


def test_block_that_raises_leaves_the_old_file(tmp_path):
    path = tmp_path / "f.txt"
    write_text(path, "old\r\ncafé\n")
    with pytest.raises(KeyboardInterrupt), write_file(path) as fh:
        fh.write(b"new")
        raise KeyboardInterrupt
    assert contents(tmp_path) == {"f.txt": "old\r\ncafé\n".encode("utf-8")}
