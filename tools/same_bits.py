"""Check that the work tree computes the same bits as a git revision.

    python3 tools/same_bits.py REF

Extracts REF with ``git archive`` into a temporary directory and runs
``bench/run.py --seconds 0 --trace 1`` for every workload in BENCHMARK.json
at seeds 1 and 23, there and in the work tree. For the same workloads and
seeds it also hashes every file ``gen_synthetic`` writes for the workload's
spec, because ``data_digest`` covers only the encoded train and eval ids.
Prints every difference in the quality numbers, ``data_digest``,
``op_calls_per_step`` and these ``corpus_digests``, and every run that was
not ``correct`` or had a failed operation. Exits 1 on any of them, 0 when
every pair matches, and 2 when REF names no commit. ``REF`` = ``HEAD``
checks the committed tree against itself, or the work tree's uncommitted
edits against it.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 23)
# the fields of a run's record that repeat exactly per seed
COMPARED = ("quality", "data_digest", "op_calls_per_step", "corpus_digests")
# prints the sha256 of every file gen_synthetic writes at Rng(argv[2]) for
# WORKLOADS[argv[1]]; run in a tree's root, it uses only names both trees have
CORPUS_DIGESTS = """
import hashlib, json, sys, tempfile
from pathlib import Path
from bench.workloads import WORKLOADS
from pforge.dataprep import gen_synthetic
from pforge.numerics import Rng
spec = WORKLOADS[sys.argv[1]].spec
with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "data"
    gen_synthetic(spec, Rng(int(sys.argv[2])), out)
    print(json.dumps({p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                      for p in sorted(out.iterdir())}))
"""


def extract(ref: str, dest: Path) -> None:
    """Write the tree of git revision ref into dest."""
    archive = dest.parent / "ref.tar"
    subprocess.run(["git", "archive", "--format=tar", "-o", str(archive), ref],
                   cwd=ROOT, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()


def bench(root: Path, workload: str, seed: int) -> dict:
    """One ``--seconds 0 --trace 1`` run in root: its record and result lines,
    plus the workload's corpus digests."""
    proc = subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        cwd=root, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{root}: {workload} seed {seed} printed no result "
                           f"(exit {proc.returncode}): {proc.stderr.strip()}")
    record = json.loads(lines[-2])
    record["result"] = json.loads(lines[-1])
    record["corpus_digests"] = corpus_digests(root, workload, seed)
    return record


def corpus_digests(root: Path, workload: str, seed: int) -> dict:
    """sha256 of every file gen_synthetic writes in root for the workload."""
    proc = subprocess.run(
        [sys.executable, "-c", CORPUS_DIGESTS, workload, str(seed)], cwd=root,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: {workload} seed {seed} corpus digests failed "
                           f"(exit {proc.returncode}): {proc.stderr.strip()}")
    return json.loads(proc.stdout)


def differences(ref: dict, work: dict) -> list[str]:
    """Every compared field that differs, and every run that failed."""
    found = [f"{field}: {ref.get(field)!r} != {work.get(field)!r}"
             for field in COMPARED if ref.get(field) != work.get(field)]
    for side, rec in (("ref", ref), ("work tree", work)):
        result = rec["result"]
        if result.get("correct") is not True or result.get("failed") != 0:
            found.append(f"{side} run not correct: {result}")
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", help="git revision to compare the work tree against")
    args = parser.parse_args(argv)
    if subprocess.run(["git", "rev-parse", "--verify", "--quiet", f"{args.ref}^{{commit}}"],
                      cwd=ROOT, capture_output=True).returncode != 0:
        parser.error(f"{args.ref!r} names no commit of {ROOT}")
    workloads = [w["name"] for w in
                 json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    n_diff = 0
    with tempfile.TemporaryDirectory(prefix="same-bits-") as tmp:
        ref_root = Path(tmp) / "ref"
        extract(args.ref, ref_root)
        for workload in workloads:
            for seed in SEEDS:
                found = differences(bench(ref_root, workload, seed),
                                    bench(ROOT, workload, seed))
                print(f"{workload} seed {seed}: "
                      f"{'same' if not found else 'DIFFERENT'}")
                for line in found:
                    print(f"  {line}")
                n_diff += bool(found)
    print(f"{n_diff} of {len(workloads) * len(SEEDS)} runs differ from {args.ref}")
    return 1 if n_diff else 0


if __name__ == "__main__":
    sys.exit(main())
