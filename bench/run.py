"""Run one pforge benchmark workload and print its metrics.

    python3 bench/run.py --workload adapt --seed 1 --seconds 32 --trace 0

Run from the repository root; the package is imported from ``src/``. The
output ends with a human-readable table, one JSON line with the full record
(environment, quality, sample counts, every metric) and, last, the JSON
result line ``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json, ``--trace 1`` its
per-layer metrics. The exit code is 1 when an output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

# BLAS threads are pinned before numpy loads; the matrices here are small
# enough that extra threads add noise, not speed.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent


def git_revision(root: Path) -> str:
    """HEAD's commit, or 'unknown' outside a git clone."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    from pforge.model import desk_config

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(ROOT),
        "config_fingerprint": desk_config().fingerprint(),
        "seed": seed,
    }


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "pforge" / "__init__.py").is_file():
        print(f"error: no pforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from bench.workloads import WORKLOADS, run

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in 64 bits")

    declared = declared_metrics(bool(args.trace))
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        res = run(WORKLOADS[args.workload], args.seed, args.seconds,
                  bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    missing = [m["name"] for m in declared if m["name"] not in res.metrics]
    if missing:
        print(f"error: run produced no value for {missing}", file=sys.stderr)
        return 2
    correct = res.tally.failed == 0
    width = max(len(n) for n in res.metrics)
    print(f"workload {res.workload}  seed {res.seed}  trace {args.trace}  "
          f"samples {res.samples}")
    for name, (value, unit) in res.metrics.items():
        print(f"  {name:<{width}}  {value:.6g} {unit}")
    for name, value in res.quality.items():
        print(f"  {name:<{width}}  {value:.6g}  (repeats exactly per seed)")
    for note in res.tally.notes:
        print(f"  FAILED: {note}")
    record = {
        "workload": res.workload, "trace": args.trace, "env": environment(res.seed),
        "data_digest": res.data_digest, "samples": res.samples, "quality": res.quality,
        "op_calls_per_step": res.op_calls,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in res.metrics.items()},
    }
    print(json.dumps(record, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": res.tally.attempted,
        "failed": res.tally.failed,
        "metrics": {m["name"]: {"value": res.metrics[m["name"]][0], "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
