"""The benchmark's own tests: output schema, determinism, output checks.

Runs use ``smoke`` workloads (four steps per episode, tiny corpora) so the
file finishes in under a minute. Nothing here looks at how long
anything took.

    python3 -m pytest bench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bench import workloads
from bench.tracing import model_op_names
from bench.workloads import ADAPT, BATCH, WARM_STEPS, WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke(w):
    """A much shorter version of workload ``w``: two timed steps per episode."""
    steps = WARM_STEPS + 2
    adapt = w.method == ADAPT
    small = replace(w.spec, general_size=20,
                    domain_size=steps * BATCH + 16 if adapt else 20,
                    labeled_pool_size=30 if adapt else 500)
    return replace(w, spec=small, steps=steps, eval_docs=16 if adapt else 0)


def _run(name, seed, tmp_path, trace=True):
    return workloads.run(smoke(WORKLOADS[name]), seed, 0.0, trace, tmp_path)


def test_benchmark_json_lists_the_workloads_and_every_model_op():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    declared = {m["name"] for m in SPEC["per_layer"]}
    for op in model_op_names():
        assert {f"tensor.{op}.calls", f"tensor.{op}.ms"} <= declared, op


def test_each_step_is_timed_by_its_fastest_replay():
    eps = [workloads.Episode([], [9.0, 9.0, 3.0, 5.0], [], [2.0], 0, {}),
           workloads.Episode([], [9.0, 9.0, 4.0, 1.0], [], [1.0], 0, {})]
    assert workloads._fastest(eps, "step_s", WARM_STEPS).tolist() == [3.0, 1.0]
    assert workloads._fastest(eps, "eval_s").tolist() == [1.0]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_passes_checks_and_reports_every_metric(name, tmp_path):
    res = _run(name, 3, tmp_path)
    assert res.tally.failed == 0, res.tally.notes
    assert res.tally.attempted > 0
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        value, unit = res.metrics[m["name"]]
        assert unit == m["unit"], m["name"]
        assert math.isfinite(value), m["name"]
    for m in SPEC["end_to_end"]:
        assert res.metrics[m["name"]][0] > 0, m["name"]
    assert res.metrics["tensor.fwd_calls_per_step"][0] > 0


def test_same_seed_repeats_results_and_op_counts(tmp_path):
    a = _run("fewshot-prefix", 5, tmp_path / "a")
    b = _run("fewshot-prefix", 5, tmp_path / "b")
    c = _run("fewshot-prefix", 6, tmp_path / "c")
    assert a.quality == b.quality
    assert set(a.quality) == {"final_loss", "macro_f1", "ece"}
    assert a.op_calls == b.op_calls and a.op_calls
    assert a.data_digest == b.data_digest
    assert c.data_digest != a.data_digest
    assert c.quality != a.quality


def test_prefix_path_makes_concat_and_expand_calls_and_ft_does_not(tmp_path):
    ft = _run("fewshot-ft", 5, tmp_path / "ft")
    pre = _run("fewshot-prefix", 5, tmp_path / "pre")
    assert ft.op_calls.get("concat_seq", 0) == 0 and ft.op_calls.get("expand", 0) == 0
    assert pre.op_calls["concat_seq"] == pre.op_calls["expand"] == 2 * 4
    assert ft.metrics["optim.params"][0] > 50 * pre.metrics["optim.params"][0]


def test_non_finite_loss_is_a_failed_operation(tmp_path, monkeypatch):
    real = workloads.setup

    def poisoned(*args, **kwargs):
        state = real(*args, **kwargs)
        state.weights.layers[0].w_q.data[0, 0] = np.nan
        return state

    monkeypatch.setattr(workloads, "setup", poisoned)
    res = _run("fewshot-ft", 3, tmp_path, trace=False)
    assert res.tally.failed > 0
    assert any("loss nan" in n for n in res.tally.notes)
    assert any("invalid probabilities" in n for n in res.tally.notes)


def test_encoder_write_on_frozen_workload_is_caught(tmp_path, monkeypatch):
    real = workloads.encode

    def clobbering(ids, mask, weights, *args, **kwargs):
        weights.tok_emb.data[0, 0] += 1.0
        return real(ids, mask, weights, *args, **kwargs)

    monkeypatch.setattr(workloads, "encode", clobbering)
    res = _run("fewshot-prefix", 3, tmp_path, trace=False)
    assert "frozen encoder changed during training" in res.tally.notes


def test_checkpoint_that_does_not_round_trip_is_caught(tmp_path, monkeypatch):
    real = workloads.load_prefix

    def lossy(path, expect=None):
        prefix, meta = real(path, expect)
        prefix.p_k[0].data[0, 0] += 1.0
        return prefix, meta

    monkeypatch.setattr(workloads, "load_prefix", lossy)
    res = _run("adapt", 3, tmp_path, trace=False)
    assert "prefix checkpoint does not round-trip" in res.tally.notes


def test_command_prints_result_line_last(tmp_path):
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fewshot-ft", "--seed", "2",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    record = json.loads(lines[-2])
    assert record["env"]["seed"] == 2
    assert {"numpy", "scipy", "python", "blas", "blas_threads", "nproc",
            "git_revision", "config_fingerprint"} <= set(record["env"])
    for name in ("final_loss", "macro_f1", "ece"):
        assert name in out.stdout


def test_command_fails_without_the_package(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "adapt", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
