"""tools/same_bits.py's comparison, on hand-made run records."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "same_bits", Path(__file__).resolve().parent.parent / "tools" / "same_bits.py")
same_bits = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_bits)


def record(**changes):
    rec = {"quality": {"final_loss": 7.25, "eval_mlm_loss": 7.5},
           "data_digest": "c842ca1779f599cd", "op_calls_per_step": {"gelu": 5, "matmul": 26},
           "corpus_digests": {"general.jsonl": "319a7d57", "labels.txt": "2929d347"},
           "metrics": {"tensor.loss_ms": {"value": 1.9, "unit": "ms"}},
           "result": {"correct": True, "attempted": 40, "failed": 0}}
    rec.update(changes)
    return rec


def test_equal_runs_differ_in_nothing_but_timings():
    timed = record(metrics={"tensor.loss_ms": {"value": 2.5, "unit": "ms"}})
    assert same_bits.differences(record(), timed) == []


@pytest.mark.parametrize("field, value", [
    ("quality", {"final_loss": 7.250000001, "eval_mlm_loss": 7.5}),
    ("data_digest", "0000000000000000"),
    ("op_calls_per_step", {"gelu": 5, "matmul": 27}),
    ("corpus_digests", {"general.jsonl": "00000000", "labels.txt": "2929d347"}),
])
def test_each_compared_field_is_reported(field, value):
    found = same_bits.differences(record(), record(**{field: value}))
    assert len(found) == 1 and found[0].startswith(f"{field}: ")


@pytest.mark.parametrize("result", [{"correct": False, "attempted": 40, "failed": 1},
                                    {"correct": True, "attempted": 40, "failed": 2}])
def test_failed_run_is_reported_on_either_side(result):
    assert same_bits.differences(record(result=result), record()) == [
        f"ref run not correct: {result}"]
    assert same_bits.differences(record(), record(result=result)) == [
        f"work tree run not correct: {result}"]


def test_ref_naming_no_commit_exits_2_naming_it(capsys):
    with pytest.raises(SystemExit) as stop:
        same_bits.main(["no-such-ref"])
    assert stop.value.code == 2
    assert "'no-such-ref' names no commit" in capsys.readouterr().err

