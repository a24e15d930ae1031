"""The shared field rule: every int, float and str field of the records is
checked from its annotation, and ``X | None`` fields also take None.

Cases are built from ``dataclasses.fields``, so a field added to one of these
records is covered here with no new test.
"""

import re
from dataclasses import fields, replace

import numpy as np
import pytest

from pforge.dataprep import SyntheticSpec
from pforge.metrics import Curve, MetricsRow
from pforge.model import ModelConfig
from pforge.textdata import Document, EncodedExample

RECORDS = (
    ModelConfig(num_layers=2, d_model=8, num_heads=2, ffn_dim=16, vocab_size=50,
                max_positions=32),
    SyntheticSpec(),
    MetricsRow(method="ft", dataset="synthetic", fewshot_size=8),
    Document(text="a document", label="a", id="d1"),
    EncodedExample(ids=[2, 7], label_id=1),
    Curve(name="loss", steps=[0.0, 1.0], values=[2.0, 1.0]),
)

# the refusal each annotation gets, and values of a wrong kind for it
WRONG_KIND = {
    "int": ("an int", ["8", 8.0, 8.5, np.int64(8)]),
    "float": ("a real number", ["0.5", b"0.5", 1j]),
    "str": ("a non-empty str", ["", 3, b"x"]),
}


def checked_fields():
    """(record, field, annotation without ``| None``, allows None), read
    from the annotation strings the modules' future import leaves."""
    for record in RECORDS:
        for f in fields(record):
            kind, _, none = f.type.partition(" | ")
            if kind in WRONG_KIND:
                yield record, f.name, kind, none == "None"


CASES = [pytest.param(record, name, kind, optional,
                      id=f"{type(record).__name__}.{name}")
         for record, name, kind, optional in checked_fields()]


def test_every_record_has_checked_fields():
    assert {type(case.values[0]) for case in CASES} == {type(r) for r in RECORDS}


@pytest.mark.parametrize("record, name, kind, optional", CASES)
def test_bool_and_wrong_kind_refused_by_name(record, name, kind, optional):
    what, wrong = WRONG_KIND[kind]
    bad = [True, False] + wrong + ([] if optional else [None])
    for value in bad:
        with pytest.raises(ValueError,
                           match=f"^{name} must be {what}, got {re.escape(repr(value))}$"):
            replace(record, **{name: value})


@pytest.mark.parametrize("record, name, kind, optional",
                         [case for case in CASES if case.values[3]])
def test_optional_field_accepts_none(record, name, kind, optional):
    assert getattr(replace(record, **{name: None}), name) is None
