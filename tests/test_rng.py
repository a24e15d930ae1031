import re

import numpy as np
import pytest

from pforge.numerics import Rng


def test_same_seed_same_draws():
    a = Rng(10).stream("masking").child(3).generator().random(8)
    b = Rng(10).stream("masking").child(3).generator().random(8)
    np.testing.assert_array_equal(a, b)


def test_streams_are_independent_of_consumption_order():
    r = Rng(42)
    first = r.stream("init").generator().random(4)
    # consuming another stream in between must not disturb the first
    r.stream("dropout").generator().random(1000)
    again = Rng(42).stream("init").generator().random(4)
    np.testing.assert_array_equal(first, again)


def test_distinct_streams_differ():
    r = Rng(10)
    a = r.stream("masking").generator().random(16)
    b = r.stream("sampling").generator().random(16)
    assert not np.array_equal(a, b)


def test_distinct_children_differ():
    r = Rng(10).stream("masking")
    assert not np.array_equal(
        r.child(0).generator().random(16),
        r.child(1).generator().random(16),
    )


def test_distinct_seeds_differ():
    a = Rng(10).stream("init").generator().random(16)
    b = Rng(11).stream("init").generator().random(16)
    assert not np.array_equal(a, b)


def test_known_values_frozen():
    # pinned draws guard against accidental algorithm changes
    got = Rng(10).stream("init").generator().random(3)
    np.testing.assert_allclose(
        got, [0.7246012825940931, 0.8864004090386206, 0.7952443950939817], rtol=1e-15
    )


def test_seed_range_validated():
    with pytest.raises(ValueError):
        Rng(-1)
    with pytest.raises(ValueError):
        Rng(1 << 64)
    Rng((1 << 64) - 1)  # max 64-bit value is fine


def test_child_index_validated():
    with pytest.raises(ValueError):
        Rng(10).child(-1)


@pytest.mark.parametrize("bad", [1.5, 1.0, True, np.float64(2.0), "1"])
def test_non_integer_seed_rejected(bad):
    # Rng(True) would draw exactly like Rng(1)
    with pytest.raises(ValueError, match=re.escape(f"seed must be an int, got {bad!r}")):
        Rng(bad)


@pytest.mark.parametrize("bad", [1.5, 1.0, False, np.float32(1.0)])
def test_non_integer_child_index_rejected(bad):
    # child(1.5) would share child(1)'s path, so two indices one stream
    with pytest.raises(ValueError, match=re.escape(f"child index must be an int, got {bad!r}")):
        Rng(10).child(bad)


def test_numpy_integers_accepted():
    a = Rng(np.uint64(10)).child(np.int64(3)).generator().random(4)
    b = Rng(10).child(3).generator().random(4)
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("bad, message", [
    ((1.5,), "path entry must be an int, got 1.5"),
    ((True,), "path entry must be an int, got True"),
    (("a",), "path entry must be an int, got 'a'"),
    ((-1,), "path entry must fit in 64 bits, got -1"),
    ((1 << 64,), f"path entry must fit in 64 bits, got {1 << 64}"),
    ([1], "path must be a tuple, got [1]"),
])
def test_bad_path_rejected(bad, message):
    # Rng(1, (1.5,)) used to fail only at generator(), inside numpy
    with pytest.raises(ValueError, match=re.escape(message)):
        Rng(1, bad)
