"""Row ops between the padded and the packed layout."""

import numpy as np
import pytest

from pforge.numerics import Tensor, dropout
from pforge.numerics.packing import gather_rows, scatter_rows

MASK = np.array([[1, 1, 0, 0], [1, 1, 1, 0], [1, 0, 0, 0]])
ROWS = np.flatnonzero(MASK)


def test_scatter_then_gather_round_trips_and_pads_with_zeros(np_rng):
    x = Tensor(np_rng.normal(size=(ROWS.size, 5)), dtype="float32")
    padded = scatter_rows(x, ROWS, MASK.shape)
    assert padded.shape == (3, 4, 5) and padded.dtype == np.float32
    assert np.all(padded.data[MASK == 0] == 0.0)
    assert np.array_equal(padded.data[MASK == 1], x.data)
    assert np.array_equal(gather_rows(padded, ROWS).data, x.data)


def test_scatter_rows_rejects_a_row_count_mismatch():
    with pytest.raises(ValueError, match="rows"):
        scatter_rows(Tensor(np.zeros((ROWS.size - 1, 5))), ROWS, MASK.shape)


@pytest.mark.parametrize("p", [0.0, 1.0])
def test_dropout_rows_rejects_p_outside_the_open_interval(p):
    # Hidden dropout runs on the packed (N, d) rows through tensor.dropout.
    with pytest.raises(ValueError, match="dropout probability"):
        dropout(Tensor(np.zeros((ROWS.size, 5))), p, np.random.default_rng(0))
