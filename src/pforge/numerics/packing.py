"""Tape ops between the padded (B, T, d) layout and the packed (N, d) one.

A padded batch holds N real tokens among its B·T positions. The packed
layout keeps only those, as the rows of an (N, d) array; ``rows`` holds
their flat indices into the B·T positions, in increasing order.
``scatter_rows`` and ``gather_rows`` move between the two layouts and are
each other's backward.
"""

from __future__ import annotations

import math

import numpy as np

from .tensor import Tensor, _make


def _scatter(x: np.ndarray, rows: np.ndarray, lead: tuple[int, ...]) -> np.ndarray:
    out = np.zeros((math.prod(lead), x.shape[-1]), dtype=x.dtype)
    out[rows] = x
    return out.reshape(*lead, x.shape[-1])


def scatter_rows(x: Tensor, rows: np.ndarray, lead: tuple[int, int]) -> Tensor:
    """(N, d) packed rows -> (B, T, d) with zeros at every other position.

    lead is (B, T); rows holds N increasing flat indices into B·T.
    """
    if x.data.ndim != 2 or x.shape[0] != len(rows):
        raise ValueError(f"scatter_rows: {x.shape} does not hold {len(rows)} rows")
    d = x.shape[-1]
    return _make(_scatter(x.data, rows, lead), (x,), lambda g: (g.reshape(-1, d)[rows],))


def gather_rows(x: Tensor, rows: np.ndarray) -> Tensor:
    """(B, T, d) -> (N, d): the positions at the flat indices ``rows``."""
    lead = x.shape[:-1]
    return _make(x.data.reshape(-1, x.shape[-1])[rows], (x,),
                 lambda g: (_scatter(g, rows, lead),))
