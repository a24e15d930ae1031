"""Tape ops between the padded (B, T, d) layout and the packed (N, d) one.

A padded batch holds N real tokens among its B·T positions. The packed
layout keeps only those, as the rows of an (N, d) array; ``rows`` holds
their flat indices into the B·T positions, in increasing order.
``scatter_rows`` and ``gather_rows`` move between the two layouts and are
each other's backward. ``dropout_rows`` draws its mask at the padded shape
and keeps the packed rows of it, so packing consumes the dropout stream
exactly as the padded layout does.
"""

from __future__ import annotations

import math

import numpy as np

from .tensor import Tensor, _make, dropout_mask


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


def dropout_rows(x: Tensor, rows: np.ndarray, total: int, p: float,
                 gen: np.random.Generator) -> Tensor:
    """Inverted dropout on packed rows, with the mask of all ``total`` rows.

    The mask is drawn for (total, d) entries, as for the padded layout, and
    only the rows at ``rows`` are applied; the other draws are discarded.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"dropout probability must be in (0, 1), got {p}")
    mask = dropout_mask((total, x.shape[-1]), p, x.dtype, gen)[rows]
    return _make(x.data * mask, (x,), lambda g: (g * mask,))
