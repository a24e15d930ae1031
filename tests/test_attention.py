"""The fused attention core against the composed ops it replaces."""

import numpy as np
import pytest

from pforge.model import prefix_attention_probs
from pforge.numerics import (
    Tensor,
    attention_core,
    dropout,
    matmul,
    parameter,
    sum_all,
    transpose,
)


def _inputs(n, dtype, seed=0, b=2, h=2, t=5, dh=3):
    gen = np.random.default_rng(seed)
    q = parameter(gen.normal(size=(b, h, t, dh)), dtype=dtype)
    k = parameter(gen.normal(size=(b, h, n + t, dh)), dtype=dtype)
    v = parameter(gen.normal(size=(b, h, n + t, dh)), dtype=dtype)
    mask = np.ones((b, t))
    mask[0, -2:] = 0
    return q, k, v, mask


def _reference(q, k, v, mask, n, p=0.0, gen=None):
    probs = prefix_attention_probs(matmul(q, transpose(k, (0, 1, 3, 2))), mask, n)
    if p > 0.0:
        probs = dropout(probs, p, gen)
    return matmul(probs, v)


@pytest.mark.parametrize("n", [0, 3])
@pytest.mark.parametrize("dtype, tol", [("float64", 1e-12), ("float32", 1e-6)])
def test_core_without_dropout_matches_composed_reference(n, dtype, tol):
    q, k, v, mask = _inputs(n, dtype)
    got = attention_core(q, k, v, mask, n)
    want = _reference(q, k, v, mask, n)
    assert got.dtype == want.dtype == np.dtype(dtype)
    np.testing.assert_allclose(got.data, want.data, rtol=tol, atol=tol)


@pytest.mark.parametrize("n", [0, 3])
@pytest.mark.parametrize("p", [0.0, 0.3])
def test_core_gradients_match_composed_reference(n, p):
    gen = np.random.default_rng(4)
    w = Tensor(gen.normal(size=(2, 2, 5, 3)))
    grads = []
    for f in (attention_core, _reference):
        q, k, v, mask = _inputs(n, "float64")
        out = f(q, k, v, mask, n, p, np.random.default_rng(9))
        sum_all(out * w).backward()
        grads.append((out.data, q.grad, k.grad, v.grad))
    for got, want in zip(*grads):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_padded_keys_get_no_weight_and_no_gradient():
    q, k, v, mask = _inputs(3, "float64")
    v.data[0, :, -2:] = 1e6  # padded values of row 0 must not leak into its output
    out = attention_core(q, k, v, mask, 3)
    assert np.all(np.abs(out.data[0]) < 1e3)
    sum_all(out).backward()
    assert np.all(k.grad[0, :, -2:] == 0.0) and np.all(v.grad[0, :, -2:] == 0.0)


def test_frozen_inputs_get_no_gradient():
    q, k, v, mask = _inputs(3, "float64")
    q.requires_grad = False
    sum_all(attention_core(q, k, v, mask, 3)).backward()
    assert q.grad is None and k.grad is not None and v.grad is not None


@pytest.mark.parametrize("change, match", [
    (lambda q, k, v, m, n: (q, k, v, m[:, :-1], n), "attn_mask"),
    (lambda q, k, v, m, n: (q, k, v, m, n + 1), "keys"),
    (lambda q, k, v, m, n: (q, k, Tensor(v.data[..., :-1]), m, n), "shapes"),
    (lambda q, k, v, m, n: (q, Tensor(k.data.astype(np.float32)), v, m, n), "dtypes"),
])
def test_bad_inputs_rejected(change, match):
    q, k, v, mask = _inputs(3, "float64")
    with pytest.raises(ValueError, match=match):
        attention_core(*change(q, k, v, mask, 3))
