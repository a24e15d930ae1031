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
    lengths = np.full(b, t)
    lengths[0] = t - 2
    return q, k, v, lengths


def _reference(q, k, v, lengths, p=0.0, gen=None):
    """The composed ops over the padded batch, padded query rows included."""
    probs = prefix_attention_probs(matmul(q, transpose(k, (0, 1, 3, 2))), lengths)
    if p > 0.0:
        probs = dropout(probs, p, gen)
    return matmul(probs, v)


def _per_example(q, k, v, lengths, p, gen, weight):
    """Output and q/k/v gradients of _reference composed on each example
    alone: its 1-example slice cut to its length, with gen consumed in batch
    order, under the loss sum_all(out * weight)."""
    t = q.shape[2]
    n = k.shape[2] - t
    res = [np.zeros(a.shape, dtype=a.dtype) for a in (q, q, k, v)]
    for i, length in enumerate(lengths.tolist()):
        rows, keys = np.s_[i:i + 1, :, :length], np.s_[i:i + 1, :, :n + length]
        qi, ki, vi = (parameter(a.data[ix], dtype=a.dtype.name)
                      for a, ix in ((q, rows), (k, keys), (v, keys)))
        out = _reference(qi, ki, vi, np.array([length]), p, gen)
        sum_all(out * weight[rows]).backward()
        for r, ix, a in zip(res, (rows, rows, keys, keys), (out.data, qi.grad, ki.grad, vi.grad)):
            r[ix] = a
    return res


def _real(lengths, t):
    """(B, T) True on each example's first lengths[i] positions."""
    return np.arange(t) < lengths[:, None]


def _contract(q, k, v, lengths, p=0.0, gen=None):
    """_reference with its padded query rows set to 0, as attention_core gives them."""
    real = _real(lengths, q.shape[2])
    return _reference(q, k, v, lengths, p, gen) * real[:, None, :, None]


@pytest.mark.parametrize("n", [0, 3])
@pytest.mark.parametrize("dtype, tol", [("float64", 1e-12), ("float32", 1e-6)])
def test_core_without_dropout_matches_composed_reference(n, dtype, tol):
    q, k, v, lengths = _inputs(n, dtype)
    got = attention_core(q, k, v, lengths)
    want = _contract(q, k, v, lengths)
    assert got.dtype == want.dtype == np.dtype(dtype)
    np.testing.assert_allclose(got.data, want.data, rtol=tol, atol=tol)


@pytest.mark.parametrize("n", [0, 3])
@pytest.mark.parametrize("p", [0.0, 0.3])
def test_core_gradients_match_composed_reference(n, p):
    w = np.random.default_rng(4).normal(size=(2, 2, 5, 3))
    q, k, v, lengths = _inputs(n, "float64")
    out = attention_core(q, k, v, lengths, p, np.random.default_rng(9))
    sum_all(out * w).backward()
    want = _per_example(q, k, v, lengths, p, np.random.default_rng(9), w)
    for got, ref in zip((out.data, q.grad, k.grad, v.grad), want):
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)


def _lengths(case):
    """(lengths, T) of a right-padded batch."""
    if case == "several blocks":
        # 1,200 short examples
        return np.random.default_rng(2).integers(1, 9, size=1200), 8
    return np.array({
        "right-padded": [6, 3, 5],
        "interior hole": [3, 5, 2],
        "one token": [1, 6, 1],
    }[case]), 6


@pytest.mark.parametrize("case", ["right-padded", "interior hole", "one token",
                                  "several blocks"])
@pytest.mark.parametrize("n", [0, 3])
@pytest.mark.parametrize("p", [0.0, 0.3])
# float32 gradients get 4e-6: on the 1,200-example batch, the composed
# reference's own float32 gradients are up to 2e-6 from its float64 ones
@pytest.mark.parametrize("dtype, tol, grad_tol", [("float64", 1e-12, 1e-12),
                                                  ("float32", 1e-6, 4e-6)])
def test_real_rows_match_reference_and_padded_rows_are_zero(case, n, p, dtype, tol, grad_tol):
    lengths, t = _lengths(case)
    b = lengths.size
    real = _real(lengths, t)
    w = np.random.default_rng(4).normal(size=(b, 2, t, 3))
    q, k, v, _ = _inputs(n, dtype, b=b, t=t)
    out = attention_core(q, k, v, lengths, p, np.random.default_rng(9))
    sum_all(out * w).backward()
    out, gq, gk, gv = out.data, q.grad, k.grad, v.grad
    # the reference's loss skips padded query rows, so its gradients hold
    # only what the real rows pass back; the core's loss weights every row
    weight = w * real[:, None, :, None]
    if p == 0.0:  # no keep mask to draw: the padded batch is a reference too
        q, k, v, _ = _inputs(n, dtype, b=b, t=t)
        ref = _reference(q, k, v, lengths)
        sum_all(ref * weight).backward()
        want = [ref.data, q.grad, k.grad, v.grad]
    else:
        want = _per_example(q, k, v, lengths, p, np.random.default_rng(9), weight)
    assert out.dtype == np.dtype(dtype)
    np.testing.assert_allclose(out.transpose(0, 2, 1, 3)[real],
                               want[0].transpose(0, 2, 1, 3)[real], rtol=tol, atol=tol)
    assert np.all(out.transpose(0, 2, 1, 3)[~real] == 0)
    assert np.all(gq.transpose(0, 2, 1, 3)[~real] == 0)
    for g, ref in zip((gq, gk, gv), want[1:]):
        np.testing.assert_allclose(g, ref, rtol=grad_tol, atol=grad_tol)


@pytest.mark.parametrize("n", [0, 8])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_each_example_gets_the_bits_it_gets_alone(n, dtype):
    # a fewshot-shaped batch: lengths 1..41, one of them full
    b, t = 16, 41
    gen = np.random.default_rng(11)
    lengths = gen.integers(1, t + 1, size=b)
    lengths[0] = t
    w = gen.normal(size=(b, 4, t, 16))
    q, k, v, _ = _inputs(n, dtype, seed=12, b=b, h=4, t=t, dh=16)
    out = attention_core(q, k, v, lengths)
    sum_all(out * w).backward()
    for i in range(b):
        qi, ki, vi = (parameter(a.data[i:i + 1], dtype=dtype) for a in (q, k, v))
        alone = attention_core(qi, ki, vi, lengths[i:i + 1])
        sum_all(alone * w[i:i + 1]).backward()
        for got, want in ((out.data, alone.data), (q.grad, qi.grad), (k.grad, ki.grad),
                          (v.grad, vi.grad)):
            assert got.dtype == want.dtype and got[i].tobytes() == want[0].tobytes()


def test_padded_keys_get_no_weight_and_no_gradient():
    q, k, v, lengths = _inputs(3, "float64")
    v.data[0, :, -2:] = 1e6  # padded values of row 0 must not leak into its output
    out = attention_core(q, k, v, lengths)
    assert np.all(np.abs(out.data[0]) < 1e3)
    sum_all(out).backward()
    assert np.all(k.grad[0, :, -2:] == 0.0) and np.all(v.grad[0, :, -2:] == 0.0)


def test_frozen_inputs_get_no_gradient():
    q, k, v, lengths = _inputs(3, "float64")
    q.requires_grad = False
    sum_all(attention_core(q, k, v, lengths)).backward()
    assert q.grad is None and k.grad is not None and v.grad is not None


@pytest.mark.parametrize("change, match", [
    (lambda q, k, v, m: (q, k, v, m[:-1]), "lengths"),
    (lambda q, k, v, m: (q, k, v, m[:, None]), "lengths"),
    (lambda q, k, v, m: (q, k, v, m.astype(float)), "lengths"),
    (lambda q, k, v, m: (q, k, v, np.array([0, 5])), r"lengths\[0\] is 0"),
    (lambda q, k, v, m: (q, k, v, np.array([5, 6])), r"lengths\[1\] is 6"),
    (lambda q, k, v, m: (q, Tensor(k.data[..., :4, :]), Tensor(v.data[..., :4, :]), m),
     "keys"),
    (lambda q, k, v, m: (q, k, Tensor(v.data[..., :-1]), m), "shapes"),
    (lambda q, k, v, m: (q, Tensor(k.data.astype(np.float32)), v, m), "dtypes"),
])
def test_bad_inputs_rejected(change, match):
    q, k, v, lengths = _inputs(3, "float64")
    with pytest.raises(ValueError, match=match):
        attention_core(*change(q, k, v, lengths))


def test_dropout_without_generator_rejected():
    q, k, v, lengths = _inputs(3, "float64")
    with pytest.raises(ValueError, match="gen=None"):
        attention_core(q, k, v, lengths, 0.5, None)


@pytest.mark.parametrize("p", [1.0, np.inf, 1.5, -0.5, np.nan])
def test_dropout_p_outside_unit_interval_rejected(p):
    q, k, v, lengths = _inputs(3, "float64")
    with pytest.raises(ValueError, match="dropout_p"):
        attention_core(q, k, v, lengths, p, np.random.default_rng(1))
