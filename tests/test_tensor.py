import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from pforge.numerics import (
    Tensor,
    add,
    attention_core,
    concat_seq,
    cross_entropy,
    dropout,
    embedding,
    gather_positions,
    gelu,
    layer_norm,
    matmul,
    merge_heads,
    mul,
    no_grad,
    parameter,
    softmax_rows,
    split_heads,
    sum_all,
    transpose,
)
from pforge.numerics import attention as attention_module
from pforge.numerics import packing as packing_module
from pforge.numerics import special
from pforge.numerics import tensor as tensor_module
from pforge.numerics.packing import gather_rows, scatter_rows
from pforge.numerics.tensor import _make, dropout_mask, expand, reshape, scale


def matmul_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Scalar-loop matrix product, independent of the library path."""
    m, k = a.shape
    k2, p = b.shape
    assert k == k2
    out = np.zeros((m, p), dtype=np.float64)
    for i in range(m):
        for j in range(p):
            s = 0.0
            for t in range(k):
                s += float(a[i, t]) * float(b[t, j])
            out[i, j] = s
    return out


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3))
        eye = Tensor(np.eye(2))
        np.testing.assert_array_equal(matmul(eye, a).data, a.data)

    def test_hand_case(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0], [6.0]])
        np.testing.assert_array_equal(matmul(a, b).data, [[17.0], [39.0]])

    def test_zero(self):
        a = Tensor(np.zeros((3, 4)))
        b = Tensor(np.ones((4, 2)))
        assert np.all(matmul(a, b).data == 0)

    def test_against_scalar_loop_oracle(self, np_rng):
        for _ in range(10):
            a = np_rng.normal(size=(4, 5))
            b = np_rng.normal(size=(5, 3))
            got = matmul(Tensor(a), Tensor(b)).data
            np.testing.assert_allclose(got, matmul_oracle(a, b), rtol=1e-12)

    def test_shape_mismatch_message(self):
        with pytest.raises(ValueError, match=r"\(2, 3\) @ \(2, 3\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_one_dimensional_operands_rejected(self):
        with pytest.raises(ValueError, match=r"2-d or higher.*\(3,\) @ \(3, 2\)"):
            matmul(Tensor(np.zeros(3)), Tensor(np.zeros((3, 2))))
        with pytest.raises(ValueError, match="2-d or higher"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros(3)))

    def test_batched_matches_per_item(self, np_rng):
        a = np_rng.normal(size=(3, 4, 5))
        w = np_rng.normal(size=(5, 2))
        got = matmul(Tensor(a), Tensor(w)).data
        for i in range(3):
            np.testing.assert_allclose(got[i], a[i] @ w, rtol=1e-12)

    def test_gradients(self, np_rng):
        a = parameter(np_rng.normal(size=(2, 3)), dtype="float64")
        b = parameter(np_rng.normal(size=(3, 4)), dtype="float64")
        g = np_rng.normal(size=(2, 4))
        out = matmul(a, b)
        loss = sum_all(out * Tensor(g))
        loss.backward()
        np.testing.assert_allclose(a.grad, g @ b.data.T, rtol=1e-12)
        np.testing.assert_allclose(b.grad, a.data.T @ g, rtol=1e-12)


class TestSoftmax:
    def test_constant_row_uniform(self):
        out = softmax_rows(Tensor(np.full((2, 5), 3.7))).data
        np.testing.assert_allclose(out, 0.2, rtol=1e-6)

    def test_closed_form(self):
        out = softmax_rows(Tensor([[0.0, math.log(3.0)]])).data
        np.testing.assert_allclose(out, [[0.25, 0.75]], rtol=1e-12)

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=8),
           st.floats(-30, 30))
    @settings(max_examples=50, deadline=None)
    def test_shift_invariance(self, row, c):
        v = np.array([row], dtype=np.float64)
        a = softmax_rows(Tensor(v)).data
        b = softmax_rows(Tensor(v + c)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    @given(st.lists(st.floats(-80, 80), min_size=1, max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_rows_sum_to_one(self, row):
        out = softmax_rows(Tensor([row])).data
        assert np.all(out >= 0)
        assert abs(out.sum() - 1.0) < 1e-6


class TestLayerNorm:
    def test_constant_vector_zeros(self):
        x = Tensor(np.full((1, 4), 2.5))
        g = Tensor(np.ones(4))
        b = Tensor(np.zeros(4))
        np.testing.assert_allclose(layer_norm(x, g, b).data, 0.0, atol=1e-3)

    def test_hand_case(self):
        x = Tensor([[1.0, 3.0]])
        g = Tensor(np.ones(2))
        b = Tensor(np.zeros(2))
        out = layer_norm(x, g, b).data
        np.testing.assert_allclose(out, [[-1.0, 1.0]], atol=1e-5)

    def test_mean_var_property(self, np_rng):
        x = Tensor(np_rng.normal(size=(6, 16)))
        g = Tensor(np.ones(16))
        b = Tensor(np.zeros(16))
        out = layer_norm(x, g, b).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-5)
        np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-4)

    def test_affine_shape_mismatch(self):
        with pytest.raises(ValueError, match="gain"):
            layer_norm(Tensor(np.zeros((2, 4))), Tensor(np.ones(3)), Tensor(np.zeros(4)))

    @pytest.mark.parametrize("name", ["gain", "bias"])
    @pytest.mark.parametrize("dtype, other", [("float32", "float64"),
                                              ("float64", "float32")])
    def test_affine_dtype_mismatch_rejected_naming_it(self, name, dtype, other):
        dtypes = {"gain": dtype, "bias": dtype, name: other}
        with pytest.raises(ValueError, match=f"layer_norm inputs mix dtypes {dtype}, "
                                             f"{dtypes['gain']}, {dtypes['bias']}$"):
            layer_norm(Tensor(np.ones((2, 4)), dtype=dtype),
                       Tensor(np.ones(4), dtype=dtypes["gain"]),
                       Tensor(np.zeros(4), dtype=dtypes["bias"]))


class TestCrossEntropy:
    def test_uniform_logits(self):
        for c in (2, 5, 11):
            loss = cross_entropy(Tensor(np.zeros((3, c))), np.zeros(3, dtype=int))
            np.testing.assert_allclose(loss.data, math.log(c), rtol=1e-6)

    def test_hand_case(self):
        # independent oracle: -ln softmax_0 of [2, 1, 0]
        z = np.array([2.0, 1.0, 0.0])
        expected = -math.log(math.exp(z[0]) / np.exp(z).sum())
        assert abs(expected - 0.4076) < 5e-5
        loss = cross_entropy(Tensor(z[None, :]), np.array([0]))
        np.testing.assert_allclose(loss.data, expected, rtol=1e-10)

    def test_margin_to_zero(self):
        prev = None
        for margin in (1.0, 5.0, 20.0):
            logits = Tensor(np.array([[margin, 0.0]]))
            loss = float(cross_entropy(logits, np.array([0])).data)
            if prev is not None:
                assert loss < prev
            prev = loss
        assert prev < 1e-8

    def test_ignored_rows_contribute_nothing(self):
        logits = np.array([[2.0, 0.0], [100.0, -100.0]])
        full = cross_entropy(Tensor(logits), np.array([0, -100]))
        only = cross_entropy(Tensor(logits[:1]), np.array([0]))
        np.testing.assert_allclose(full.data, only.data, rtol=1e-12)

    def test_all_ignored_raises(self):
        with pytest.raises(ValueError, match="empty loss"):
            cross_entropy(Tensor(np.zeros((2, 3))), np.array([-100, -100]))

    def test_out_of_range_target(self):
        with pytest.raises(ValueError, match="out of range"):
            cross_entropy(Tensor(np.zeros((1, 3))), np.array([3]))

    @pytest.mark.parametrize("targets", [np.array([0.0, 1.0]), np.array([True, False]),
                                         np.array([0, 1], dtype=np.float32)],
                             ids=["float64", "bool", "float32"])
    def test_non_integer_targets_rejected_naming_them(self, targets):
        with pytest.raises(ValueError, match=f"targets must be integer class ids, "
                                             f"got dtype {targets.dtype}"):
            cross_entropy(Tensor(np.zeros((2, 3))), targets)

    @pytest.mark.parametrize("dtype", [np.int32, np.uint8])
    def test_any_integer_targets_accepted(self, dtype):
        logits = np.array([[2.0, 1.0, 0.0], [0.0, 3.0, 1.0]])
        want = cross_entropy(Tensor(logits), np.array([0, 1])).data
        got = cross_entropy(Tensor(logits), np.array([0, 1], dtype=dtype)).data
        assert got == want

    @given(st.integers(2, 8), st.integers(1, 6), st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_non_negative(self, c, n, seed):
        g = np.random.default_rng(seed)
        logits = Tensor(g.normal(size=(n, c)) * 5)
        targets = g.integers(0, c, size=n)
        assert float(cross_entropy(logits, targets).data) >= 0.0


class TestConcatSeq:
    def test_empty_prefix_identity(self):
        seq = Tensor(np.arange(12, dtype=np.float64).reshape(3, 4))
        out = concat_seq(Tensor(np.zeros((0, 4))), seq)
        np.testing.assert_array_equal(out.data, seq.data)

    def test_shape_law(self):
        out = concat_seq(Tensor(np.zeros((8, 64))), Tensor(np.zeros((120, 64))))
        assert out.shape == (128, 64)

    def test_gradient_splits(self):
        p = parameter(np.ones((2, 3)), dtype="float64")
        s = parameter(np.ones((4, 3)), dtype="float64")
        sum_all(concat_seq(p, s)).backward()
        np.testing.assert_array_equal(p.grad, np.ones((2, 3)))
        np.testing.assert_array_equal(s.grad, np.ones((4, 3)))

    def test_trailing_dim_mismatch(self):
        with pytest.raises(ValueError, match="disagree"):
            concat_seq(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))


class TestStructuralOps:
    def test_embedding_forward_and_grad(self):
        table = parameter(np.arange(12, dtype=np.float64).reshape(4, 3), dtype="float64")
        ids = np.array([[1, 1], [3, 0]])
        out = embedding(table, ids)
        np.testing.assert_array_equal(out.data[0, 0], table.data[1])
        sum_all(out).backward()
        # row 1 used twice, rows 0 and 3 once, row 2 never
        np.testing.assert_array_equal(table.grad[:, 0], [1.0, 2.0, 0.0, 1.0])

    def test_embedding_rejects_out_of_vocab(self):
        with pytest.raises(ValueError, match="out of range"):
            embedding(Tensor(np.zeros((4, 3))), np.array([4]))

    def test_gather_positions(self):
        x = parameter(np.arange(24, dtype=np.float64).reshape(2, 4, 3), dtype="float64")
        out = gather_positions(x, np.array([0, 1]), np.array([2, 0]))
        np.testing.assert_array_equal(out.data[0], x.data[0, 2])
        np.testing.assert_array_equal(out.data[1], x.data[1, 0])
        sum_all(out).backward()
        assert x.grad[0, 2].sum() == 3.0 and x.grad[1, 0].sum() == 3.0
        assert x.grad.sum() == 6.0

    @pytest.mark.parametrize("shape, rows, cols, match", [
        ((4, 3), [0], [1], r"\(B, T, d\) tensor, got shape \(4, 3\)"),
        ((2, 4, 3), [-1], [0], "row index -1 outside"),
        ((2, 4, 3), [0, 5], [0, 0], "row index 5 outside"),
        ((2, 4, 3), [0], [4], "column index 4 outside"),
        ((2, 4, 3), [1], [-2], "column index -2 outside"),
    ], ids=["2d", "row-1", "row5", "col4", "col-2"])
    def test_gather_positions_rejects_positions_outside_x(self, shape, rows, cols, match):
        with pytest.raises(ValueError, match=match):
            gather_positions(Tensor(np.zeros(shape)), np.array(rows), np.array(cols))

    def test_split_merge_heads_roundtrip(self, np_rng):
        x = Tensor(np_rng.normal(size=(2, 5, 8)))
        back = merge_heads(split_heads(x, 4))
        np.testing.assert_array_equal(back.data, x.data)

    def test_transpose_grad(self, np_rng):
        x = parameter(np_rng.normal(size=(2, 3, 4)), dtype="float64")
        w = np_rng.normal(size=(4, 3, 2))
        sum_all(transpose(x, (2, 1, 0)) * Tensor(w)).backward()
        np.testing.assert_allclose(x.grad, np.transpose(w, (2, 1, 0)))

    def test_gelu_values(self):
        # erf-based GELU at a few reference points
        out = gelu(Tensor(np.array([0.0, 1.0, -1.0]))).data
        np.testing.assert_allclose(out, [0.0, 0.8413447, -0.1586553], atol=1e-6)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_gelu_bits_and_dtype_match_the_cast_formula(self, dtype, np_rng):
        x = parameter(np_rng.normal(0, 2, size=(7, 9)), dtype=dtype)
        g = np_rng.normal(size=(7, 9)).astype(dtype)
        out = gelu(x)
        sum_all(out * Tensor(g)).backward()
        cdf = 0.5 * (1.0 + erf(x.data * 0.7071067811865476))
        pdf = 0.3989422804014327 * np.exp(-0.5 * x.data * x.data)
        assert out.dtype == x.dtype and x.grad.dtype == x.dtype
        assert np.array_equal(out.data, (x.data * cdf).astype(x.dtype))
        assert np.array_equal(x.grad, (cdf + x.data * pdf).astype(x.dtype) * g)

    def test_dropout_deterministic_given_generator(self, np_rng):
        from pforge.numerics import Rng

        x = Tensor(np.ones((100,)))
        a = dropout(x, 0.5, Rng(7).stream("dropout").generator()).data
        b = dropout(x, 0.5, Rng(7).stream("dropout").generator()).data
        np.testing.assert_array_equal(a, b)
        kept = a != 0
        np.testing.assert_allclose(a[kept], 2.0)

    def test_dropout_float32_keeps_nine_tenths_at_model_dtype(self):
        from pforge.numerics import Rng

        n, p = 10**6, 0.1
        x = Tensor(np.ones(n), dtype="float32")
        a = dropout(x, p, Rng(3).stream("dropout").generator()).data
        b = dropout(x, p, Rng(3).stream("dropout").generator()).data
        kept = a != 0
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(kept.sum() - n * (1 - p)) < 5 * sigma
        assert a.dtype == np.float32
        assert np.all(a[kept] == np.float32(1 / (1 - p)))
        np.testing.assert_array_equal(a, b)

    def test_dropout_rejects_bad_p(self, np_rng):
        for p in (0.0, 1.0):
            with pytest.raises(ValueError, match="dropout probability"):
                dropout(Tensor(np.ones(3)), p, np_rng)


def float_dropout_mask(shape, p, dtype, gen):
    """The float inverted-dropout mask (0 or 1/(1-p) at dtype) drawn the way
    dropout_mask draws its keep mask: the reference for the boolean mask."""
    size = math.prod(shape)
    words = gen.bit_generator.random_raw((size + 1) // 2).view(np.uint32)[:size]
    keep = words >= np.uint32(min(round(p * 2**32), 2**32 - 1))
    return np.multiply(keep, dtype(1.0 / (1.0 - p)), dtype=dtype).reshape(shape)


def float_mask_attention(q, k, v, lengths, p, gen):
    """attention_core's output and backward, example by example, each cut to
    its length and applying a float dropout mask drawn at that cut, examples
    in batch order."""
    n = k.shape[-2] - q.shape[2]
    out = np.zeros_like(q)
    parts = []
    for i, length in enumerate(lengths):
        cols = slice(0, n + length)
        probs = q[i, :, :length] @ np.swapaxes(k[i, :, cols], -1, -2)
        probs -= probs.max(axis=-1, keepdims=True)
        np.exp(probs, out=probs)
        probs /= probs.sum(axis=-1, keepdims=True)
        mask = float_dropout_mask(probs.shape, p, q.dtype.type, gen)
        out[i, :, :length] = (probs * mask) @ v[i, :, cols]
        parts.append((i, length, cols, probs, mask))

    def bwd(g):
        gq, gk, gv = np.zeros_like(q), np.zeros_like(k), np.zeros_like(v)
        for i, length, cols, probs, mask in parts:
            gi = g[i, :, :length]
            gs = (gi @ np.swapaxes(v[i, :, cols], -1, -2)) * mask
            gs -= np.einsum("...j,...j->...", gs, probs)[..., None]
            gs *= probs
            gq[i, :, :length] = gs @ k[i, :, cols]
            gk[i, :, cols] = np.swapaxes(gs, -1, -2) @ q[i, :, :length]
            gv[i, :, cols] = np.swapaxes(probs * mask, -1, -2) @ gi
        return gq, gk, gv

    return out, bwd


def same_bits(a, b):
    """Equal dtype, shape and bits, so -0.0 differs from 0.0."""
    utype = {np.float32: np.uint32, np.float64: np.uint64}[a.dtype.type]
    return a.dtype == b.dtype and np.array_equal(a.view(utype), b.view(utype))


class TestBooleanKeepMask:
    """A one-byte keep mask gives the bits of the float mask it replaced."""

    def test_mask_is_bool_and_keeps_the_float_masks_entries(self):
        shape, p = (3, 5, 7), 0.3  # an odd size leaves half a raw draw unused
        keep = dropout_mask(shape, p, np.random.default_rng(1))
        want = float_dropout_mask(shape, p, np.float32, np.random.default_rng(1))
        assert keep.dtype == np.bool_ and keep.shape == shape
        assert np.array_equal(keep, want != 0) and 0 < keep.sum() < keep.size

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dropout_bits_match_the_float_mask(self, dtype):
        gen = np.random.default_rng(2)
        x = gen.normal(size=(6, 40)).astype(dtype)
        x[0, :10], x[1, :10] = 0.0, -0.0
        g = gen.normal(size=x.shape).astype(dtype)  # negative entries included
        out = dropout(parameter(x, dtype=np.dtype(dtype).name), 0.1,
                      np.random.default_rng(3))
        mask = float_dropout_mask(x.shape, 0.1, dtype, np.random.default_rng(3))
        assert same_bits(out.data, x * mask)
        assert same_bits(out._node.bwd(g)[0], g * mask)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_attention_core_bits_match_the_float_mask(self, dtype):
        gen = np.random.default_rng(4)
        q, k, v = (gen.normal(size=s).astype(dtype)
                   for s in [(2, 2, 5, 3), (2, 2, 8, 3), (2, 2, 8, 3)])
        lengths = np.array([3, 5])
        g = gen.normal(size=(2, 2, 5, 3)).astype(dtype)
        inputs = [parameter(a, dtype=np.dtype(dtype).name) for a in (q, k, v)]
        out = attention_core(*inputs, lengths, 0.3, np.random.default_rng(5))
        want, want_bwd = float_mask_attention(q, k, v, lengths, 0.3,
                                              np.random.default_rng(5))
        assert same_bits(out.data, want)
        for got, ref in zip(out._node.bwd(g), want_bwd(g)):
            assert same_bits(got, ref)


# The out-of-place formulas that gelu, layer_norm, cross_entropy, concat_seq
# and matmul's backward compute in place: each returns the forward result
# and the backward closure.


def gelu_formula(x):
    cdf = special.erf(x * 0.7071067811865476)
    cdf += 1.0
    cdf *= 0.5
    deriv = cdf + x * (0.3989422804014327 * np.exp(-0.5 * x * x))
    return x * cdf, lambda g: (deriv * g,)


def layer_norm_formula(x, gain, bias):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = xc * inv

    def bwd(g):
        gxhat = g * gain
        m1 = gxhat.mean(axis=-1, keepdims=True)
        m2 = (gxhat * xhat).mean(axis=-1, keepdims=True)
        axes = tuple(range(g.ndim - 1))
        return (inv * (gxhat - m1 - xhat * m2), (g * xhat).sum(axis=axes),
                g.sum(axis=axes))

    return xhat * gain + bias, bwd


def cross_entropy_formula(logits, targets):
    n, c = logits.shape
    keep = targets != -100
    n_keep = int(keep.sum())
    tk = targets[keep]
    x = logits[keep]
    shifted = x - x.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1)) + x.max(axis=-1)
    losses = lse - x[np.arange(n_keep), tk]

    def bwd(g):
        probs = np.exp(shifted)
        probs /= probs.sum(axis=-1, keepdims=True)
        probs[np.arange(n_keep), tk] -= 1.0
        full = np.zeros((n, c), dtype=logits.dtype)
        full[keep] = probs * (float(g) / n_keep)
        return (full,)

    return np.asarray(losses.mean(), dtype=logits.dtype), bwd


class TestInPlaceBits:
    """Each op written in place has the bits of its out-of-place formula."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gelu(self, dtype):
        gen = np.random.default_rng(11)
        # wide enough for erf's tail branch, and more than one erf chunk
        x = (gen.normal(size=(170, 100)) * 2).astype(dtype)
        x[0, :4] = [0.0, -0.0, 9.0, -9.0]
        g = gen.normal(size=x.shape).astype(dtype)
        out = gelu(parameter(x, dtype=np.dtype(dtype).name))
        want, want_bwd = gelu_formula(x)
        assert same_bits(out.data, want)
        assert same_bits(out._node.bwd(g)[0], want_bwd(g)[0])

    @pytest.mark.parametrize("frozen", [None, 0, 1, 2], ids=["none", "x", "gain", "bias"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(37, 64), (3, 11, 64)], ids=["2d", "3d"])
    def test_layer_norm(self, shape, dtype, frozen):
        gen = np.random.default_rng(12)
        arrays = [gen.normal(size=s).astype(dtype) * 3 + 1 for s in (shape, shape[-1:],
                                                                      shape[-1:])]
        g = gen.normal(size=shape).astype(dtype)
        out = layer_norm(*(Tensor(a, requires_grad=i != frozen)
                           for i, a in enumerate(arrays)))
        want, want_bwd = layer_norm_formula(*arrays)
        assert same_bits(out.data, want)
        for i, (got, ref) in enumerate(zip(out._node.bwd(g), want_bwd(g))):
            assert got is None if i == frozen else same_bits(got, ref)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("ignored", [0, 3], ids=["none-ignored", "some-ignored"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_cross_entropy(self, dtype, ignored, order):
        gen = np.random.default_rng(13)
        logits = (gen.normal(size=(40, 2000)) * 4).astype(dtype, order=order)
        targets = gen.integers(0, 2000, size=40)
        targets[gen.permutation(40)[:ignored]] = -100
        g = np.asarray(0.37, dtype=dtype)
        out = cross_entropy(parameter(logits, dtype=np.dtype(dtype).name), targets)
        want, want_bwd = cross_entropy_formula(logits, targets)
        assert same_bits(out.data, want)
        assert same_bits(out._node.bwd(g)[0], want_bwd(g)[0])

    def test_concat_seq_gradients_are_slices_of_the_upstream_gradient(self):
        gen = np.random.default_rng(14)
        p, q = parameter(gen.normal(size=(2, 3, 4))), parameter(gen.normal(size=(2, 5, 4)))
        g = gen.normal(size=(2, 8, 4)).astype(np.float32)
        gp, gq = concat_seq(p, q)._node.bwd(g)
        assert np.shares_memory(gp, g) and np.shares_memory(gq, g)
        assert same_bits(gp, np.ascontiguousarray(g[:, :3])) and same_bits(gq, g[:, 3:].copy())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(16, 40, 64), (4, 3, 2, 64)], ids=["3d", "4d"])
    def test_matmul_input_gradient_matches_the_transposed_view_product(self, shape, dtype):
        # a BLAS build may order the sums of a transposed and a contiguous
        # operand differently, so this holds to the dot product's error bound
        gen = np.random.default_rng(15)
        x, w = gen.normal(size=shape).astype(dtype), gen.normal(size=(64, 48)).astype(dtype)
        g = gen.normal(size=shape[:-1] + (48,)).astype(dtype)
        ga, gw = matmul(parameter(x, dtype=np.dtype(dtype).name),
                        parameter(w, dtype=np.dtype(dtype).name))._node.bwd(g)
        want = g @ np.swapaxes(w, -1, -2)
        bound = 48 * np.finfo(dtype).eps * (np.abs(g) @ np.abs(w.T))
        assert ga.dtype == dtype and np.all(np.abs(ga - want) <= bound)
        assert same_bits(gw, (np.swapaxes(x, -1, -2) @ g).sum(axis=tuple(range(len(shape) - 2))))


# Integer inputs of the ops below; test_ops_do_not_mutate_inputs checks them too.
INT_INPUTS = {
    "targets": np.array([2, 0, 5, 1]),
    "ignoring": np.array([2, -100, 5, 1]),
    "ids": np.array([[1, 4], [4, 0]]),
    "rows": np.array([0, 1, 1]),
    "cols": np.array([3, 0, 2]),
    "lengths": np.array([2, 3]),
    "packed": np.array([0, 1, 3, 4, 5]),
}

# Every tape op of tensor.py, attention.py and packing.py: (input shapes, the
# op as a function of its tensor inputs). split_heads and merge_heads compose
# two nodes; attention_core gets one prefix key and dropout.
TAPE_OPS = {
    "add": ([(2, 3), (3,)], add),
    "mul": ([(2, 3), (2, 3)], mul),
    "scale": ([(2, 3)], lambda a: scale(a, 0.5)),
    "reshape": ([(2, 6)], lambda a: reshape(a, (3, 4))),
    "transpose": ([(2, 3, 4)], lambda a: transpose(a, (1, 2, 0))),
    "expand": ([(1, 3)], lambda a: expand(a, (4, 3))),
    "sum_all": ([(2, 3)], sum_all),
    "matmul": ([(2, 4, 3), (3, 5)], matmul),
    "softmax_rows": ([(3, 5)], softmax_rows),
    "layer_norm": ([(4, 6), (6,), (6,)], layer_norm),
    "gelu": ([(3, 5)], gelu),
    "cross_entropy": ([(4, 6)], lambda x: cross_entropy(x, INT_INPUTS["targets"])),
    "cross_entropy-ignoring": ([(4, 6)],
                               lambda x: cross_entropy(x, INT_INPUTS["ignoring"])),
    "concat_seq": ([(2, 2, 3), (2, 4, 3)], concat_seq),
    "embedding": ([(5, 3)], lambda t: embedding(t, INT_INPUTS["ids"])),
    "gather_positions": ([(2, 4, 3)], lambda x: gather_positions(
        x, INT_INPUTS["rows"], INT_INPUTS["cols"])),
    "dropout": ([(4, 5)], lambda x: dropout(x, 0.3, np.random.default_rng(0))),
    "split_heads": ([(2, 3, 4)], lambda x: split_heads(x, 2)),
    "merge_heads": ([(2, 2, 3, 2)], merge_heads),
    "attention_core": ([(2, 2, 3, 2), (2, 2, 4, 2), (2, 2, 4, 2)],
                       lambda q, k, v: attention_core(q, k, v, INT_INPUTS["lengths"], 0.2,
                                                      np.random.default_rng(1))),
    "scatter_rows": ([(5, 4)], lambda x: scatter_rows(x, INT_INPUTS["packed"], (2, 3))),
    "gather_rows": ([(2, 3, 4)], lambda x: gather_rows(x, INT_INPUTS["packed"])),
}

# public functions of those modules that are not tape ops
NOT_TAPE_OPS = {"no_grad", "parameter", "const", "dropout_mask"}


def run_backward(out: Tensor, g: np.ndarray) -> None:
    """Run out's node and every op node below it once, from the upstream
    gradient g, without storing a gradient anywhere."""
    stack = [(out._node, g)]
    while stack:
        node, g = stack.pop()
        for parent, pg in zip(node.parents, node.bwd(g)):
            if parent is not None and parent.leaf is None and pg is not None:
                stack.append((parent, pg))


class TestTape:
    def test_no_grad_skips_tape(self):
        p = parameter(np.ones((2, 2)), dtype="float64")
        with no_grad():
            out = matmul(p, p)
        assert not out.requires_grad and out._node is None

    def test_grad_accumulates_over_reuse(self):
        p = parameter(np.array([2.0]), dtype="float64")
        loss = sum_all(p * p)
        loss.backward()
        np.testing.assert_allclose(p.grad, [4.0])

    def test_backward_requires_scalar(self):
        p = parameter(np.ones((2, 2)), dtype="float64")
        with pytest.raises(ValueError, match="scalar"):
            (p * p).backward()

    # backward accepts a size-1 loss of any ndim, so item must too
    @pytest.mark.parametrize("shape", [(), (1,), (1, 1)])
    def test_item_of_a_size_one_tensor(self, shape):
        assert Tensor(np.full(shape, 2.5)).item() == 2.5

    def test_backward_of_tensor_without_gradient_rejected(self):
        with pytest.raises(ValueError, match="requires no gradient"):
            sum_all(Tensor(np.ones(3))).backward()

    def test_every_tape_op_is_checked_for_mutation(self):
        ops = {name for module in (tensor_module, attention_module, packing_module)
               for name, fn in vars(module).items()
               if callable(fn) and getattr(fn, "__module__", None) == module.__name__
               and not name.startswith("_") and not isinstance(fn, type)}
        assert ops - NOT_TAPE_OPS == {name.split("-")[0] for name in TAPE_OPS}

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("name", list(TAPE_OPS))
    def test_ops_do_not_mutate_inputs(self, name, dtype):
        shapes, fn = TAPE_OPS[name]
        gen = np.random.default_rng(7)
        arrays = [gen.normal(size=shape).astype(dtype) for shape in shapes]
        before = [a.copy() for a in arrays]
        ints = {key: a.copy() for key, a in INT_INPUTS.items()}
        out = fn(*(Tensor(a, requires_grad=True) for a in arrays))
        g = np.asarray(gen.normal(size=out.shape), dtype=dtype)
        g_before = g.copy()
        run_backward(out, g)
        for a, b in zip(arrays, before):
            assert same_bits(a, b)
        assert same_bits(g, g_before)
        for key, a in INT_INPUTS.items():
            np.testing.assert_array_equal(a, ints[key])

    @pytest.mark.parametrize("taped", [True, False])
    @pytest.mark.parametrize("dtype, other", [("float32", "float64"), ("float64", "float32")])
    @pytest.mark.parametrize("name, i", [(name, i) for name, (shapes, _) in TAPE_OPS.items()
                                         if len(shapes) > 1 for i in range(len(shapes))])
    def test_mixed_dtype_inputs_rejected_naming_the_op(self, name, i, dtype, other, taped):
        shapes, fn = TAPE_OPS[name]
        dtypes = [other if j == i else dtype for j in range(len(shapes))]
        inputs = [Tensor(np.ones(shape), requires_grad=True, dtype=d)
                  for shape, d in zip(shapes, dtypes)]
        with pytest.raises(ValueError, match=f"^{name} inputs mix dtypes {', '.join(dtypes)}$"):
            if taped:
                fn(*inputs)
            else:
                with no_grad():
                    fn(*inputs)

    def test_float32_default_pipeline(self):
        p = parameter(np.ones((2, 2)), dtype="float32")
        out = matmul(p, p)
        assert out.data.dtype == np.float32


    def test_gradient_of_wrong_shape_rejected_naming_both_shapes(self):
        p = parameter(np.ones((4, 3)), dtype="float64")
        out = _make(p.data.copy(), (p,), lambda g: (g.sum(axis=0),))
        with pytest.raises(ValueError, match=r"\(3,\).*\(4, 3\)"):
            sum_all(out).backward()

    def test_gradient_cast_to_input_dtype(self):
        p = parameter(np.ones((2, 3)), dtype="float32")
        out = _make(p.data.copy(), (p,), lambda g: (g.astype(np.float64),))
        sum_all(out).backward()
        assert p.grad.dtype == np.float32
        np.testing.assert_array_equal(p.grad, np.ones((2, 3)))

    def test_gradient_shared_by_two_inputs_is_not_written_in_place(self):
        # add hands one array to both inputs; p's second gradient must not
        # change the array q holds
        p = parameter(np.ones(3), dtype="float64")
        q = parameter(np.ones(3), dtype="float64")
        sum_all(add(add(p, q), p)).backward()
        np.testing.assert_array_equal(p.grad, np.full(3, 2.0))
        np.testing.assert_array_equal(q.grad, np.ones(3))


class TestLifetime:
    """The tape keeps an array only while a backward closure still reads it."""

    @staticmethod
    def _saved(out, name):
        # the object a node's closure captured under ``name``
        bwd = out._node.bwd
        return bwd.__closure__[bwd.__code__.co_freevars.index(name)].cell_contents

    @staticmethod
    def _saved_examples(out):
        # attention_core keeps (rows, keys, probs, keep) for each example
        return TestLifetime._saved(out, "saved")

    def test_only_leaves_hold_gradients_after_backward(self):
        p = parameter(np.array([0.5, -1.0, 2.0]), dtype="float64")
        h = gelu(p * p)
        loss = sum_all(h)
        loss.backward()
        assert p.grad is not None and p.grad.shape == p.shape
        assert h.grad is None and loss.grad is None

    def test_second_backward_through_consumed_graph_raises(self):
        p = parameter(np.array([1.0, 2.0]), dtype="float64")
        h = p * p
        loss = sum_all(h)
        loss.backward()
        with pytest.raises(ValueError, match="consumed"):
            loss.backward()
        with pytest.raises(ValueError, match="consumed"):
            sum_all(h).backward()
        np.testing.assert_array_equal(p.grad, [2.0, 4.0])

    def test_attention_probabilities_die_when_backward_returns(self):
        gen = np.random.default_rng(3)
        q, k, v = (parameter(gen.normal(size=(1, 2, 4, 3)), dtype="float64")
                   for _ in range(3))
        out = attention_core(q, k, v, np.array([4]))
        (*_, probs, _), = self._saved_examples(out)
        probs = weakref.ref(probs)
        sum_all(out).backward()
        assert probs() is None
        assert q.grad is not None and k.grad is not None and v.grad is not None

    def test_keep_masks_saved_at_one_byte_per_entry(self):
        gen = np.random.default_rng(3)
        q, k, v = (parameter(gen.normal(size=(1, 2, 4, 3))) for _ in range(3))
        out = attention_core(q, k, v, np.array([4]), 0.1, gen)
        (*_, probs, keep), = self._saved_examples(out)
        assert keep.dtype == np.bool_ and keep.nbytes == probs.size
        keep = self._saved(dropout(q, 0.1, gen), "keep")
        assert keep.dtype == np.bool_ and keep.nbytes == q.size

    def test_cross_entropy_and_gelu_closures_each_hold_one_full_size_array(self):
        gen = np.random.default_rng(5)
        x = parameter(gen.normal(size=(6, 50)))
        for out in (cross_entropy(x, gen.integers(0, 50, size=6)), gelu(x)):
            held = [cell.cell_contents for cell in out._node.bwd.__closure__
                    if isinstance(cell.cell_contents, np.ndarray)
                    and cell.cell_contents.size >= x.size]
            assert len(held) == 1
            assert held[0].dtype == x.dtype and not np.shares_memory(held[0], x.data)

    def test_frozen_weight_matmul_input_dies_when_caller_drops_it(self):
        gen = np.random.default_rng(4)
        x0, w0 = gen.normal(size=(4, 3)), gen.normal(size=(3, 2))
        grads = []
        for frozen in (True, False):
            p = parameter(x0, dtype="float64")
            x = gelu(p)
            alive = weakref.ref(x.data)
            out = matmul(x, Tensor(w0, requires_grad=not frozen))
            del x
            # only a weight that needs a gradient reads the input in backward
            assert (alive() is None) == frozen
            sum_all(out).backward()
            grads.append(p.grad)
        np.testing.assert_array_equal(grads[0], grads[1])


# op -> (function of its tensor inputs, input shapes); attention_core gets
# one prefix key and fixed lengths within 4 real keys
MULTI_INPUT_OPS = {
    "add": (add, [(2, 3), (3,)]),
    "mul": (mul, [(2, 3), (2, 3)]),
    "matmul": (matmul, [(2, 4, 3), (3, 5)]),
    "layer_norm": (layer_norm, [(2, 3), (3,), (3,)]),
    "concat_seq": (concat_seq, [(2, 3), (4, 3)]),
    "attention_core": (
        lambda q, k, v: attention_core(q, k, v, np.array([3, 4])),
        [(2, 2, 4, 3), (2, 2, 5, 3), (2, 2, 5, 3)],
    ),
}


@pytest.mark.parametrize("name, frozen", [
    (name, i) for name, (_, shapes) in MULTI_INPUT_OPS.items() for i in range(len(shapes))
])
def test_op_returns_no_gradient_for_frozen_input(name, frozen):
    fn, shapes = MULTI_INPUT_OPS[name]
    gen = np.random.default_rng(5)
    arrays = [gen.normal(size=s) for s in shapes]

    def grads(frozen_slot):
        inputs = [Tensor(a, requires_grad=i != frozen_slot) for i, a in enumerate(arrays)]
        out = fn(*inputs)
        return out._node.bwd(np.random.default_rng(6).normal(size=out.shape))

    every, some = grads(None), grads(frozen)
    for i, (want, got) in enumerate(zip(every, some)):
        if i == frozen:
            assert got is None
        else:
            np.testing.assert_array_equal(got, want)
