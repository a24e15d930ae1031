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
    mean_all,
    merge_heads,
    mul,
    no_grad,
    parameter,
    softmax_rows,
    split_heads,
    sum_all,
    transpose,
)
from pforge.numerics.tensor import _make


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
        out = layer_norm(x, g, b, eps=1e-12).data
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

    def test_backward_of_tensor_without_gradient_rejected(self):
        with pytest.raises(ValueError, match="requires no gradient"):
            sum_all(Tensor(np.ones(3))).backward()

    def test_mean_all(self):
        p = parameter(np.array([1.0, 2.0, 3.0]), dtype="float64")
        mean_all(p).backward()
        np.testing.assert_allclose(p.grad, np.full(3, 1 / 3))

    def test_ops_do_not_mutate_inputs(self, np_rng):
        a = np_rng.normal(size=(3, 3))
        t = Tensor(a.copy())
        softmax_rows(t)
        matmul(t, t)
        gelu(t)
        np.testing.assert_array_equal(t.data, a)

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
        # the array a node's closure captured under ``name``
        bwd = out._node.bwd
        return bwd.__closure__[bwd.__code__.co_freevars.index(name)].cell_contents

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
        out = attention_core(q, k, v, np.ones((1, 4)))
        probs = weakref.ref(self._saved(out, "probs"))
        sum_all(out).backward()
        assert probs() is None
        assert q.grad is not None and k.grad is not None and v.grad is not None

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
# one prefix key and a fixed mask over 4 real keys
MULTI_INPUT_OPS = {
    "add": (add, [(2, 3), (3,)]),
    "mul": (mul, [(2, 3), (2, 3)]),
    "matmul": (matmul, [(2, 4, 3), (3, 5)]),
    "layer_norm": (layer_norm, [(2, 3), (3,), (3,)]),
    "concat_seq": (concat_seq, [(2, 3), (4, 3)]),
    "attention_core": (
        lambda q, k, v: attention_core(q, k, v, np.array([[1, 1, 1, 0], [1, 1, 1, 1]])),
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
