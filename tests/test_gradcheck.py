"""Finite-difference checks for every differentiable operation.

Each op is exercised on >= 20 randomized small shapes at float64; the
acceptance suite re-runs this battery plus the end-to-end encoder check.
"""

import numpy as np
import pytest

from pforge.numerics import (
    Tensor,
    attention_core,
    concat_seq,
    cross_entropy,
    dropout,
    embedding,
    gather_positions,
    gelu,
    grad_check,
    layer_norm,
    matmul,
    mean_all,
    parameter,
    softmax_rows,
    sum_all,
    transpose,
)
from pforge.numerics.packing import gather_rows, scatter_rows

N_TRIALS = 20
TOL = 1e-4


def weighted_sum(t, gen):
    w = Tensor(gen.normal(size=t.shape))
    return sum_all(t * w)


def op_cases(name, seed):
    gen = np.random.default_rng(seed)
    m, k, p = gen.integers(1, 5, size=3)
    if name == "matmul":
        a = parameter(gen.normal(size=(m, k)), dtype="float64")
        b = parameter(gen.normal(size=(k, p)), dtype="float64")
        return lambda: weighted_sum(matmul(a, b), np.random.default_rng(seed + 1)), {"a": a, "b": b}
    if name == "softmax_rows":
        a = parameter(gen.normal(size=(m, k + 1)) * 2, dtype="float64")
        return lambda: weighted_sum(softmax_rows(a), np.random.default_rng(seed + 1)), {"a": a}
    if name == "layer_norm":
        d = int(k) + 2
        a = parameter(gen.normal(size=(m, d)), dtype="float64")
        g = parameter(gen.normal(size=d), dtype="float64")
        b = parameter(gen.normal(size=d), dtype="float64")
        return lambda: weighted_sum(layer_norm(a, g, b), np.random.default_rng(seed + 1)), {
            "a": a, "gain": g, "bias": b}
    if name == "cross_entropy":
        c = int(k) + 2
        a = parameter(gen.normal(size=(m, c)) * 2, dtype="float64")
        targets = gen.integers(0, c, size=m)
        return lambda: cross_entropy(a, targets), {"logits": a}
    if name == "concat_seq":
        a = parameter(gen.normal(size=(m, k)), dtype="float64")
        b = parameter(gen.normal(size=(p, k)), dtype="float64")
        return lambda: weighted_sum(concat_seq(a, b), np.random.default_rng(seed + 1)), {"a": a, "b": b}
    if name == "gelu":
        a = parameter(gen.normal(size=(m, k)) * 2, dtype="float64")
        return lambda: weighted_sum(gelu(a), np.random.default_rng(seed + 1)), {"a": a}
    if name == "embedding":
        table = parameter(gen.normal(size=(6, k)), dtype="float64")
        ids = gen.integers(0, 6, size=(m, 3))
        return lambda: weighted_sum(embedding(table, ids), np.random.default_rng(seed + 1)), {"table": table}
    if name == "transpose":
        a = parameter(gen.normal(size=(m, k, p)), dtype="float64")
        return lambda: weighted_sum(transpose(a, (2, 0, 1)), np.random.default_rng(seed + 1)), {"a": a}
    if name == "gather_positions":
        a = parameter(gen.normal(size=(m, 4, k)), dtype="float64")
        rows = gen.integers(0, m, size=5)
        cols = gen.integers(0, 4, size=5)
        return lambda: weighted_sum(gather_positions(a, rows, cols), np.random.default_rng(seed + 1)), {"a": a}
    if name == "dropout":
        a = parameter(gen.normal(size=(m, k)), dtype="float64")
        # fixed mask: rebuild the same generator inside f on every call
        return lambda: weighted_sum(
            dropout(a, 0.3, np.random.default_rng(seed + 2)),
            np.random.default_rng(seed + 1)), {"a": a}
    if name == "attention_core":
        # trials alternate n in {0, 3} and dropout p in {0, 0.3}
        trial = seed // 1000
        n, drop_p = 3 * (trial % 2), 0.3 * (trial // 2 % 2)
        b, h, t, dh = int(m), int(gen.integers(1, 3)), int(k) + 1, int(p)
        q = parameter(gen.normal(size=(b, h, t, dh)), dtype="float64")
        kk = parameter(gen.normal(size=(b, h, n + t, dh)), dtype="float64")
        v = parameter(gen.normal(size=(b, h, n + t, dh)), dtype="float64")
        mask = np.ones((b, t))
        mask[0, t // 2 + 1:] = 0
        return lambda: weighted_sum(
            attention_core(q, kk, v, mask, drop_p, np.random.default_rng(seed + 2)),
            np.random.default_rng(seed + 1)), {"q": q, "k": kk, "v": v}
    if name in ("scatter_rows", "gather_rows"):
        # a random subset of the b*t positions, in increasing order
        b, t, d = int(m), int(k) + 1, int(p)
        rows = np.sort(gen.choice(b * t, size=int(gen.integers(1, b * t + 1)), replace=False))
        if name == "gather_rows":
            a = parameter(gen.normal(size=(b, t, d)), dtype="float64")
            return lambda: weighted_sum(gather_rows(a, rows), np.random.default_rng(seed + 1)), {"a": a}
        a = parameter(gen.normal(size=(rows.size, d)), dtype="float64")
        return lambda: weighted_sum(
            scatter_rows(a, rows, (b, t)), np.random.default_rng(seed + 1)), {"a": a}
    raise AssertionError(name)


OPS = ["matmul", "softmax_rows", "layer_norm", "cross_entropy", "concat_seq",
       "gelu", "embedding", "transpose", "gather_positions", "dropout",
       "attention_core", "scatter_rows", "gather_rows"]


@pytest.mark.parametrize("op", OPS)
def test_op_gradients_match_finite_differences(op):
    for trial in range(N_TRIALS):
        f, params = op_cases(op, seed=1000 * trial + 7)
        report = grad_check(f, params)
        assert report.ok(TOL), (op, trial, report)


def test_linear_function_near_exact():
    w = np.array([1.5, -2.0, 0.25])
    p = parameter(np.array([0.3, 0.7, -1.2]), dtype="float64")
    report = grad_check(lambda: sum_all(p * Tensor(w)), {"p": p})
    assert report.max_rel_err < 1e-9


def test_constant_function_zero_gradients():
    p = parameter(np.ones(4), dtype="float64")
    report = grad_check(lambda: sum_all(p * Tensor(np.zeros(4))), {"p": p})
    assert report.ok(TOL)
    assert report.max_rel_err == 0.0


def test_non_finite_reported_not_raised():
    p = parameter(np.array([1.0]), dtype="float64")

    def bad():
        t = Tensor(np.array([np.inf]))
        return sum_all(p * t)

    report = grad_check(bad, {"p": p})
    assert report.error is not None


def test_rejects_float32_params():
    p = parameter(np.ones(2), dtype="float32")
    report = grad_check(lambda: sum_all(p), {"p": p})
    assert report.error is not None and "float64" in report.error


def test_sampled_entries_bounded():
    p = parameter(np.random.default_rng(0).normal(size=(10, 10)), dtype="float64")
    report = grad_check(lambda: mean_all(gelu(p)), {"p": p},
                        sample=7, rng=np.random.default_rng(1))
    assert report.n_checked == 7
    assert report.ok(TOL)
