import re

import numpy as np
import pytest

from pforge.numerics import AdamW, parameter

# The hand-worked values below assume the fixed hyperparameters
# betas=(0.9, 0.999), eps=1e-8 and weight decay 0.01.


def one_param(value, grad=None):
    p = parameter(np.array(value, dtype=np.float64), dtype="float64")
    p.grad = None if grad is None else np.array(grad, dtype=np.float64)
    return p


def test_single_step_hand_computation():
    # p=1, g=1, lr=0.1: m_hat = v_hat = 1 after bias correction, so
    # p -> 1 - 0.1*0.01*1 - 0.1/(1 + 1e-8)
    p = one_param([1.0], [1.0])
    AdamW({"p": p}, lr=0.1).step()
    np.testing.assert_allclose(p.data, [0.899], atol=1e-7)


def test_decay_with_zero_grad_is_pure_shrink():
    p = one_param([2.0], [0.0])
    AdamW({"p": p}, lr=0.1).step()
    np.testing.assert_allclose(p.data, [2.0 * (1 - 0.1 * 0.01)], rtol=1e-12)


def test_decay_decoupled_from_moments():
    # gradients do not pick up the decay term: moments depend only on g
    p = one_param([10.0], [1.0])
    opt = AdamW({"p": p}, lr=0.01)
    opt.step()
    m, v = opt._state["p"]
    np.testing.assert_allclose(m, [0.1])
    np.testing.assert_allclose(v, [0.001])


def test_rejects_non_positive_lr():
    for lr in (0.0, -1.0):
        with pytest.raises(ValueError, match="learning rate"):
            AdamW({"p": parameter(np.zeros(1))}, lr=lr)


@pytest.mark.parametrize("lr", [float("nan"), float("inf")])
def test_rejects_non_finite_lr(lr):
    # nan <= 0 is false, so a bare sign test would accept NaN and the first
    # step would turn every parameter into NaN
    with pytest.raises(ValueError, match=f"learning rate.*{lr}"):
        AdamW({"p": parameter(np.zeros(1))}, lr=lr)


@pytest.mark.parametrize("lr", [True, False, "0.1", None, [0.1], 1 + 0j])
def test_rejects_lr_that_is_not_a_real_number(lr):
    with pytest.raises(ValueError, match=re.escape(f"lr must be a finite positive number, "
                                                   f"got {lr!r}")):
        AdamW({"p": parameter(np.zeros(1))}, lr=lr)


@pytest.mark.parametrize("lr", [1, np.float32(0.5), np.float64(1e-3)])
def test_accepts_real_lr_of_any_numeric_type(lr):
    assert AdamW({"p": parameter(np.zeros(1))}, lr=lr).lr == lr


def test_shape_mismatch_rejected():
    p = one_param(np.zeros(2), np.zeros(3))
    with pytest.raises(ValueError, match="layer0.w: grad shape"):
        AdamW({"layer0.w": p}, lr=0.1).step()


def test_optimizer_updates_only_named_params():
    a = one_param(np.ones(2), np.ones(2))
    b = one_param(np.ones(2), np.ones(2))
    AdamW({"a": a}, lr=0.1).step()
    assert not np.array_equal(a.data, np.ones(2))
    np.testing.assert_array_equal(b.data, np.ones(2))


def test_optimizer_missing_grad_counts_as_zero():
    a = one_param(np.ones(2))
    AdamW({"a": a}, lr=0.1).step()
    np.testing.assert_allclose(a.data, np.full(2, 1 - 0.1 * 0.01), rtol=1e-12)


def test_two_steps_match_sequential_hand_rollout():
    p_lib = one_param([1.0])
    opt = AdamW({"p": p_lib}, lr=0.05)
    for g in (0.5, -0.25):
        p_lib.grad = np.array([g])
        opt.step()

    # independent rollout of the update rule
    p = 1.0
    mm = vv = 0.0
    for t, g in enumerate([0.5, -0.25], start=1):
        mm = 0.9 * mm + 0.1 * g
        vv = 0.999 * vv + 0.001 * g * g
        mh = mm / (1 - 0.9**t)
        vh = vv / (1 - 0.999**t)
        p -= 0.05 * 0.01 * p
        p -= 0.05 * mh / (np.sqrt(vh) + 1e-8)
    np.testing.assert_allclose(p_lib.data, [p], rtol=1e-12)


def adamw_formula(param, grads, lr):
    """The update as out-of-place numpy formulas, one temporary per step: the
    reference for AdamW.step's in-place arithmetic."""
    param = param.copy()
    m, v = np.zeros_like(param), np.zeros_like(param)
    for t, grad in enumerate(grads, start=1):
        grad = np.zeros_like(param) if grad is None else grad
        m = 0.9 * m + (1.0 - 0.9) * grad
        v = 0.999 * v + (1.0 - 0.999) * (grad * grad)
        mhat = m / (1.0 - 0.9**t)
        vhat = v / (1.0 - 0.999**t)
        param = param - lr * 0.01 * param
        param = param - lr * mhat / (np.sqrt(vhat) + 1e-8)
    return param


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("lr", [1e-3, np.float64(2e-2)], ids=["float", "np.float64"])
def test_steps_have_the_bits_of_the_out_of_place_formula(dtype, lr):
    gen = np.random.default_rng(3)
    start = gen.normal(size=(7, 5)).astype(dtype)
    grads = [gen.normal(size=(7, 5)).astype(dtype) * 10.0**-k for k in range(4)]
    grads.insert(2, None)
    p = parameter(start, dtype=dtype)
    opt = AdamW({"p": p}, lr=lr)
    for grad in grads:
        p.grad = grad
        opt.step()
    want = adamw_formula(start, grads, float(lr))
    assert p.data.dtype == want.dtype
    assert np.array_equal(p.data.view(f"u{p.data.itemsize}"), want.view(f"u{want.itemsize}"))
