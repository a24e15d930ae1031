"""pforge's erf against scipy.special.erf, the implementation it ports."""

import warnings

import numpy as np
import pytest
from scipy.special import erf as scipy_erf

from pforge.numerics.special import erf

UINT = {np.float32: np.uint32, np.float64: np.uint64}


def _samples(dtype):
    """Seeded normals at spreads 0.1 to 10 led by the port's edge cases; the
    edge cases alone; and those with |x| ≤ 1 alone.

    The last two reach erf as one chunk each, split into two branches and
    unsplit (a NaN also splits a chunk, so only the second holds one).
    """
    gen = np.random.default_rng(20221025)
    spreads = (0.1, 0.3, 0.7, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 10.0)
    normals = np.concatenate([gen.normal(0.0, s, 100_000) for s in spreads])
    info = np.finfo(dtype)
    one, six = dtype(1.0), dtype(6.0)
    small = [0.0, info.smallest_subnormal, info.smallest_normal, np.nextafter(one, 0), one]
    large = [np.nextafter(one, 2), np.nextafter(six, 0), six, np.nextafter(six, 7),
             info.max, np.inf]
    small = np.array(small + [-v for v in small], dtype=dtype)
    large = np.array(large + [-v for v in large] + [np.nan], dtype=dtype)
    edges = np.concatenate([small, large])
    return [np.concatenate([edges, normals.astype(dtype)]), edges, small]


def _differ(got, want):
    """Entries whose bits differ; every NaN counts as equal to every NaN."""
    utype = UINT[got.dtype.type]
    both_nan = np.isnan(got) & np.isnan(want)
    return (got.view(utype) != want.view(utype)) & ~both_nan


def test_float32_bits_equal_scipy():
    for x in _samples(np.float32):
        got, want = erf(x), scipy_erf(x)
        assert got.dtype == np.float32
        bad = np.flatnonzero(_differ(got, want))
        assert bad.size == 0, f"{bad.size} differ, first at x={x[bad[0]]!r}"


def test_float64_bits_equal_scipy_outside_one_to_six_and_within_one_ulp_inside():
    for x in _samples(np.float64):
        got, want = erf(x), scipy_erf(x)
        assert got.dtype == np.float64
        inside = (np.abs(x) > 1.0) & (np.abs(x) < 6.0)
        assert not np.any(_differ(got, want) & ~inside)
        ulps = np.abs(got.view(np.int64) - want.view(np.int64))
        assert np.all(ulps[inside] <= 1)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_nan_zero_sign_and_saturation(dtype):
    x = np.array([np.nan, -0.0, 0.0, 6.0, -6.0, 1e30, -np.inf], dtype=dtype)
    got = erf(x)
    assert np.isnan(got[0])
    assert np.signbit(got[1]) and got[1] == 0.0 and not np.signbit(got[2])
    assert np.array_equal(got[3:], np.array([1, -1, 1, -1], dtype=dtype))


@pytest.mark.parametrize("dtype, bits", [(np.float32, 0x7FA00000),
                                         (np.float64, 0x7FF4000000000000)],
                         ids=["float32", "float64"])
def test_signaling_nan_gives_nan_without_a_warning(dtype, bits):
    snan = np.array([bits], dtype=UINT[dtype]).view(dtype)
    x = np.concatenate([snan, np.array([0.5, -2.0, 0.0], dtype=dtype)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = erf(x)
    assert got.dtype == dtype and np.isnan(got[0])
    assert np.array_equal(got[1:], scipy_erf(x[1:]))


@pytest.mark.parametrize("shape", [(), (0,), (3, 0), (2, 3, 4)])
def test_shape_and_dtype_kept(shape):
    x = np.random.default_rng(1).normal(0, 2, size=shape).astype(np.float32)
    got = erf(x)
    assert got.shape == x.shape and got.dtype == np.float32
    assert np.array_equal(got, scipy_erf(x))
