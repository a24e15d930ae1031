"""The error function, ported from cephes ``ndtr.c`` (scipy's ``special.erf``).

Values are computed at float64 and rounded to the input's dtype, as scipy's
float32 loop does. Each branch keeps cephes' rational approximation and its
Horner order, so float32 results equal ``scipy.special.erf`` bit for bit.
At float64 they are equal for |x| ≤ 1 and |x| ≥ 6, and within 1 ulp between,
where numpy's vectorised ``exp`` may round differently from libm's.
"""

from __future__ import annotations

import numpy as np

# erf(x) = x T(x²) / U(x²) for |x| ≤ 1; U is monic, its leading 1 omitted
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)
# erfc(a) = exp(-a²) P(a) / Q(a) for 1 < a < 8; Q is monic, its leading 1 omitted
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
# cephes' 1 - erfc(a) rounds to exactly 1.0 from here on, so clamping a to it
# gives ±1 for every larger input (infinities included) without overflow
_SATURATE = 6.0
# Each call allocates four float64 buffers of this many entries. At 125 KB
# each they stay below glibc's 128 KiB mmap threshold and so reuse heap
# memory; 256 KiB buffers, fresh pages on every call, made an eval pass
# ~25% slower than with scipy's erf.
_CHUNK = 16000


def _horner(x: np.ndarray, coef: tuple, monic: bool, out: np.ndarray) -> np.ndarray:
    """cephes polevl (monic=False) or p1evl (monic=True) at x, written to out,
    which must not share memory with x."""
    if monic:
        np.add(x, coef[0], out=out)
    else:
        np.multiply(x, coef[0], out=out)
        out += coef[1]
    for c in coef[1 if monic else 2:]:
        out *= x
        out += c
    return out


# A signaling NaN raises the invalid flag in the float64 copy (float32 input)
# or in the first product (float64); scipy returns NaN silently, and so does erf.
@np.errstate(invalid="ignore")
def erf(x: np.ndarray) -> np.ndarray:
    """Elementwise erf of a float32 or float64 array, at the input's dtype.

    NaN, signaling NaN included, maps to NaN without a warning; -0.0 maps
    to -0.0.
    """
    x = np.asarray(x)
    out = np.empty(x.shape, dtype=x.dtype)
    src, dst = x.reshape(-1), out.reshape(-1)
    m = min(src.size, _CHUNK)
    xb, zb, num, den = (np.empty(m) for _ in range(4))
    big = np.empty(m, dtype=bool)
    for start in range(0, src.size, _CHUNK):
        stop = min(start + _CHUNK, src.size)
        n = stop - start
        xc, z, p, q, d = xb[:n], zb[:n], num[:n], den[:n], dst[start:stop]
        np.copyto(xc, src[start:stop])
        tail = None
        if not (-1.0 <= xc.min() and xc.max() <= 1.0):  # NaN comes here too
            b = np.greater(np.abs(xc, out=z), 1.0, out=big[:n])
            # index lists, since boolean masks gather and scatter far slower
            tail = np.flatnonzero(b)
            xt = xc[tail]
            k = tail.size
            a = np.minimum(np.abs(xt, out=p[:k]), _SATURATE, out=p[:k])
            e = np.exp(np.multiply(np.negative(a, out=q[:k]), a, out=q[:k]), out=q[:k])
            e *= _horner(a, _P, False, z[:k])
            e /= _horner(a, _Q, True, z[:k])
            # 1 - erfc(|x|), with the sign of x
            xt = np.copysign(np.subtract(1.0, e, out=e), xt, out=xt)
            # keep the |x| ≤ 1 branch below finite on the entries it discards
            np.clip(xc, -1.0, 1.0, out=xc)
        np.multiply(xc, xc, out=z)
        np.multiply(xc, _horner(z, _T, False, p), out=p)
        np.divide(p, _horner(z, _U, True, q), out=d)  # rounds to d's dtype
        if tail is not None:
            d[tail] = xt
    return out
