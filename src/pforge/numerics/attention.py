"""The attention core as one tape op with a hand-written backward.

``attention_core`` computes dropout(softmax(q kᵀ + mask)) v for queries over
n prefix keys followed by T real keys: the score product, the additive
padding mask, the exact row softmax and inverted dropout run in place on
one B×h×T×(n+T) buffer, and the backward keeps only the probabilities and
the one-byte dropout keep mask. Composed from matmul, mask add,
``softmax_rows`` and ``dropout`` on the tape, each step would hold a buffer
of that size per op and allocate a gradient for each. The caller scales q
by 1/√dₕ, which touches T×dₕ entries per head instead of T×(n+T).
"""

from __future__ import annotations

import numpy as np

from .tensor import NEG_INF, Tensor, _apply_keep, _make, dropout_mask


def additive_mask(attn_mask: np.ndarray, n: int, dtype) -> np.ndarray:
    """(B, 1, 1, n+T) scores offset: 0 on the n prefix keys and real tokens.

    attn_mask is (B, T) with 1 on real tokens and 0 on padding; padded keys
    get NEG_INF, so their softmax weight underflows to exactly zero. Prefix
    keys stay open for every query.
    """
    attn_mask = np.asarray(attn_mask)
    b, t = attn_mask.shape
    out = np.zeros((b, 1, 1, n + t), dtype=dtype)
    out[..., n:] = (1.0 - attn_mask[:, None, None, :]) * NEG_INF
    return out


def attention_core(q: Tensor, k: Tensor, v: Tensor, attn_mask: np.ndarray,
                   dropout_p: float = 0.0,
                   gen: np.random.Generator | None = None) -> Tensor:
    """Attention context (B, h, T, dₕ) over n prefix keys and T real keys.

    q: (B, h, T, dₕ), already scaled; k, v: (B, h, n+T, dₕ), prefix rows
    first, so n is the key count beyond T; attn_mask: (B, T). Dropout on
    the probabilities runs when dropout_p > 0 and then needs gen. The mask
    is a constant and gets no gradient.
    """
    attn_mask = np.asarray(attn_mask)
    if q.data.ndim != 4 or k.shape != v.shape or k.shape[:2] != q.shape[:2] \
            or k.shape[-1] != q.shape[-1]:
        raise ValueError(
            f"attention_core shapes disagree: q {q.shape}, k {k.shape}, v {v.shape}"
        )
    b, _, t, _ = q.shape
    if attn_mask.shape != (b, t):
        raise ValueError(f"attn_mask shape {attn_mask.shape} does not cover ({b}, {t})")
    n = k.shape[-2] - t
    if n < 0:
        raise ValueError(f"keys cover {k.shape[-2]} rows, fewer than the {t} queries")
    if not q.dtype == k.dtype == v.dtype:
        raise ValueError(f"attention_core dtypes differ: q {q.dtype}, k {k.dtype}, "
                         f"v {v.dtype}")
    if dropout_p > 0.0 and gen is None:
        raise ValueError(f"attention_core with dropout_p {dropout_p} needs a generator "
                         "for its dropout mask, got gen=None")

    probs = q.data @ np.swapaxes(k.data, -1, -2)
    probs += additive_mask(attn_mask, n, probs.dtype)
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    keep = s = None
    if dropout_p > 0.0:
        keep = dropout_mask(probs.shape, dropout_p, gen)
        s = probs.dtype.type(1.0 / (1.0 - dropout_p))
    out = (probs if keep is None else _apply_keep(probs, keep, s)) @ v.data
    # the score gradient reads v; q's gradient reads k and k's reads q
    need_v = v.requires_grad
    vd = v.data if q.requires_grad or k.requires_grad else None
    kd = k.data if q.requires_grad else None
    qd = q.data if k.requires_grad else None

    def bwd(g):
        gq = gk = gv = None
        if need_v:
            dropped = probs if keep is None else _apply_keep(probs, keep, s)
            gv = np.swapaxes(dropped, -1, -2) @ g
        if vd is not None:
            gs = g @ np.swapaxes(vd, -1, -2)
            if keep is not None:
                _apply_keep(gs, keep, s, out=gs)
            # softmax backward: probs * (gs - rowsum(gs * probs))
            gs -= np.einsum("...j,...j->...", gs, probs)[..., None]
            gs *= probs
            gq = None if kd is None else gs @ kd
            gk = None if qd is None else np.swapaxes(gs, -1, -2) @ qd
        return gq, gk, gv

    return _make(out, (q, k, v), bwd)
