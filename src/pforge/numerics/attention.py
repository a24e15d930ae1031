"""The attention core as one tape op with a hand-written backward.

``attention_core`` computes dropout(softmax(q kᵀ + mask)) v for queries over
n prefix keys followed by T real keys, one example at a time. Example i's
real tokens end at L_i, its last real position + 1, and its part is cut to
L_i queries and n + L_i keys: no score, softmax, dropout or product entry is
spent on its padded tail, and its row sums run over n + L_i entries, so an
example gets the same bits in any batch. Only an example with an interior
hole gets the additive padding mask and all-zero probability rows for its
padded queries, whose context rows are then 0 and pass no gradient.

Within a part, the score product, the mask, the exact row softmax and
inverted dropout run in place on one (h, L_i, n + L_i) buffer, and the
backward keeps only those probabilities and the one-byte dropout keep mask.
Composed from matmul, mask add, ``softmax_rows`` and ``dropout`` on the
tape, each step would hold a buffer of that size per op and allocate a
gradient for each. Each keep mask is drawn from gen at its part's shape,
examples in batch order. The parts' products come from ``@`` and are copied
into a zero array after it: written into arrays allocated up front instead,
four fewshot-shaped layers (forwards, then backwards) page-faulted 4–5
times as often, since ``@``'s results reuse freed heap memory. The caller
scales q by 1/√dₕ, which touches T×dₕ entries per head instead of T×(n+T).
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


def _join(parts: list, shape: tuple, dtype) -> np.ndarray:
    """Per-example (index, array) results as one array of shape, 0 where no
    part reaches."""
    out = np.zeros(shape, dtype=dtype)
    for index, part in parts:
        out[index] = part
    return out


def attention_core(q: Tensor, k: Tensor, v: Tensor, attn_mask: np.ndarray,
                   dropout_p: float = 0.0,
                   gen: np.random.Generator | None = None) -> Tensor:
    """Attention context (B, h, T, dₕ) over n prefix keys and T real keys.

    q: (B, h, T, dₕ), already scaled; k, v: (B, h, n+T, dₕ), prefix rows
    first, so n is the key count beyond T; attn_mask: (B, T), 1 on real
    tokens. Each example is computed alone, cut to its last real token, so
    its context and gradients are those of the core on that example alone.
    Its queries attend over its n prefix keys and its real keys only. A
    padded query row (attn_mask 0) gets a context row of exactly 0 and no
    gradient, and a padded key gets zero weight and no gradient. Dropout on
    the probabilities runs when dropout_p > 0, which must be below 1, and
    then needs gen: example i's keep mask is drawn at its (h, L_i, n + L_i)
    cut, examples in batch order. The mask is a constant and gets no
    gradient.
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
    if not 0.0 <= dropout_p < 1.0:
        raise ValueError(f"attention_core dropout_p must lie in [0, 1), got {dropout_p}")
    if dropout_p > 0.0 and gen is None:
        raise ValueError(f"attention_core with dropout_p {dropout_p} needs a generator "
                         "for its dropout mask, got gen=None")

    real = attn_mask != 0
    s = q.dtype.type(1.0 / (1.0 - dropout_p)) if dropout_p > 0.0 else None
    ctx, saved = [], []
    for i, length in enumerate((real * np.arange(1, t + 1)).max(axis=1, initial=0).tolist()):
        if length == 0:  # no real token: the rows stay 0
            continue
        rows, keys = np.s_[i, :, :length], np.s_[i, :, :n + length]
        m = real[i, :length]
        probs = q.data[rows] @ np.swapaxes(k.data[keys], -1, -2)
        hole = not m.all()
        if hole:
            probs += additive_mask(m[None], n, probs.dtype)[0]
        probs -= probs.max(axis=-1, keepdims=True)
        np.exp(probs, out=probs)
        probs /= probs.sum(axis=-1, keepdims=True)
        if hole:
            # padded queries: a zero row gives a zero context and, in the
            # backward, a zero score gradient and no share of k's or v's
            probs[:, ~m] = 0
        keep = None if s is None else dropout_mask(probs.shape, dropout_p, gen)
        ctx.append((rows, (probs if keep is None else _apply_keep(probs, keep, s))
                    @ v.data[keys]))
        saved.append((rows, keys, probs, keep))
    # the score gradient reads v; q's gradient reads k and k's reads q
    need_v = v.requires_grad
    vd = v.data if q.requires_grad or k.requires_grad else None
    kd = k.data if q.requires_grad else None
    qd = q.data if k.requires_grad else None

    def bwd(g):
        gq, gk, gv = [], [], []
        for rows, keys, probs, keep in saved:
            gi = g[rows]
            if need_v:
                dropped = probs if keep is None else _apply_keep(probs, keep, s)
                gv.append((keys, np.swapaxes(dropped, -1, -2) @ gi))
                del dropped  # gs below can take its memory
            if vd is not None:
                gs = gi @ np.swapaxes(vd[keys], -1, -2)
                if keep is not None:
                    _apply_keep(gs, keep, s, out=gs)
                # softmax backward: probs * (gs - rowsum(gs * probs))
                gs -= np.einsum("...j,...j->...", gs, probs)[..., None]
                gs *= probs
                if kd is not None:
                    gq.append((rows, gs @ kd[keys]))
                if qd is not None:
                    gk.append((keys, np.swapaxes(gs, -1, -2) @ qd[rows]))
        return (None if kd is None else _join(gq, q.shape, g.dtype),
                None if qd is None else _join(gk, k.shape, g.dtype),
                _join(gv, v.shape, g.dtype) if need_v else None)

    return _make(_join(ctx, q.shape, q.dtype), (q, k, v), bwd)
