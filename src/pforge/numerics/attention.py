"""The attention core as one tape op with a hand-written backward.

``attention_core`` computes dropout(softmax(q kᵀ)) v for queries over n
prefix keys followed by T real keys, one example at a time. Batches are
right-padded: example i's real tokens are its first L_i positions, and its
part is cut to L_i queries and n + L_i keys. No score, softmax, dropout or
product entry is spent on its padded tail, whose context rows are 0 and pass
no gradient, and its row sums run over n + L_i entries, so an example gets
the same bits in any batch.

Within a part, the score product, the exact row softmax and inverted dropout
run in place on one (h, L_i, n + L_i) buffer, and the backward keeps only
those probabilities and the one-byte dropout keep mask. Composed from
matmul, ``softmax_rows`` and ``dropout`` on the tape, each step would hold a
buffer of that size per op and allocate a gradient for each. Each keep mask
is drawn from gen at its part's shape, examples in batch order. The parts'
products come from ``@`` and are copied into a zero array after it: written
into arrays allocated up front instead, four fewshot-shaped layers
(forwards, then backwards) page-faulted 4–5 times as often, since ``@``'s
results reuse freed heap memory. The caller scales q by 1/√dₕ, which touches
T×dₕ entries per head instead of T×(n+T).
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, _apply_keep, _make, dropout_mask


def _join(parts: list, shape: tuple, dtype) -> np.ndarray:
    """Per-example (index, array) results as one array of shape, 0 where no
    part reaches."""
    out = np.zeros(shape, dtype=dtype)
    for index, part in parts:
        out[index] = part
    return out


def attention_core(q: Tensor, k: Tensor, v: Tensor, lengths: np.ndarray,
                   dropout_p: float = 0.0,
                   gen: np.random.Generator | None = None) -> Tensor:
    """Attention context (B, h, T, dₕ) over n prefix keys and T real keys.

    q: (B, h, T, dₕ), already scaled; k, v: (B, h, n+T, dₕ), prefix rows
    first, so n is the key count beyond T; lengths: (B,) integers in [1, T],
    example i's real tokens being its first lengths[i] positions. Each
    example is computed alone, cut to its length, so its context and
    gradients are those of the core on that example alone. Its queries
    attend over its n prefix keys and its real keys only. A padded query row
    gets a context row of exactly 0 and no gradient, and a padded key gets
    zero weight and no gradient. Dropout on the probabilities runs when
    dropout_p > 0, which must be below 1, and then needs gen: example i's
    keep mask is drawn at its (h, L_i, n + L_i) cut, examples in batch
    order. The mask is a constant and gets no gradient.
    """
    lengths = np.asarray(lengths)
    if q.data.ndim != 4 or k.shape != v.shape or k.shape[:2] != q.shape[:2] \
            or k.shape[-1] != q.shape[-1]:
        raise ValueError(
            f"attention_core shapes disagree: q {q.shape}, k {k.shape}, v {v.shape}"
        )
    b, _, t, _ = q.shape
    if lengths.shape != (b,) or lengths.dtype.kind not in "iu":
        raise ValueError(f"lengths must be ({b},) integers, got {lengths.dtype} "
                         f"{lengths.shape}")
    bad = np.flatnonzero((lengths < 1) | (lengths > t))
    if bad.size:
        raise ValueError(f"lengths[{bad[0]}] is {lengths[bad[0]]}, outside [1, {t}]")
    n = k.shape[-2] - t
    if n < 0:
        raise ValueError(f"keys cover {k.shape[-2]} rows, fewer than the {t} queries")
    if not 0.0 <= dropout_p < 1.0:
        raise ValueError(f"attention_core dropout_p must lie in [0, 1), got {dropout_p}")
    if dropout_p > 0.0 and gen is None:
        raise ValueError(f"attention_core with dropout_p {dropout_p} needs a generator "
                         "for its dropout mask, got gen=None")

    s = q.dtype.type(1.0 / (1.0 - dropout_p)) if dropout_p > 0.0 else None
    ctx, saved = [], []
    for i, length in enumerate(lengths.tolist()):
        rows, keys = np.s_[i, :, :length], np.s_[i, :, :n + length]
        probs = q.data[rows] @ np.swapaxes(k.data[keys], -1, -2)
        probs -= probs.max(axis=-1, keepdims=True)
        np.exp(probs, out=probs)
        probs /= probs.sum(axis=-1, keepdims=True)
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
