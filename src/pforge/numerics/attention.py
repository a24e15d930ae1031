"""The attention core as one tape op with a hand-written backward.

``attention_core`` computes dropout(softmax(q kᵀ + mask)) v for queries over
n prefix keys followed by T real keys, over consecutive blocks of examples.
An example's real tokens end at L, its last real position + 1, and a block
cuts its queries to its longest L and its keys to n + L: no score, softmax,
dropout or product entry is spent on the padding past that length, and row
sums run over n + L entries. Padded query rows inside the cut (a shorter
example's tail, an interior hole) get an all-zero probability row, so their
context row is 0 and they pass no gradient to q, k or v.

Within a block, the score product, the additive padding mask, the exact row
softmax and inverted dropout run in place on one buffer, and the backward
keeps only those probabilities and views of the one-byte dropout keep mask.
Composed from matmul, mask add, ``softmax_rows`` and ``dropout`` on the
tape, each step would hold a buffer of that size per op and allocate a
gradient for each. The keep mask is drawn once at the padded (B, h, T, n+T)
shape and sliced per block, so the dropout stream does not depend on the
lengths. The caller scales q by 1/√dₕ, which touches T×dₕ entries per head
instead of T×(n+T).
"""

from __future__ import annotations

import numpy as np

from .tensor import NEG_INF, Tensor, _apply_keep, _make, dropout_mask

# A block takes consecutive examples while its probabilities fit this many
# bytes, so the softmax passes, the dropped copy and the backward's score
# gradient reread a buffer that stays in L2, and an adapt example (h=4,
# n=8, T≈115: ~226 KB at float32) runs alone. At that shape, four layers'
# forward and backward took a median 44–55 ms in 256 KiB blocks, 54–59 ms
# in 512 KiB blocks (pairs of examples) and 66–86 ms as one padded buffer
# (microbenchmark, 2-core Xeon). A batch whose probabilities, cut to its
# longest example, fit twice this stays one block: split, it would make
# two, whose longest rows are rarely much shorter, so the cut saves little
# and would change the row sums' rounding. A 16-example fewshot batch at
# T ≤ 41 (≤ 514 KB) is such a batch and keeps the arithmetic of one padded
# buffer.
_BLOCK_BYTES = 256 * 1024


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


def _blocks(lengths: np.ndarray, h: int, n: int, itemsize: int) -> list[tuple[int, int, int]]:
    """Consecutive runs (lo, hi, L) of examples, L the longest of lengths[lo:hi]:
    the whole batch when its probabilities fit 2·_BLOCK_BYTES, else runs that
    take examples while their (hi-lo)·h·L·(n+L) probabilities fit
    _BLOCK_BYTES, and at least one."""
    top = int(lengths.max(initial=0))
    if lengths.size * h * top * (n + top) * itemsize <= 2 * _BLOCK_BYTES:
        return [(0, lengths.size, top)]
    blocks = []
    lo = top = 0
    for i, length in enumerate(lengths.tolist()):
        wide = max(top, length)
        if i > lo and (i + 1 - lo) * h * wide * (n + wide) * itemsize > _BLOCK_BYTES:
            blocks.append((lo, i, top))
            lo, wide = i, length
        top = wide
    blocks.append((lo, lengths.size, top))
    return blocks


def _join(parts: list, shape: tuple, dtype) -> np.ndarray:
    """Per-block (index, array) results as one array of shape, 0 where no
    block reaches; a lone block that covers the whole shape comes back as it
    is. Results made by ``@`` let a step's large buffers reuse freed heap
    memory: written into arrays allocated up front instead, four
    fewshot-shaped layers (forwards, then backwards) page-faulted 4–5 times
    as often."""
    if len(parts) == 1 and parts[0][1].shape == shape:
        return parts[0][1]
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
    tokens. Each example's queries attend over its n prefix keys and its
    real keys only. A padded query row (attn_mask 0) gets a context row of
    exactly 0 and no gradient, and a padded key gets zero weight and no
    gradient. Dropout on the probabilities runs when dropout_p > 0 and then
    needs gen. The mask is a constant and gets no gradient.
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

    h = q.shape[1]
    real = attn_mask != 0
    blocks = _blocks((real * np.arange(1, t + 1)).max(axis=1, initial=0), h, n,
                     q.dtype.itemsize)
    keep = s = None
    if dropout_p > 0.0:
        keep = dropout_mask((b, h, t, n + t), dropout_p, gen)
        s = q.dtype.type(1.0 / (1.0 - dropout_p))
    ctx, saved = [], []
    for lo, hi, length in blocks:
        if length == 0:  # no real token: the rows stay 0
            continue
        cols = slice(0, n + length)
        rows, keys = np.s_[lo:hi, :, :length], np.s_[lo:hi, :, cols]
        m = real[lo:hi, :length]
        pad = None if m.all() else ~m
        probs = q.data[rows] @ np.swapaxes(k.data[keys], -1, -2)
        if pad is not None:
            probs += additive_mask(m, n, probs.dtype)
        probs -= probs.max(axis=-1, keepdims=True)
        np.exp(probs, out=probs)
        probs /= probs.sum(axis=-1, keepdims=True)
        if pad is not None:
            # padded queries: a zero row gives a zero context and, in the
            # backward, a zero score gradient and no share of k's or v's
            probs.transpose(0, 2, 1, 3)[pad] = 0
        kb = None if keep is None else keep[lo:hi, :, :length, cols]
        ctx.append((rows, (probs if kb is None else _apply_keep(probs, kb, s)) @ v.data[keys]))
        saved.append((rows, keys, probs, kb))
    # the score gradient reads v; q's gradient reads k and k's reads q
    need_v = v.requires_grad
    vd = v.data if q.requires_grad or k.requires_grad else None
    kd = k.data if q.requires_grad else None
    qd = q.data if k.requires_grad else None

    def bwd(g):
        gq, gk, gv = [], [], []
        for rows, keys, probs, kb in saved:
            gb = g[rows]
            if need_v:
                dropped = probs if kb is None else _apply_keep(probs, kb, s)
                gv.append((keys, np.swapaxes(dropped, -1, -2) @ gb))
                del dropped  # gs below can take its memory
            if vd is not None:
                gs = gb @ np.swapaxes(vd[keys], -1, -2)
                if kb is not None:
                    _apply_keep(gs, kb, s, out=gs)
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
