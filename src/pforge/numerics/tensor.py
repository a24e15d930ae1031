"""Dense tensors with reverse-mode automatic differentiation.

The engine is a thin tape over numpy arrays: every operation returns a new
Tensor holding the forward result plus a closure that maps the output
gradient to gradients for each parent. ``backward()`` walks the tape in
reverse topological order. Arrays are float32 by default; checks and oracles
run at float64. Operations never mutate their inputs.

The dtype rule: the Tensor inputs of one op share one dtype. ``_make``
refuses an op that records inputs of two dtypes with ``ValueError`` naming
the op and the dtypes in input order, under ``no_grad`` too, so no op
upcasts a float32 input against a float64 one; ops check only their shapes.

The gradient rule: an op's closure returns ``None`` for every input that
does not require a gradient, so a frozen weight costs no backward work.
``backward()`` stores an input's first gradient as given, cast to its dtype,
and adds later ones out of place: a closure may hand one array to several
inputs, so stored gradients may share memory and are never written in place.

The lifetime rule: the tape holds no array past its last reader. An op
output that needs a gradient owns a ``_Node``: its parents' nodes, its
closure, and its shape and dtype. A leaf (a Tensor with ``requires_grad``
and no node) enters the tape as a node that carries the leaf Tensor itself.
Nodes hold no ``Tensor.data``, and a closure captures only the arrays its
backward reads, chosen at forward time from which inputs need a gradient;
so an activation lives as long as its caller keeps it, unless a backward
reads it. ``backward()`` keeps intermediate gradients in a local map and
drops each one once its node's closure has consumed it, and releases each
node's closure and parent links as soon as the node has run. Only leaves
get ``.grad``, and they accumulate it across calls. A graph can therefore be
walked once: a second ``backward()`` that reaches a consumed node raises
``ValueError``. An op writes in place only into arrays it allocated, and a
closure only into arrays it alone holds, because a graph is walked once.
Written in place, an op keeps every floating-point operation of its
out-of-place formula in order, at most swapping the two operands of one,
so its bits are the formula's. A dropout keep mask is saved as ``bool``,
one byte per entry, and applied as ``(x * keep) * s`` with ``s = 1/(1-p)``
at x's dtype: that has the bits of ``x * m`` for the float mask
``m = keep * s``, since ``x * 1 == x`` and ``(±0) * s == ±0``.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, Sequence

import numpy as np

from .special import erf

DTYPES = {"float32": np.float32, "float64": np.float64}

# Additive mask value for attention; exp(x - rowmax) underflows to exactly 0
# for masked entries at both precisions.
NEG_INF = -1.0e9

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable taping inside the block (evaluation paths)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class _Node:
    """One tape entry: parent nodes (``None`` for inputs needing no gradient),
    the backward closure, and the shape and dtype of the gradient it takes.

    A leaf's node has no parents and no closure and carries the leaf Tensor,
    which receives the gradient. ``backward()`` empties an op node's closure
    and parents once it has run.
    """

    __slots__ = ("parents", "bwd", "shape", "dtype", "leaf")

    def __init__(self, parents: tuple, bwd: Callable | None, shape: tuple[int, ...],
                 dtype: np.dtype, leaf: Tensor | None = None):
        self.parents = parents
        self.bwd = bwd
        self.shape = shape
        self.dtype = dtype
        self.leaf = leaf


class Tensor:
    """A dense array with an optional gradient and tape linkage.

    data is always a float32 or float64 ndarray; grad, when present, has the
    same shape and dtype and is set only on leaves. Integer inputs (token
    ids, positions) are passed to operations as plain numpy arrays, not
    Tensors.
    """

    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad: bool = False, dtype: str | None = None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(DTYPES[dtype])
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data: np.ndarray = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._node: _Node | None = None

    # -- introspection -------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return self.data.item()

    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.data)))

    def __repr__(self) -> str:
        flag = ", requires_grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}{flag})"

    # -- graph ---------------------------------------------------------------

    def backward(self) -> None:
        """Accumulate gradients of this scalar into every reachable leaf.

        Consumes the graph: each node's closure and parent links are released
        once it has run, so the graph cannot be walked again.
        """
        if self.data.size != 1:
            raise ValueError(f"backward() requires a scalar, got shape {self.shape}")
        root = _link(self)
        if root is None:
            raise ValueError("backward() on a tensor that requires no gradient")
        if root.leaf is not None:
            self.grad = _accumulate(self.grad, np.ones_like(self.data))
            return
        topo: list[_Node] = []
        seen: set[int] = set()
        stack: list[tuple[_Node, bool]] = [(root, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            if node.bwd is None:
                raise ValueError("backward() reached a graph that an earlier backward() "
                                 "consumed")
            seen.add(id(node))
            stack.append((node, True))
            for p in node.parents:
                if p is not None and p.leaf is None and id(p) not in seen:
                    stack.append((p, False))
        grads = {id(root): np.ones_like(self.data)}
        for node in reversed(topo):
            bwd, parents = node.bwd, node.parents
            node.bwd, node.parents = None, ()
            g = grads.pop(id(node), None)
            in_grads = () if g is None else bwd(g)
            bwd = g = None  # the closure's saved arrays die here
            for parent, pg in zip(parents, in_grads):
                if parent is None or pg is None:
                    continue
                if pg.shape != parent.shape:
                    raise ValueError(
                        f"gradient shape {pg.shape} != input shape {parent.shape}")
                pg = pg.astype(parent.dtype, copy=False)
                if parent.leaf is not None:
                    parent.leaf.grad = _accumulate(parent.leaf.grad, pg)
                else:
                    grads[id(parent)] = _accumulate(grads.get(id(parent)), pg)

    # -- operator sugar ------------------------------------------------------

    def __add__(self, other):
        return add(self, _coerce(other, self.dtype))

    def __mul__(self, other):
        return mul(self, _coerce(other, self.dtype))


def _accumulate(total: np.ndarray | None, g: np.ndarray) -> np.ndarray:
    return g if total is None else total + g


def _link(t: Tensor) -> _Node | None:
    """The tape node an op records for input t: None if t needs no gradient."""
    if t._node is not None:
        return t._node
    if t.requires_grad:
        return _Node((), None, t.shape, t.dtype, t)
    return None


def _coerce(x, dtype: np.dtype) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=dtype))


def _make(data: np.ndarray, parents: Sequence[Tensor], bwd: Callable) -> Tensor:
    if len(parents) > 1 and len({p.data.dtype for p in parents}) > 1:
        raise ValueError(f"{bwd.__qualname__.split('.')[0]} inputs mix dtypes "
                         + ", ".join(p.data.dtype.name for p in parents))
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    links = tuple(_link(p) for p in parents) if _grad_enabled else ()
    if any(link is not None for link in links):
        out.requires_grad = True
        out._node = _Node(links, bwd, data.shape, data.dtype)
    else:
        out.requires_grad = False
        out._node = None
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcasted gradient back to the given input shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def parameter(data, dtype: str = "float32") -> Tensor:
    return Tensor(data, requires_grad=True, dtype=dtype)


def const(data, dtype: np.dtype | str = np.float32) -> Tensor:
    arr = np.asarray(data, dtype=DTYPES.get(dtype, dtype))
    return Tensor(arr)


# ---------------------------------------------------------------------------
# elementwise and structural operations
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data
    sa = a.shape if a.requires_grad else None
    sb = b.shape if b.requires_grad else None

    def bwd(g):
        return (None if sa is None else _unbroadcast(g, sa),
                None if sb is None else _unbroadcast(g, sb))

    return _make(data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data
    # each input's gradient reads the other input
    ad = a.data if b.requires_grad else None
    bd = b.data if a.requires_grad else None
    sa, sb = a.shape, b.shape

    def bwd(g):
        return (None if bd is None else _unbroadcast(g * bd, sa),
                None if ad is None else _unbroadcast(g * ad, sb))

    return _make(data, (a, b), bwd)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _make(a.data * c, (a,), lambda g: (g * c,))


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    old = a.shape
    return _make(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))


def transpose(a: Tensor, axes: Sequence[int] | None = None) -> Tensor:
    if axes is None:
        axes = tuple(reversed(range(a.data.ndim)))
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return _make(np.transpose(a.data, axes), (a,), lambda g: (np.transpose(g, inv),))


def expand(a: Tensor, shape: Sequence[int]) -> Tensor:
    """Broadcast to a larger shape; gradient sums over the broadcast axes."""
    shape = tuple(shape)
    old = a.shape
    data = np.broadcast_to(a.data, shape)
    return _make(data, (a,), lambda g: (_unbroadcast(g, old),))


def sum_all(a: Tensor) -> Tensor:
    data = np.asarray(a.data.sum(), dtype=a.dtype)
    shape, dtype = a.shape, a.dtype
    return _make(data, (a,), lambda g: (np.broadcast_to(g, shape).astype(dtype, copy=True),))


# ---------------------------------------------------------------------------
# core encoder operations
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product a @ b of 2-d or higher operands; inner dimensions agree.

    Leading batch dimensions broadcast per numpy matmul semantics; the
    gradient sums broadcasted leading axes back onto each input.
    """
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError(f"matmul requires 2-d or higher operands, got {a.shape} @ {b.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ValueError(
            f"matmul inner dimensions disagree: {a.shape} @ {b.shape}"
        )
    data = a.data @ b.data
    # each input's gradient reads the other input
    ad = a.data if b.requires_grad else None
    bd = b.data if a.requires_grad else None
    sa, sb = a.shape, b.shape

    def bwd(g):
        ga = gb = None
        if bd is not None:
            bt = np.swapaxes(bd, -1, -2)
            if g.ndim > 2 and bt.ndim == 2:
                # numpy's batched product against the transposed view of a
                # 2-d weight runs 1.5-2.2x slower than against a copy at the
                # encoder's shapes, with the same bits on OpenBLAS
                bt = np.ascontiguousarray(bt)
            ga = _unbroadcast(g @ bt, sa)
        if ad is not None:
            gb = _unbroadcast(np.swapaxes(ad, -1, -2) @ g, sb)
        return ga, gb

    return _make(data, (a, b), bwd)


def softmax_rows(a: Tensor) -> Tensor:
    """Row-wise softmax over the last axis, stabilized by row-max subtraction."""
    x = a.data
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - dot),)

    return _make(y, (a,), bwd)


LAYER_NORM_EPS = 1e-5


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    d = a.data.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ValueError(
            f"layer_norm affine shape mismatch: input last dim {d}, "
            f"gain {gain.shape}, bias {bias.shape}"
        )
    mu = a.data.mean(axis=-1, keepdims=True)
    xhat = a.data - mu
    # xc * xc, then the output xhat * gain + bias, in one buffer
    y = xhat * xhat
    var = y.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat *= inv
    np.multiply(xhat, gain.data, out=y)
    y += bias.data
    need_a, need_gain, need_bias = a.requires_grad, gain.requires_grad, bias.requires_grad
    saved_gain = gain.data if need_a else None
    saved_inv = inv if need_a else None
    saved_xhat = xhat if need_a or need_gain else None

    def bwd(g):
        axes = tuple(range(g.ndim - 1))
        ga = dgain = tmp = None
        if need_a:
            ga = g * saved_gain
            m1 = ga.mean(axis=-1, keepdims=True)
            tmp = ga * saved_xhat
            m2 = tmp.mean(axis=-1, keepdims=True)
        if need_gain:
            dgain = np.multiply(g, saved_xhat, out=tmp).sum(axis=axes)
        if need_a:
            # inv * (gxhat - m1 - xhat * m2), reading xhat for the last time
            ga -= m1
            ga -= np.multiply(saved_xhat, m2, out=saved_xhat)
            ga *= saved_inv
        return ga, dgain, g.sum(axis=axes) if need_bias else None

    return _make(y, (a, gain, bias), bwd)


_INV_SQRT2 = 0.7071067811865476
_INV_SQRT2PI = 0.3989422804014327


def gelu(a: Tensor) -> Tensor:
    """Exact (erf-based) GELU, x·Φ(x) with Φ(x) = (1 + erf(x/√2)) / 2.

    ``erf`` is pforge's port of cephes ``ndtr.c``: at float32 its values
    equal ``scipy.special.erf``'s bit for bit, at float64 they are within
    1 ulp (see ``numerics/special.py``).
    """
    x = a.data
    # Python float scalars keep the array's dtype, so nothing needs a cast
    t = x * _INV_SQRT2
    cdf = erf(t)
    cdf += 1.0
    cdf *= 0.5
    deriv = None
    if a.requires_grad:
        # cdf + x * (1/√(2π) · exp(-0.5 · x · x)), built in t; backward reads
        # only this derivative, so the tape keeps it and not x or cdf
        deriv = np.multiply(x, -0.5, out=t)
        deriv *= x
        np.exp(deriv, out=deriv)
        deriv *= _INV_SQRT2PI
        deriv *= x
        deriv += cdf
    y = np.multiply(x, cdf, out=cdf)
    return _make(y, (a,), lambda g: (np.multiply(deriv, g, out=deriv),))


IGNORE_INDEX = -100


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-softmax over rows whose target is not IGNORE_INDEX.

    logits: (N, C); targets: (N,) integer class ids, IGNORE_INDEX on rows
    that carry no loss. Raises if every row is ignored.
    """
    targets = np.asarray(targets)
    if logits.data.ndim != 2:
        raise ValueError(f"cross_entropy expects 2-d logits, got shape {logits.shape}")
    n, c = logits.data.shape
    if targets.shape != (n,):
        raise ValueError(f"targets shape {targets.shape} does not match logits rows {n}")
    if targets.dtype.kind not in "iu":
        raise ValueError(f"targets must be integer class ids, got dtype {targets.dtype}")
    keep = targets != IGNORE_INDEX
    n_keep = int(keep.sum())
    if n_keep == 0:
        raise ValueError("empty loss: all targets carry the ignore marker")
    # with no ignored row, the rows are used as they are, not gathered
    if n_keep < n:
        x, tk = logits.data[keep], targets[keep]
    else:
        x, tk, keep = logits.data, targets, None
    if tk.min() < 0 or tk.max() >= c:
        raise ValueError(f"target ids out of range [0, {c})")
    mx = x.max(axis=-1, keepdims=True)
    # exp(x - max); backward turns it into the softmax in place. Row-major
    # like the gathered rows, so the row sums add in the same order
    e = np.subtract(x, mx, order="C")
    np.exp(e, out=e)
    sums = e.sum(axis=-1)
    lse = np.log(sums) + mx[:, 0]
    losses = lse - x[np.arange(n_keep), tk]
    data = np.asarray(losses.mean(), dtype=logits.dtype)
    dtype = logits.dtype

    def bwd(g):
        probs = np.divide(e, sums[:, None], out=e)
        probs[np.arange(n_keep), tk] -= 1.0
        probs *= float(g) / n_keep
        if keep is None:
            return (probs,)
        full = np.zeros((n, c), dtype=dtype)
        full[keep] = probs
        return (full,)

    return _make(data, (logits,), bwd)


def concat_seq(prefix: Tensor, seq: Tensor) -> Tensor:
    """Concatenate along the sequence axis (second to last); prefix rows first."""
    if prefix.shape[:-2] != seq.shape[:-2] or prefix.shape[-1] != seq.shape[-1]:
        raise ValueError(
            f"concat_seq trailing dimensions disagree: {prefix.shape} vs {seq.shape}"
        )
    n = prefix.shape[-2]
    data = np.concatenate([prefix.data, seq.data], axis=-2)
    need_prefix, need_seq = prefix.requires_grad, seq.requires_grad

    def bwd(g):
        return (g[..., :n, :] if need_prefix else None,
                g[..., n:, :] if need_seq else None)

    return _make(data, (prefix, seq), bwd)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup into an embedding table; gradient scatter-adds into rows."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ValueError(
            f"embedding ids out of range [0, {table.shape[0]}): "
            f"min {ids.min()}, max {ids.max()}"
        )
    data = table.data[ids]
    shape, dtype = table.shape, table.dtype

    def bwd(g):
        gt = np.zeros(shape, dtype=dtype)
        np.add.at(gt, ids.reshape(-1), g.reshape(-1, shape[-1]))
        return (gt,)

    return _make(data, (table,), bwd)


def gather_positions(x: Tensor, rows: np.ndarray, cols: np.ndarray) -> Tensor:
    """Select positions from a (B, T, d) tensor, returning (K, d)."""
    rows = np.asarray(rows)
    cols = np.asarray(cols)
    if x.data.ndim != 3:
        raise ValueError(f"gather_positions needs a (B, T, d) tensor, got shape {x.shape}")
    if rows.shape != cols.shape:
        raise ValueError(f"row/col index shapes disagree: {rows.shape} vs {cols.shape}")
    for name, idx, size in (("row", rows, x.shape[0]), ("column", cols, x.shape[1])):
        bad = idx[(idx < 0) | (idx >= size)]
        if bad.size:
            raise ValueError(f"{name} index {bad.flat[0]} outside [0, {size}) of shape {x.shape}")
    data = x.data[rows, cols]
    shape, dtype = x.shape, x.dtype

    def bwd(g):
        gx = np.zeros(shape, dtype=dtype)
        np.add.at(gx, (rows, cols), g)
        return (gx,)

    return _make(data, (x,), bwd)


def dropout_mask(shape: Sequence[int], p: float, gen: np.random.Generator) -> np.ndarray:
    """Boolean inverted-dropout keep mask: True where an entry is kept.

    N entries take N 32-bit words, read from ceil(N/2) raw 64-bit draws of
    gen's bit generator; an entry is kept where its word is at least
    round(p * 2**32), so it is dropped with probability p to within 2**-32.
    Callers scale kept entries by 1/(1-p) through ``_apply_keep``.
    """
    size = math.prod(shape)
    words = gen.bit_generator.random_raw((size + 1) // 2).view(np.uint32)[:size]
    return (words >= np.uint32(min(round(p * 2**32), 2**32 - 1))).reshape(shape)


def _apply_keep(x: np.ndarray, keep: np.ndarray, s,
                out: np.ndarray | None = None) -> np.ndarray:
    """(x * keep) * s: x under the float mask keep * s, with the same bits."""
    out = np.multiply(x, keep, out=out)
    out *= s
    return out


def dropout(x: Tensor, p: float, gen: np.random.Generator) -> Tensor:
    """Inverted dropout with keep-probability 1-p; mask drawn from gen."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"dropout probability must be in (0, 1), got {p}")
    keep = dropout_mask(x.shape, p, gen)
    s = x.dtype.type(1.0 / (1.0 - p))
    return _make(_apply_keep(x.data, keep, s), (x,), lambda g: (_apply_keep(g, keep, s),))


def split_heads(x: Tensor, num_heads: int) -> Tensor:
    """(..., T, d) -> (..., h, T, d/h)."""
    *lead, t, d = x.shape
    if d % num_heads:
        raise ValueError(f"width {d} not divisible by {num_heads} heads")
    y = reshape(x, (*lead, t, num_heads, d // num_heads))
    perm = list(range(len(lead))) + [len(lead) + 1, len(lead), len(lead) + 2]
    return transpose(y, perm)


def merge_heads(x: Tensor) -> Tensor:
    """(..., h, T, dh) -> (..., T, h*dh)."""
    *lead, h, t, dh = x.shape
    perm = list(range(len(lead))) + [len(lead) + 1, len(lead), len(lead) + 2]
    return reshape(transpose(x, perm), (*lead, t, h * dh))
