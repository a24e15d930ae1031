"""Encoder transformer with optional per-layer key/value prefixes.

Each attention layer computes Attn(x W_q, Cat(P_k, x W_k), Cat(P_v, x W_v)):
the n trainable prefix rows are concatenated in front of the projected keys
and values, so every query can attend to them while the output keeps the
input sequence length. No query padding is ever needed. Prefixes are sliced
per head exactly like the hidden width, receive no position embeddings, and
are never masked.

Blocks are pre-norm residual with GELU FFNs; classification pools the
leading [CLS] position; the MLM head ties its output projection to the
token embedding.

Batches are right-padded: each row of a (B, T) batch holds its example's
real tokens first, then padding. ``encode`` checks this on its mask and
passes the per-example lengths on; nothing below it takes a mask. It runs on
the real tokens only, packing the N real positions into an (N, d) hidden
state, so the embeddings, layer norms, residual adds, FFNs and hidden
dropouts skip the padding. Only the attention block sees the padded layout:
its layer-normed input is scattered into a zero (B, T, d) array before the
q/k/v projections, and its rows are gathered back after w_o. Inside it,
``attention_core`` runs one example at a time, scoring its real queries
against only its n prefix keys and its real keys, so no score is built for a
padded tail; padded query rows get a zero context and no gradient. The
result is scattered once more, so ``encode`` returns (B, T, d) with exact
zeros at padded positions.
"""

from __future__ import annotations

import hashlib
import json
from copy import deepcopy
from dataclasses import dataclass, asdict

import numpy as np

from . import check_fields
from .numerics import (
    NEG_INF,
    Rng,
    STREAM_DROPOUT,
    STREAM_INIT,
    Tensor,
    concat_seq,
    const,
    dropout,
    embedding,
    expand,
    gather_positions,
    gelu,
    layer_norm,
    matmul,
    merge_heads,
    reshape,  # not called here; bound so the traced ops match BENCHMARK.json's per-op list
    scale,
    softmax_rows,
    split_heads,
    transpose,
)
from .numerics.attention import attention_core
from .numerics.packing import gather_rows, scatter_rows

METHOD_FT = "ft"
METHOD_FULL_DA_FT = "full-da-ft"
METHOD_PT2 = "pt2"
METHOD_PREFIX_ADAPT = "prefix-adapt"
METHOD_PREFIX_DOMAIN_ADAPT = "prefix-domain-adapt"
METHODS = (
    METHOD_FT,
    METHOD_FULL_DA_FT,
    METHOD_PT2,
    METHOD_PREFIX_ADAPT,
    METHOD_PREFIX_DOMAIN_ADAPT,
)
PREFIX_METHODS = frozenset({METHOD_PT2, METHOD_PREFIX_ADAPT, METHOD_PREFIX_DOMAIN_ADAPT})

INIT_STD = 0.02
# positions reserved beyond the prefix for specials/safety in the token budget
BUDGET_RESERVE = 4


@dataclass(frozen=True)
class ModelConfig:
    num_layers: int
    d_model: int
    num_heads: int
    ffn_dim: int
    vocab_size: int
    max_positions: int
    prefix_length: int = 8
    dropout: float = 0.1
    precision: str = "float32"

    def __post_init__(self):
        check_fields(self)
        for name in ("num_layers", "d_model", "num_heads", "ffn_dim", "vocab_size",
                     "max_positions"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.prefix_length < 0:
            raise ValueError("prefix_length must be >= 0")
        if self.d_model % self.num_heads:
            raise ValueError(
                f"d_model {self.d_model} not divisible by num_heads {self.num_heads}"
            )
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if self.precision not in ("float32", "float64"):
            raise ValueError(f"unknown precision {self.precision!r}")
        if self.token_budget <= 1:
            raise ValueError(
                f"prefix_length {self.prefix_length} leaves no token budget "
                f"within max_positions {self.max_positions}"
            )

    @property
    def token_budget(self) -> int:
        """Sequence positions available after reserving prefix + safety room."""
        return self.max_positions - self.prefix_length - BUDGET_RESERVE

    def fingerprint(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def roberta_base_shape(prefix_length: int = 8) -> ModelConfig:
    """Shape-only stand-in for the published base encoder (~125M params)."""
    return ModelConfig(
        num_layers=12, d_model=768, num_heads=12, ffn_dim=3072,
        vocab_size=50265, max_positions=512, prefix_length=prefix_length,
    )


def desk_config(prefix_length: int = 8) -> ModelConfig:
    """Small configuration used by the synthetic end-to-end studies."""
    return ModelConfig(
        num_layers=4, d_model=64, num_heads=4, ffn_dim=256,
        vocab_size=2000, max_positions=128, prefix_length=prefix_length,
    )


# ---------------------------------------------------------------------------
# parameter groups
# ---------------------------------------------------------------------------


class ParamGroup:
    """Stored parameters; ``named_tensors()`` is the one list of them, in order."""

    def named_tensors(self) -> dict[str, Tensor]:
        raise NotImplementedError

    def set_trainable(self, flag: bool) -> None:
        for t in self.named_tensors().values():
            t.requires_grad = flag

    def trainable_tensors(self) -> dict[str, Tensor]:
        return {n: t for n, t in self.named_tensors().items() if t.requires_grad}

    def param_count(self) -> int:
        return sum(t.size for t in self.named_tensors().values())

    def copy(self):
        """Independent copy; each tensor becomes a fresh leaf with copied data."""
        # deepcopy consults its memo first, so every tensor maps to its clone
        fresh = {id(t): Tensor(t.data.copy(), requires_grad=t.requires_grad)
                 for t in self.named_tensors().values()}
        return deepcopy(self, fresh)


@dataclass
class LayerWeights:
    w_q: Tensor
    b_q: Tensor
    w_k: Tensor
    b_k: Tensor
    w_v: Tensor
    b_v: Tensor
    w_o: Tensor
    b_o: Tensor
    ln1_g: Tensor
    ln1_b: Tensor
    w_f1: Tensor
    b_f1: Tensor
    w_f2: Tensor
    b_f2: Tensor
    ln2_g: Tensor
    ln2_b: Tensor


class EncoderWeights(ParamGroup):
    """All stored encoder parameters, with a trainable/frozen flag per tensor.

    Field order is fixed so that one init generator consumed sequentially
    reproduces identical weights for identical seeds. Without an rng every
    weight is a zero placeholder and nothing is drawn: the group then only
    gives the names and shapes the config implies, and its shape-only form
    allocates no tensor memory: the zeros stay unwritten pages until
    something writes them, and only the d-wide gains are filled with ones.
    """

    def __init__(self, config: ModelConfig, rng: Rng | None = None):
        self.config = config
        dt = config.precision
        d, f, V = config.d_model, config.ffn_dim, config.vocab_size
        gen = rng.stream(STREAM_INIT).generator() if rng is not None else None

        def zeros(*shape):
            return Tensor(np.zeros(shape, dt), requires_grad=True)

        def ones(*shape):
            return Tensor(np.ones(shape, dt), requires_grad=True)

        def w(*shape):
            if gen is None:
                return zeros(*shape)
            return Tensor(gen.normal(0.0, INIT_STD, size=shape), requires_grad=True, dtype=dt)

        self.tok_emb = w(V, d)
        self.pos_emb = w(config.max_positions, d)
        self.layers = [LayerWeights(
            w_q=w(d, d), b_q=zeros(d),
            w_k=w(d, d), b_k=zeros(d),
            w_v=w(d, d), b_v=zeros(d),
            w_o=w(d, d), b_o=zeros(d),
            ln1_g=ones(d), ln1_b=zeros(d),
            w_f1=w(d, f), b_f1=zeros(f),
            w_f2=w(f, d), b_f2=zeros(d),
            ln2_g=ones(d), ln2_b=zeros(d),
        ) for _ in range(config.num_layers)]
        self.final_ln_g = ones(d)
        self.final_ln_b = zeros(d)
        self.mlm_dense_w = w(d, d)
        self.mlm_dense_b = zeros(d)
        self.mlm_ln_g = ones(d)
        self.mlm_ln_b = zeros(d)
        self.mlm_out_bias = zeros(V)

    def named_tensors(self) -> dict[str, Tensor]:
        """Tensors named by attribute path, in the order __init__ assigns them."""
        out: dict[str, Tensor] = {}
        for name, value in vars(self).items():
            if isinstance(value, Tensor):
                out[name] = value
            elif name == "layers":
                for i, lay in enumerate(value):
                    out.update((f"layers.{i}.{k}", t) for k, t in vars(lay).items())
        return out


class PrefixSet(ParamGroup):
    """Per-layer trainable key/value prefix rows: P_k, P_v of shape (n, d)."""

    def __init__(self, p_k: list[Tensor], p_v: list[Tensor]):
        if len(p_k) != len(p_v):
            raise ValueError("key and value prefix layer counts differ")
        if p_k:
            n, d = p_k[0].shape
            for t in list(p_k) + list(p_v):
                if t.shape != (n, d):
                    raise ValueError(
                        f"inconsistent prefix shapes: expected {(n, d)}, got {t.shape}"
                    )
                if not t.is_finite():
                    raise ValueError("non-finite prefix entries")
        self.p_k = p_k
        self.p_v = p_v

    @property
    def num_layers(self) -> int:
        return len(self.p_k)

    @property
    def length(self) -> int:
        return self.p_k[0].shape[0] if self.p_k else 0

    @classmethod
    def init_random(cls, config: ModelConfig, rng: Rng) -> "PrefixSet":
        """I.i.d. normal(0, 0.02) initialization for un-adapted runs."""
        if config.prefix_length < 1:
            raise ValueError("prefix_length must be >= 1 for prefix methods")
        gen = rng.stream(STREAM_INIT).stream("prefix").generator()
        n, d = config.prefix_length, config.d_model
        p_k = [Tensor(gen.normal(0.0, INIT_STD, size=(n, d)), requires_grad=True,
                      dtype=config.precision)
               for _ in range(config.num_layers)]
        p_v = [Tensor(gen.normal(0.0, INIT_STD, size=(n, d)), requires_grad=True,
                      dtype=config.precision)
               for _ in range(config.num_layers)]
        return cls(p_k, p_v)

    def named_tensors(self) -> dict[str, Tensor]:
        out = {}
        for i in range(self.num_layers):
            out[f"prefix.{i}.k"] = self.p_k[i]
            out[f"prefix.{i}.v"] = self.p_v[i]
        return out


class ClassificationHead(ParamGroup):
    """Linear readout over the pooled [CLS] position."""

    def __init__(self, w: Tensor, b: Tensor):
        if w.shape[1] != b.shape[0]:
            raise ValueError(f"head weight {w.shape} and bias {b.shape} disagree")
        if w.shape[1] < 2:
            raise ValueError("classification head needs at least 2 classes")
        self.w = w
        self.b = b

    @classmethod
    def init_random(cls, d_model: int, num_classes: int, rng: Rng,
                    precision: str = "float32") -> "ClassificationHead":
        gen = rng.stream(STREAM_INIT).stream("head").generator()
        w = Tensor(gen.normal(0.0, INIT_STD, size=(d_model, num_classes)),
                   requires_grad=True, dtype=precision)
        b = Tensor(np.zeros(num_classes), requires_grad=True, dtype=precision)
        return cls(w, b)

    @property
    def num_classes(self) -> int:
        return self.w.shape[1]

    def named_tensors(self) -> dict[str, Tensor]:
        return {"head.w": self.w, "head.b": self.b}


# ---------------------------------------------------------------------------
# forward computation
# ---------------------------------------------------------------------------


def attention_with_prefix(
    x: Tensor,
    layer: LayerWeights,
    num_heads: int,
    prefix_kv: tuple[Tensor, Tensor] | None,
    lengths: np.ndarray,
    dropout_p: float = 0.0,
    gen: np.random.Generator | None = None,
) -> Tensor:
    """Multi-head attention where prefix rows extend the key/value streams.

    x: (B, T, d), right-padded; lengths: (B,) real-token counts.
    The prefix pair, when present, is (n, d) each; its rows are attendable
    by every query, so the softmax runs over n + T keys while the output
    stays (B, T, d).
    """
    b, _, d = x.shape
    dh = d // num_heads

    q = split_heads(add_bias(matmul(x, layer.w_q), layer.b_q), num_heads)
    k = split_heads(add_bias(matmul(x, layer.w_k), layer.b_k), num_heads)
    v = split_heads(add_bias(matmul(x, layer.w_v), layer.b_v), num_heads)

    if prefix_kv is not None:
        p_k, p_v = prefix_kv
        if p_k.shape[-1] != d or p_v.shape[-1] != d:
            raise ValueError(
                f"prefix width {p_k.shape[-1]} does not match layer width {d}"
            )
        n = p_k.shape[0]
        if n:
            pk = expand(split_heads(p_k, num_heads), (b, num_heads, n, dh))
            pv = expand(split_heads(p_v, num_heads), (b, num_heads, n, dh))
            k = concat_seq(pk, k)
            v = concat_seq(pv, v)

    ctx = attention_core(scale(q, 1.0 / np.sqrt(dh)), k, v, lengths, dropout_p, gen)
    return add_bias(matmul(merge_heads(ctx), layer.w_o), layer.b_o)


def prefix_attention_probs(scores: Tensor, lengths: np.ndarray) -> Tensor:
    """Softmax of (B, h, T, n+T) scores over n prefix keys followed by T real keys.

    The composed-op reference for the softmax inside ``attention_core``:
    prefix columns stay open for every query, and the keys past example i's
    lengths[i] real ones get a NEG_INF offset, so their weight underflows to
    exactly zero.
    """
    t = scores.shape[-2]
    n = scores.shape[-1] - t
    if n < 0:
        raise ValueError(f"scores cover {scores.shape[-1]} keys, fewer than the {t} real")
    padded = np.arange(n + t) >= n + np.asarray(lengths)[:, None]
    return softmax_rows(scores + const(padded[:, None, None, :] * NEG_INF, scores.dtype))


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    return x + b


def encode(
    ids: np.ndarray,
    attn_mask: np.ndarray,
    weights: EncoderWeights,
    prefix: PrefixSet | None = None,
    train: bool = False,
    rng: Rng | None = None,
) -> Tensor:
    """Run the encoder on (B, T) ids; returns hidden states of shape (B, T, d_model).

    attn_mask is 1 on real tokens and 0 on padding. Every row must be
    right-padded (its real tokens first) and hold at least one real token.
    Only the real tokens are computed (see the module docstring); padded
    positions of the result are exactly 0.

    Eval mode (train=False) is deterministic: dropout is off. In train mode
    a dropout generator is derived from rng and consumed in a fixed order;
    every hidden dropout mask is drawn at the packed (N, d) shape it scales.
    Train mode with dropout > 0 raises ValueError when rng is None.
    """
    cfg = weights.config
    ids = np.asarray(ids)
    if ids.ndim != 2:
        raise ValueError(f"ids must be a (B, T) batch, got shape {ids.shape}")
    if ids.dtype.kind not in "iu":
        raise ValueError(f"ids must be integer token ids, got dtype {ids.dtype}")
    attn_mask = np.asarray(attn_mask)
    b, t = ids.shape
    if ids.size and ids.max() >= cfg.vocab_size:
        raise ValueError(f"token id {ids.max()} outside vocabulary of {cfg.vocab_size}")
    if ids.size and ids.min() < 0:
        raise ValueError("negative token id")
    if t > cfg.token_budget:
        raise ValueError(
            f"sequence length {t} exceeds token budget {cfg.token_budget} "
            f"(max_positions {cfg.max_positions}, prefix {cfg.prefix_length})"
        )
    if attn_mask.shape != ids.shape:
        raise ValueError(f"attn_mask shape {attn_mask.shape} does not match ids {ids.shape}")
    bad = attn_mask[(attn_mask != 0) & (attn_mask != 1)]
    if bad.size:
        raise ValueError(f"attn_mask entries must be 0 or 1, got {bad.flat[0].item()!r}")
    empty = np.flatnonzero(~attn_mask.any(axis=1))
    if empty.size:
        raise ValueError(f"attn_mask row {empty[0]} has no real token")
    unpadded = np.flatnonzero((attn_mask[:, 1:] > attn_mask[:, :-1]).any(axis=1))
    if unpadded.size:
        raise ValueError(f"attn_mask row {unpadded[0]} is not right-padded")
    lengths = np.count_nonzero(attn_mask, axis=1)
    # attention_with_prefix checks the prefix width, and the tape its dtype
    if prefix is not None:
        if prefix.num_layers != cfg.num_layers:
            raise ValueError(
                f"prefix has {prefix.num_layers} layers, model has {cfg.num_layers}")

    p = cfg.dropout if train else 0.0
    if p > 0 and rng is None:
        raise ValueError(f"encode(train=True) with dropout {p} needs an rng for its "
                         "dropout masks, got rng=None")
    gen = rng.stream(STREAM_DROPOUT).generator() if p > 0 else None

    rows = np.flatnonzero(attn_mask)
    x = embedding(weights.tok_emb, ids.reshape(-1)[rows]) + embedding(weights.pos_emb, rows % t)
    if gen is not None:
        x = dropout(x, p, gen)
    for i, layer in enumerate(weights.layers):
        kv = None if prefix is None else (prefix.p_k[i], prefix.p_v[i])
        h = attention_with_prefix(
            scatter_rows(layer_norm(x, layer.ln1_g, layer.ln1_b), rows, (b, t)), layer,
            cfg.num_heads, kv, lengths, dropout_p=p, gen=gen)
        h = gather_rows(h, rows)
        if gen is not None:
            h = dropout(h, p, gen)
        x = x + h
        f = layer_norm(x, layer.ln2_g, layer.ln2_b)
        f = matmul(gelu(add_bias(matmul(f, layer.w_f1), layer.b_f1)), layer.w_f2)
        f = add_bias(f, layer.b_f2)
        if gen is not None:
            f = dropout(f, p, gen)
        x = x + f
    return scatter_rows(layer_norm(x, weights.final_ln_g, weights.final_ln_b), rows, (b, t))


def classify(hidden: Tensor, head: ClassificationHead) -> Tensor:
    """(B, C) logits from the [CLS] position of (B, T, d) hidden states."""
    if hidden.shape[-1] != head.w.shape[0]:
        raise ValueError(
            f"hidden width {hidden.shape[-1]} does not match head input {head.w.shape[0]}"
        )
    b = hidden.shape[0]
    pooled = gather_positions(hidden, np.arange(b), np.zeros(b, dtype=int))
    return add_bias(matmul(pooled, head.w), head.b)


def mlm_logits(
    hidden: Tensor,
    positions: tuple[np.ndarray, np.ndarray],
    weights: EncoderWeights,
) -> Tensor:
    """Vocabulary logits at masked positions, via the tied-projection head.

    positions is (rows, cols) into a (B, T, d) hidden tensor; the output is
    (len(rows), vocab_size). Raises on an empty position set.
    """
    rows, cols = np.asarray(positions[0]), np.asarray(positions[1])
    if rows.size == 0:
        raise ValueError("mlm_logits called with no masked positions")
    h = gather_positions(hidden, rows, cols)
    h = gelu(add_bias(matmul(h, weights.mlm_dense_w), weights.mlm_dense_b))
    h = layer_norm(h, weights.mlm_ln_g, weights.mlm_ln_b)
    return add_bias(matmul(h, transpose(weights.tok_emb)), weights.mlm_out_bias)


# ---------------------------------------------------------------------------
# parameter accounting
# ---------------------------------------------------------------------------


def count_trainable(config: ModelConfig, method: str, num_classes: int = 0
                    ) -> tuple[int, int, float]:
    """(trainable, total, ratio) for a method on this config, counted as the
    ``param_count()`` of the groups it trains.

    total is the shape-only ``EncoderWeights``' count; the ``PrefixSet`` and
    task head are add-ons counted on the trainable side only, which keeps the
    ratio comparable to the base model size. A prefix method at
    ``prefix_length`` 0 is refused, as ``PrefixSet.init_random`` refuses it.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    total = EncoderWeights(config).param_count()
    trainable = (PrefixSet.init_random(config, Rng(0)).param_count()
                 if method in PREFIX_METHODS else total)
    if num_classes:
        trainable += ClassificationHead.init_random(config.d_model, num_classes,
                                                    Rng(0)).param_count()
    return trainable, total, trainable / total
