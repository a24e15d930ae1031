"""Encoder, prefix injection, heads, and parameter accounting."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.special import erf

from pforge.model import (
    METHODS,
    PREFIX_METHODS,
    ClassificationHead,
    EncoderWeights,
    LayerWeights,
    ModelConfig,
    PrefixSet,
    attention_with_prefix,
    classify,
    count_trainable,
    desk_config,
    encode,
    encoder_param_total,
    mlm_logits,
    prefix_attention_probs,
    roberta_base_shape,
)
from pforge.numerics import AdamW, Rng, Tensor, cross_entropy, dropout, grad_check, sum_all

TINY = ModelConfig(num_layers=2, d_model=8, num_heads=2, ffn_dim=16,
                   vocab_size=50, max_positions=32, prefix_length=4)


def rand_layer(d: int, gen: np.random.Generator, dtype: str = "float64") -> LayerWeights:
    def w(*shape):
        return Tensor(gen.normal(0, 0.5, size=shape), requires_grad=True, dtype=dtype)

    f = 2 * d
    return LayerWeights(
        w_q=w(d, d), b_q=w(d), w_k=w(d, d), b_k=w(d),
        w_v=w(d, d), b_v=w(d), w_o=w(d, d), b_o=w(d),
        ln1_g=w(d), ln1_b=w(d), w_f1=w(d, f), b_f1=w(f),
        w_f2=w(f, d), b_f2=w(d), ln2_g=w(d), ln2_b=w(d),
    )


def attention_oracle(x, lw: LayerWeights, num_heads, p_k, p_v, attn_mask):
    """Scalar-loop multi-head attention with prefix rows, pure numpy."""
    b, t, d = x.shape
    dh = d // num_heads
    n = 0 if p_k is None else p_k.shape[0]
    q = x @ lw.w_q.data + lw.b_q.data
    k = x @ lw.w_k.data + lw.b_k.data
    v = x @ lw.w_v.data + lw.b_v.data
    ctx = np.zeros_like(x)
    for bi in range(b):
        for h in range(num_heads):
            sl = slice(h * dh, (h + 1) * dh)
            keys = [p_k[j, sl] for j in range(n)] + [k[bi, j, sl] for j in range(t)]
            vals = [p_v[j, sl] for j in range(n)] + [v[bi, j, sl] for j in range(t)]
            for i in range(t):
                scores = np.array([q[bi, i, sl] @ kj for kj in keys]) / np.sqrt(dh)
                for j in range(t):
                    if attn_mask[bi, j] == 0:
                        scores[n + j] = -1.0e9
                e = np.exp(scores - scores.max())
                p = e / e.sum()
                ctx[bi, i, sl] = sum(pj * vj for pj, vj in zip(p, vals))
    return ctx @ lw.w_o.data + lw.b_o.data


class TestModelConfig:
    def test_head_divisibility_enforced(self):
        with pytest.raises(ValueError, match="divisible"):
            ModelConfig(num_layers=1, d_model=10, num_heads=3, ffn_dim=16,
                        vocab_size=10, max_positions=32)

    def test_positive_dims_enforced(self):
        with pytest.raises(ValueError, match="positive"):
            ModelConfig(num_layers=0, d_model=8, num_heads=2, ffn_dim=16,
                        vocab_size=10, max_positions=32)

    def test_negative_prefix_rejected(self):
        with pytest.raises(ValueError, match="prefix_length"):
            ModelConfig(num_layers=1, d_model=8, num_heads=2, ffn_dim=16,
                        vocab_size=10, max_positions=32, prefix_length=-1)

    def test_prefix_consuming_whole_window_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            ModelConfig(num_layers=1, d_model=8, num_heads=2, ffn_dim=16,
                        vocab_size=10, max_positions=16, prefix_length=12)

    def test_paper_shape_budget_is_500(self):
        cfg = roberta_base_shape()
        assert cfg.token_budget == 500
        assert cfg.max_positions == 512 and cfg.prefix_length == 8

    def test_fingerprint_stable_and_sensitive(self):
        a = desk_config()
        b = desk_config()
        c = desk_config(prefix_length=4)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()

    def test_dropout_range(self):
        with pytest.raises(ValueError, match="dropout"):
            ModelConfig(num_layers=1, d_model=8, num_heads=2, ffn_dim=16,
                        vocab_size=10, max_positions=32, dropout=1.0)

    @pytest.mark.parametrize("field, value", [
        ("num_layers", "2"), ("d_model", 8.0), ("num_heads", True),
        ("prefix_length", None), ("dropout", "0.1"), ("dropout", False),
        ("precision", 32),
    ])
    def test_field_of_wrong_type_named(self, field, value):
        with pytest.raises(ValueError, match=field):
            replace(TINY, **{field: value})


class TestAttentionWithPrefix:
    def test_hand_set_single_head_matches_oracle(self):
        # 1 layer, 1 head, d=2, T=1, n=1
        gen = np.random.default_rng(0)
        lw = rand_layer(2, gen)
        lw.w_q = Tensor(np.eye(2), dtype="float64")
        lw.b_q = Tensor(np.zeros(2), dtype="float64")
        lw.w_k = Tensor(np.eye(2), dtype="float64")
        lw.b_k = Tensor(np.zeros(2), dtype="float64")
        lw.w_v = Tensor([[0.0, 1.0], [1.0, 0.0]], dtype="float64")
        lw.b_v = Tensor(np.zeros(2), dtype="float64")
        lw.w_o = Tensor(np.eye(2), dtype="float64")
        lw.b_o = Tensor(np.zeros(2), dtype="float64")
        x = np.array([[[1.0, 2.0]]])
        p_k = np.array([[0.5, -0.3]])
        p_v = np.array([[0.2, 0.7]])
        mask = np.ones((1, 1))
        got = attention_with_prefix(
            Tensor(x), lw, 1,
            (Tensor(p_k), Tensor(p_v)), mask)
        want = attention_oracle(x, lw, 1, p_k, p_v, mask)
        assert got.shape == (1, 1, 2)
        np.testing.assert_allclose(got.data, want, atol=1e-6)

    @pytest.mark.parametrize("b,t,heads,d,n,pad", [
        (1, 3, 1, 4, 0, 0),
        (2, 5, 2, 8, 3, 2),
        (3, 4, 4, 8, 1, 1),
        (2, 7, 2, 6, 8, 3),
        (1, 1, 1, 2, 1, 0),
    ])
    def test_randomized_against_oracle(self, b, t, heads, d, n, pad):
        gen = np.random.default_rng(b * 100 + t * 10 + n)
        lw = rand_layer(d, gen)
        x = gen.normal(0, 1, size=(b, t, d))
        p_k = gen.normal(0, 1, size=(n, d)) if n else None
        p_v = gen.normal(0, 1, size=(n, d)) if n else None
        mask = np.ones((b, t))
        if pad:
            mask[:, -pad:] = 0
        kv = (Tensor(p_k), Tensor(p_v)) if n else None
        got = attention_with_prefix(Tensor(x), lw, heads, kv, mask)
        want = attention_oracle(x, lw, heads, p_k, p_v, mask)
        np.testing.assert_allclose(got.data, want, atol=1e-6)
        assert got.shape == (b, t, d)

    def test_output_length_independent_of_prefix(self):
        # T=120 with n=8 keeps output length 120
        gen = np.random.default_rng(7)
        lw = rand_layer(4, gen)
        x = Tensor(gen.normal(0, 1, size=(1, 120, 4)))
        kv = (Tensor(gen.normal(0, 1, size=(8, 4))),
              Tensor(gen.normal(0, 1, size=(8, 4))))
        out = attention_with_prefix(x, lw, 2, kv, np.ones((1, 120)))
        assert out.shape == (1, 120, 4)

    def test_prefix_width_mismatch_rejected(self):
        gen = np.random.default_rng(1)
        lw = rand_layer(4, gen)
        x = Tensor(gen.normal(0, 1, size=(1, 2, 4)))
        kv = (Tensor(np.zeros((2, 6))), Tensor(np.zeros((2, 6))))
        with pytest.raises(ValueError, match="width"):
            attention_with_prefix(x, lw, 2, kv, np.ones((1, 2)))

    def test_mask_shape_checked(self):
        gen = np.random.default_rng(1)
        lw = rand_layer(4, gen)
        x = Tensor(gen.normal(0, 1, size=(1, 2, 4)))
        with pytest.raises(ValueError, match="attn_mask"):
            attention_with_prefix(x, lw, 2, None, np.ones((1, 3)))


class TestAttentionProbs:
    def test_rows_sum_to_one_and_padding_gets_zero(self):
        gen = np.random.default_rng(3)
        b, heads, t, n = 2, 2, 5, 3
        scores = Tensor(gen.normal(0, 2, size=(b, heads, t, n + t)))
        mask = np.ones((b, t))
        mask[0, -2:] = 0
        probs = prefix_attention_probs(scores, mask).data
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-6)
        assert np.all(probs[0, :, :, n + 3:] == 0.0)
        # prefix columns stay open even for the padded batch row
        assert np.all(probs[0, :, :, :n] > 0.0)

    def test_score_key_count_checked(self):
        with pytest.raises(ValueError, match="keys"):
            prefix_attention_probs(Tensor(np.zeros((1, 1, 2, 1))), np.ones((1, 2)))


class TestEncode:
    def setup_method(self):
        self.weights = EncoderWeights(TINY, Rng(5))
        self.ids = np.array([[2, 7, 8, 9, 0], [2, 11, 12, 0, 0]])
        self.mask = np.array([[1, 1, 1, 1, 0], [1, 1, 1, 0, 0]])

    def test_eval_mode_repeat_is_bit_identical(self):
        a = encode(self.ids, self.mask, self.weights)
        b = encode(self.ids, self.mask, self.weights)
        assert np.array_equal(a.data, b.data)

    def test_prefix_none_equals_zero_length_prefix(self):
        zero = PrefixSet(
            [Tensor(np.zeros((0, TINY.d_model)), requires_grad=True, dtype=TINY.precision)
             for _ in range(TINY.num_layers)],
            [Tensor(np.zeros((0, TINY.d_model)), requires_grad=True, dtype=TINY.precision)
             for _ in range(TINY.num_layers)],
        )
        a = encode(self.ids, self.mask, self.weights, prefix=None)
        b = encode(self.ids, self.mask, self.weights, prefix=zero)
        assert np.array_equal(a.data, b.data)

    def test_prefix_dtype_other_than_encoder_precision_rejected(self):
        prefix = PrefixSet.init_random(replace(TINY, precision="float64"), Rng(6))
        with pytest.raises(ValueError, match="float64.*float32"):
            encode(self.ids, self.mask, self.weights, prefix=prefix)

    def test_prefix_changes_output(self):
        prefix = PrefixSet.init_random(TINY, Rng(6))
        a = encode(self.ids, self.mask, self.weights)
        b = encode(self.ids, self.mask, self.weights, prefix=prefix)
        assert not np.allclose(a.data, b.data)

    def test_perturbing_last_layer_value_prefix_changes_output(self):
        prefix = PrefixSet.init_random(TINY, Rng(6))
        a = encode(self.ids, self.mask, self.weights, prefix=prefix)
        prefix.p_v[-1].data = prefix.p_v[-1].data + 0.5
        b = encode(self.ids, self.mask, self.weights, prefix=prefix)
        assert not np.allclose(a.data, b.data)

    def test_out_of_vocab_rejected(self):
        bad = self.ids.copy()
        bad[0, 1] = TINY.vocab_size
        with pytest.raises(ValueError, match="vocab"):
            encode(bad, self.mask, self.weights)

    def test_negative_id_rejected(self):
        bad = self.ids.copy()
        bad[0, 1] = -1
        with pytest.raises(ValueError, match="negative"):
            encode(bad, self.mask, self.weights)

    def test_over_length_rejected(self):
        t = TINY.token_budget + 1
        ids = np.full((1, t), 4)
        with pytest.raises(ValueError, match="budget"):
            encode(ids, np.ones((1, t)), self.weights)

    def test_train_mode_deterministic_given_rng(self):
        a = encode(self.ids, self.mask, self.weights, train=True, rng=Rng(9))
        b = encode(self.ids, self.mask, self.weights, train=True, rng=Rng(9))
        c = encode(self.ids, self.mask, self.weights, train=True, rng=Rng(10))
        assert np.array_equal(a.data, b.data)
        assert not np.array_equal(a.data, c.data)

    @pytest.mark.parametrize("with_prefix", [False, True])
    def test_each_hidden_dropout_scales_the_packed_rows(self, with_prefix, monkeypatch):
        shapes = []

        def recording_dropout(x, p, gen):
            shapes.append(x.shape)
            return dropout(x, p, gen)

        monkeypatch.setattr("pforge.model.dropout", recording_dropout)
        prefix = PrefixSet.init_random(TINY, Rng(6)) if with_prefix else None
        encode(self.ids, self.mask, self.weights, prefix, train=True, rng=Rng(9))
        n = int(self.mask.sum())
        assert shapes == [(n, TINY.d_model)] * (1 + 2 * TINY.num_layers)

    def test_train_mode_with_dropout_needs_rng(self):
        with pytest.raises(ValueError, match="rng=None"):
            encode(self.ids, self.mask, self.weights, train=True)

    def test_train_mode_without_dropout_needs_no_rng(self):
        weights = EncoderWeights(replace(TINY, dropout=0.0), Rng(5))
        a = encode(self.ids, self.mask, weights, train=True)
        assert np.array_equal(a.data, encode(self.ids, self.mask, weights).data)

    def test_unbatched_ids_rejected(self):
        with pytest.raises(ValueError, match=r"\(B, T\) batch, got shape \(5,\)"):
            encode(self.ids[0], self.mask[0], self.weights)

    def test_prefix_layer_count_mismatch_rejected(self):
        other = ModelConfig(num_layers=3, d_model=8, num_heads=2, ffn_dim=16,
                            vocab_size=50, max_positions=32, prefix_length=4)
        prefix = PrefixSet.init_random(other, Rng(1))
        with pytest.raises(ValueError, match="layers"):
            encode(self.ids, self.mask, self.weights, prefix=prefix)

    @pytest.mark.parametrize("value", [0.5, 2])
    def test_mask_entry_other_than_0_or_1_rejected(self, value):
        mask = self.mask.astype(float)
        mask[1, 1] = value
        with pytest.raises(ValueError, match=f"attn_mask entries must be 0 or 1, got {value}"):
            encode(self.ids, mask, self.weights)

    def test_sequence_without_real_token_rejected(self):
        mask = self.mask.copy()
        mask[1] = 0
        with pytest.raises(ValueError, match="attn_mask row 1 has no real token"):
            encode(self.ids, mask, self.weights)

    @pytest.mark.parametrize("with_prefix", [False, True])
    def test_padded_batch_matches_each_sequence_alone(self, with_prefix):
        cfg = replace(TINY, precision="float64")
        weights = EncoderWeights(cfg, Rng(5))
        prefix = PrefixSet.init_random(cfg, Rng(6)) if with_prefix else None
        out = encode(self.ids, self.mask, weights, prefix).data
        for i, row in enumerate(self.mask):
            n = int(row.sum())
            alone = encode(self.ids[i:i + 1, :n], row[None, :n], weights, prefix).data[0]
            np.testing.assert_allclose(out[i, :n], alone, rtol=1e-12, atol=0)
            assert np.all(out[i, n:] == 0.0)


class TestClassify:
    def test_zero_weights_gives_bias(self):
        head = ClassificationHead(Tensor(np.zeros((8, 3))),
                                  Tensor(np.array([0.1, -0.2, 0.3])))
        hidden = Tensor(np.random.default_rng(0).normal(size=(2, 5, 8)))
        logits = classify(hidden, head)
        np.testing.assert_allclose(logits.data, [[0.1, -0.2, 0.3]] * 2, atol=1e-7)

    def test_negated_columns_flip_margin(self):
        gen = np.random.default_rng(1)
        w = gen.normal(size=(8, 2))
        w[:, 1] = -w[:, 0]
        head = ClassificationHead(Tensor(w), Tensor(np.zeros(2)))
        hidden = Tensor(gen.normal(size=(3, 4, 8)))
        logits = classify(hidden, head).data
        np.testing.assert_allclose(logits[:, 0], -logits[:, 1], atol=1e-7)

    def test_matches_dot_product_oracle(self):
        gen = np.random.default_rng(2)
        w, b = gen.normal(size=(8, 4)), gen.normal(size=4)
        hidden = gen.normal(size=(3, 6, 8))
        head = ClassificationHead(Tensor(w), Tensor(b))
        got = classify(Tensor(hidden), head).data
        want = np.array([[hidden[i, 0] @ w[:, c] + b[c] for c in range(4)]
                         for i in range(3)])
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_unbatched_hidden_rejected(self):
        head = ClassificationHead(Tensor(np.zeros((8, 3))), Tensor(np.zeros(3)))
        with pytest.raises(ValueError, match=r"\(B, T, d\).*\(5, 8\)"):
            classify(Tensor(np.zeros((5, 8))), head)

    def test_head_dtype_other_than_hidden_rejected(self):
        head = ClassificationHead(Tensor(np.zeros((8, 3)), dtype="float64"),
                                  Tensor(np.zeros(3), dtype="float64"))
        with pytest.raises(ValueError, match="head.w is float64, hidden states are float32"):
            classify(Tensor(np.zeros((2, 5, 8)), dtype="float32"), head)

    def test_width_mismatch_rejected(self):
        head = ClassificationHead(Tensor(np.zeros((4, 2))), Tensor(np.zeros(2)))
        with pytest.raises(ValueError, match="width"):
            classify(Tensor(np.zeros((1, 3, 8))), head)

    def test_single_class_head_rejected(self):
        with pytest.raises(ValueError, match="2 classes"):
            ClassificationHead(Tensor(np.zeros((4, 1))), Tensor(np.zeros(1)))


class TestMlmLogits:
    def setup_method(self):
        self.weights = EncoderWeights(TINY, Rng(5))

    def test_empty_positions_is_an_error(self):
        hidden = Tensor(np.zeros((2, 5, 8)))
        with pytest.raises(ValueError, match="no masked positions"):
            mlm_logits(hidden, (np.array([], dtype=int), np.array([], dtype=int)),
                       self.weights)

    def test_unbatched_hidden_rejected(self):
        with pytest.raises(ValueError, match=r"\(B, T, d\).*\(5, 8\)"):
            mlm_logits(Tensor(np.zeros((5, 8))), (np.array([0]), np.array([1])), self.weights)

    def test_matches_head_oracle(self):
        gen = np.random.default_rng(4)
        hidden = gen.normal(size=(2, 5, 8))
        rows = np.array([0, 1, 1])
        cols = np.array([2, 0, 4])
        got = mlm_logits(Tensor(hidden), (rows, cols), self.weights).data

        w = self.weights
        h = hidden[rows, cols]
        h = h @ w.mlm_dense_w.data.astype(np.float64) + w.mlm_dense_b.data
        h = h * 0.5 * (1.0 + erf(h / np.sqrt(2.0)))
        mu = h.mean(axis=-1, keepdims=True)
        var = ((h - mu) ** 2).mean(axis=-1, keepdims=True)
        h = (h - mu) / np.sqrt(var + 1e-5)
        h = h * w.mlm_ln_g.data + w.mlm_ln_b.data
        want = h @ w.tok_emb.data.T.astype(np.float64) + w.mlm_out_bias.data
        assert got.shape == (3, TINY.vocab_size)
        np.testing.assert_allclose(got, want, atol=1e-4)

    def test_projection_tied_to_token_embedding(self):
        # gradient of an MLM loss must land in the embedding table itself
        ids = np.array([[2, 7, 8, 0]])
        mask = np.array([[1, 1, 1, 0]])
        hidden = encode(ids, mask, self.weights)
        logits = mlm_logits(hidden, (np.array([0]), np.array([1])), self.weights)
        loss = cross_entropy(logits, np.array([7]))
        loss.backward()
        assert self.weights.tok_emb.grad is not None
        assert np.any(self.weights.tok_emb.grad != 0)


class TestPrefixSet:
    def test_inconsistent_shapes_rejected(self):
        with pytest.raises(ValueError, match="shapes"):
            PrefixSet([Tensor(np.zeros((4, 8))), Tensor(np.zeros((3, 8)))],
                      [Tensor(np.zeros((4, 8))), Tensor(np.zeros((4, 8)))])

    def test_layer_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="counts differ"):
            PrefixSet([Tensor(np.zeros((4, 8)))], [])

    def test_non_finite_rejected(self):
        bad = np.zeros((2, 4))
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            PrefixSet([Tensor(bad)], [Tensor(np.zeros((2, 4)))])

    def test_init_random_matches_config(self):
        p = PrefixSet.init_random(TINY, Rng(3))
        assert p.num_layers == TINY.num_layers
        assert p.length == TINY.prefix_length
        assert all(t.requires_grad for t in p.named_tensors().values())

    def test_init_deterministic(self):
        a = PrefixSet.init_random(TINY, Rng(3))
        b = PrefixSet.init_random(TINY, Rng(3))
        for x, y in zip(a.named_tensors().values(), b.named_tensors().values()):
            assert np.array_equal(x.data, y.data)

    def test_copy_is_independent(self):
        a = PrefixSet.init_random(TINY, Rng(3))
        b = a.copy()
        b.p_k[0].data[0, 0] += 1.0
        assert a.p_k[0].data[0, 0] != b.p_k[0].data[0, 0]


class TestEncoderWeights:
    def test_without_rng_weights_are_zero_placeholders(self):
        seeded = EncoderWeights(TINY, Rng(0)).named_tensors()
        plain = EncoderWeights(TINY).named_tensors()
        assert {n: t.shape for n, t in plain.items()} == {n: t.shape for n, t in seeded.items()}
        assert not np.any(plain["tok_emb"].data) and not np.any(plain["layers.1.w_f2"].data)
        assert np.all(plain["layers.0.ln1_g"].data == 1.0)

    def test_same_seed_reproduces_weights(self):
        a = EncoderWeights(TINY, Rng(11))
        b = EncoderWeights(TINY, Rng(11))
        for x, y in zip(a.named_tensors().values(), b.named_tensors().values()):
            assert np.array_equal(x.data, y.data)

    def test_param_count_matches_closed_form(self):
        w = EncoderWeights(TINY, Rng(0))
        assert w.param_count() == encoder_param_total(TINY)

    def test_copy_is_independent(self):
        a = EncoderWeights(TINY, Rng(0))
        b = a.copy()
        b.tok_emb.data[0, 0] += 1.0
        assert a.tok_emb.data[0, 0] != b.tok_emb.data[0, 0]

    def test_trainable_partition_has_no_overlap(self):
        w = EncoderWeights(TINY, Rng(0))
        w.set_trainable(False)
        assert w.trainable_tensors() == {}
        w.set_trainable(True)
        assert len(w.trainable_tensors()) == len(w.named_tensors())


class TestCountTrainable:
    def test_toy_config_formula(self):
        cfg = ModelConfig(num_layers=4, d_model=64, num_heads=4, ffn_dim=256,
                          vocab_size=2000, max_positions=128, prefix_length=8)
        trainable, total, ratio = count_trainable(cfg, "pt2", num_classes=3)
        assert trainable == 2 * 4 * 8 * 64 + (64 * 3 + 3) == 4291
        assert total == encoder_param_total(cfg)
        assert ratio == trainable / total

    def test_zero_prefix_no_head_trains_nothing(self):
        cfg = ModelConfig(num_layers=4, d_model=64, num_heads=4, ffn_dim=256,
                          vocab_size=2000, max_positions=128, prefix_length=0)
        trainable, _, _ = count_trainable(cfg, "pt2", num_classes=0)
        assert trainable == 0

    def test_published_shape_numbers(self):
        cfg = roberta_base_shape()
        trainable, total, ratio = count_trainable(cfg, "prefix-domain-adapt",
                                                  num_classes=11)
        assert 2 * 12 * 8 * 768 == 147456
        assert trainable == 147456 + 8459 == 155915
        assert total == 124695129
        assert 0.00125 <= ratio <= 0.0013

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_enumeration_oracle(self, method):
        cfg = TINY
        num_classes = 3
        weights = EncoderWeights(cfg, Rng(0))
        head = ClassificationHead.init_random(cfg.d_model, num_classes, Rng(0))
        tensors = dict(weights.named_tensors())
        tensors.update(head.named_tensors())
        if method in PREFIX_METHODS:
            weights.set_trainable(False)
            prefix = PrefixSet.init_random(cfg, Rng(0))
            tensors.update(prefix.named_tensors())
        else:
            weights.set_trainable(True)
        enumerated = sum(t.size for t in tensors.values() if t.requires_grad)
        trainable, total, _ = count_trainable(cfg, method, num_classes)
        assert trainable == enumerated
        assert total == weights.param_count()

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            count_trainable(TINY, "lora", 2)


class TestFreezingSoundness:
    def test_prefix_training_leaves_base_bits_unchanged(self):
        weights = EncoderWeights(TINY, Rng(21))
        weights.set_trainable(False)
        prefix = PrefixSet.init_random(TINY, Rng(22))
        head = ClassificationHead.init_random(TINY.d_model, 3, Rng(23))
        before = {n: t.data.copy() for n, t in weights.named_tensors().items()}

        params = {**prefix.named_tensors(), **head.named_tensors()}
        opt = AdamW(params, lr=1e-2, weight_decay=0.01)
        ids = np.array([[2, 7, 8, 9], [2, 11, 12, 0]])
        mask = np.array([[1, 1, 1, 1], [1, 1, 1, 0]])
        labels = np.array([0, 2])
        for _ in range(3):
            opt.zero_grad()
            hidden = encode(ids, mask, weights, prefix=prefix)
            loss = cross_entropy(classify(hidden, head), labels)
            loss.backward()
            opt.step()

        after = weights.named_tensors()
        for name, arr in before.items():
            assert np.array_equal(arr, after[name].data), name
        # and the prefix really moved
        assert not np.array_equal(prefix.p_k[0].data,
                                  PrefixSet.init_random(TINY, Rng(22)).p_k[0].data)


    def test_prefix_backward_leaves_every_encoder_grad_unset(self):
        weights = EncoderWeights(TINY, Rng(24))
        weights.set_trainable(False)
        prefix = PrefixSet.init_random(TINY, Rng(25))
        head = ClassificationHead.init_random(TINY.d_model, 3, Rng(26))
        ids = np.array([[2, 7, 8, 9], [2, 11, 12, 0]])
        mask = np.array([[1, 1, 1, 1], [1, 1, 1, 0]])
        hidden = encode(ids, mask, weights, prefix=prefix, train=True, rng=Rng(27))
        cross_entropy(classify(hidden, head), np.array([0, 2])).backward()

        for name, t in weights.named_tensors().items():
            assert t.grad is None, name
        for name, t in {**prefix.named_tensors(), **head.named_tensors()}.items():
            assert t.grad is not None and t.grad.shape == t.shape, name


class TestEndToEndPrefixGradients:
    def test_grad_check_classification_loss_wrt_prefix(self):
        cfg = ModelConfig(num_layers=2, d_model=8, num_heads=2, ffn_dim=16,
                          vocab_size=30, max_positions=32, prefix_length=2,
                          precision="float64")
        weights = EncoderWeights(cfg, Rng(31))
        weights.set_trainable(False)
        prefix = PrefixSet.init_random(cfg, Rng(32))
        head = ClassificationHead.init_random(cfg.d_model, 3, Rng(33),
                                              precision="float64")
        ids = np.array([[2, 5, 6, 7], [2, 9, 0, 0]])
        mask = np.array([[1, 1, 1, 1], [1, 1, 0, 0]])
        labels = np.array([1, 2])

        def loss_fn():
            hidden = encode(ids, mask, weights, prefix=prefix)
            return cross_entropy(classify(hidden, head), labels)

        report = grad_check(loss_fn, prefix.named_tensors())
        assert report.ok(1e-4), report


class TestEndToEndEncoderGradients:
    def test_grad_check_classification_loss_through_padded_batch(self):
        # full fine-tuning path: packed rows, both row ops, hidden dropout
        cfg = ModelConfig(num_layers=2, d_model=8, num_heads=2, ffn_dim=16,
                          vocab_size=30, max_positions=32, prefix_length=2,
                          precision="float64")
        weights = EncoderWeights(cfg, Rng(41))
        head = ClassificationHead.init_random(cfg.d_model, 3, Rng(42),
                                              precision="float64")
        ids = np.array([[2, 5, 6, 7, 8], [2, 9, 0, 0, 0], [2, 3, 4, 0, 0]])
        mask = (ids != 0).astype(int)
        labels = np.array([1, 2, 0])

        def loss_fn():
            hidden = encode(ids, mask, weights, train=True, rng=Rng(43))
            return cross_entropy(classify(hidden, head), labels)

        named = weights.named_tensors()
        sampled = grad_check(loss_fn, {"tok_emb": named["tok_emb"]}, sample=40,
                             rng=np.random.default_rng(44))
        full = grad_check(loss_fn, {n: named[n] for n in ("layers.0.w_f1", "layers.1.ln2_g")})
        assert sampled.ok(1e-4), sampled
        assert full.ok(1e-4), full
