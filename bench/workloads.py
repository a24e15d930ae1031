"""The three benchmark workloads, composed only from pforge's public calls.

Every workload is a closed loop of B=16 training steps on ``desk_config``.
A run sets the workload up, plays one untimed warm-up episode that fixes
the reference results, then repeats the same episode until the time budget
is spent, setting up once more after each (``setup_s`` is the median of
all set-ups), and times each step by its fastest replay (``_fastest``).
Each episode restores the set-up state, trains a fixed number of steps,
runs a tape-off eval pass, and (for ``adapt``) saves and reloads the
prefix. Because every episode starts from the same state with the same
seeds, its losses and scores must equal the warm-up's bit for bit; any
difference counts as a failed operation, as do non-finite losses, skipped
MLM batches, a moved encoder bit on a frozen-encoder workload, eval
probabilities that PredictionLog rejects, and a prefix checkpoint that
does not round-trip.
"""

from __future__ import annotations

import hashlib
import resource
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from pforge.checkpoint import load_prefix, save_prefix
from pforge.dataprep import SyntheticSpec, gen_synthetic
from pforge.metrics import PredictionLog, ece_top1, macro_f1
from pforge.model import (
    METHOD_FT,
    METHOD_PREFIX_DOMAIN_ADAPT,
    ClassificationHead,
    EncoderWeights,
    PrefixSet,
    classify,
    desk_config,
    encode,
    mlm_logits,
)
from pforge.numerics import (
    STREAM_MASKING,
    STREAM_SAMPLING,
    AdamW,
    Rng,
    cross_entropy,
    no_grad,
)
from pforge.textdata import SPECIALS, apply_mlm_mask, build_vocab, collate, encode_document

from .tracing import (
    NullTracer,
    Tracer,
    durations,
    model_op_names,
    per_parent_totals,
    self_seconds_by_layer,
    wrap_model_ops,
)

BATCH = 16
P_SELECT = 0.15
FEWSHOT_PER_CLASS = 64
LOSS_TAIL = 4          # final_loss averages this many closing steps
# Each episode restarts from the set-up state, and its first steps pay for
# fresh allocations that a single long training run pays only once; step
# timings therefore start after these.
WARM_STEPS = 2
MIN_TIMED_EPISODES = 2
ADAPT = "adapt"


@dataclass(frozen=True)
class Workload:
    name: str
    method: str           # ADAPT, METHOD_FT or METHOD_PREFIX_DOMAIN_ADAPT
    spec: SyntheticSpec
    steps: int            # training steps per episode
    lr: float
    eval_docs: int = 0    # held-out domain documents (adapt only)

    @property
    def frozen_encoder(self) -> bool:
        return self.method != METHOD_FT


_CFG = desk_config()

WORKLOADS = {
    # Long documents fill the token budget: attention over n+T keys and the
    # backward pass through the frozen encoder dominate; MLM head and masking
    # are only used here.
    ADAPT: Workload(
        ADAPT, ADAPT,
        SyntheticSpec(doc_len_min=64, doc_len_max=_CFG.token_budget - 1,
                      general_size=60, domain_size=320, labeled_pool_size=60),
        steps=12, lr=1e-2, eval_docs=96),
    # Short labeled documents; every encoder tensor trains, no prefix.
    "fewshot-ft": Workload(
        "fewshot-ft", METHOD_FT,
        SyntheticSpec(general_size=200, domain_size=200, labeled_pool_size=1000),
        steps=24, lr=1e-3),
    # Same data, seed and batch order; only prefix and head train.
    "fewshot-prefix": Workload(
        "fewshot-prefix", METHOD_PREFIX_DOMAIN_ADAPT,
        SyntheticSpec(general_size=200, domain_size=200, labeled_pool_size=1000),
        steps=24, lr=1e-2),
}


@dataclass
class State:
    """Everything an episode starts from; episodes train copies of its tensors."""

    weights: EncoderWeights
    prefix: PrefixSet | None
    head: ClassificationHead | None
    train: list                      # EncodedExample
    batches: list[np.ndarray]        # index arrays into train, one per step
    evalset: list                    # EncodedExample
    ckpt_dir: Path
    ckpt_bytes: int = 0
    data_digest: str = ""


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)


@dataclass
class Episode:
    losses: list[float]
    step_s: list[float]           # wall time of each training step
    step_tokens: list[int]        # non-pad tokens of each training step
    eval_s: list[float]           # wall time of each eval batch
    eval_examples: int            # examples scored by the eval pass
    quality: dict[str, float]
    mlm_selected: int = 0
    mlm_maskable: int = 0
    mlm_skipped: int = 0


def digest(tensors: dict) -> str:
    h = hashlib.sha256()
    for name, t in tensors.items():
        h.update(name.encode())
        h.update(np.ascontiguousarray(t.data).tobytes())
    return h.hexdigest()


def _sample_fewshot(docs, labels: dict[str, int], rng: Rng) -> list:
    """FEWSHOT_PER_CLASS documents per class, drawn with the sampling stream."""
    gen = rng.stream(STREAM_SAMPLING).stream("fewshot").generator()
    chosen = []
    for label in labels:
        pool = [i for i, d in enumerate(docs) if d.label == label]
        chosen.extend(sorted(gen.choice(pool, FEWSHOT_PER_CLASS, replace=False).tolist()))
    return [docs[i] for i in chosen]


def _batch_order(n: int, steps: int, rng: Rng) -> list[np.ndarray]:
    """Epoch-wise permutations of range(n), cut into ``steps`` batches."""
    gen = rng.stream(STREAM_SAMPLING).stream("batches").generator()
    order = np.concatenate([gen.permutation(n) for _ in range(-(-steps * BATCH // n))])
    return [order[i * BATCH:(i + 1) * BATCH] for i in range(steps)]


def prefix_round_trip(prefix: PrefixSet, path: Path, tr, tally: Tally) -> tuple[PrefixSet, int]:
    """save_prefix then load_prefix; the loaded prefix must equal it at float32."""
    cfg = _CFG
    with tr.span("checkpoint.save"):
        save_prefix(path, prefix, cfg)
    with tr.span("checkpoint.load"):
        loaded, _ = load_prefix(path, expect=cfg)
    ok = all(np.array_equal(a.data, b.data.astype(np.float32))
             for a, b in zip(loaded.named_tensors().values(),
                             prefix.named_tensors().values()))
    tally.record(ok, "prefix checkpoint does not round-trip")
    return loaded, path.stat().st_size


def setup(w: Workload, seed: int, workdir: Path, tr, tally: Tally) -> State:
    """Corpus, vocabulary, encoding, weight init and any checkpoint hand-over."""
    cfg = _CFG
    root = Rng(seed)
    with tr.span("dataprep.gen_synthetic"):
        general, domain, manifest = gen_synthetic(w.spec, root, workdir / "data")
    with tr.span("textdata.vocab_encode"):
        if w.method == ADAPT:
            vocab = build_vocab([d.text for d in general + domain], max_size=cfg.vocab_size)
            docs = [encode_document(d, vocab, cfg) for d in domain]
            n_train = w.steps * BATCH
            if len(docs) < n_train + w.eval_docs:
                raise ValueError(f"domain corpus of {len(docs)} is too small")
            train, evalset = docs[:n_train], docs[n_train:n_train + w.eval_docs]
            batches = [np.arange(i * BATCH, (i + 1) * BATCH) for i in range(w.steps)]
        else:
            labels = manifest.label_map()
            train_docs = manifest.load_split("train")
            vocab = build_vocab([d.text for d in general + domain + train_docs],
                                max_size=cfg.vocab_size)
            shots = _sample_fewshot(train_docs, labels, root)
            train = [encode_document(d, vocab, cfg, labels[d.label]) for d in shots]
            evalset = [encode_document(d, vocab, cfg, labels[d.label])
                       for d in manifest.load_split("test")]
            batches = _batch_order(len(train), w.steps, root)
    with tr.span("model.init"):
        weights = EncoderWeights(cfg, root)
        prefix = PrefixSet.init_random(cfg, root) if w.frozen_encoder else None
        head = (ClassificationHead.init_random(cfg.d_model, len(labels), root)
                if w.method != ADAPT else None)
    state = State(weights, prefix, head, train, batches, evalset, workdir / "ckpt")
    if w.method == METHOD_PREFIX_DOMAIN_ADAPT:
        # The fewshot arm receives its prefix through a checkpoint file.
        state.prefix, state.ckpt_bytes = prefix_round_trip(
            prefix, state.ckpt_dir / "handover.prefix", tr, tally)
    h = hashlib.sha256()
    for e in train + evalset:
        h.update(np.asarray(e.ids, dtype=np.int64).tobytes())
    state.data_digest = h.hexdigest()[:16]
    return state


def _probs(logits: np.ndarray) -> np.ndarray:
    x = logits.astype(np.float64)
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def run_episode(w: Workload, st: State, seed: int, tr, tally: Tally) -> Episode:
    cfg = _CFG
    root = Rng(seed)
    weights = st.weights.copy()
    prefix = st.prefix.copy() if st.prefix is not None else None
    head = st.head.copy() if st.head is not None else None
    if w.frozen_encoder:
        weights.set_trainable(False)
    opt = AdamW(_trainable(w, weights, prefix, head), lr=w.lr)
    before = digest(weights.named_tensors()) if w.frozen_encoder else ""

    ep = Episode([], [], [], [], 0, {})
    for step, idx in enumerate(st.batches):
        t0 = perf_counter()
        with tr.span("bench.train_step"):
            with tr.span("textdata.collate"):
                ids, mask, labels = collate([st.train[i] for i in idx])
            if w.method == ADAPT:
                with tr.span("textdata.mlm_mask"):
                    mb = apply_mlm_mask(ids, mask, P_SELECT,
                                        root.stream(STREAM_MASKING).child(step),
                                        cfg.vocab_size)
                ep.mlm_maskable += int(((mask == 1) & (ids >= len(SPECIALS))).sum())
                if mb is None:
                    ep.mlm_skipped += 1
                    tally.record(False, f"step {step}: MLM batch skipped")
                    continue
                ep.mlm_selected += len(mb.positions[0])
                with tr.span("model.encode_train"):
                    hidden = encode(mb.input_ids, mask, weights, prefix, train=True,
                                    rng=root.stream("train").child(step))
                with tr.span("model.mlm_logits"):
                    logits = mlm_logits(hidden, mb.positions, weights)
                with tr.span("tensor.loss"):
                    loss = cross_entropy(logits, mb.targets[mb.positions])
            else:
                with tr.span("model.encode_train"):
                    hidden = encode(ids, mask, weights, prefix, train=True,
                                    rng=root.stream("train").child(step))
                with tr.span("model.classify"):
                    logits = classify(hidden, head)
                with tr.span("tensor.loss"):
                    loss = cross_entropy(logits, labels)
            with tr.span("tensor.backward"):
                loss.backward()
            with tr.span("optim.step"):
                opt.step()
                opt.zero_grad()
        ep.step_s.append(perf_counter() - t0)
        value = loss.item()
        ep.losses.append(value)
        ep.step_tokens.append(int(mask.sum()))
        tally.record(bool(np.isfinite(value)), f"step {step}: loss {value}")

    if w.frozen_encoder and digest(weights.named_tensors()) != before:
        tally.failed += len(ep.losses)
        tally.notes.append("frozen encoder changed during training")
    ep.quality["final_loss"] = float(np.mean(ep.losses[-LOSS_TAIL:])) if ep.losses else float("nan")

    with tr.span("bench.eval"), no_grad():
        if w.method == ADAPT:
            _eval_mlm(st, weights, prefix, root, tr, tally, ep)
        else:
            _eval_classify(st, weights, prefix, head, tr, tally, ep)

    if w.method == ADAPT:
        # The adaptation run ends by writing its prefix for the fewshot arm.
        with tr.span("bench.checkpoint"):
            _, st.ckpt_bytes = prefix_round_trip(prefix, st.ckpt_dir / "adapted.prefix", tr, tally)
    return ep


def _batches(examples: list):
    for i in range(0, len(examples), BATCH):
        yield i // BATCH, examples[i:i + BATCH]


def _eval_mlm(st, weights, prefix, root: Rng, tr, tally: Tally, ep: Episode) -> None:
    """Held-out masked-token loss of the adapted prefix, tape off."""
    cfg = _CFG
    total, count = 0.0, 0
    for b, batch in _batches(st.evalset):
        t0 = perf_counter()
        with tr.span("textdata.collate"):
            ids, mask, _ = collate(batch)
        with tr.span("textdata.mlm_mask"):
            mb = apply_mlm_mask(ids, mask, P_SELECT,
                                root.stream(STREAM_MASKING).stream("eval").child(b),
                                cfg.vocab_size)
        if mb is None:
            tally.record(False, f"eval batch {b}: MLM batch skipped")
            continue
        with tr.span("model.encode_eval"):
            hidden = encode(mb.input_ids, mask, weights, prefix, train=False)
        with tr.span("model.mlm_logits"):
            logits = mlm_logits(hidden, mb.positions, weights)
        with tr.span("tensor.loss"):
            value = cross_entropy(logits, mb.targets[mb.positions]).item()
        ep.eval_s.append(perf_counter() - t0)
        ep.eval_examples += len(batch)
        tally.record(bool(np.isfinite(value)), f"eval batch {b}: loss {value}")
        total += value * len(mb.positions[0])
        count += len(mb.positions[0])
    ep.quality["eval_mlm_loss"] = total / count if count else float("nan")


def _eval_classify(st, weights, prefix, head, tr, tally: Tally, ep: Episode) -> None:
    """Score the test split; every batch's probabilities must be a valid log."""
    probs, labels = [], []
    for b, batch in _batches(st.evalset):
        t0 = perf_counter()
        with tr.span("textdata.collate"):
            ids, mask, y = collate(batch)
        with tr.span("model.encode_eval"):
            hidden = encode(ids, mask, weights, prefix, train=False)
        with tr.span("model.classify"):
            p = _probs(classify(hidden, head).data)
        ep.eval_s.append(perf_counter() - t0)
        ep.eval_examples += len(batch)
        # PredictionLog's own checks let NaN rows through, so finiteness is
        # checked here as well.
        try:
            PredictionLog(p, y)
            ok = bool(np.isfinite(p).all())
        except ValueError:
            ok = False
        tally.record(ok, f"eval batch {b}: invalid probabilities")
        if ok:
            probs.append(p)
            labels.append(y)
    if not probs:
        ep.quality.update(macro_f1=float("nan"), ece=float("nan"))
        return
    with tr.span("metrics.score"):
        log = PredictionLog(np.concatenate(probs), np.concatenate(labels))
        ep.quality.update(macro_f1=macro_f1(log), ece=ece_top1(log))


def _same(a: float, b: float) -> bool:
    return a == b or (np.isnan(a) and np.isnan(b))


def _check_repeat(ref: Episode, ep: Episode, tally: Tally) -> None:
    """A timed episode must reproduce the warm-up's numbers exactly."""
    same = (len(ep.losses) == len(ref.losses)
            and all(_same(a, b) for a, b in zip(ep.losses, ref.losses))
            and ep.quality.keys() == ref.quality.keys()
            and all(_same(ep.quality[k], ref.quality[k]) for k in ref.quality))
    if not same:
        tally.failed += max(1, len(ep.losses))
        tally.notes.append("episode did not reproduce the warm-up results")


@dataclass
class RunResult:
    workload: str
    seed: int
    tally: Tally
    metrics: dict[str, tuple[float, str]]
    quality: dict[str, float]
    samples: dict[str, int]
    data_digest: str
    op_calls: dict[str, int]


def run(w: Workload, seed: int, seconds: float, trace: bool, workdir: Path) -> RunResult:
    """Set up, warm up, then repeat episodes for ``seconds``; see module doc."""
    tracer = Tracer() if trace else NullTracer()
    tally = Tally()
    setup_s: list[float] = []

    def timed_setup() -> State:
        t0 = perf_counter()
        with tracer.span("bench.setup"):
            st = setup(w, seed, workdir / f"setup{len(setup_s)}", tracer, tally)
        setup_s.append(perf_counter() - t0)
        return st

    def spare_setup() -> None:
        # Repeats are spread over the run, one after each episode, so their
        # median samples the host as the step timings do.
        spare = timed_setup()
        shutil.rmtree(spare.ckpt_dir.parent)

    state = timed_setup()
    ref = run_episode(w, state, seed, NullTracer(), tally)
    plain: list[Episode] = []
    traced: list[Episode] = []
    t_start = perf_counter()
    n = 0
    while n < MIN_TIMED_EPISODES or perf_counter() - t_start < seconds:
        # A traced run alternates plain and traced episodes so that the
        # tracing overhead is measured under the same conditions.
        if trace and n % 2 == 1:
            with tracer.span("bench.episode"), wrap_model_ops(tracer):
                ep = run_episode(w, state, seed, tracer, tally)
            traced.append(ep)
        else:
            ep = run_episode(w, state, seed, NullTracer(), tally)
            plain.append(ep)
        _check_repeat(ref, ep, tally)
        spare_setup()
        n += 1

    step_ms = _fastest(plain, "step_s", WARM_STEPS) * 1e3
    eval_s = _fastest(plain, "eval_s")
    metrics: dict[str, tuple[float, str]] = {
        "setup_s": (statistics.median(setup_s), "s"),
        "train_tokens_per_s": (sum(ref.step_tokens[WARM_STEPS:]) / step_ms.sum() * 1e3,
                               "tokens/s"),
        "train_step_ms_p50": (float(np.median(step_ms)), "ms"),
        "train_step_ms_p90": (float(np.quantile(step_ms, 0.9)), "ms"),
        "eval_examples_per_s": (ref.eval_examples / eval_s.sum(), "examples/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    op_calls: dict[str, int] = {}
    if trace:
        layer, op_calls = _layer_metrics(w, tracer.spans, state, traced, step_ms)
        metrics.update(layer)
    samples = {"setups": len(setup_s), "timed_episodes": len(plain),
               "traced_episodes": len(traced), "train_steps": len(step_ms),
               "eval_batches": len(eval_s)}
    return RunResult(w.name, seed, tally, metrics, dict(ref.quality), samples,
                     state.data_digest, op_calls)


def _fastest(episodes: list[Episode], attr: str, skip: int = 0) -> np.ndarray:
    """Fastest replay of each entry of ``attr`` past the first ``skip``.

    Every episode replays the same batches with the same seeds, so the i-th
    time of each episode measures the same computation. Other tenants of a
    shared host only ever add to it, mostly in bursts of a few steps; the
    minimum over replays keeps the cost of the computation and drops most
    of theirs (not a slow phase that lasts the whole run). Percentiles then
    run over the distinct batches.
    """
    rows = [np.asarray(getattr(ep, attr))[skip:] for ep in episodes]
    n = min(len(r) for r in rows)   # unequal only when an episode failed to replay
    return np.min(np.stack([r[:n] for r in rows]), axis=0)


def _median_ms(spans, name: str, under: str | None = None) -> float:
    d = durations(spans, name, under)
    return statistics.median(d) * 1e3 if d else 0.0


def _layer_metrics(w: Workload, spans, state: State, traced: list[Episode],
                   plain_step_ms: np.ndarray):
    n_steps, calls, secs = per_parent_totals(spans, "bench.train_step")
    n_steps = max(n_steps, 1)
    n_eps = max(len(traced), 1)
    mlm_sel = sum(ep.mlm_selected for ep in traced)
    mlm_max = sum(ep.mlm_maskable for ep in traced)
    ops = sorted({k[len("tensor."):] for k in calls if k.startswith("tensor.")} - {"loss", "backward"})
    op_calls = {op: calls.get(f"tensor.{op}", 0) // n_steps for op in ops}
    m: dict[str, tuple[float, str]] = {
        "dataprep.gen_synthetic_s": (statistics.median(
            durations(spans, "dataprep.gen_synthetic")), "s"),
        "textdata.vocab_encode_s": (statistics.median(
            durations(spans, "textdata.vocab_encode")), "s"),
        "textdata.collate_ms": (_median_ms(spans, "textdata.collate", "bench.episode"), "ms"),
        "textdata.mlm_mask_ms": (_median_ms(spans, "textdata.mlm_mask", "bench.episode"), "ms"),
        "textdata.mlm_selected_frac": (mlm_sel / mlm_max if mlm_max else 0.0, "ratio"),
        "textdata.mlm_skipped": (sum(ep.mlm_skipped for ep in traced), "count"),
        "model.encode_train_ms": (_median_ms(spans, "model.encode_train"), "ms"),
        "model.encode_eval_ms": (_median_ms(spans, "model.encode_eval"), "ms"),
        "model.mlm_logits_ms": (_median_ms(spans, "model.mlm_logits", "bench.train_step"), "ms"),
        "model.classify_ms": (_median_ms(spans, "model.classify", "bench.train_step"), "ms"),
        "tensor.backward_ms": (_median_ms(spans, "tensor.backward"), "ms"),
        "tensor.loss_ms": (_median_ms(spans, "tensor.loss", "bench.train_step"), "ms"),
        "tensor.fwd_calls_per_step": (sum(op_calls.values()), "count"),
    }
    # Every op is reported, with 0 where a workload makes no such call.
    for op in model_op_names():
        m[f"tensor.{op}.calls"] = (op_calls.get(op, 0), "count")
        m[f"tensor.{op}.ms"] = (secs.get(f"tensor.{op}", 0.0) * 1e3 / n_steps, "ms")
    m["optim.step_ms"] = (_median_ms(spans, "optim.step"), "ms")
    m["optim.params"] = (sum(t.size for t in _trainable(
        w, state.weights, state.prefix, state.head).values()), "count")
    m["checkpoint.save_ms"] = (_median_ms(spans, "checkpoint.save"), "ms")
    m["checkpoint.load_ms"] = (_median_ms(spans, "checkpoint.load"), "ms")
    m["checkpoint.bytes"] = (state.ckpt_bytes, "bytes")
    m["metrics.score_ms"] = (_median_ms(spans, "metrics.score"), "ms")
    self_s = self_seconds_by_layer(spans, "bench.episode")
    for layer in ("bench", "textdata", "model", "tensor", "optim", "checkpoint", "metrics"):
        m[f"{layer}.self_ms"] = (self_s.get(layer, 0.0) * 1e3 / n_eps, "ms")
    traced_ms = _fastest(traced, "step_s", WARM_STEPS) * 1e3
    m["trace.overhead_ms"] = (float(np.median(traced_ms) - np.median(plain_step_ms)), "ms")
    return m, op_calls


def _trainable(w: Workload, weights, prefix, head) -> dict:
    """Prefix (frozen-encoder workloads) or every encoder tensor, plus any head."""
    params = dict(prefix.named_tensors() if w.frozen_encoder else weights.named_tensors())
    if head is not None:
        params.update(head.named_tensors())
    return params

