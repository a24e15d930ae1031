"""Spans around layer calls, recorded from outside the package.

A span is (name, start, end, parent index). The benchmark opens one around
every call it makes into a pforge module; while an episode is traced, the
numerics functions that ``pforge.model`` looks up in its own namespace are
swapped for wrappers that open a span per call, so encoder internals show
up as ``tensor.<op>`` children of the ``model.*`` span that called them.
Nothing under ``src/`` is edited: the wrappers are installed and removed by
``wrap_model_ops``. Backward time per op cannot be attributed this way,
because ``Tensor.backward`` runs the tape's closures directly.
"""

from __future__ import annotations

import contextlib
from collections import defaultdict
from time import perf_counter

import pforge.model as model
import pforge.numerics.tensor as tensor_mod


class Tracer:
    """In-memory span recorder; ``spans[i]`` is [name, start, end, parent]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return traced


class NullTracer:
    """Stand-in for untraced runs: spans cost one no-op context manager."""

    def span(self, name: str):
        return contextlib.nullcontext()


def model_op_names() -> list[str]:
    """Numerics functions bound in pforge.model's namespace, plus add_bias."""
    names = [n for n, obj in vars(model).items()
             if callable(obj) and getattr(obj, "__module__", None) == tensor_mod.__name__
             and not isinstance(obj, type)]
    return sorted(names + ["add_bias"])


@contextlib.contextmanager
def wrap_model_ops(tracer: Tracer):
    """Route pforge.model's numerics calls through tracer spans while open."""
    originals = {n: getattr(model, n) for n in model_op_names()}
    try:
        for n, fn in originals.items():
            setattr(model, n, tracer.wrap(f"tensor.{n}", fn))
        yield
    finally:
        for n, fn in originals.items():
            setattr(model, n, fn)


def durations(spans: list[list], name: str, under: str | None = None) -> list[float]:
    """Seconds spent in each span called ``name`` (optionally inside ``under``)."""
    keep = _inside(spans, under) if under else None
    return [s[2] - s[1] for i, s in enumerate(spans)
            if s[0] == name and (keep is None or keep[i])]


def per_parent_totals(spans: list[list], parent: str) -> tuple[int, dict, dict]:
    """(number of ``parent`` spans, calls and seconds per descendant name)."""
    keep = _inside(spans, parent)
    n_parent = sum(1 for s in spans if s[0] == parent)
    calls: dict[str, int] = defaultdict(int)
    secs: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        if keep[i]:
            calls[s[0]] += 1
            secs[s[0]] += s[2] - s[1]
    return n_parent, dict(calls), dict(secs)


def self_seconds_by_layer(spans: list[list], root: str) -> dict[str, float]:
    """Self time (duration minus child spans) summed per layer under ``root``.

    The layer is the span name up to its first dot, so ``model.encode_train``
    counts toward ``model`` and ``tensor.matmul`` toward ``tensor``.
    """
    keep = _inside(spans, root)
    child_secs = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_secs[s[3]] += s[2] - s[1]
    out: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        if keep[i] or s[0] == root:
            out[s[0].split(".", 1)[0]] += (s[2] - s[1]) - child_secs[i]
    return dict(out)


def _inside(spans: list[list], ancestor: str) -> list[bool]:
    """For each span, whether some strict ancestor is named ``ancestor``.

    Parents always precede children in ``spans``, so one forward pass works.
    """
    flags = [False] * len(spans)
    for i, s in enumerate(spans):
        p = s[3]
        if p >= 0:
            flags[i] = flags[p] or spans[p][0] == ancestor
    return flags
