"""Finite-difference verification of reverse-mode gradients.

Central differences at float64 against the tape's gradients. The relative
error for one entry is |analytic - numeric| / max(|analytic|, |numeric|, 1),
so large gradients are compared relatively and small ones absolutely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .tensor import Tensor


@dataclass
class GradCheckReport:
    max_rel_err: float = 0.0
    n_checked: int = 0
    worst: tuple[str, int, float, float] | None = None  # (name, flat index, analytic, numeric)
    error: str | None = None  # non-finite or structural failure, if any

    def ok(self, tol: float) -> bool:
        return self.error is None and self.max_rel_err < tol


def _rel_err(a: float, n: float) -> float:
    return abs(a - n) / max(abs(a), abs(n), 1.0)


def grad_check(
    f: Callable[[], Tensor],
    params: dict[str, Tensor],
    h: float = 1e-5,
    sample: int | None = None,
    rng: np.random.Generator | None = None,
) -> GradCheckReport:
    """Compare tape gradients of the scalar f() against central differences.

    params maps names to the leaf tensors f reads; all must be float64 with
    requires_grad set. When ``sample`` is given, at most that many entries
    per tensor are probed (chosen by ``rng``). Non-finite values are reported
    in the result rather than raised.
    """
    report = GradCheckReport()
    for name, p in params.items():
        if p.data.dtype != np.float64:
            report.error = f"parameter {name} is not float64"
            return report
        if not p.requires_grad:
            report.error = f"parameter {name} does not require grad"
            return report
        p.grad = None

    try:
        loss = f()
        if not np.all(np.isfinite(loss.data)):
            report.error = "non-finite loss in forward pass"
            return report
        loss.backward()
    except (FloatingPointError, ValueError) as exc:
        report.error = f"forward/backward failed: {exc}"
        return report

    analytic = {
        name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
        for name, p in params.items()
    }
    if any(not np.all(np.isfinite(g)) for g in analytic.values()):
        report.error = "non-finite analytic gradient"
        return report

    for name, p in params.items():
        flat = p.data.reshape(-1)
        n = flat.size
        if sample is not None and sample < n:
            if rng is None:
                rng = np.random.default_rng(0)
            idxs = rng.choice(n, size=sample, replace=False)
        else:
            idxs = np.arange(n)
        ga = analytic[name].reshape(-1)
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + h
            hi = float(f().data)
            flat[i] = orig - h
            lo = float(f().data)
            flat[i] = orig
            if not (np.isfinite(hi) and np.isfinite(lo)):
                report.error = f"non-finite perturbed loss at {name}[{i}]"
                return report
            numeric = (hi - lo) / (2.0 * h)
            err = _rel_err(float(ga[i]), numeric)
            report.n_checked += 1
            if err > report.max_rel_err:
                report.max_rel_err = err
                report.worst = (name, int(i), float(ga[i]), numeric)
    return report
