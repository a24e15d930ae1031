"""AdamW with decoupled weight decay (Loshchilov & Hutter, arXiv 1711.05101).

Only the learning rate is settable: every method in the comparison uses
BETAS = (0.9, 0.999), EPS = 1e-8 and WEIGHT_DECAY = 0.01.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .tensor import Tensor

BETAS = (0.9, 0.999)
EPS = 1e-8
WEIGHT_DECAY = 0.01


class AdamW:
    """Optimizer over a named parameter dict; state keyed by name."""

    def __init__(self, params: dict[str, Tensor], lr: float):
        if isinstance(lr, bool) or not isinstance(lr, numbers.Real) \
                or not (math.isfinite(lr) and lr > 0):
            raise ValueError(f"learning rate lr must be a finite positive number, got {lr!r}")
        self.params = dict(params)
        self.lr = lr
        self.t = 0
        self._state = {
            name: (np.zeros_like(p.data), np.zeros_like(p.data))
            for name, p in self.params.items()
        }

    def step(self) -> None:
        """Apply one update to every parameter; missing grads count as zero.

        Weight decay shrinks the parameter directly and never enters the
        moment estimates. Moments are bias-corrected with 1 - beta^t.
        """
        self.t += 1
        b1, b2 = BETAS
        # a Python float, like BETAS and EPS, keeps each product at the
        # parameter's dtype whatever numeric type lr was given as
        lr = float(self.lr)
        for name, p in self.params.items():
            param = p.data
            m, v = self._state[name]
            grad = p.grad if p.grad is not None else np.zeros_like(param)
            if grad.shape != param.shape:
                raise ValueError(f"{name}: grad shape {grad.shape} differs from "
                                 f"param shape {param.shape}")
            # the update below, each product, quotient and sum in the order
            # written, through two scratch arrays instead of a temporary per step:
            #   m = b1 m + (1 - b1) grad;  v = b2 v + (1 - b2) (grad grad)
            #   param -= lr wd param;  param -= lr mhat / (sqrt(vhat) + EPS)
            s1, s2 = np.empty_like(param), np.empty_like(param)
            m *= b1
            m += np.multiply(grad, 1.0 - b1, out=s1)
            v *= b2
            np.multiply(grad, grad, out=s1)
            s1 *= 1.0 - b2
            v += s1
            param -= np.multiply(param, lr * WEIGHT_DECAY, out=s1)
            mhat = np.divide(m, 1.0 - b1**self.t, out=s1)
            mhat *= lr
            denom = np.divide(v, 1.0 - b2**self.t, out=s2)  # vhat
            np.sqrt(denom, out=denom)
            denom += EPS
            mhat /= denom
            param -= mhat

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None
