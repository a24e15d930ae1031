"""Deterministic splittable randomness.

Every source of randomness in a run derives from one 64-bit seed through
named sub-streams (``init``, ``masking``, ``sampling``, ``dropout``) and
numbered children (per step, per document). A stream node is identified
purely by (seed, path), so the draws it produces do not depend on the order
in which other streams are consumed. Bits come from numpy's Philox
counter-based generator keyed via SeedSequence.

numpy keeps the raw 64-bit words of a seeded bit generator stable across
platforms and versions, and the synthetic corpora and dropout masks are
derived from those words alone. It does not keep the methods of
``Generator`` stable (NEP 19: "as better algorithms evolve the bit stream
may change"); weight init, MLM masking and the benchmark's sampling still
draw through them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

STREAM_INIT = "init"
STREAM_MASKING = "masking"
STREAM_SAMPLING = "sampling"
STREAM_DROPOUT = "dropout"

_MASK64 = (1 << 64) - 1


def _require_int(value, what: str) -> None:
    """Refuse floats and bools: 1.5 would share int(1.5)'s stream, True 1's."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an int, got {value!r}")


def _name_key(name: str) -> int:
    digest = hashlib.blake2s(name.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


@dataclass(frozen=True)
class Rng:
    """A node in the seed tree; immutable and cheap to pass around."""

    seed: int
    path: tuple[int, ...] = ()

    def __post_init__(self):
        _require_int(self.seed, "seed")
        if not 0 <= self.seed <= _MASK64:
            raise ValueError(f"seed must fit in 64 bits, got {self.seed}")
        if not isinstance(self.path, tuple):
            raise ValueError(f"path must be a tuple, got {self.path!r}")
        for key in self.path:
            _require_int(key, "path entry")
            if not 0 <= key <= _MASK64:
                raise ValueError(f"path entry must fit in 64 bits, got {key}")

    def stream(self, name: str) -> "Rng":
        """Named sub-stream, e.g. rng.stream('masking')."""
        return Rng(self.seed, self.path + (_name_key(name),))

    def child(self, index: int) -> "Rng":
        """Numbered sub-stream, e.g. one per training step."""
        _require_int(index, "child index")
        if index < 0:
            raise ValueError(f"child index must be non-negative, got {index}")
        return Rng(self.seed, self.path + (int(index),))

    def generator(self) -> np.random.Generator:
        """Fresh Philox generator for this node; same node, same draws."""
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.path)
        return np.random.Generator(np.random.Philox(ss))
