"""pforge runs without scipy: only the tests use it, as an oracle."""

import os
import subprocess
import sys
from pathlib import Path

import pforge

# sys.modules["scipy"] = None makes every scipy import raise ImportError
SCRIPT = """
import importlib, pkgutil, sys
sys.modules["scipy"] = None
import numpy as np
import pforge
for info in pkgutil.walk_packages(pforge.__path__, "pforge."):
    importlib.import_module(info.name)
from pforge.model import EncoderWeights, ModelConfig, PrefixSet, encode
from pforge.numerics import Rng, sum_all

cfg = ModelConfig(num_layers=2, d_model=8, num_heads=2, ffn_dim=16,
                  vocab_size=50, max_positions=32, prefix_length=4)
weights = EncoderWeights(cfg, Rng(1).stream("init"))
weights.set_trainable(False)
prefix = PrefixSet.init_random(cfg, Rng(2).stream("init"))
ids = np.random.default_rng(3).integers(0, 50, size=(2, 6))
mask = np.ones((2, 6))
mask[1, 4:] = 0
out = encode(ids, mask, weights, prefix, train=True, rng=Rng(4))
sum_all(out).backward()
grads = [t.grad for t in prefix.named_tensors().values()]
assert all(g is not None and np.all(np.isfinite(g)) for g in grads)
assert not [m for m in sys.modules if m.startswith("scipy.")]
print("ok")
"""


def test_package_imports_and_trains_without_scipy():
    src = str(Path(pforge.__file__).resolve().parents[1])
    res = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True,
                         timeout=120, env=dict(os.environ, PYTHONPATH=src))
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "ok"
