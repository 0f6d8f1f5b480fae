"""Dense float64 primitives shared by the model, training, and data code.

Everything here works on plain numpy arrays (row-major, dtype float64).
Shapes are checked explicitly; there is no implicit broadcasting across
mismatched dimensions, a mismatch raises :class:`ShapeError`.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ShapeError

# Probabilities are clamped here before taking the log in the loss.
PROB_FLOOR = 1e-12

# Substream ids for seed splitting.  Each consumer of randomness draws from
# its own stream, so e.g. reshuffling batches never perturbs initialization.
STREAM_INIT = 0
STREAM_SHUFFLE = 1
STREAM_SYNTH = 2


def make_stream(seed: int, stream: int) -> np.random.Generator:
    """Deterministic random stream `stream` derived from a master `seed`.

    Backed by PCG64 keyed with a SeedSequence spawn key, so streams with
    distinct ids are statistically independent while equal (seed, stream)
    pairs always reproduce the identical output sequence.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream,))
    return np.random.Generator(np.random.PCG64(ss))


def affine(w: np.ndarray, x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """w @ x + b with hard shape checks."""
    w = np.asarray(w, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if w.ndim != 2 or x.ndim != 1 or b.ndim != 1:
        raise ShapeError(
            f"affine: need matrix, vector, vector; got {w.shape}, {x.shape}, {b.shape}"
        )
    if w.shape[1] != x.shape[0]:
        raise ShapeError(f"affine: weight has {w.shape[1]} columns, input has length {x.shape[0]}")
    if w.shape[0] != b.shape[0]:
        raise ShapeError(f"affine: weight has {w.shape[0]} rows, bias has length {b.shape[0]}")
    return w @ x + b


def softmax(z: np.ndarray) -> np.ndarray:
    """Max-shifted softmax; strictly positive output summing to 1."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1 or z.size == 0:
        raise ShapeError(f"softmax: expected non-empty vector, got shape {z.shape}")
    e = np.exp(z - z.max())
    return e / e.sum()


def cross_entropy(p: np.ndarray, target: int) -> float:
    """Negative log-probability of `target` under distribution `p`.

    `p` must already be a probability vector (sum within 1e-9 of 1); the
    picked probability is clamped at PROB_FLOOR so the result is finite.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ShapeError(f"cross_entropy: expected non-empty vector, got shape {p.shape}")
    if not 0 <= target < p.size:
        raise IndexError(f"cross_entropy: target {target} out of range for {p.size} classes")
    total = p.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"cross_entropy: probabilities sum to {total!r}, not 1")
    return -math.log(max(p[target], PROB_FLOOR))
