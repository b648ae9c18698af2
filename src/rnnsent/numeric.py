"""Minimal dense linear-algebra and neural-math kernel.

All values are float64. Matrices are 2-D ``numpy.ndarray`` (row-major),
vectors are 1-D. Every function is pure: randomness enters only through an
explicit :class:`RngState`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FloatArray = np.ndarray

_U64_MASK = 0xFFFFFFFFFFFFFFFF

PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class RngState:
    """Seed for a named deterministic generator (PCG64).

    The same state always yields the same stream. `child` derives an
    independent state from integer keys, so concurrent consumers can each
    hold their own stream without sharing mutable generator objects.
    """

    seed: int

    def generator(self) -> np.random.Generator:
        """A fresh generator positioned at the start of this state's stream."""
        seq = np.random.SeedSequence(self.seed & _U64_MASK)
        return np.random.Generator(np.random.PCG64(seq))

    def child(self, *keys: int) -> "RngState":
        """Derive a decorrelated state keyed by `keys` (deterministic)."""
        seq = np.random.SeedSequence(self.seed & _U64_MASK, spawn_key=tuple(keys))
        hi, lo = seq.generate_state(2)
        return RngState((int(hi) << 32) | int(lo))


def softmax(v: FloatArray) -> FloatArray:
    """Max-subtracted softmax over the last axis (so a 2-D input is a batch
    of rows); stable for large-magnitude inputs."""
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        raise ValueError("softmax of an empty vector")
    shifted = v - v.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy(probs: FloatArray, targets: np.ndarray) -> FloatArray:
    """Per-example loss of a batch of (B, C) class probabilities:
    -log(probs[i, targets[i]]), each probability clamped to >= PROB_FLOOR."""
    targets = np.asarray(targets)
    if np.any((targets < 0) | (targets >= probs.shape[1])):
        raise IndexError(f"target classes {targets.tolist()} out of range for {probs.shape[1]} classes")
    return -np.log(np.maximum(probs[np.arange(len(targets)), targets], PROB_FLOOR))


def dropout_mask(shape: int | tuple[int, ...], rate: float, rng: RngState) -> FloatArray:
    """Inverted-dropout mask of `shape`: 0 with probability `rate`, else 1/(1-rate).

    Scaling at train time keeps the expectation at 1, so inference needs no
    rescaling. The draws fill the array in row-major order from the start of
    `rng`'s stream, so row 0 of a (1, R) mask equals the length-R mask.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return np.ones(shape)
    u = rng.generator().random(shape)
    return np.where(u < rate, 0.0, 1.0 / (1.0 - rate))


def sgd_step(params: dict[str, FloatArray], grads: dict[str, FloatArray], lr: float) -> dict[str, FloatArray]:
    """One plain-SGD update p <- p - lr*g applied to every named array."""
    if params.keys() != grads.keys():
        raise ValueError(f"parameter/gradient name mismatch: {sorted(params)} vs {sorted(grads)}")
    out = {}
    for name, p in params.items():
        g = grads[name]
        if p.shape != g.shape:
            raise ValueError(f"shape mismatch for {name!r}: {p.shape} vs {g.shape}")
        out[name] = p - lr * g
    return out


def global_norm(grads: dict[str, FloatArray]) -> float:
    """Global L2 norm over every entry of every array in the set."""
    total = 0.0
    for g in grads.values():
        total += float(np.sum(np.square(g)))
    return float(np.sqrt(total))


def clip_gradients(grads: dict[str, FloatArray], max_norm: float, norm: float | None = None) -> dict[str, FloatArray]:
    """Scale all gradients by max_norm/norm when the global L2 norm exceeds
    max_norm. A caller that already has global_norm(grads) passes it as `norm`."""
    if max_norm <= 0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    if norm is None:
        norm = global_norm(grads)
    if norm <= max_norm:
        return dict(grads)
    scale = max_norm / norm
    return {name: g * scale for name, g in grads.items()}
