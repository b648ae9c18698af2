"""Finite-difference gradient checking of the minibatch kernel that trains.

Each trial is a mixed-length minibatch run through model.forward_batch and
model.backward_batch as train() runs it: the loss is the batch mean of
numeric.cross_entropy, and its analytic gradient is backward_batch / B.
Central differences with epsilon 1e-5 give truncation error around 1e-10 on
these scales, far below the 1e-4 acceptance threshold. Relative error uses a
floored denominator so near-zero entries cannot fail on rounding noise alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model
from .numeric import FloatArray, RngState, cross_entropy, dropout_mask

EPSILON = 1e-5
ERROR_THRESHOLD = 1e-4
_DENOM_FLOOR = 1e-4
# trial t runs a batch of t % MAX_BATCH + 1 sequences
MAX_BATCH = 5

# forward_batch's (table, ids, starts, lengths), as model.pack_sequences returns them
Batch = tuple[FloatArray, np.ndarray, np.ndarray, np.ndarray]


def loss_for(
    params: dict[str, FloatArray],
    config: model.ModelConfig,
    batch: Batch,
    targets: np.ndarray,
    masks: FloatArray | None = None,
) -> float:
    """The batch mean of the cross-entropy, the loss train() minimises, under
    the fixed (B, R) dropout masks `masks`."""
    trace = model.forward_batch(params, config, *batch, masks, keep_states=False)
    return float(np.mean(cross_entropy(trace.probabilities, targets)))


def numeric_gradients(
    params: dict[str, FloatArray],
    config: model.ModelConfig,
    batch: Batch,
    targets: np.ndarray,
    masks: FloatArray | None = None,
    epsilon: float = EPSILON,
) -> dict[str, FloatArray]:
    """Central-difference gradient of loss_for, entry by entry.

    Each entry is perturbed in place in a copy of `params`, so the caller's
    arrays are never touched."""
    perturbed = {name: arr.copy() for name, arr in params.items()}
    grads: dict[str, FloatArray] = {}
    for name, arr in perturbed.items():
        grad = np.zeros_like(arr)
        flat = arr.reshape(-1)
        flat_grad = grad.reshape(-1)
        for j in range(flat.size):
            original = flat[j]
            flat[j] = original + epsilon
            plus = loss_for(perturbed, config, batch, targets, masks)
            flat[j] = original - epsilon
            minus = loss_for(perturbed, config, batch, targets, masks)
            flat[j] = original
            flat_grad[j] = (plus - minus) / (2.0 * epsilon)
        grads[name] = grad
    return grads


def relative_errors(
    analytic: dict[str, FloatArray],
    numeric: dict[str, FloatArray],
) -> dict[str, float]:
    """Max over entries of |a - n| / max(|a| + |n|, 1e-4), per parameter group."""
    if analytic.keys() != numeric.keys():
        raise ValueError("analytic and numeric gradients cover different parameters")
    errors: dict[str, float] = {}
    for name, a in analytic.items():
        n = numeric[name]
        denom = np.maximum(np.abs(a) + np.abs(n), _DENOM_FLOOR)
        errors[name] = float(np.max(np.abs(a - n) / denom))
    return errors


@dataclass
class GradCheckReport:
    trials: int
    per_group_max: dict[str, float]
    max_error: float
    threshold: float = ERROR_THRESHOLD

    @property
    def passed(self) -> bool:
        return self.max_error < self.threshold

    def format_lines(self) -> list[str]:
        lines = [f"gradient check: {self.trials} random instances, epsilon {EPSILON:g}"]
        width = max(len(name) for name in self.per_group_max)
        for name, err in sorted(self.per_group_max.items()):
            lines.append(f"  {name.ljust(width)}  max relative error {err:.3e}")
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"overall max relative error {self.max_error:.3e} (threshold {self.threshold:g}): {verdict}")
        return lines


def run_gradcheck(
    trials: int = 25,
    *,
    max_hidden: int,
    max_seq_len: int,
    seed: int = 0,
    corrupt: bool = False,
) -> GradCheckReport:
    """Check backward_batch's full BPTT against finite differences on random
    minibatches.

    Trial t packs t % MAX_BATCH + 1 sequences of 1 to max_seq_len steps
    (pack_sequences); in every third trial every other sequence is as long
    as the first, so the kernel's length order has ties. Architectures
    alternate, and trials 1 and 2 of every 4 fix a (B, R) dropout mask. With
    corrupt=True one analytic entry per trial is perturbed, which a working
    checker must flag; this exists to prove the checker can fail.
    """
    root = RngState(seed=seed)
    per_group: dict[str, float] = {}
    for trial in range(trials):
        gen = root.child(0, trial).generator()
        hidden = int(gen.integers(2, max_hidden + 1))
        emb_dim = int(gen.integers(2, 7))
        size = trial % MAX_BATCH + 1
        lengths = gen.integers(1, max_seq_len + 1, size=size)
        if trial % 3 == 2:
            lengths[1::2] = lengths[0]
        masked = trial % 4 in (1, 2)
        config = model.ModelConfig(
            embedding_dim=emb_dim,
            hidden_size=hidden,
            num_classes=3 if trial % 4 < 2 else 2,
            dropout_rate=0.5 if masked else 0.0,
            direction=model.STANDARD if trial % 2 == 0 else model.BIDIRECTIONAL,
        )
        params = model.init_params(config, root.child(1, trial))
        batch = model.pack_sequences([gen.normal(scale=0.8, size=(n, emb_dim)) for n in lengths])
        targets = gen.integers(config.num_classes, size=size)
        masks = dropout_mask((size, config.readout_size), config.dropout_rate, root.child(2, trial)) if masked else None

        trace = model.forward_batch(params, config, *batch, masks)
        analytic = {name: g / size for name, g in model.backward_batch(params, config, trace, targets).items()}
        if corrupt:
            name = sorted(analytic)[trial % len(analytic)]
            analytic[name] = analytic[name] + 0.05
        numeric = numeric_gradients(params, config, batch, targets, masks)
        for name, err in relative_errors(analytic, numeric).items():
            per_group[name] = max(per_group.get(name, 0.0), err)
    return GradCheckReport(
        trials=trials,
        per_group_max=per_group,
        max_error=max(per_group.values()),
    )
