"""Finite-difference gradient checking for the BPTT implementations.

Central differences with epsilon 1e-5 give truncation error around 1e-10 on
these scales, far below the 1e-4 acceptance threshold. Relative error uses a
floored denominator so near-zero entries cannot fail on rounding noise alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import BIDIRECTIONAL, STANDARD, ModelConfig, backward_full, forward, init_params
from .numeric import FloatArray, RngState, cross_entropy

EPSILON = 1e-5
ERROR_THRESHOLD = 1e-4
_DENOM_FLOOR = 1e-4


def loss_for(params: dict[str, FloatArray], config: ModelConfig, sequence, target: int) -> float:
    trace = forward(params, config, sequence, train=False)
    return cross_entropy(trace.probabilities, target)


def numeric_gradients(
    params: dict[str, FloatArray],
    config: ModelConfig,
    sequence,
    target: int,
    epsilon: float = EPSILON,
) -> dict[str, FloatArray]:
    """Central-difference gradient of the cross-entropy loss, entry by entry.

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
            plus = loss_for(perturbed, config, sequence, target)
            flat[j] = original - epsilon
            minus = loss_for(perturbed, config, sequence, target)
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
    max_hidden: int = 8,
    max_seq_len: int = 12,
    seed: int = 0,
    corrupt: bool = False,
) -> GradCheckReport:
    """Check backward_full against finite differences on random instances.

    Alternates architectures, draws small random shapes, and keeps dropout off
    (a dropped-out loss is not the function the analytic gradient targets under
    resampling). With corrupt=True one analytic entry per trial is perturbed,
    which a working checker must flag; this exists to prove the checker can fail.
    """
    root = RngState(seed=seed)
    per_group: dict[str, float] = {}
    for trial in range(trials):
        gen = root.child(0, trial).generator()
        hidden = int(gen.integers(2, max_hidden + 1))
        seq_len = int(gen.integers(1, max_seq_len + 1))
        emb_dim = int(gen.integers(2, 7))
        num_classes = 3 if trial % 4 < 2 else 2
        direction = STANDARD if trial % 2 == 0 else BIDIRECTIONAL
        config = ModelConfig(
            embedding_dim=emb_dim,
            hidden_size=hidden,
            num_classes=num_classes,
            dropout_rate=0.0,
            direction=direction,
        )
        params = init_params(config, root.child(1, trial))
        sequence = [gen.normal(scale=0.8, size=emb_dim) for _ in range(seq_len)]
        target = int(gen.integers(num_classes))

        trace = forward(params, config, sequence, train=False)
        analytic = backward_full(params, config, trace, sequence, target)
        if corrupt:
            name = sorted(analytic)[trial % len(analytic)]
            analytic[name] = analytic[name] + 0.05
        numeric = numeric_gradients(params, config, sequence, target)
        for name, err in relative_errors(analytic, numeric).items():
            per_group[name] = max(per_group.get(name, 0.0), err)
    return GradCheckReport(
        trials=trials,
        per_group_max=per_group,
        max_error=max(per_group.values()),
    )
