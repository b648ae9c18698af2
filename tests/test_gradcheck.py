import dataclasses

import numpy as np
import pytest

from rnnsent import model
from rnnsent.gradcheck import (
    EPSILON,
    ERROR_THRESHOLD,
    MAX_BATCH,
    GradCheckReport,
    loss_for,
    numeric_gradients,
    relative_errors,
    run_gradcheck,
)
from rnnsent.model import (
    BIDIRECTIONAL,
    STANDARD,
    ModelConfig,
    backward_batch,
    forward_batch,
    init_params,
    pack_sequences,
)
from rnnsent.numeric import RngState, cross_entropy, dropout_mask


def _instance(direction, seed, lengths=(5,)):
    gen = RngState(seed=seed).generator()
    config = ModelConfig(embedding_dim=3, hidden_size=4, direction=direction)
    params = init_params(config, RngState(seed=seed))
    batch = pack_sequences([gen.normal(size=(n, 3)) for n in lengths])
    return config, params, batch


def test_loss_for_is_cross_entropy_of_forward():
    config, params, batch = _instance(STANDARD, 1, lengths=(5, 2, 7))
    targets = np.array([2, 0, 1])
    trace = forward_batch(params, config, *batch)
    assert loss_for(params, config, batch, targets) == np.mean(cross_entropy(trace.probabilities, targets))


@pytest.mark.parametrize("direction", [STANDARD, BIDIRECTIONAL])
def test_numeric_matches_analytic(direction):
    config, params, batch = _instance(direction, 7, lengths=(5, 3, 5, 1))
    targets = np.array([1, 0, 2, 1])
    masks = dropout_mask((4, config.readout_size), 0.5, RngState(seed=8))
    trace = forward_batch(params, config, *batch, masks)
    analytic = {name: g / 4 for name, g in backward_batch(params, config, trace, targets).items()}
    numeric = numeric_gradients(params, config, batch, targets, masks)
    errs = relative_errors(analytic, numeric)
    assert set(errs) == set(params)
    assert max(errs.values()) < ERROR_THRESHOLD


def test_numeric_gradients_do_not_mutate_params():
    config, params, batch = _instance(STANDARD, 3)
    before = {n: a.copy() for n, a in params.items()}
    numeric_gradients(params, config, batch, np.array([0]))
    for name, arr in params.items():
        assert np.array_equal(arr, before[name])


def test_relative_errors_hand_values():
    a = {"w": np.array([1.0, 0.0])}
    n = {"w": np.array([1.0001, 1e-6])}
    errs = relative_errors(a, n)
    # entry 0: 1e-4 / (1.0 + 1.0001); entry 1: floored denominator 1e-4
    expected = max(1e-4 / 2.0001, 1e-6 / 1e-4)
    assert errs["w"] == pytest.approx(expected, rel=1e-9)

    assert relative_errors({"w": np.zeros(3)}, {"w": np.zeros(3)}) == {"w": 0.0}

    with pytest.raises(ValueError, match="different parameters"):
        relative_errors({"w": np.zeros(2)}, {"v": np.zeros(2)})


def test_run_gradcheck_passes_on_healthy_gradients():
    report = run_gradcheck(trials=6, max_hidden=5, max_seq_len=6, seed=0)
    assert report.passed
    assert report.max_error < ERROR_THRESHOLD
    assert report.trials == 6
    # both architectures contribute their parameter groups
    assert {"w_xh", "w_hh", "b_h", "w_hy", "b_y"} <= set(report.per_group_max)
    assert {"fwd.w_xh", "bwd.w_hh", "bwd.b_h"} <= set(report.per_group_max)
    assert report.max_error == max(report.per_group_max.values())


def test_run_gradcheck_deterministic():
    a = run_gradcheck(trials=4, max_hidden=4, max_seq_len=5, seed=9)
    b = run_gradcheck(trials=4, max_hidden=4, max_seq_len=5, seed=9)
    assert a.per_group_max == b.per_group_max


def test_run_gradcheck_flags_corrupted_gradients():
    report = run_gradcheck(trials=4, max_hidden=4, max_seq_len=5, seed=0, corrupt=True)
    assert not report.passed
    assert report.max_error >= ERROR_THRESHOLD


def test_report_formatting():
    report = GradCheckReport(trials=3, per_group_max={"w_xh": 2e-6, "b_y": 5e-7}, max_error=2e-6)
    lines = report.format_lines()
    assert len(lines) == 4
    assert "3 random instances" in lines[0]
    assert f"epsilon {EPSILON:g}" in lines[0]
    assert lines[1].strip().startswith("b_y")
    assert lines[-1].endswith("PASS")
    assert f"threshold {ERROR_THRESHOLD:g}" in lines[-1]

    failing = GradCheckReport(trials=1, per_group_max={"w_xh": 0.5}, max_error=0.5)
    assert failing.format_lines()[-1].endswith("FAIL")


def _spy_batches(monkeypatch):
    """Record (batch size, rows per column, masked, direction) of every batch
    that run_gradcheck differentiates."""
    seen = []
    real = model.backward_batch

    def spy(params, config, trace, targets, k=None):
        seen.append((len(trace.order), trace.active[:-1].tolist(), trace.dropout_masks is not None, config.direction))
        return real(params, config, trace, targets, k)

    monkeypatch.setattr(model, "backward_batch", spy)
    return seen


def test_run_gradcheck_covers_batch_sizes_ties_and_masks(monkeypatch):
    seen = _spy_batches(monkeypatch)
    assert run_gradcheck(trials=2 * MAX_BATCH, max_hidden=3, max_seq_len=6, seed=1).passed
    assert sorted({size for size, *_ in seen}) == list(range(1, MAX_BATCH + 1))
    # a batch with tied lengths: two sequences start at the same column
    assert any(np.any(np.diff([0, *active]) > 1) for _, active, _, _ in seen)
    assert {(masked, direction) for _, _, masked, direction in seen} == {
        (m, d) for m in (False, True) for d in (STANDARD, BIDIRECTIONAL)
    }


def test_run_gradcheck_spans_gradient_blocks(monkeypatch):
    # as in test_kernel's block test: with 4 packed rows a block, a batch spans
    # several blocks of whole columns, and a column of 5 rows is a block of its own
    monkeypatch.setattr(model, "GRAD_ROWS", 4)
    seen = _spy_batches(monkeypatch)
    report = run_gradcheck(trials=MAX_BATCH, max_hidden=4, max_seq_len=6, seed=0)
    assert report.passed
    offsets = [np.cumsum([0, *active]).tolist() for _, active, _, _ in seen]
    assert max(len(model._blocks(off, 0, len(off) - 1)) for off in offsets) > 1
    assert max(max(active) for _, active, _, _ in seen) > model.GRAD_ROWS


def _sorted_mask_rows(real):
    """backward_batch applying the dropout-mask rows in the kernel's length
    order rather than the caller's."""

    def kernel(params, config, trace, targets, k=None):
        if trace.dropout_masks is not None:
            trace = dataclasses.replace(trace, dropout_masks=trace.dropout_masks[trace.order])
        return real(params, config, trace, targets, k)

    return kernel


def _sorted_targets(real):
    """backward_batch reading the targets in the kernel's length order."""

    def kernel(params, config, trace, targets, k=None):
        return real(params, config, trace, targets[trace.order], k)

    return kernel


@pytest.mark.parametrize("bug", [_sorted_mask_rows, _sorted_targets])
def test_run_gradcheck_fails_on_a_kernel_bug(monkeypatch, bug):
    # both bugs leave a batch of one unchanged, so only a batch of several
    # mixed-length sequences can show them
    monkeypatch.setattr(model, "backward_batch", bug(model.backward_batch))
    report = run_gradcheck(trials=4, max_hidden=4, max_seq_len=8, seed=0)
    assert not report.passed
    assert report.max_error >= ERROR_THRESHOLD
