import numpy as np
import pytest

from rnnsent.gradcheck import (
    EPSILON,
    ERROR_THRESHOLD,
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
    backward_full,
    forward,
    init_params,
)
from rnnsent.numeric import RngState, cross_entropy


def _instance(direction, seed):
    gen = RngState(seed=seed).generator()
    config = ModelConfig(embedding_dim=3, hidden_size=4, direction=direction)
    params = init_params(config, RngState(seed=seed))
    sequence = [gen.normal(size=3) for _ in range(5)]
    return config, params, sequence


def test_loss_for_is_cross_entropy_of_forward():
    config, params, sequence = _instance(STANDARD, 1)
    trace = forward(params, config, sequence, train=False)
    assert loss_for(params, config, sequence, 2) == cross_entropy(trace.probabilities, 2)


@pytest.mark.parametrize("direction", [STANDARD, BIDIRECTIONAL])
def test_numeric_matches_analytic(direction):
    config, params, sequence = _instance(direction, 7)
    trace = forward(params, config, sequence, train=False)
    analytic = backward_full(params, config, trace, sequence, 1)
    numeric = numeric_gradients(params, config, sequence, 1)
    errs = relative_errors(analytic, numeric)
    assert set(errs) == set(params)
    assert max(errs.values()) < ERROR_THRESHOLD


def test_numeric_gradients_do_not_mutate_params():
    config, params, sequence = _instance(STANDARD, 3)
    before = {n: a.copy() for n, a in params.items()}
    numeric_gradients(params, config, sequence, 0)
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
