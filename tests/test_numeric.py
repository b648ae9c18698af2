import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnnsent import numeric
from rnnsent.numeric import (
    RngState,
    clip_gradients,
    cross_entropy,
    dropout_mask,
    global_norm,
    sgd_step,
    softmax,
)


def test_rngstate_same_seed_same_stream():
    a = RngState(seed=42).generator().random(16)
    b = RngState(seed=42).generator().random(16)
    assert np.array_equal(a, b)


def test_rngstate_different_seeds_differ():
    a = RngState(seed=1).generator().random(16)
    b = RngState(seed=2).generator().random(16)
    assert not np.array_equal(a, b)


def test_rngstate_child_is_deterministic_and_decorrelated():
    root = RngState(seed=7)
    assert root.child(1, 3) == root.child(1, 3)
    streams = {
        tuple(root.child(*key).generator().random(4)): key
        for key in [(0,), (1,), (0, 0), (0, 1), (1, 0)]
    }
    assert len(streams) == 5
    # children do not replay the parent stream
    assert not np.array_equal(root.generator().random(4), root.child(0).generator().random(4))


def test_softmax_matches_definition_and_is_shift_invariant():
    gen = RngState(seed=3).generator()
    for _ in range(20):
        v = gen.normal(scale=3.0, size=int(gen.integers(1, 9)))
        p = softmax(v)
        assert p.shape == v.shape
        assert abs(p.sum() - 1.0) < 1e-12
        assert np.all(p > 0)
        assert np.allclose(p, np.exp(v) / np.exp(v).sum(), atol=1e-12)
        assert np.allclose(p, softmax(v + 123.0), atol=1e-12)


def test_softmax_extreme_values_stay_finite():
    p = softmax(np.array([1000.0, 0.0, -1000.0]))
    assert np.all(np.isfinite(p))
    assert abs(p.sum() - 1.0) < 1e-12
    assert p[0] > 0.999


def test_softmax_empty_rejected():
    with pytest.raises(ValueError):
        softmax(np.array([]))


def test_cross_entropy_is_negative_log_probability():
    probs = np.array([[0.2, 0.5, 0.3], [0.1, 0.1, 0.8]])
    assert cross_entropy(probs, [1, 2]) == pytest.approx(-np.log([0.5, 0.8]), abs=1e-12)
    with pytest.raises(IndexError):
        cross_entropy(probs, [1, 3])
    with pytest.raises(IndexError):
        cross_entropy(probs, [-1, 0])


def test_cross_entropy_clamps_zero_probability():
    loss = cross_entropy(np.array([[1.0, 0.0]]), [1])[0]
    assert loss == pytest.approx(-np.log(1e-12))
    assert np.isfinite(loss)


def test_dropout_mask_values_and_rate_zero():
    assert np.array_equal(dropout_mask(8, 0.0, RngState(seed=1)), np.ones(8))
    mask = dropout_mask(1000, 0.5, RngState(seed=2))
    assert set(np.unique(mask)) <= {0.0, 2.0}
    # inverted scaling keeps the expectation at one
    assert abs(mask.mean() - 1.0) < 0.1


def test_dropout_mask_deterministic_for_same_state():
    a = dropout_mask(64, 0.3, RngState(seed=9))
    b = dropout_mask(64, 0.3, RngState(seed=9))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("rate", [0.0, 0.3, 0.5])
def test_dropout_mask_shapes(rate):
    # a one-row matrix draw is the vector draw, bit for bit
    assert np.array_equal(dropout_mask((1, 37), rate, RngState(seed=4))[0], dropout_mask(37, rate, RngState(seed=4)))
    mask = dropout_mask((6, 37), rate, RngState(seed=5))
    assert mask.shape == (6, 37)
    assert set(np.unique(mask)) <= {0.0, 1.0 / (1.0 - rate)}
    if rate == 0.0:
        assert np.array_equal(mask, np.ones((6, 37)))
        assert np.array_equal(dropout_mask(5, rate, RngState(seed=5)), np.ones(5))


def test_dropout_mask_rejects_rate_one():
    with pytest.raises(ValueError):
        dropout_mask(4, 1.0, RngState(seed=0))


def _grad_dicts(seed):
    gen = RngState(seed=seed).generator()
    params = {"w": gen.normal(size=(3, 4)), "b": gen.normal(size=3)}
    grads = {"w": gen.normal(size=(3, 4)), "b": gen.normal(size=3)}
    return params, grads


def test_sgd_step_applies_update_and_leaves_inputs_alone():
    params, grads = _grad_dicts(11)
    before = {k: v.copy() for k, v in params.items()}
    updated = sgd_step(params, grads, 0.1)
    for name in params:
        assert np.allclose(updated[name], before[name] - 0.1 * grads[name], atol=1e-15)
        assert np.array_equal(params[name], before[name])


def test_sgd_step_rejects_mismatches():
    params, grads = _grad_dicts(12)
    with pytest.raises(ValueError):
        sgd_step(params, {"w": grads["w"]}, 0.1)
    bad = {"w": grads["w"], "b": np.zeros(5)}
    with pytest.raises(ValueError):
        sgd_step(params, bad, 0.1)


def test_global_norm_hand_value():
    grads = {"a": np.array([3.0]), "b": np.array([[4.0]])}
    assert global_norm(grads) == pytest.approx(5.0, abs=1e-12)


def test_clip_gradients_rescales_only_above_threshold():
    grads = {"a": np.array([3.0]), "b": np.array([4.0])}
    clipped = clip_gradients(grads, 2.5, global_norm(grads))
    assert global_norm(clipped) == pytest.approx(2.5, abs=1e-12)
    # direction preserved
    assert clipped["a"][0] / clipped["b"][0] == pytest.approx(3.0 / 4.0, abs=1e-12)
    untouched = clip_gradients(grads, 10.0, global_norm(grads))
    for name in grads:
        assert np.array_equal(untouched[name], grads[name])


def test_clip_gradients_rejects_nonpositive_norm():
    grads = {"a": np.ones(2)}
    with pytest.raises(ValueError):
        clip_gradients(grads, 0.0, global_norm(grads))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1), st.floats(min_value=0.1, max_value=10.0))
def test_clip_gradients_norm_never_exceeds_bound(seed, max_norm):
    gen = RngState(seed=seed).generator()
    grads = {"w": gen.normal(scale=5.0, size=(2, 3)), "b": gen.normal(scale=5.0, size=4)}
    clipped = clip_gradients(grads, max_norm, global_norm(grads))
    assert global_norm(clipped) <= max_norm * (1.0 + 1e-9)


def test_importing_numeric_loads_no_other_package_module():
    # the package's __init__ holds only __version__, so one module loads only what it imports
    code = (
        "import sys, rnnsent.numeric, rnnsent; "
        "print(sorted(m for m in sys.modules if m.startswith('rnnsent')), rnnsent.__version__)"
    )
    src = str(Path(numeric.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "['rnnsent', 'rnnsent.numeric'] 0.1.0\n"
