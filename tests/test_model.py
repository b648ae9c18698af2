import numpy as np
import pytest

import oracle
from rnnsent.corpus import Vocabulary, token_ids
from synthdata import lists_table
from rnnsent.embedding import EmbeddingMatrix
from rnnsent.model import (
    BIDIRECTIONAL,
    BPTT_FULL,
    STANDARD,
    ModelConfig,
    ModelFileError,
    backward_full,
    backward_truncated,
    forward,
    forward_batch,
    init_params,
    load_model,
    pack_sequences,
    param_shapes,
    predict_many,
    save_model,
)
from rnnsent.numeric import RngState, cross_entropy, global_norm, sgd_step


def _config(direction=STANDARD, hidden=4, emb=3, classes=3, dropout=0.0):
    return ModelConfig(
        embedding_dim=emb,
        hidden_size=hidden,
        num_classes=classes,
        dropout_rate=dropout,
        direction=direction,
    )


def _random_sequence(config, length, seed):
    gen = RngState(seed=seed).generator()
    return [gen.normal(scale=0.8, size=config.embedding_dim) for _ in range(length)]


# ---------------------------------------------------------------------------
# Config and initialization
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        _config(classes=4)
    with pytest.raises(ValueError):
        _config(dropout=1.0)
    with pytest.raises(ValueError):
        _config(hidden=0)
    with pytest.raises(ValueError):
        ModelConfig(embedding_dim=3, direction="diagonal")
    with pytest.raises(ValueError):
        ModelConfig(embedding_dim=3, bptt_mode="sometimes")
    with pytest.raises(ValueError):
        ModelConfig(embedding_dim=3, bptt_mode="truncated", bptt_k=0)


def test_readout_size():
    assert _config(hidden=5).readout_size == 5
    assert _config(BIDIRECTIONAL, hidden=5).readout_size == 10


def test_init_params_deterministic():
    cfg = _config(BIDIRECTIONAL)
    a = init_params(cfg, RngState(seed=3))
    b = init_params(cfg, RngState(seed=3))
    c = init_params(cfg, RngState(seed=4))
    for name in a:
        assert np.array_equal(a[name], b[name])
    assert not np.array_equal(a["w_hy"], c["w_hy"])


@pytest.mark.parametrize("direction", [STANDARD, BIDIRECTIONAL])
def test_init_params_shapes_bounds_and_zero_biases(direction):
    cfg = _config(direction, hidden=6, emb=4, classes=3)
    arrays = init_params(cfg, RngState(seed=5))
    shapes = param_shapes(cfg)
    assert set(arrays) == set(shapes)
    fans = {
        "w_xh": (4, 6),
        "w_hh": (6, 6),
        "w_hy": (cfg.readout_size, 3),
        "b_h": None,
        "b_y": None,
    }
    for name, arr in arrays.items():
        assert arr.shape == shapes[name]
        base = name.split(".")[-1]
        if base.startswith("b_"):
            assert np.array_equal(arr, np.zeros_like(arr))
        else:
            fan_in, fan_out = fans[base]
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            assert np.all(np.abs(arr) <= bound)
            assert not np.array_equal(arr, np.zeros_like(arr))


def test_params_dict_round_trip(tmp_path):
    # init_params, save_model and load_model all keep the param_shapes order
    for direction in (STANDARD, BIDIRECTIONAL):
        cfg = _config(direction)
        params = init_params(cfg, RngState(seed=6))
        assert list(params) == list(param_shapes(cfg))
        path = tmp_path / f"{direction}.txt"
        save_model(dict(reversed(params.items())), cfg, path)
        loaded, _ = load_model(path)
        assert list(loaded) == list(params)
        for name, arr in loaded.items():
            assert np.array_equal(arr, params[name])


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------


def _zero_params(cfg):
    return {name: np.zeros(shape) for name, shape in param_shapes(cfg).items()}


def test_forward_zero_network_uniform():
    for direction in (STANDARD, BIDIRECTIONAL):
        cfg = _config(direction, hidden=2, emb=2, classes=3)
        trace = forward(_zero_params(cfg), cfg, _random_sequence(cfg, 4, 7))
        assert np.all(trace.probabilities[0] == 1.0 / 3.0)


def test_forward_hand_traced_scalar_net():
    cfg = ModelConfig(embedding_dim=1, hidden_size=1, num_classes=2)
    params = {
        "w_xh": np.array([[1.0]]),
        "w_hh": np.array([[0.0]]),
        "b_h": np.array([0.0]),
        "w_hy": np.array([[1.0], [-1.0]]),
        "b_y": np.array([0.0, 0.0]),
    }
    trace = forward(params, cfg, [np.array([1.0])])
    t1 = np.tanh(1.0)
    assert oracle.hidden(trace, 0)[0, 0, 0] == pytest.approx(t1, abs=1e-15)
    expected = np.exp([t1, -t1]) / np.exp([t1, -t1]).sum()
    assert np.allclose(trace.probabilities[0], expected, atol=1e-12)


def test_forward_two_steps_uses_recurrence():
    cfg = ModelConfig(embedding_dim=1, hidden_size=1, num_classes=2)
    params = {
        "w_xh": np.array([[0.5]]),
        "w_hh": np.array([[0.7]]),
        "b_h": np.array([0.1]),
        "w_hy": np.array([[1.0], [0.0]]),
        "b_y": np.array([0.0, 0.0]),
    }
    seq = [np.array([1.0]), np.array([-2.0])]
    h1 = np.tanh(0.5 * 1.0 + 0.1)
    h2 = np.tanh(0.5 * -2.0 + 0.7 * h1 + 0.1)
    trace = forward(params, cfg, seq)
    assert oracle.hidden(trace, 0)[0, 0, 0] == pytest.approx(h1, abs=1e-15)
    assert oracle.hidden(trace, 0)[1, 0, 0] == pytest.approx(h2, abs=1e-15)
    assert trace.steps == 2


def test_forward_bidirectional_collapse_to_standard():
    hidden, emb = 3, 2
    std_cfg = _config(STANDARD, hidden=hidden, emb=emb)
    std = init_params(std_cfg, RngState(seed=8))
    bi_cfg = _config(BIDIRECTIONAL, hidden=hidden, emb=emb)
    w_hy = np.zeros((3, 2 * hidden))
    w_hy[:, :hidden] = std["w_hy"]
    bi = {
        "fwd.w_xh": std["w_xh"].copy(),
        "fwd.w_hh": std["w_hh"].copy(),
        "fwd.b_h": std["b_h"].copy(),
        "bwd.w_xh": np.zeros((hidden, emb)),
        "bwd.w_hh": np.zeros((hidden, hidden)),
        "bwd.b_h": np.zeros(hidden),
        "w_hy": w_hy,
        "b_y": std["b_y"].copy(),
    }
    seq = _random_sequence(std_cfg, 5, 9)
    p_std = forward(std, std_cfg, seq).probabilities[0]
    p_bi = forward(bi, bi_cfg, seq).probabilities[0]
    assert np.array_equal(p_std, p_bi)


def test_forward_probabilities_valid_and_trace_lengths():
    for direction in (STANDARD, BIDIRECTIONAL):
        cfg = _config(direction)
        params = init_params(cfg, RngState(seed=10))
        for length in (1, 3, 7):
            trace = forward(params, cfg, _random_sequence(cfg, length, length))
            assert trace.steps == length
            assert abs(trace.probabilities[0].sum() - 1.0) < 1e-9
            assert np.all(trace.probabilities[0] > 0)
            if direction == STANDARD:
                assert oracle.hidden(trace, 1) is None
            else:
                assert len(oracle.hidden(trace, 1)) == length


def test_forward_order_sensitivity():
    cfg = _config(hidden=3, emb=2)
    params = init_params(cfg, RngState(seed=11))
    seq = _random_sequence(cfg, 2, 12)
    p_fwd = forward(params, cfg, seq).probabilities[0]
    p_rev = forward(params, cfg, seq[::-1]).probabilities[0]
    assert not np.allclose(p_fwd, p_rev, atol=1e-9)


def test_forward_dropout_off_train_equals_infer():
    cfg = _config(dropout=0.0)
    params = init_params(cfg, RngState(seed=13))
    seq = _random_sequence(cfg, 4, 13)
    p_train = forward(params, cfg, seq, train=True, rng=RngState(seed=1)).probabilities[0]
    p_infer = forward(params, cfg, seq, train=False).probabilities[0]
    assert np.array_equal(p_train, p_infer)


def test_forward_dropout_applied_only_in_train_mode():
    from rnnsent.numeric import dropout_mask, softmax

    cfg = _config(dropout=0.5, hidden=6)
    params = init_params(cfg, RngState(seed=14))
    seq = _random_sequence(cfg, 3, 14)
    mask_rng = RngState(seed=99)
    trace = forward(params, cfg, seq, train=True, rng=mask_rng)
    assert trace.dropout_masks is not None
    expected_mask = dropout_mask(cfg.readout_size, 0.5, RngState(seed=99))
    assert np.array_equal(trace.dropout_masks[0], expected_mask)
    # masked readout reproduces the probabilities exactly
    plain = forward(params, cfg, seq, train=False)
    masked = oracle.hidden(plain, 0)[-1, 0] * expected_mask
    assert np.allclose(trace.probabilities[0], softmax(params["w_hy"] @ masked + params["b_y"]), atol=1e-15)
    assert plain.dropout_masks is None


def test_forward_errors():
    cfg = _config()
    params = init_params(cfg, RngState(seed=15))
    with pytest.raises(ValueError, match="empty"):
        forward(params, cfg, [])
    with pytest.raises(ValueError, match="position 1"):
        forward(params, cfg, [np.zeros(3), np.zeros(2)])
    bi_cfg = _config(BIDIRECTIONAL)
    with pytest.raises(ValueError, match="direction"):
        forward(params, bi_cfg, _random_sequence(bi_cfg, 2, 0))
    missing = {name: arr for name, arr in params.items() if name != "b_y"}
    with pytest.raises(ValueError, match=r"missing \['b_y'\]"):
        forward(missing, cfg, _random_sequence(cfg, 2, 0))
    wrong_shape = {**params, "w_hh": np.zeros((4, 5))}
    with pytest.raises(ValueError, match="'w_hh' has shape"):
        forward(wrong_shape, cfg, _random_sequence(cfg, 2, 0))
    drop_cfg = _config(dropout=0.5)
    drop_params = init_params(drop_cfg, RngState(seed=16))
    with pytest.raises(ValueError, match="RngState"):
        forward(drop_params, drop_cfg, _random_sequence(drop_cfg, 2, 0), train=True)


# ---------------------------------------------------------------------------
# Backward pass: independent finite-difference oracle
# ---------------------------------------------------------------------------


def _fd_gradients(params, config, seq, target, mask_seed=None, eps=1e-5):
    """Central finite differences on the cross-entropy loss; when mask_seed is
    given every evaluation re-runs train mode with the same dropout mask."""

    def loss():
        if mask_seed is None:
            trace = forward(params, config, seq, train=False)
        else:
            trace = forward(params, config, seq, train=True, rng=RngState(seed=mask_seed))
        return cross_entropy(trace.probabilities, [target])[0]

    grads = {}
    for name, arr in params.items():
        g = np.zeros_like(arr)
        flat, gflat = arr.reshape(-1), g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = loss()
            flat[i] = orig - eps
            down = loss()
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * eps)
        grads[name] = g
    return grads


def _max_relative_error(analytic, numeric):
    worst = 0.0
    for name in analytic:
        a, n = analytic[name].reshape(-1), numeric[name].reshape(-1)
        denom = np.maximum(np.abs(a) + np.abs(n), 1e-4)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


@pytest.mark.parametrize("direction", [STANDARD, BIDIRECTIONAL])
def test_backward_full_matches_finite_differences(direction):
    for trial in range(5):
        gen = RngState(seed=100 + trial).generator()
        cfg = _config(direction, hidden=int(gen.integers(2, 6)), emb=int(gen.integers(2, 5)),
                      classes=3 if trial % 2 else 2)
        params = init_params(cfg, RngState(seed=200 + trial))
        seq = [gen.normal(scale=0.8, size=cfg.embedding_dim) for _ in range(int(gen.integers(1, 9)))]
        target = int(gen.integers(cfg.num_classes))
        trace = forward(params, cfg, seq)
        analytic = backward_full(params, cfg, trace, seq, target)
        numeric = _fd_gradients(params, cfg, seq, target)
        assert _max_relative_error(analytic, numeric) < 1e-4


def test_backward_honors_dropout_mask():
    cfg = _config(BIDIRECTIONAL, hidden=3, emb=2, dropout=0.5)
    params = init_params(cfg, RngState(seed=300))
    seq = _random_sequence(cfg, 4, 301)
    trace = forward(params, cfg, seq, train=True, rng=RngState(seed=302))
    assert np.any(trace.dropout_masks[0] == 0.0)
    analytic = backward_full(params, cfg, trace, seq, 1)
    numeric = _fd_gradients(params, cfg, seq, 1, mask_seed=302)
    assert _max_relative_error(analytic, numeric) < 1e-4


def test_backward_b_y_is_probs_minus_onehot():
    cfg = _config()
    params = init_params(cfg, RngState(seed=400))
    seq = _random_sequence(cfg, 5, 401)
    trace = forward(params, cfg, seq)
    grads = backward_full(params, cfg, trace, seq, 2)
    onehot = np.zeros(3)
    onehot[2] = 1.0
    assert np.array_equal(grads["b_y"], trace.probabilities[0] - onehot)


def test_backward_gradient_vanishes_at_minimum():
    # a separable one-example problem has its minimum in the limit of large
    # logit margins; after scaling the trained readout the gradient is ~0
    cfg = _config(hidden=3, emb=2, classes=2)
    params = init_params(cfg, RngState(seed=500))
    seq = _random_sequence(cfg, 3, 501)
    target = 0
    for _ in range(50):
        trace = forward(params, cfg, seq)
        grads = backward_full(params, cfg, trace, seq, target)
        params = sgd_step(params, grads, 0.5)
    trace = forward(params, cfg, seq)
    assert int(np.argmax(trace.probabilities[0])) == target
    params["w_hy"] *= 200.0
    params["b_y"] *= 200.0
    trace = forward(params, cfg, seq)
    grads = backward_full(params, cfg, trace, seq, target)
    assert cross_entropy(trace.probabilities, [target])[0] < 1e-8
    assert global_norm(grads) < 1e-8


# ---------------------------------------------------------------------------
# Truncated BPTT
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("direction", [STANDARD, BIDIRECTIONAL])
def test_truncated_k_at_least_t_equals_full(direction):
    for trial, (length, k) in enumerate([(1, 1), (4, 4), (4, 9), (12, 50), (20, 20)]):
        cfg = _config(direction, hidden=3, emb=2)
        params = init_params(cfg, RngState(seed=600 + trial))
        seq = _random_sequence(cfg, length, 610 + trial)
        trace = forward(params, cfg, seq)
        full = backward_full(params, cfg, trace, seq, trial % 3)
        trunc = backward_truncated(params, cfg, trace, seq, trial % 3, k=k)
        for name in full:
            assert np.allclose(full[name], trunc[name], atol=1e-12)
            assert np.array_equal(full[name], trunc[name])


def test_truncated_k1_matches_hand_unrolled_standard():
    cfg = _config(hidden=3, emb=2)
    params = init_params(cfg, RngState(seed=700))
    seq = _random_sequence(cfg, 3, 701)
    target = 1
    trace = forward(params, cfg, seq)
    got = backward_truncated(params, cfg, trace, seq, target, k=1)

    dlogits = trace.probabilities[0].copy()
    dlogits[target] -= 1.0
    h_last = oracle.hidden(trace, 0)[-1, 0]
    da = (params["w_hy"].T @ dlogits) * (1.0 - h_last * h_last)
    assert np.array_equal(got["w_hy"], np.outer(dlogits, h_last))
    assert np.array_equal(got["b_y"], dlogits)
    assert np.array_equal(got["w_xh"], np.outer(da, seq[-1]))
    assert np.array_equal(got["w_hh"], np.outer(da, oracle.hidden(trace, 0)[-2, 0]))
    assert np.array_equal(got["b_h"], da)
    # and it genuinely differs from the full gradient on a T=3 sequence
    full = backward_full(params, cfg, trace, seq, target)
    assert not np.allclose(full["w_xh"], got["w_xh"], atol=1e-12)


def test_truncated_k1_matches_hand_unrolled_bidirectional():
    cfg = _config(BIDIRECTIONAL, hidden=2, emb=2)
    params = init_params(cfg, RngState(seed=710))
    seq = _random_sequence(cfg, 4, 711)
    target = 0
    trace = forward(params, cfg, seq)
    got = backward_truncated(params, cfg, trace, seq, target, k=1)

    h = cfg.hidden_size
    dlogits = trace.probabilities[0].copy()
    dlogits[target] -= 1.0
    dr = params["w_hy"].T @ dlogits
    da_f = dr[:h] * (1.0 - oracle.hidden(trace, 0)[-1, 0] * oracle.hidden(trace, 0)[-1, 0])
    da_b = dr[h:] * (1.0 - oracle.hidden(trace, 1)[-1, 0] * oracle.hidden(trace, 1)[-1, 0])
    assert np.array_equal(got["fwd.w_xh"], np.outer(da_f, seq[-1]))
    assert np.array_equal(got["fwd.w_hh"], np.outer(da_f, oracle.hidden(trace, 0)[-2, 0]))
    assert np.array_equal(got["fwd.b_h"], da_f)
    # the backward cell's last processed input is x_1, previous state is the
    # one it produced after consuming x_2
    assert np.array_equal(got["bwd.w_xh"], np.outer(da_b, seq[0]))
    assert np.array_equal(got["bwd.w_hh"], np.outer(da_b, oracle.hidden(trace, 1)[-2, 0]))
    assert np.array_equal(got["bwd.b_h"], da_b)


def test_backward_full_and_truncated_differ_below_sequence_length():
    seq_len = 6
    cfg_full = ModelConfig(embedding_dim=2, hidden_size=3, bptt_mode=BPTT_FULL)
    cfg_k2 = ModelConfig(embedding_dim=2, hidden_size=3, bptt_mode="truncated", bptt_k=2)
    params = init_params(cfg_full, RngState(seed=720))
    seq = _random_sequence(cfg_full, seq_len, 721)
    trace = forward(params, cfg_full, seq)
    via_full = backward_full(params, cfg_full, trace, seq, 0)
    assert all(np.array_equal(via_full[n], backward_full(params, cfg_full, trace, seq, 0)[n]) for n in via_full)
    via_k2 = backward_truncated(params, cfg_k2, trace, seq, 0, k=cfg_k2.bptt_k)
    expect_k2 = backward_truncated(params, cfg_k2, trace, seq, 0, k=2)
    assert all(np.array_equal(via_k2[n], expect_k2[n]) for n in via_k2)
    assert not np.allclose(via_k2["w_hh"], via_full["w_hh"], atol=1e-12)


def test_backward_errors():
    cfg = _config()
    params = init_params(cfg, RngState(seed=730))
    seq = _random_sequence(cfg, 4, 731)
    trace = forward(params, cfg, seq)
    with pytest.raises(ValueError, match="timesteps"):
        backward_full(params, cfg, trace, seq[:-1], 0)
    with pytest.raises(IndexError):
        backward_full(params, cfg, trace, seq, 3)
    with pytest.raises(ValueError):
        backward_truncated(params, cfg, trace, seq, 0, k=0)
    pair = forward_batch(params, cfg, *pack_sequences([np.array(seq), np.array(seq)]))
    with pytest.raises(ValueError, match="2 sequences"):
        backward_full(params, cfg, pair, seq, 0)


# ---------------------------------------------------------------------------
# Prediction from tokens
# ---------------------------------------------------------------------------


def _tiny_world():
    emb = EmbeddingMatrix(Vocabulary(["goodword", "badword"]), np.array([[1.0, 0.0], [0.0, 1.0]]))
    cfg = _config(hidden=4, emb=2, classes=3)
    return emb, cfg


def test_token_ids_skip_unknown_tokens():
    emb, _ = _tiny_world()
    ids, starts, lengths = token_ids(emb.vocab, lists_table([["badword", "zzz", "goodword"], [], ["zzz"], ["goodword", "goodword"]]))
    assert ids.tolist() == [1, 0, 0, 0]
    assert starts.tolist() == [0, 2, 2, 2]
    assert lengths.tolist() == [2, 0, 0, 2]
    ids, starts, lengths = token_ids(emb.vocab, lists_table([]))
    assert ids.size == starts.size == lengths.size == 0


def test_predict_rejects_vocabulary_past_the_embedding():
    _, cfg = _tiny_world()
    params = init_params(cfg, RngState(seed=803))
    with pytest.raises(ValueError, match="embedding has 1 rows but vocabulary has 2"):
        emb = EmbeddingMatrix(Vocabulary(["goodword", "badword"]), np.array([[1.0, 0.0]]))
        predict_many(params, cfg, emb, lists_table([["badword"]]))


def test_predict_zero_weights_tie_breaks_to_class_zero():
    emb, cfg = _tiny_world()
    probs = predict_many(_zero_params(cfg), cfg, emb, lists_table([["goodword"]]))[0][0]
    assert np.argmax(probs) == 0
    assert np.all(probs == 1.0 / 3.0)


def test_predict_overfit_single_word():
    emb, cfg = _tiny_world()
    params = init_params(cfg, RngState(seed=800))
    ids, _, _ = token_ids(emb.vocab, lists_table([["goodword"]]))
    seq = list(emb.input_vectors[ids])
    for _ in range(60):
        trace = forward(params, cfg, seq)
        grads = backward_full(params, cfg, trace, seq, 0)
        params = sgd_step(params, grads, 0.5)
    probs = predict_many(params, cfg, emb, lists_table([["goodword"]]))[0][0]
    assert np.argmax(probs) == 0
    assert probs[0] > 0.9


def test_predict_skips_unknown_tokens():
    emb, cfg = _tiny_world()
    params = init_params(cfg, RngState(seed=801))
    probs_known, _ = predict_many(params, cfg, emb, lists_table([["goodword"]]))
    probs_mixed, known = predict_many(params, cfg, emb, lists_table([["zzz", "goodword", "qqq"]]))
    assert known[0]
    assert np.array_equal(probs_known, probs_mixed)


def test_predict_all_unknown_is_flagged():
    emb, cfg = _tiny_world()
    params = init_params(cfg, RngState(seed=802))
    probabilities, known = predict_many(params, cfg, emb, lists_table([["zzz", "qqq"]]))
    assert not known[0]
    assert not probabilities[0].any()
    ids, _, _ = token_ids(emb.vocab, lists_table([["zzz"]]))
    assert list(emb.input_vectors[ids]) == []


# ---------------------------------------------------------------------------
# Model file round-trip
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("direction", [STANDARD, BIDIRECTIONAL])
def test_save_load_round_trip(tmp_path, direction):
    cfg = ModelConfig(
        embedding_dim=3, hidden_size=4, num_classes=2, dropout_rate=0.5,
        direction=direction, bptt_mode=BPTT_FULL, bptt_k=7,
    )
    params = init_params(cfg, RngState(seed=900))
    path = tmp_path / "model.txt"
    save_model(params, cfg, path)
    loaded, loaded_cfg = load_model(path)
    assert loaded_cfg == cfg
    for name, arr in params.items():
        assert np.array_equal(loaded[name], arr)
    # resave is byte-identical
    path2 = tmp_path / "model2.txt"
    save_model(loaded, loaded_cfg, path2)
    assert path.read_bytes() == path2.read_bytes()


def _bidirectional_full_config():
    return ModelConfig(
        embedding_dim=3, hidden_size=5, num_classes=3, dropout_rate=0.1,
        direction=BIDIRECTIONAL, bptt_mode=BPTT_FULL, bptt_k=7,
    )


def test_config_block_lines(tmp_path):
    cfg = _bidirectional_full_config()
    path = tmp_path / "model.txt"
    save_model(init_params(cfg, RngState(seed=904)), cfg, path)
    lines = path.read_text().splitlines()
    assert lines[:8] == [
        "RNN-SENT v1",
        "direction bidirectional",
        "hidden_size 5",
        "num_classes 3",
        "embedding_dim 3",
        # 17 significant digits, so the float reads back exactly
        "dropout_rate 0.10000000000000001",
        "bptt_mode full",
        "bptt_k 7",
    ]
    assert lines[8].startswith("param ")
    assert load_model(path)[1] == cfg


@pytest.mark.parametrize("line, text, message", [
    (2, "hidden 5", "corrupt config block (expected 'hidden_size' line)"),
    (2, "hidden_size", "corrupt config block (expected 'hidden_size' line)"),
    (7, "param w_xh 3 5", "corrupt config block (expected 'bptt_k' line)"),
    (2, "hidden_size five", "invalid config: invalid literal for int() with base 10: 'five'"),
    (5, "dropout_rate 1.5", "invalid config: dropout_rate must be in [0, 1), got 1.5"),
    (1, "direction sideways", "invalid config: direction must be 'standard' or 'bidirectional'"),
])
def test_load_rejects_a_malformed_config_line(tmp_path, line, text, message):
    cfg = _bidirectional_full_config()
    path = tmp_path / "model.txt"
    save_model(init_params(cfg, RngState(seed=905)), cfg, path)
    lines = path.read_text().splitlines()
    lines[line] = text
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ModelFileError) as exc:
        load_model(path)
    assert str(exc.value) == f"{path}: {message}"


def test_save_rejects_shape_mismatch(tmp_path):
    cfg = _config(hidden=4)
    params = init_params(_config(hidden=5), RngState(seed=901))
    with pytest.raises(ValueError, match="shape"):
        save_model(params, cfg, tmp_path / "bad.txt")
    good = init_params(cfg, RngState(seed=901))
    with pytest.raises(ValueError, match=r"'b_h' has shape \(5,\)"):
        save_model({**good, "b_h": np.zeros(5)}, cfg, tmp_path / "bad.txt")
    with pytest.raises(ValueError, match=r"missing \['w_hy'\]"):
        save_model({name: arr for name, arr in good.items() if name != "w_hy"}, cfg, tmp_path / "bad.txt")
    assert not any(tmp_path.iterdir())


def _saved_model(tmp_path):
    cfg = _config(hidden=2, emb=2, classes=2)
    params = init_params(cfg, RngState(seed=902))
    path = tmp_path / "model.txt"
    save_model(params, cfg, path)
    return path


def test_load_wrong_magic(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("OTHER v1\n")
    with pytest.raises(ModelFileError, match="RNN-SENT"):
        load_model(path)


def test_load_version_mismatch_names_both(tmp_path):
    path = _saved_model(tmp_path)
    lines = path.read_text().splitlines()
    lines[0] = "RNN-SENT v9"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ModelFileError, match="v9.*v1"):
        load_model(path)


def test_load_tampered_shape_header(tmp_path):
    path = _saved_model(tmp_path)
    text = path.read_text().replace("param w_xh 2 2", "param w_xh 2 3")
    path.write_text(text)
    with pytest.raises(ModelFileError, match="shape inconsistency"):
        load_model(path)


def test_load_truncated_file(tmp_path):
    path = _saved_model(tmp_path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ModelFileError, match="corrupt"):
        load_model(path)


def test_load_non_numeric_value(tmp_path):
    path = _saved_model(tmp_path)
    lines = path.read_text().splitlines()
    parts = lines[9].split()
    parts[0] = "oops"
    lines[9] = " ".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ModelFileError, match="non-numeric"):
        load_model(path)


def _eval_exit_code(model_path, tmp_path):
    from rnnsent.cli import main

    missing = tmp_path / "missing"
    return main(["eval", "--model", str(model_path), "--corpus", str(missing), "--annotations", str(missing),
                 "--embeddings", str(missing), "--output", str(tmp_path / "out")])


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_load_non_finite_value(tmp_path, value):
    path = _saved_model(tmp_path)
    lines = path.read_text().splitlines()
    # the b_y block is last: its one row of values is the last line
    lines[-1] = " ".join(lines[-1].split()[:-1] + [value])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ModelFileError, match=f"{path}: corrupt file: row 0 of 'b_y' has a non-finite value"):
        load_model(path)
    # the CLI maps the error to a usage failure
    assert _eval_exit_code(path, tmp_path) == 2


def test_load_trailing_content(tmp_path):
    path = _saved_model(tmp_path)
    text = path.read_text()
    last = len(text.splitlines())
    path.write_text(text + "\n  \ngarbage here\n")
    with pytest.raises(ModelFileError, match=f"{path}: corrupt file: line {last + 3} follows the last parameter row"):
        load_model(path)
    assert _eval_exit_code(path, tmp_path) == 2
    # blank lines after the last row are not content
    path.write_text(text + "\n\n")
    load_model(path)


class _FailingRows(np.ndarray):
    """A parameter whose second row cannot be read, to fail a save midway."""

    def __iter__(self):
        yield self[0]
        raise RuntimeError("write interrupted")


def test_failed_save_keeps_previous_file(tmp_path):
    cfg = _config(hidden=2, emb=2, classes=2)
    params = init_params(cfg, RngState(seed=903))
    path = tmp_path / "model.txt"
    save_model(params, cfg, path)
    before = path.read_bytes()
    params["w_hh"] = (params["w_hh"] * 2.0).view(_FailingRows)
    with pytest.raises(RuntimeError, match="write interrupted"):
        save_model(params, cfg, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.txt"]
