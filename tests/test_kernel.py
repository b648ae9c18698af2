"""The batched, length-masked kernel against the per-example oracle."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
import synthdata
from rnnsent import model, training
from rnnsent.analysis import classify_corpus
from synthdata import Tweet, lists_table, table, tweets_of
from rnnsent.evaluation import FINE_CLASSES, evaluate
from rnnsent.model import (
    BIDIRECTIONAL,
    BPTT_FULL,
    BPTT_TRUNCATED,
    INFER_CHUNK,
    STANDARD,
    ModelConfig,
    Workspace,
    backward_batch,
    backward_truncated,
    forward,
    forward_batch,
    init_params,
    pack_sequences,
    predict_many,
)
from rnnsent.numeric import RngState, dropout_mask
from rnnsent.training import TrainConfig, split, train

TOLERANCE = 1e-12


@st.composite
def batch_cases(draw):
    lengths = draw(st.lists(st.integers(1, 40), min_size=1, max_size=8))
    steps = max(lengths)
    return {
        "lengths": lengths,
        "direction": draw(st.sampled_from([STANDARD, BIDIRECTIONAL])),
        "emb": draw(st.integers(1, 4)),
        "hidden": draw(st.integers(1, 5)),
        "classes": draw(st.sampled_from([2, 3])),
        "dropout": draw(st.sampled_from([0.0, 0.5])),
        # None is full BPTT; k runs from 1 to past T, so it cuts and does not
        "k": draw(st.one_of(st.none(), st.integers(1, steps + 3))),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


def _max_diff(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) if np.size(a) else 0.0


@settings(max_examples=80, deadline=None)
@given(batch_cases())
@example({"lengths": [40, 1, 17], "direction": BIDIRECTIONAL, "emb": 3, "hidden": 4, "classes": 3,
          "dropout": 0.5, "k": 5, "seed": 1})
@example({"lengths": [3, 7], "direction": STANDARD, "emb": 2, "hidden": 3, "classes": 2,
          "dropout": 0.0, "k": 7, "seed": 2})
# b_h sums reach about 430 and 63 here, where the two summation orders differ
# by 1.02e-12 and 1.19e-12
@example({"lengths": [21], "direction": STANDARD, "emb": 1, "hidden": 4, "classes": 2,
          "dropout": 0.0, "k": None, "seed": 11001})
@example({"lengths": [1, 19, 25], "direction": STANDARD, "emb": 1, "hidden": 4, "classes": 2,
          "dropout": 0.0, "k": None, "seed": 1})
def test_batch_matches_per_example_oracle(case):
    config = ModelConfig(
        embedding_dim=case["emb"], hidden_size=case["hidden"], num_classes=case["classes"],
        dropout_rate=case["dropout"], direction=case["direction"],
    )
    root = RngState(seed=case["seed"])
    params = init_params(config, root.child(0))
    gen = root.child(1).generator()
    sequences = [gen.normal(scale=0.8, size=(n, config.embedding_dim)) for n in case["lengths"]]
    targets = gen.integers(config.num_classes, size=len(sequences))
    masks = None
    if config.dropout_rate > 0.0:
        masks = np.stack([dropout_mask(config.readout_size, 0.5, root.child(2, b)) for b in range(len(sequences))])

    table, ids, starts, lengths = pack_sequences(sequences)
    trace = forward_batch(params, config, table, ids, starts, lengths, masks)
    grads = backward_batch(params, config, trace, targets, case["k"])

    steps = int(lengths.max())
    expected = {name: np.zeros_like(arr) for name, arr in params.items()}
    for b, seq in enumerate(sequences):
        mask = None if masks is None else masks[b]
        probs, example_grads = oracle.gradients(params, config, seq, targets[b], mask, case["k"])
        assert _max_diff(trace.probabilities[b], probs) <= TOLERANCE
        for name, g in example_grads.items():
            expected[name] += g
        # the state is exactly 0 on padded steps
        pad = steps - len(seq)
        assert not oracle.hidden(trace, 0)[:pad, b].any()
        if oracle.hidden(trace, 1) is not None:
            assert not oracle.hidden(trace, 1)[:pad, b].any()
    assert grads.keys() == expected.keys()
    for name in expected:
        # relative to the largest entry once sums exceed 1: both sides round at that scale
        scale = max(1.0, float(np.max(np.abs(expected[name]))))
        assert _max_diff(grads[name], expected[name]) <= TOLERANCE * scale, name


@st.composite
def ordered_cases(draw):
    """A batch whose lengths are sorted longest first, shortest first, or
    all tied, or are a shuffled mix of repeated lengths."""
    kind = draw(st.sampled_from(["descending", "ascending", "tied", "repeats"]))
    lengths = draw(st.lists(st.integers(1, 12), min_size=2, max_size=7))
    if kind == "descending":
        lengths = sorted(lengths, reverse=True)
    elif kind == "ascending":
        lengths = sorted(lengths)
    elif kind == "tied":
        lengths = [lengths[0]] * len(lengths)
    else:
        lengths = draw(st.permutations(lengths[: len(lengths) // 2 + 1] * 2))
    return {
        "lengths": lengths,
        "direction": draw(st.sampled_from([STANDARD, BIDIRECTIONAL])),
        "k": draw(st.one_of(st.none(), st.integers(1, max(lengths) + 1))),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


@settings(max_examples=60, deadline=None)
@given(ordered_cases())
@example({"lengths": [5, 5, 3, 3, 1], "direction": BIDIRECTIONAL, "k": 2, "seed": 3})
@example({"lengths": [1, 2, 4, 8], "direction": BIDIRECTIONAL, "k": None, "seed": 4})
@example({"lengths": [6, 6, 6], "direction": STANDARD, "k": 4, "seed": 5})
def test_batch_matches_oracle_in_any_length_order(case):
    config = ModelConfig(embedding_dim=3, hidden_size=4, dropout_rate=0.5, direction=case["direction"])
    root = RngState(seed=case["seed"])
    params = init_params(config, root.child(0))
    gen = root.child(1).generator()
    sequences = [gen.normal(scale=0.8, size=(n, 3)) for n in case["lengths"]]
    targets = gen.integers(3, size=len(sequences))
    masks = np.stack([dropout_mask(config.readout_size, 0.5, root.child(2, b)) for b in range(len(sequences))])

    table, ids, starts, lengths = pack_sequences(sequences)
    trace = forward_batch(params, config, table, ids, starts, lengths, masks)
    grads = backward_batch(params, config, trace, targets, case["k"])

    steps = int(lengths.max())
    expected = {name: np.zeros_like(arr) for name, arr in params.items()}
    for b, seq in enumerate(sequences):
        hidden_fwd, hidden_bwd, readout, probs = oracle.forward(params, config, seq, masks[b])
        # everything the kernel returns is in the caller's order
        assert _max_diff(trace.probabilities[b], probs) <= TOLERANCE
        assert _max_diff(trace.readout[b], readout) <= TOLERANCE
        assert _max_diff(oracle.hidden(trace, 0)[steps - len(seq) :, b], hidden_fwd) <= TOLERANCE
        assert not oracle.hidden(trace, 0)[: steps - len(seq), b].any()
        if hidden_bwd is not None:
            assert _max_diff(oracle.hidden(trace, 1)[steps - len(seq) :, b], hidden_bwd) <= TOLERANCE
            assert not oracle.hidden(trace, 1)[: steps - len(seq), b].any()
        for name, g in oracle.gradients(params, config, seq, targets[b], masks[b], case["k"])[1].items():
            expected[name] += g
    for name in expected:
        assert _max_diff(grads[name], expected[name]) <= TOLERANCE, name


@st.composite
def shared_id_cases(draw):
    """Sequences of ids into a table of 1-4 rows, so that rows repeat inside
    a sequence and across sequences; id `shared` is twice at the end of
    sequence 0 and first in sequence 1. `layout` is the order in which the
    sequences' ids are stored in the flat id array."""
    rows = draw(st.integers(1, 4))
    sequences = draw(st.lists(st.lists(st.integers(0, rows - 1), min_size=1, max_size=12), min_size=2, max_size=6))
    shared = draw(st.integers(0, rows - 1))
    sequences[0] = sequences[0] + [shared, shared]
    sequences[1] = [shared] + sequences[1]
    steps = max(len(seq) for seq in sequences)
    return {
        "rows": rows,
        "sequences": sequences,
        "layout": draw(st.permutations(range(len(sequences)))),
        "direction": draw(st.sampled_from([STANDARD, BIDIRECTIONAL])),
        # full BPTT, a one-step window, and a window shorter than the longest sequence
        "k": draw(st.sampled_from([None, 1, draw(st.integers(2, steps - 1))])),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


@settings(max_examples=60, deadline=None)
@given(shared_id_cases())
@example({"rows": 1, "sequences": [[0, 0, 0], [0]], "layout": [1, 0], "direction": BIDIRECTIONAL,
          "k": 2, "seed": 6})
@example({"rows": 3, "sequences": [[2, 1, 1, 1], [1, 0], [0, 2, 2]], "layout": [2, 0, 1],
          "direction": STANDARD, "k": None, "seed": 7})
def test_batch_gathers_shared_and_repeated_ids(case):
    config = ModelConfig(embedding_dim=3, hidden_size=4, dropout_rate=0.5, direction=case["direction"])
    root = RngState(seed=case["seed"])
    params = init_params(config, root.child(0))
    gen = root.child(1).generator()
    table = gen.normal(scale=0.8, size=(case["rows"], 3))
    sequences = case["sequences"]
    targets = gen.integers(3, size=len(sequences))
    masks = np.stack([dropout_mask(config.readout_size, 0.5, root.child(2, b)) for b in range(len(sequences))])
    layout = case["layout"]
    ids = np.array([i for b in layout for i in sequences[b]])
    starts = np.empty(len(sequences), dtype=np.int64)
    starts[layout] = np.cumsum([0] + [len(sequences[b]) for b in layout])[:-1]
    lengths = np.array([len(seq) for seq in sequences])

    trace = forward_batch(params, config, table, ids, starts, lengths, masks)
    grads = backward_batch(params, config, trace, targets, case["k"])

    steps = int(lengths.max())
    expected = {name: np.zeros_like(arr) for name, arr in params.items()}
    for b, seq_ids in enumerate(sequences):
        seq = table[seq_ids]
        hidden_fwd, hidden_bwd, readout, probs = oracle.forward(params, config, seq, masks[b])
        assert _max_diff(trace.probabilities[b], probs) <= TOLERANCE
        assert _max_diff(trace.readout[b], readout) <= TOLERANCE
        assert _max_diff(oracle.hidden(trace, 0)[steps - len(seq) :, b], hidden_fwd) <= TOLERANCE
        if hidden_bwd is not None:
            assert _max_diff(oracle.hidden(trace, 1)[steps - len(seq) :, b], hidden_bwd) <= TOLERANCE
        for name, g in oracle.gradients(params, config, seq, targets[b], masks[b], case["k"])[1].items():
            expected[name] += g
    for name in expected:
        scale = max(1.0, float(np.max(np.abs(expected[name]))))
        assert _max_diff(grads[name], expected[name]) <= TOLERANCE * scale, name


def _batch_arrays(trace, grads):
    arrays = {"probabilities": trace.probabilities, "readout": trace.readout,
              "hidden_fwd": oracle.hidden(trace, 0), "hidden_bwd": oracle.hidden(trace, 1)}
    arrays.update(grads or {})
    return arrays


@pytest.mark.parametrize("direction", [STANDARD, BIDIRECTIONAL])
@pytest.mark.parametrize("keep_states", [True, False])
def test_reused_workspace_matches_fresh_buffers(direction, keep_states):
    config = ModelConfig(embedding_dim=3, hidden_size=5, dropout_rate=0.5, direction=direction)
    params = init_params(config, RngState(seed=30))
    gen = RngState(seed=31).generator()
    # T grows, shrinks, grows past every earlier batch, then a short last batch
    batches = [[4, 9, 2, 9], [3, 1, 2, 3], [17, 5, 11, 1, 8, 17], [2, 6]]
    workspace = Workspace()
    for number, batch_lengths in enumerate(batches):
        sequences = [gen.normal(scale=0.8, size=(n, 3)) for n in batch_lengths]
        targets = gen.integers(3, size=len(sequences))
        masks = np.stack([dropout_mask(config.readout_size, 0.5, RngState(seed=40 + number * 10 + b))
                          for b in range(len(sequences))])
        packed = pack_sequences(sequences)
        results = []
        for ws in (None, workspace):
            trace = forward_batch(params, config, *packed, masks, keep_states=keep_states, workspace=ws)
            grads = backward_batch(params, config, trace, targets, 3) if keep_states else None
            results.append(_batch_arrays(trace, grads))
        fresh, reused = results
        assert fresh.keys() == reused.keys()
        for name in fresh:
            if fresh[name] is None:
                assert reused[name] is None, name
            else:
                assert np.array_equal(fresh[name], reused[name]), (number, name)


@pytest.mark.parametrize("direction", [STANDARD, BIDIRECTIONAL])
def test_call_without_workspace_matches_a_workspace_a_longer_batch_used(direction):
    config = ModelConfig(embedding_dim=3, hidden_size=5, dropout_rate=0.5, direction=direction)
    params = init_params(config, RngState(seed=32))
    gen = RngState(seed=33).generator()
    # a longer bidirectional batch first, so every buffer is larger than needed and holds its values
    workspace = Workspace()
    long_config = replace(config, direction=BIDIRECTIONAL)
    long_params = init_params(long_config, RngState(seed=34))
    long = pack_sequences([gen.normal(scale=0.8, size=(n, 3)) for n in (60, 41, 7, 60, 23)])
    trace = forward_batch(long_params, long_config, *long, workspace=workspace)
    backward_batch(long_params, long_config, trace, gen.integers(3, size=5))

    packed = pack_sequences([gen.normal(scale=0.8, size=(n, 3)) for n in (9, 3, 9, 1, 6)])
    targets = gen.integers(3, size=5)
    masks = np.stack([dropout_mask(config.readout_size, 0.5, RngState(seed=35 + b)) for b in range(5)])
    results = []
    for ws in (None, workspace):
        trace = forward_batch(params, config, *packed, masks, workspace=ws)
        results.append(_batch_arrays(trace, backward_batch(params, config, trace, targets)))
    fresh, reused = results
    assert fresh.keys() == reused.keys()
    for name in fresh:
        # the standard net's hidden_bwd is None on both sides
        assert np.array_equal(fresh[name], reused[name]), name


@pytest.mark.parametrize("classes", [2, 3])
@pytest.mark.parametrize("dropout", [False, True])
def test_bidirectional_net_with_a_silent_backward_cell_gives_the_standard_probabilities(classes, dropout):
    hidden = 5
    std_config = ModelConfig(embedding_dim=3, hidden_size=hidden, num_classes=classes)
    bi_config = replace(std_config, direction=BIDIRECTIONAL)
    std = init_params(std_config, RngState(seed=36))
    gen = RngState(seed=37).generator()
    std["b_y"] = gen.normal(size=classes)
    # the standard net's forward cell, a zero backward cell, zeros in the backward half of w_hy
    bi = {"fwd." + name: std[name] for name in ("w_xh", "w_hh", "b_h")}
    bi.update({"bwd." + name: np.zeros_like(std[name]) for name in ("w_xh", "w_hh", "b_h")})
    bi["w_hy"] = np.concatenate([std["w_hy"], np.zeros_like(std["w_hy"])], axis=1)
    bi["b_y"] = std["b_y"]
    packed = pack_sequences([gen.normal(scale=0.8, size=(n, 3)) for n in (7, 1, 12, 3, 12, 5)])
    std_masks = bi_masks = None
    if dropout:
        bi_masks = np.stack([dropout_mask(2 * hidden, 0.5, RngState(seed=38 + b)) for b in range(6)])
        std_masks = bi_masks[:, :hidden]
    p_std = forward_batch(std, std_config, *packed, std_masks).probabilities
    p_bi = forward_batch(bi, bi_config, *packed, bi_masks).probabilities
    assert np.array_equal(p_std, p_bi)


def test_predict_many_keeps_caller_order():
    data, emb = _run_world(seed=75)
    config = ModelConfig(embedding_dim=emb.dim, hidden_size=5, direction=BIDIRECTIONAL)
    params = init_params(config, RngState(seed=76))
    tweets = tweets_of(data.train) + tweets_of(data.test)
    gen = RngState(seed=77).generator()
    token_lists = []
    for i in range(INFER_CHUNK + 40):
        base = tweets[int(gen.integers(len(tweets)))].tokens
        # unsorted lengths, with all-OOV lists interleaved
        tokens = list(base) * int(gen.integers(1, 4)) if i % 5 else ["ghostword"] * int(gen.integers(1, 4))
        token_lists.append(tokens[: int(gen.integers(1, len(tokens) + 1))])
    lengths = [sum(t in emb.vocab for t in tokens) for tokens in token_lists]
    assert lengths != sorted(lengths) and lengths != sorted(lengths, reverse=True)

    probabilities, known = predict_many(params, config, emb, lists_table(token_lists))
    assert list(known) == [n > 0 for n in lengths]
    for tokens, probs, live in zip(token_lists, probabilities, known):
        single = _predict_one(params, config, emb, tokens)
        if not live:
            assert single is None and not probs.any()
            continue
        assert _max_diff(probs, single[1]) <= TOLERANCE


@pytest.mark.parametrize("direction", [STANDARD, BIDIRECTIONAL])
def test_predict_many_skips_oov_tokens_inside_tweets(direction):
    data, emb = _run_world(seed=78)
    config = ModelConfig(embedding_dim=emb.dim, hidden_size=5, direction=direction)
    params = init_params(config, RngState(seed=79))
    tweets = tweets_of(data.train) + tweets_of(data.test)
    gen = RngState(seed=80).generator()
    token_lists = []
    for i in range(INFER_CHUNK + 20):
        tokens = list(tweets[i % len(tweets)].tokens)
        # unknown words at the start, in the middle or at the end; every list keeps its known ones
        for _ in range(int(gen.integers(1, 4))):
            tokens.insert(int(gen.integers(len(tokens) + 1)), f"unseen{int(gen.integers(3))}")
        token_lists.append(tokens)

    probabilities, known = predict_many(params, config, emb, lists_table(token_lists))
    assert known.all()
    for tokens, probs in zip(token_lists, probabilities):
        assert any(t not in emb.vocab for t in tokens)
        assert _max_diff(probs, _predict_one(params, config, emb, tokens)[1]) <= TOLERANCE
        seq = [emb.input_vectors[emb.vocab.index(t)] for t in tokens if t in emb.vocab]
        assert _max_diff(probs, oracle.forward(params, config, seq)[3]) <= TOLERANCE


@pytest.mark.parametrize("k", [None, 2, 11])
def test_gradient_blocks_change_only_summation_order(monkeypatch, k):
    config = ModelConfig(embedding_dim=3, hidden_size=4, dropout_rate=0.5, direction=BIDIRECTIONAL)
    params = init_params(config, RngState(seed=23))
    gen = RngState(seed=24).generator()
    sequences = [gen.normal(scale=0.8, size=(n, 3)) for n in (13, 4, 9)]
    targets = np.array([0, 2, 1])
    masks = np.stack([dropout_mask(config.readout_size, 0.5, RngState(seed=25 + b)) for b in range(3)])
    trace = forward_batch(params, config, *pack_sequences(sequences), masks)
    one_block = backward_batch(params, config, trace, targets, k)
    monkeypatch.setattr(model, "GRAD_ROWS", 7)  # blocks of 2 steps x 3 sequences
    blocks = backward_batch(params, config, trace, targets, k)
    expected = {name: np.zeros_like(arr) for name, arr in params.items()}
    for b, seq in enumerate(sequences):
        for name, g in oracle.gradients(params, config, seq, targets[b], masks[b], k)[1].items():
            expected[name] += g
    for name in expected:
        assert _max_diff(blocks[name], one_block[name]) <= TOLERANCE, name
        assert _max_diff(blocks[name], expected[name]) <= TOLERANCE, name


@pytest.mark.parametrize("direction", [STANDARD, BIDIRECTIONAL])
def test_single_sequence_api_matches_oracle(direction):
    config = ModelConfig(embedding_dim=3, hidden_size=4, dropout_rate=0.5, direction=direction)
    params = init_params(config, RngState(seed=20))
    gen = RngState(seed=21).generator()
    seq = list(gen.normal(scale=0.8, size=(9, 3)))
    trace = forward(params, config, seq, train=True, rng=RngState(seed=22))
    got = backward_truncated(params, config, trace, seq, 1, k=4)
    probs, expected = oracle.gradients(params, config, seq, 1, trace.dropout_masks[0], 4)
    assert _max_diff(trace.probabilities[0], probs) <= TOLERANCE
    for name in expected:
        assert _max_diff(got[name], expected[name]) <= TOLERANCE, name


# ---------------------------------------------------------------------------
# Whole training runs
# ---------------------------------------------------------------------------


def _run_world(seed=70):
    tweets, labels = synthdata.synthetic_labeled(10, seed=seed)
    vocab = synthdata.vocabulary_of(tweets)
    emb = synthdata.separable_embeddings(vocab, seed=seed)
    return split(tweets, np.arange(len(tweets)), labels, ratio=0.8, rng=RngState(seed=seed)), emb


@pytest.mark.parametrize(
    "direction, bptt_mode, k",
    [(BIDIRECTIONAL, BPTT_FULL, 50), (STANDARD, BPTT_TRUNCATED, 4)],
)
def test_train_matches_per_example_trainer(direction, bptt_mode, k):
    data, emb = _run_world()
    sequences = [np.array([emb.input_vectors[emb.vocab.index(t)] for t in ex.tokens]) for ex in tweets_of(data.train)]
    if bptt_mode == BPTT_TRUNCATED:
        assert k < max(len(s) for s in sequences)  # the window cuts
    model_cfg = ModelConfig(
        embedding_dim=emb.dim, hidden_size=6, dropout_rate=0.5,
        direction=direction, bptt_mode=bptt_mode, bptt_k=k,
    )
    train_cfg = TrainConfig(batch_size=7, learning_rate=0.1, epochs=3, seed=5)
    params, report = train(data, emb, model_cfg, train_cfg)

    targets = data.train_labels.tolist()
    expected, losses = oracle.train(sequences, targets, model_cfg, train_cfg)
    assert len(report.epoch_losses) == len(losses) == 3
    for got, want in zip(report.epoch_losses, losses):
        assert abs(got - want) <= 1e-9
    for name, arr in params.items():
        assert _max_diff(arr, expected[name]) <= 1e-9, name


def test_train_draws_one_mask_per_minibatch(monkeypatch):
    data, emb = _run_world()
    model_cfg = ModelConfig(embedding_dim=emb.dim, hidden_size=6, dropout_rate=0.5, direction=BIDIRECTIONAL)
    train_cfg = TrainConfig(batch_size=7, epochs=2, seed=5)
    seen = []

    def recording_forward(params, config, table, ids, starts, lengths, masks=None, **kwargs):
        seen.append(masks.copy())
        return forward_batch(params, config, table, ids, starts, lengths, masks, **kwargs)

    monkeypatch.setattr(training, "forward_batch", recording_forward)
    train(data, emb, model_cfg, train_cfg)
    n = len(data.train)
    assert n % 7  # the last batch of an epoch is short
    root = RngState(seed=5)
    expected = [
        dropout_mask((min(7, n - start), model_cfg.readout_size), 0.5, root.child(2, epoch, start))
        for epoch in range(2)
        for start in range(0, n, 7)
    ]
    assert len(seen) == len(expected)
    for got, want in zip(seen, expected):
        assert np.array_equal(got, want)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_raises_at_first_nonfinite_batch():
    data, emb = _run_world()
    model_cfg = ModelConfig(embedding_dim=emb.dim, hidden_size=6)
    # batch 1 runs on the finite initial parameters; its infinite step makes
    # every later loss NaN, so batch 2 of epoch 1 is the first bad one
    cfg = TrainConfig(batch_size=8, learning_rate=math.inf, epochs=3, seed=1)
    with pytest.raises(ValueError, match=r"diverged: epoch 1, batch 2 "):
        train(data, emb, model_cfg, cfg)
    # with one batch per epoch the first bad batch is epoch 2's only one
    single = TrainConfig(batch_size=len(data.train), learning_rate=math.inf, epochs=3, seed=1)
    with pytest.raises(ValueError, match=r"diverged: epoch 2, batch 1 "):
        train(data, emb, model_cfg, single)


def test_train_raises_at_first_nonfinite_gradient(monkeypatch):
    data, emb = _run_world()
    model_cfg = ModelConfig(embedding_dim=emb.dim, hidden_size=6)
    calls = []

    def backward_with_nan(*args, **kwargs):
        grads = backward_batch(*args, **kwargs)
        calls.append(1)
        if len(calls) == 3:
            grads["w_hh"][0, 0] = np.nan
        return grads

    monkeypatch.setattr(training, "backward_batch", backward_with_nan)
    # 24 training examples in batches of 4: the third backward is epoch 1's third batch
    cfg = TrainConfig(batch_size=4, epochs=2, seed=1)
    with pytest.raises(ValueError, match=r"training diverged: epoch 1, batch 3 has gradient norm nan"):
        train(data, emb, model_cfg, cfg)
    assert len(calls) == 3


# ---------------------------------------------------------------------------
# Chunked inference
# ---------------------------------------------------------------------------


def _inference_world(direction):
    data, emb = _run_world(seed=71)
    config = ModelConfig(embedding_dim=emb.dim, hidden_size=5, direction=direction)
    params = init_params(config, RngState(seed=72))
    tweets = tweets_of(data.train) + tweets_of(data.test)
    gen = RngState(seed=73).generator()
    corpus = []
    for i in range(2 * INFER_CHUNK + 9):
        base = tweets[i % len(tweets)]
        tokens = list(base.tokens)[: 1 + i % len(base.tokens)]
        if i % 7 == 3:
            tokens.insert(int(gen.integers(len(tokens) + 1)), "unseenword")
        if i in (INFER_CHUNK - 1, INFER_CHUNK, 2 * INFER_CHUNK + 4):
            tokens = ["ghostword", "zzzz"]  # nothing in vocabulary, on both sides of a chunk boundary
        corpus.append(Tweet(id=f"c{i}", timestamp=base.timestamp, tokens=tuple(tokens)))
    return params, config, emb, table(corpus)


def _predict_one(params, config, emb, tokens):
    """(argmax class index, probabilities) of one token list on its own, or
    None when none of its tokens is in the vocabulary."""
    probabilities, known = predict_many(params, config, emb, lists_table([tokens]))
    return (int(np.argmax(probabilities[0])), probabilities[0]) if known[0] else None


@pytest.mark.parametrize("direction", [STANDARD, BIDIRECTIONAL])
def test_classify_corpus_matches_per_tweet_predict(direction):
    params, config, emb, corpus = _inference_world(direction)
    labels, confidences, oov = classify_corpus(params, config, emb, corpus)
    assert sum(oov) == 3
    for label, confidence, flagged, tweet in zip(labels, confidences, oov, tweets_of(corpus), strict=True):
        single = _predict_one(params, config, emb, tweet.tokens)
        if single is None:
            assert flagged and FINE_CLASSES[label] == "neutral" and confidence == 0.0
            continue
        idx, probs = single
        assert not flagged
        assert FINE_CLASSES[label] == FINE_CLASSES[idx]
        assert abs(confidence - probs[idx]) <= TOLERANCE
        seq = [emb.input_vectors[emb.vocab.index(t)] for t in tweet.tokens if t in emb.vocab]
        assert abs(confidence - oracle.forward(params, config, seq)[3][idx]) <= TOLERANCE


@pytest.mark.parametrize("direction", [STANDARD, BIDIRECTIONAL])
def test_evaluate_matches_per_tweet_predict(direction):
    params, config, emb, corpus = _inference_world(direction)
    golds = [i % 3 for i in range(len(corpus))]
    cm, metrics = evaluate(params, config, emb, corpus, golds)
    counts = np.zeros((3, 3), dtype=np.int64)
    for tweet, gold in zip(tweets_of(corpus), golds):
        single = _predict_one(params, config, emb, tweet.tokens)
        pred = single[0] if single else next(c for c in range(3) if c != gold)
        counts[gold, pred] += 1
    assert np.array_equal(cm.as_array(), counts)
    assert metrics.oov_examples == 3


def test_evaluate_all_oov_chunk():
    params, config, emb, corpus = _inference_world(STANDARD)
    ghost = Tweet(id="ghost", timestamp=tweets_of(corpus)[0].timestamp, tokens=("zzzz",))
    cm, metrics = evaluate(params, config, emb, table([ghost] * (INFER_CHUNK + 1)), [1] * (INFER_CHUNK + 1))
    assert metrics.oov_examples == INFER_CHUNK + 1
    assert metrics.accuracy == 0.0


def test_inference_trace_cannot_be_backpropagated():
    config = ModelConfig(embedding_dim=2, hidden_size=3)
    params = init_params(config, RngState(seed=74))
    packed = pack_sequences([np.ones((2, 2)), np.ones((1, 2))])
    trace = forward_batch(params, config, *packed, keep_states=False)
    assert oracle.hidden(trace, 0) is None
    with pytest.raises(ValueError, match="keep_states"):
        backward_batch(params, config, trace, np.array([0, 1]))
