"""The batched, length-masked kernel against the per-example oracle."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
import synthdata
from rnnsent import model, training
from rnnsent.analysis import classify_corpus
from rnnsent.corpus import CleanTweet
from rnnsent.evaluation import FINE_CLASSES, evaluate
from rnnsent.model import (
    BIDIRECTIONAL,
    BPTT_FULL,
    BPTT_TRUNCATED,
    INFER_CHUNK,
    STANDARD,
    AllTokensUnknownError,
    ModelConfig,
    Workspace,
    backward_batch,
    backward_truncated,
    forward,
    forward_batch,
    init_params,
    pad_batch,
    predict,
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

    inputs, lengths = pad_batch(sequences)
    trace = forward_batch(params, config, inputs, lengths, masks)
    grads = backward_batch(params, config, trace, targets, case["k"])

    steps = inputs.shape[0]
    expected = {name: np.zeros_like(arr) for name, arr in params.items()}
    for b, seq in enumerate(sequences):
        mask = None if masks is None else masks[b]
        probs, example_grads = oracle.gradients(params, config, seq, targets[b], mask, case["k"])
        assert _max_diff(trace.probabilities[b], probs) <= TOLERANCE
        for name, g in example_grads.items():
            expected[name] += g
        # the state is exactly 0 on padded steps
        pad = steps - len(seq)
        assert not trace.hidden_fwd[:pad, b].any()
        if trace.hidden_bwd is not None:
            assert not trace.hidden_bwd[:pad, b].any()
    assert grads.keys() == expected.keys()
    for name in expected:
        assert _max_diff(grads[name], expected[name]) <= TOLERANCE, name


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

    inputs, lengths = pad_batch(sequences)
    trace = forward_batch(params, config, inputs, lengths, masks)
    grads = backward_batch(params, config, trace, targets, case["k"])

    steps = inputs.shape[0]
    expected = {name: np.zeros_like(arr) for name, arr in params.items()}
    for b, seq in enumerate(sequences):
        hidden_fwd, hidden_bwd, readout, probs = oracle.forward(params, config, seq, masks[b])
        # everything the kernel returns is in the caller's order
        assert _max_diff(trace.probabilities[b], probs) <= TOLERANCE
        assert _max_diff(trace.readout[b], readout) <= TOLERANCE
        assert _max_diff(trace.hidden_fwd[steps - len(seq) :, b], hidden_fwd) <= TOLERANCE
        assert not trace.hidden_fwd[: steps - len(seq), b].any()
        if hidden_bwd is not None:
            assert _max_diff(trace.hidden_bwd[steps - len(seq) :, b], hidden_bwd) <= TOLERANCE
            assert not trace.hidden_bwd[: steps - len(seq), b].any()
        for name, g in oracle.gradients(params, config, seq, targets[b], masks[b], case["k"])[1].items():
            expected[name] += g
    for name in expected:
        assert _max_diff(grads[name], expected[name]) <= TOLERANCE, name


def _batch_arrays(trace, grads):
    arrays = {"probabilities": trace.probabilities, "readout": trace.readout,
              "hidden_fwd": trace.hidden_fwd, "hidden_bwd": trace.hidden_bwd}
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
        results = []
        for ws in (None, workspace):
            inputs, lengths = pad_batch(sequences, ws)
            trace = forward_batch(params, config, inputs, lengths, masks, keep_states=keep_states, workspace=ws)
            grads = backward_batch(params, config, trace, targets, 3) if keep_states else None
            results.append(_batch_arrays(trace, grads))
        fresh, reused = results
        assert fresh.keys() == reused.keys()
        for name in fresh:
            if fresh[name] is None:
                assert reused[name] is None, name
            else:
                assert np.array_equal(fresh[name], reused[name]), (number, name)


def test_predict_many_keeps_caller_order():
    data, emb, vocab = _run_world(seed=75)
    config = ModelConfig(embedding_dim=emb.dim, hidden_size=5, direction=BIDIRECTIONAL)
    params = init_params(config, RngState(seed=76))
    tweets = [ex.tweet for ex in data.train + data.test]
    gen = RngState(seed=77).generator()
    token_lists = []
    for i in range(INFER_CHUNK + 40):
        base = tweets[int(gen.integers(len(tweets)))].tokens
        # unsorted lengths, with all-OOV lists interleaved
        tokens = list(base) * int(gen.integers(1, 4)) if i % 5 else ["ghostword"] * int(gen.integers(1, 4))
        token_lists.append(tokens[: int(gen.integers(1, len(tokens) + 1))])
    lengths = [sum(t in vocab for t in tokens) for tokens in token_lists]
    assert lengths != sorted(lengths) and lengths != sorted(lengths, reverse=True)

    probabilities, known = predict_many(params, config, emb, vocab, token_lists)
    assert list(known) == [n > 0 for n in lengths]
    for tokens, probs, live in zip(token_lists, probabilities, known):
        single = _predict_one(params, config, emb, vocab, tokens)
        if not live:
            assert single is None and not probs.any()
            continue
        assert _max_diff(probs, single[1]) <= TOLERANCE


@pytest.mark.parametrize("k", [None, 2, 11])
def test_gradient_blocks_change_only_summation_order(monkeypatch, k):
    config = ModelConfig(embedding_dim=3, hidden_size=4, dropout_rate=0.5, direction=BIDIRECTIONAL)
    params = init_params(config, RngState(seed=23))
    gen = RngState(seed=24).generator()
    sequences = [gen.normal(scale=0.8, size=(n, 3)) for n in (13, 4, 9)]
    targets = np.array([0, 2, 1])
    masks = np.stack([dropout_mask(config.readout_size, 0.5, RngState(seed=25 + b)) for b in range(3)])
    inputs, lengths = pad_batch(sequences)
    trace = forward_batch(params, config, inputs, lengths, masks)
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
    probs, expected = oracle.gradients(params, config, seq, 1, trace.dropout_mask, 4)
    assert _max_diff(trace.probabilities, probs) <= TOLERANCE
    for name in expected:
        assert _max_diff(got[name], expected[name]) <= TOLERANCE, name


# ---------------------------------------------------------------------------
# Whole training runs
# ---------------------------------------------------------------------------


def _run_world(seed=70):
    labeled = synthdata.synthetic_labeled(10, seed=seed)
    _, vocab = synthdata.corpus_and_vocab(labeled)
    emb = synthdata.separable_embeddings(vocab, seed=seed)
    return split(labeled, ratio=0.8, rng=RngState(seed=seed)), emb, vocab


@pytest.mark.parametrize(
    "direction, bptt_mode, k",
    [(BIDIRECTIONAL, BPTT_FULL, 50), (STANDARD, BPTT_TRUNCATED, 4)],
)
def test_train_matches_per_example_trainer(direction, bptt_mode, k):
    data, emb, vocab = _run_world()
    sequences = [np.array([emb.input_vectors[vocab.index(t)] for t in ex.tokens]) for ex in data.train]
    if bptt_mode == BPTT_TRUNCATED:
        assert k < max(len(s) for s in sequences)  # the window cuts
    model_cfg = ModelConfig(
        embedding_dim=emb.dim, hidden_size=6, dropout_rate=0.5,
        direction=direction, bptt_mode=bptt_mode, bptt_k=k,
    )
    train_cfg = TrainConfig(batch_size=7, learning_rate=0.1, epochs=3, seed=5)
    params, report = train(data, emb, vocab, model_cfg, train_cfg)

    targets = [FINE_CLASSES.index(ex.label) for ex in data.train]
    expected, losses = oracle.train(sequences, targets, model_cfg, train_cfg)
    assert len(report.epoch_losses) == len(losses) == 3
    for got, want in zip(report.epoch_losses, losses):
        assert abs(got - want) <= 1e-9
    for name, arr in params.items():
        assert _max_diff(arr, expected[name]) <= 1e-9, name


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_raises_at_first_nonfinite_batch():
    data, emb, vocab = _run_world()
    model_cfg = ModelConfig(embedding_dim=emb.dim, hidden_size=6)
    # batch 1 runs on the finite initial parameters; its infinite step makes
    # every later loss NaN, so batch 2 of epoch 1 is the first bad one
    cfg = TrainConfig(batch_size=8, learning_rate=math.inf, epochs=3, seed=1)
    with pytest.raises(ValueError, match=r"diverged: epoch 1, batch 2 "):
        train(data, emb, vocab, model_cfg, cfg)
    # with one batch per epoch the first bad batch is epoch 2's only one
    single = TrainConfig(batch_size=len(data.train), learning_rate=math.inf, epochs=3, seed=1)
    with pytest.raises(ValueError, match=r"diverged: epoch 2, batch 1 "):
        train(data, emb, vocab, model_cfg, single)


def test_train_raises_at_first_nonfinite_gradient(monkeypatch):
    data, emb, vocab = _run_world()
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
        train(data, emb, vocab, model_cfg, cfg)
    assert len(calls) == 3


# ---------------------------------------------------------------------------
# Chunked inference
# ---------------------------------------------------------------------------


def _inference_world(direction):
    data, emb, vocab = _run_world(seed=71)
    config = ModelConfig(embedding_dim=emb.dim, hidden_size=5, direction=direction)
    params = init_params(config, RngState(seed=72))
    tweets = [ex.tweet for ex in data.train + data.test]
    gen = RngState(seed=73).generator()
    corpus = []
    for i in range(2 * INFER_CHUNK + 9):
        base = tweets[i % len(tweets)]
        tokens = list(base.tokens)[: 1 + i % len(base.tokens)]
        if i % 7 == 3:
            tokens.insert(int(gen.integers(len(tokens) + 1)), "unseenword")
        if i in (INFER_CHUNK - 1, INFER_CHUNK, 2 * INFER_CHUNK + 4):
            tokens = ["ghostword", "zzzz"]  # nothing in vocabulary, on both sides of a chunk boundary
        corpus.append(CleanTweet(id=f"c{i}", timestamp=base.timestamp, tokens=tuple(tokens)))
    return params, config, emb, vocab, corpus


def _predict_one(params, config, emb, vocab, tokens):
    try:
        return predict(params, config, emb, vocab, tokens)
    except AllTokensUnknownError:
        return None


@pytest.mark.parametrize("direction", [STANDARD, BIDIRECTIONAL])
def test_classify_corpus_matches_per_tweet_predict(direction):
    params, config, emb, vocab, corpus = _inference_world(direction)
    classified = classify_corpus(params, config, emb, vocab, corpus)
    assert sum(c.oov for c in classified) == 3
    for item, tweet in zip(classified, corpus):
        single = _predict_one(params, config, emb, vocab, tweet.tokens)
        if single is None:
            assert item.oov and item.label == "neutral" and item.confidence == 0.0
            continue
        idx, probs = single
        assert not item.oov
        assert item.label == FINE_CLASSES[idx]
        assert abs(item.confidence - probs[idx]) <= TOLERANCE
        seq = [emb.input_vectors[vocab.index(t)] for t in tweet.tokens if t in vocab]
        assert abs(item.confidence - oracle.forward(params, config, seq)[3][idx]) <= TOLERANCE


@pytest.mark.parametrize("direction", [STANDARD, BIDIRECTIONAL])
def test_evaluate_matches_per_tweet_predict(direction):
    params, config, emb, vocab, corpus = _inference_world(direction)
    golds = [FINE_CLASSES[i % 3] for i in range(len(corpus))]
    cm, metrics = evaluate(params, config, emb, vocab, [(t.tokens, g) for t, g in zip(corpus, golds)])
    counts = np.zeros((3, 3), dtype=np.int64)
    for tweet, gold in zip(corpus, golds):
        single = _predict_one(params, config, emb, vocab, tweet.tokens)
        pred = FINE_CLASSES[single[0]] if single else next(c for c in FINE_CLASSES if c != gold)
        counts[FINE_CLASSES.index(gold), FINE_CLASSES.index(pred)] += 1
    assert np.array_equal(cm.as_array(), counts)
    assert metrics.oov_examples == 3


def test_evaluate_all_oov_chunk():
    params, config, emb, vocab, _ = _inference_world(STANDARD)
    cm, metrics = evaluate(params, config, emb, vocab, [(("zzzz",), "negative")] * (INFER_CHUNK + 1))
    assert metrics.oov_examples == INFER_CHUNK + 1
    assert metrics.accuracy == 0.0


def test_inference_trace_cannot_be_backpropagated():
    config = ModelConfig(embedding_dim=2, hidden_size=3)
    params = init_params(config, RngState(seed=74))
    inputs, lengths = pad_batch([np.ones((2, 2)), np.ones((1, 2))])
    trace = forward_batch(params, config, inputs, lengths, keep_states=False)
    assert trace.hidden_fwd is None
    with pytest.raises(ValueError, match="keep_states"):
        backward_batch(params, config, trace, np.array([0, 1]))
