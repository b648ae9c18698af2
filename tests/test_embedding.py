import os
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
import synthdata
from rnnsent import embedding
from rnnsent.cli import main
from rnnsent.corpus import Vocabulary
from synthdata import Tweet, table, tweets_of
from rnnsent.embedding import (
    EmbeddingFileError,
    EmbeddingMatrix,
    EmbeddingParams,
    UnknownWordError,
    _apply_step,
    _plan_loss,
    _Planner,
    _Workspace,
    cosine_similarity,
    embedding_twin,
    load_embeddings,
    nearest_neighbors,
    save_embeddings,
    train_embeddings,
)
from rnnsent.numeric import RngState

TS = datetime(2013, 11, 9, tzinfo=timezone.utc)


def _tweet(i, tokens):
    return Tweet(id=f"t{i}", timestamp=TS, tokens=tuple(tokens))


def _corpus_of(token_lists):
    tweets = [_tweet(i, toks) for i, toks in enumerate(token_lists)]
    counts = {}
    for toks in token_lists:
        for t in toks:
            counts[t] = counts.get(t, 0) + 1
    return table(tweets), Vocabulary.from_counts(counts)


SMALL_PARAMS = EmbeddingParams(dim=8, window=2, negative_samples=3, epochs=3, subsample_threshold=0.0)


def test_params_validation():
    with pytest.raises(ValueError):
        EmbeddingParams(dim=0)
    with pytest.raises(ValueError):
        EmbeddingParams(window=0)
    with pytest.raises(ValueError):
        EmbeddingParams(negative_samples=0)
    with pytest.raises(ValueError):
        EmbeddingParams(epochs=0)
    with pytest.raises(ValueError):
        EmbeddingParams(subsample_threshold=-1e-3)


def test_matrix_shape_checks():
    two, three = Vocabulary(["aa", "bb"]), Vocabulary(["aa", "bb", "cc"])
    cases = [
        (two, np.zeros(4), None, "2-D"),
        (two, np.zeros((2, 3)), np.zeros((2, 4)), "share a shape"),
        # a vocabulary past the rows, whose ids the kernel's gather would clamp
        (three, np.eye(2), None, "2 rows but vocabulary has 3"),
        # a vocabulary short of the rows, whose last rows no token would name
        (two, np.eye(3), None, "3 rows but vocabulary has 2"),
    ]
    for vocab, input_vectors, output_vectors, message in cases:
        with pytest.raises(ValueError, match=message):
            EmbeddingMatrix(vocab, input_vectors, output_vectors)


def test_train_rejects_unknown_token():
    tweets, vocab = _corpus_of([["aa", "bb"]])
    bad = table([*tweets_of(tweets), _tweet(9, ["mystery"])])
    with pytest.raises(ValueError, match="mystery"):
        train_embeddings(bad, vocab, SMALL_PARAMS, RngState(seed=0))


@pytest.mark.parametrize("counts", [[0, 0], [3, -1]])
def test_train_rejects_counts_with_no_noise_distribution(counts):
    tweets = table([_tweet(0, ["aa", "bb"])])
    with pytest.raises(ValueError, match="not all 0"):
        train_embeddings(tweets, Vocabulary(["aa", "bb"], counts), SMALL_PARAMS, RngState(seed=0))


def test_one_word_corpus_has_no_updates():
    tweets, vocab = _corpus_of([["solo"]])
    emb = train_embeddings(tweets, vocab, SMALL_PARAMS, RngState(seed=1))
    # no (center, context) pairs exist: output table untouched, zero loss
    assert np.array_equal(emb.output_vectors, np.zeros_like(emb.output_vectors))
    assert emb.epoch_losses == [0.0] * SMALL_PARAMS.epochs
    bound = 0.5 / SMALL_PARAMS.dim
    assert np.all(np.abs(emb.input_vectors) <= bound)


def test_cooccurrence_drives_similarity():
    # "aa" and "bb" always co-occur; "zz" never appears with "aa"
    lists = [["aa", "bb"]] * 40 + [["zz", "yy"]] * 40
    tweets, vocab = _corpus_of(lists)
    emb = train_embeddings(tweets, vocab, SMALL_PARAMS, RngState(seed=2))
    aa, bb, zz = (emb.input_vectors[vocab.index(w)] for w in ("aa", "bb", "zz"))
    assert cosine_similarity(aa, bb) > cosine_similarity(aa, zz)


def test_training_is_deterministic():
    lists = [["aa", "bb", "cc"], ["cc", "dd"], ["dd", "aa", "bb"]] * 10
    tweets, vocab = _corpus_of(lists)
    a = train_embeddings(tweets, vocab, SMALL_PARAMS, RngState(seed=3))
    b = train_embeddings(tweets, vocab, SMALL_PARAMS, RngState(seed=3))
    assert np.array_equal(a.input_vectors, b.input_vectors)
    assert np.array_equal(a.output_vectors, b.output_vectors)
    assert a.epoch_losses == b.epoch_losses
    c = train_embeddings(tweets, vocab, SMALL_PARAMS, RngState(seed=4))
    assert not np.array_equal(a.input_vectors, c.input_vectors)


def test_loss_non_increasing_within_tolerance():
    tweets, vocab = synthdata.two_cluster_corpus(words_per_cluster=6, sentences=120, seed=5)
    params = EmbeddingParams(dim=12, window=3, negative_samples=4, epochs=5, subsample_threshold=0.0)
    emb = train_embeddings(tweets, vocab, params, RngState(seed=5))
    assert len(emb.epoch_losses) == 5
    for prev, cur in zip(emb.epoch_losses, emb.epoch_losses[1:]):
        assert cur <= prev * 1.05


def test_subsampling_drops_update_volume():
    # with an aggressive threshold the dominant word is mostly skipped, so
    # training consumes different randomness and produces different vectors
    lists = [["top", "top", "top", "rare1"], ["top", "top", "rare2"]] * 20
    tweets, vocab = _corpus_of(lists)
    plain = train_embeddings(tweets, vocab, SMALL_PARAMS, RngState(seed=6))
    sub = train_embeddings(
        tweets, vocab,
        EmbeddingParams(dim=8, window=2, negative_samples=3, epochs=3, subsample_threshold=1e-3),
        RngState(seed=6),
    )
    assert not np.array_equal(plain.input_vectors, sub.input_vectors)
    assert np.all(np.isfinite(sub.input_vectors))


# ---------------------------------------------------------------------------
# Per-tweet update against the per-pair oracle
# ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(0, 12),
    window=st.integers(1, 5),
    negatives=st.integers(1, 5),
    vocab_size=st.integers(1, 4),  # a tweet of up to 12 tokens repeats some
    dim=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    block=st.sampled_from([1, 7, embedding.SCATTER_PAIRS]),  # pairs per scatter
)
@example(n=2, window=1, negatives=3, vocab_size=1, dim=2, seed=0, block=1)  # every negative is its context
def test_tweet_update_is_sum_of_pair_gradients(n, window, negatives, vocab_size, dim, seed, block):
    gen = np.random.default_rng(seed)
    idxs = gen.integers(0, vocab_size, n)
    in0 = gen.normal(size=(vocab_size, dim))
    out0 = gen.normal(size=(vocab_size, dim))
    noise = gen.random(vocab_size) + 0.1
    noise_cdf = np.cumsum(noise / noise.sum())
    lr = 0.05

    planner = _Planner(idxs, [0, n], noise_cdf, None, window, negatives, vocab_size)
    with mock.patch.object(embedding, "SCATTER_PAIRS", block):
        steps, keep, end = planner.plan(np.random.default_rng(seed), 0)
    assert end == 1
    pair_pos = oracle.sgns_pairs(n, window)
    pairs = len(pair_pos)
    assert len(steps) == (pairs > 0)
    centers = np.array([idxs[c] for c, _ in pair_pos], dtype=np.intp)
    contexts = np.array([idxs[o] for _, o in pair_pos], dtype=np.intp)
    pair_gen = np.random.default_rng(seed)
    negs = np.array(
        [oracle.sgns_negatives(pair_gen, noise_cdf, negatives) for _ in range(pairs)], dtype=np.intp
    ).reshape(pairs, negatives)
    assert np.array_equal(keep, negs != contexts[:, None])
    for step in steps:
        # the table's input rows are vocabulary rows, its output rows follow them
        outs = np.column_stack([contexts, negs]) + vocab_size
        assert np.array_equal(step.gather, np.concatenate([centers, outs.reshape(-1)]))
        assert step.first == 0
        assert np.array_equal(step.keep, keep)
        assert [(b.lo, b.hi) for b in step.blocks] == [(lo, min(lo + block, pairs)) for lo in range(0, pairs, block)]
        for b in step.blocks:
            assert b.rows[: b.ins].tolist() == sorted(set(centers[b.lo : b.hi].tolist()))
            assert b.rows[b.ins :].tolist() == sorted(set(outs[b.lo : b.hi].reshape(-1).tolist()))

    d_in, d_out, expected_loss = np.zeros_like(in0), np.zeros_like(out0), 0.0
    for c, o, neg in zip(centers, contexts, negs):
        loss, rows, d_rows, d_center = oracle.sgns_pair_gradient(in0, out0, c, o, neg, lr)
        np.add.at(d_out, rows, d_rows)
        d_in[c] += d_center
        expected_loss += loss

    table = np.concatenate([in0, out0])
    work = _Workspace.sized(pairs, negatives, vocab_size, dim)
    for step in steps:
        _apply_step(step, table, lr, work)
    loss = _plan_loss(work.scores[:pairs, :, 0], keep)
    np.testing.assert_allclose(table[:vocab_size], in0 - d_in, rtol=0, atol=1e-12)
    np.testing.assert_allclose(table[vocab_size:], out0 - d_out, rtol=0, atol=1e-12)
    assert loss == pytest.approx(expected_loss, rel=1e-12, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    counts=st.lists(st.integers(0, 50), min_size=1, max_size=40).filter(any),
    seed=st.integers(0, 2**32 - 1),
)
def test_negatives_equal_searchsorted_on_the_noise_cdf(counts, seed):
    noise_cdf, _ = embedding._sampling_tables(counts, 0.0)
    planner = _Planner(np.zeros(0, dtype=np.intp), [0], noise_cdf, None, 1, 1, len(counts))
    gen = np.random.default_rng(seed)
    # uniform draws, the bounds themselves and their neighbours, and the ends of [0, 1)
    draws = np.concatenate([
        gen.random(500), noise_cdf, np.nextafter(noise_cdf, 0.0), np.nextafter(noise_cdf, 1.0),
        [0.0, np.nextafter(1.0, 0.0)],
    ])
    draws = draws[draws < 1.0]
    assert np.array_equal(planner._negatives(draws), np.searchsorted(noise_cdf[:-1], draws))


@st.composite
def _vocab_corpora(draw):
    """(vocabulary size, tweets of its words "w0", "w1", ..., extra counts per word)."""
    vocab_size = draw(st.integers(1, 6))
    words = [f"w{i}" for i in range(vocab_size)]
    lists = draw(st.lists(st.lists(st.sampled_from(words), max_size=24), max_size=10), label="tweets")
    extra = draw(st.lists(st.integers(0, 3), min_size=vocab_size, max_size=vocab_size), label="extra counts")
    return vocab_size, lists, extra


@settings(max_examples=200, deadline=None)
@given(
    corpus=_vocab_corpora(),
    window=st.integers(1, 5),
    negatives=st.integers(1, 5),
    dim=st.sampled_from([1, 3, 16]),
    epochs=st.integers(1, 2),
    subsample=st.sampled_from([0.0, 0.05, 0.3]),
    block=st.sampled_from([1, 7, 128]),  # pairs per scatter
    budget=st.sampled_from([1, 9, 64, embedding.PLAN_PAIRS]),  # pairs per plan
    seed=st.integers(0, 2**32 - 1),
)
# one weight per vector: a step whose vectors were gathered as one (pairs, negatives + 2, dim)
# array had strided operands in its products, which rounded unlike the oracle's here
@example(corpus=(1, [["w0", "w0", "w0"]], [0]), window=1, negatives=1, dim=1, epochs=1, subsample=0.0,
         block=7, budget=1, seed=2)
def test_training_is_bit_identical_to_per_tweet_oracle(
    corpus, window, negatives, dim, epochs, subsample, block, budget, seed
):
    vocab_size, lists, extra = corpus
    words = [f"w{i}" for i in range(vocab_size)]
    counts = [sum(toks.count(w) for toks in lists) + e for w, e in zip(words, extra)]
    counts[0] += not any(counts)
    tweets = table(_tweet(i, toks) for i, toks in enumerate(lists))
    vocab = Vocabulary(words, counts)
    params = EmbeddingParams(dim=dim, window=window, negative_samples=negatives, epochs=epochs,
                             subsample_threshold=subsample)
    with mock.patch.object(embedding, "SCATTER_PAIRS", block), mock.patch.object(embedding, "PLAN_PAIRS", budget):
        got = train_embeddings(tweets, vocab, params, RngState(seed=seed))
        ref = oracle.sgns_train_per_tweet(tweets, vocab, params, RngState(seed=seed))
    assert np.array_equal(got.input_vectors, ref.input_vectors)
    assert np.array_equal(got.output_vectors, ref.output_vectors)
    assert got.epoch_losses == ref.epoch_losses


@pytest.mark.parametrize(
    "corpus_args, params, seed",
    [
        # criterion 08's corpus and settings
        ({}, EmbeddingParams(dim=10, window=3, negative_samples=4, epochs=6, subsample_threshold=0.0), 13),
        # test_loss_non_increasing_within_tolerance's
        (
            {"words_per_cluster": 6, "sentences": 120, "seed": 5},
            EmbeddingParams(dim=12, window=3, negative_samples=4, epochs=5, subsample_threshold=0.0),
            5,
        ),
    ],
)
def test_loss_curve_within_tolerance_of_per_pair_oracle(corpus_args, params, seed):
    tweets, vocab = synthdata.two_cluster_corpus(**corpus_args)
    batched = train_embeddings(tweets, vocab, params, RngState(seed=seed)).epoch_losses
    per_pair = oracle.sgns_train(tweets, vocab, params, RngState(seed=seed)).epoch_losses
    assert len(batched) == len(per_pair) == params.epochs
    for epoch, (got, ref) in enumerate(zip(batched, per_pair)):
        assert abs(got - ref) <= 0.05 * ref, f"epoch {epoch}: {got} vs per-pair {ref}"


# ---------------------------------------------------------------------------
# Cosine similarity
# ---------------------------------------------------------------------------


def test_cosine_similarity_values():
    v = np.array([0.3, -1.2, 0.5])
    assert cosine_similarity(v, v) == pytest.approx(1.0, abs=1e-12)
    assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(0.0, abs=1e-12)
    got = cosine_similarity(np.array([1.0, 2.0]), np.array([2.0, 3.0]))
    assert got == pytest.approx(8.0 / np.sqrt(5.0 * 13.0), abs=1e-12)
    assert cosine_similarity(v, -v) == pytest.approx(-1.0, abs=1e-12)


def test_cosine_similarity_errors():
    with pytest.raises(ValueError):
        cosine_similarity(np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        cosine_similarity(np.zeros(3), np.ones(3))


# ---------------------------------------------------------------------------
# Nearest neighbors
# ---------------------------------------------------------------------------


def _brute_force_neighbors(emb, word, k):
    query = emb.input_vectors[emb.vocab.index(word)]
    scored = []
    for i, token in enumerate(emb.vocab.tokens):
        if token == word:
            continue
        scored.append((token, cosine_similarity(query, emb.input_vectors[i]), i))
    scored.sort(key=lambda x: (-x[1], x[2]))
    return [(t, s) for t, s, _ in scored[:k]]


def test_nearest_neighbors_two_word_vocab():
    emb = EmbeddingMatrix(Vocabulary(["left", "right"]), np.array([[1.0, 0.0], [0.9, 0.1]]))
    assert nearest_neighbors(emb, "left", 1)[0][0] == "right"


def test_nearest_neighbors_matches_brute_force_random():
    gen = RngState(seed=7).generator()
    vocab = Vocabulary([f"w{i:03d}" for i in range(60)])
    emb = EmbeddingMatrix(vocab, gen.normal(size=(60, 10)))
    for word in ("w000", "w017", "w059"):
        for k in (1, 5, 59):
            got = nearest_neighbors(emb, word, k)
            expected = _brute_force_neighbors(emb, word, k)
            assert [t for t, _ in got] == [t for t, _ in expected]
            assert np.allclose([s for _, s in got], [s for _, s in expected], atol=1e-12)


def test_nearest_neighbors_tie_broken_by_index():
    vocab = Vocabulary(["query", "bbb", "aaa", "ccc"])
    vecs = np.array([
        [1.0, 0.0],
        [2.0, 0.0],   # same direction as query
        [2.0, 0.0],   # exact duplicate: tie with bbb, higher index loses
        [0.0, 1.0],
    ])
    got = nearest_neighbors(EmbeddingMatrix(vocab, vecs), "query", 3)
    assert [t for t, _ in got] == ["bbb", "aaa", "ccc"]
    assert got[0][1] == got[1][1] == pytest.approx(1.0, abs=1e-12)


def test_nearest_neighbors_planted_ties_rank_by_index():
    # integer vectors whose norms are whole, so every cosine is computed exactly
    # and the planted ties are exact in any summation order
    vocab = Vocabulary(["far", "b1", "query", "top2", "a1", "zero", "c1", "top"])
    vecs = np.array([
        [0.0, 1.0, 0.0],  # cosine 0
        [3.0, 4.0, 0.0],  # 3/5
        [1.0, 0.0, 0.0],
        [5.0, 0.0, 0.0],  # 1
        [6.0, 8.0, 0.0],  # 6/10
        [0.0, 0.0, 0.0],  # no direction: ranks below every other word
        [3.0, 0.0, 4.0],  # 3/5
        [2.0, 0.0, 0.0],  # 1
    ])
    got = nearest_neighbors(EmbeddingMatrix(vocab, vecs), "query", 6)
    assert [t for t, _ in got] == ["top2", "top", "b1", "a1", "c1", "far"]
    assert [s for _, s in got] == [1.0, 1.0, 0.6, 0.6, 0.6, 0.0]


def test_nearest_neighbors_planted_clusters():
    tweets, vocab = synthdata.two_cluster_corpus(words_per_cluster=5, sentences=200, seed=8)
    params = EmbeddingParams(dim=10, window=3, negative_samples=4, epochs=6, subsample_threshold=0.0)
    emb = train_embeddings(tweets, vocab, params, RngState(seed=8))
    for word in vocab.tokens:
        top, _ = nearest_neighbors(emb, word, 1)[0]
        assert top[:3] == word[:3], f"{word} -> {top}"


def test_nearest_neighbors_errors():
    emb = EmbeddingMatrix(Vocabulary(["aa", "bb", "cc"]), np.eye(3))
    with pytest.raises(UnknownWordError):
        nearest_neighbors(emb, "dd", 1)
    with pytest.raises(ValueError):
        nearest_neighbors(emb, "aa", 0)
    with pytest.raises(ValueError):
        nearest_neighbors(emb, "aa", 3)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _trained_small():
    lists = [["aa", "bb", "cc"], ["cc", "dd"], ["dd", "aa"]] * 5
    tweets, vocab = _corpus_of(lists)
    return train_embeddings(tweets, vocab, SMALL_PARAMS, RngState(seed=9))


def test_save_load_round_trip(tmp_path):
    emb = _trained_small()
    path = tmp_path / "emb.txt"
    save_embeddings(emb, path)
    loaded = load_embeddings(path)
    assert loaded.vocab.tokens == emb.vocab.tokens
    assert loaded.vocab_size == emb.vocab_size and loaded.dim == emb.dim
    # stored precision is 9 significant digits
    expected = np.array([[float(f"{x:.9g}") for x in row] for row in emb.input_vectors])
    assert np.array_equal(loaded.input_vectors, expected)
    # second save of the loaded matrix is byte-identical
    path2 = tmp_path / "emb2.txt"
    save_embeddings(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_save_rejects_row_count_mismatch(tmp_path):
    emb = _trained_small()
    # a vocabulary short of the rows is refused where it meets the matrix,
    # so no file with rows that no token names is written
    with pytest.raises(ValueError, match="rows but vocabulary has"):
        save_embeddings(
            EmbeddingMatrix(Vocabulary(emb.vocab.tokens[:-1]), emb.input_vectors, emb.output_vectors),
            tmp_path / "bad.txt",
        )
    assert not (tmp_path / "bad.txt").exists()


@pytest.mark.usefixtures("stale_twin")
def test_load_wrong_magic(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("NOT-EMB v1 2 2\naa 1 2\nbb 3 4\n")
    with pytest.raises(EmbeddingFileError, match="SGNS-EMB"):
        load_embeddings(path)


@pytest.mark.usefixtures("stale_twin")
def test_load_version_mismatch_names_both(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("SGNS-EMB v9 2 2\naa 1 2\nbb 3 4\n")
    with pytest.raises(EmbeddingFileError, match="v9.*v1"):
        load_embeddings(path)


@pytest.mark.usefixtures("stale_twin")
def test_load_truncated_file(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("SGNS-EMB v1 3 2\naa 1 2\nbb 3 4\n")
    with pytest.raises(EmbeddingFileError, match="corrupt"):
        load_embeddings(path)


@pytest.mark.usefixtures("stale_twin")
def test_load_wrong_value_count(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("SGNS-EMB v1 1 3\naa 1 2\n")
    with pytest.raises(EmbeddingFileError, match="corrupt"):
        load_embeddings(path)


@pytest.mark.usefixtures("stale_twin")
def test_load_non_numeric_value(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("SGNS-EMB v1 1 2\naa 1 oops\n")
    with pytest.raises(EmbeddingFileError, match="corrupt"):
        load_embeddings(path)


@pytest.mark.usefixtures("stale_twin")
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_load_non_finite_value(tmp_path, value):
    path = tmp_path / "emb.txt"
    path.write_text(f"SGNS-EMB v1 2 2\naa 1 2\nbb 3 {value}\n")
    with pytest.raises(EmbeddingFileError, match=f"{path}: corrupt file: row 1 has a non-finite value"):
        load_embeddings(path)
    # the CLI maps the error to a usage failure
    assert main(["neighbors", "--embeddings", str(path), "--vocab", str(path), "--word", "aa", "--k", "1"]) == 2


@pytest.mark.usefixtures("stale_twin")
def test_load_trailing_content(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("SGNS-EMB v1 2 2\naa 1 2\nbb 3 4\n\n  \ncc 5 6\n")
    with pytest.raises(EmbeddingFileError, match=f"{path}: corrupt file: row 4 follows the 2 declared rows"):
        load_embeddings(path)
    assert main(["neighbors", "--embeddings", str(path), "--vocab", str(path), "--word", "aa", "--k", "1"]) == 2
    # blank lines after the last row are not content
    path.write_text("SGNS-EMB v1 2 2\naa 1 2\nbb 3 4\n\n")
    assert load_embeddings(path).vocab.tokens == ("aa", "bb")


class _FailingRows:
    """Input vectors whose third row cannot be read, to fail a save midway."""

    def __init__(self, vectors):
        self.vectors = vectors
        self.shape = vectors.shape

    def __getitem__(self, index):
        if index == 2:
            raise RuntimeError("write interrupted")
        return self.vectors[index]


def test_failed_save_keeps_previous_file(tmp_path):
    emb = _trained_small()
    path = tmp_path / "emb.txt"
    save_embeddings(emb, path)
    before, twin_before = path.read_bytes(), embedding_twin(path).read_bytes()
    emb.input_vectors = _FailingRows(emb.input_vectors * 2.0)
    with pytest.raises(RuntimeError, match="write interrupted"):
        save_embeddings(emb, path)
    assert path.read_bytes() == before
    # no temp file is left, and the twin beside the previous text is its own or one the reader finds stale
    assert sorted(p.name for p in tmp_path.iterdir()) == ["emb.txt", "emb.txt.f64"]
    assert embedding_twin(path).read_bytes() == twin_before or embedding._load_twin(path) is None


@pytest.mark.parametrize("token", ["", "two words", "tab\there", "line\nend", "nbsp\u00a0"])
def test_save_refuses_a_token_its_reader_refuses(tmp_path, token):
    path = tmp_path / "emb.txt"
    with pytest.raises(ValueError) as info:
        save_embeddings(EmbeddingMatrix(Vocabulary(["aa", token]), np.ones((2, 2))), path)
    assert str(info.value) == f"{path}: cannot store the token {token!r}: it is empty or holds whitespace"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_save_refuses_a_non_finite_value(tmp_path, value):
    # the bad row is in the second block, after the first has been written and parsed back
    row = embedding.SAVE_ROWS + 3
    words = [f"w{i}" for i in range(row + 2)]
    matrix = np.ones((len(words), 2))
    matrix[row, 1] = value
    path = tmp_path / "emb.txt"
    with pytest.raises(ValueError) as info:
        save_embeddings(EmbeddingMatrix(Vocabulary(words), matrix), path)
    assert str(info.value) == f"{path}: cannot store row {row} ('w{row}'): it has a non-finite value"
    assert list(tmp_path.iterdir()) == []


def test_save_refuses_a_matrix_with_no_columns(tmp_path):
    path = tmp_path / "emb.txt"
    with pytest.raises(ValueError, match=f"{path}: cannot store an embedding with no columns"):
        save_embeddings(EmbeddingMatrix(Vocabulary(["aa"]), np.empty((1, 0))), path)
    assert list(tmp_path.iterdir()) == []


def test_same_seed_writes_the_same_twin(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    save_embeddings(_trained_small(), a)
    save_embeddings(_trained_small(), b)
    assert a.read_bytes() == b.read_bytes()
    assert embedding_twin(a).read_bytes() == embedding_twin(b).read_bytes()


def test_importing_the_cli_loads_no_openssl():
    # hashlib loads OpenSSL's libcrypto, which only the twin's writer and reader need
    code = (
        "import sys, numpy; before = set(sys.modules); import rnnsent.cli; "
        "print(sorted(m for m in set(sys.modules) - before if 'hashlib' in m))"
    )
    src = str(Path(embedding.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"
