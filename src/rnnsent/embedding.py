"""Skip-gram word vectors with negative sampling, trained per tweet.

Context windows never cross tweet boundaries. Negative samples are drawn from
the unigram distribution raised to the 0.75 power. Input vectors start
uniform in [-0.5/dim, 0.5/dim], output vectors at zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import CleanTweet, Vocabulary, atomic_writer, read_header
from .numeric import FloatArray, RngState

EMBEDDING_MAGIC = "SGNS-EMB"
EMBEDDING_VERSION = "v1"
# Pairs per scatter of a tweet's update into the vector tables (see _PairBatch)
SCATTER_PAIRS = 128


class EmbeddingFileError(ValueError):
    """Bad magic/version, truncated data, or malformed lines in an embedding file."""


class UnknownWordError(ValueError):
    """Query word is not in the vocabulary."""


@dataclass(frozen=True)
class EmbeddingParams:
    dim: int = 100
    window: int = 5
    negative_samples: int = 5
    epochs: int = 5
    learning_rate: float = 0.025
    subsample_threshold: float = 1e-3  # 0 disables frequent-word subsampling

    def __post_init__(self) -> None:
        if self.dim < 1 or self.window < 1 or self.negative_samples < 1 or self.epochs < 1:
            raise ValueError("dim, window, negative_samples and epochs must all be >= 1")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.subsample_threshold < 0:
            raise ValueError("subsample_threshold must be >= 0")


class EmbeddingMatrix:
    """Input and output vector tables, one row per vocabulary index."""

    def __init__(self, input_vectors: FloatArray, output_vectors: FloatArray | None = None):
        input_vectors = np.asarray(input_vectors, dtype=np.float64)
        if input_vectors.ndim != 2:
            raise ValueError("input_vectors must be a 2-D array")
        if output_vectors is None:
            output_vectors = np.zeros_like(input_vectors)
        output_vectors = np.asarray(output_vectors, dtype=np.float64)
        if output_vectors.shape != input_vectors.shape:
            raise ValueError("input and output vector tables must share a shape")
        self.input_vectors = input_vectors
        self.output_vectors = output_vectors
        self.epoch_losses: list[float] = []

    @property
    def vocab_size(self) -> int:
        return self.input_vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.input_vectors.shape[1]


def _sampling_tables(counts: Sequence[int], subsample_threshold: float) -> tuple[FloatArray, FloatArray]:
    """(noise CDF, keep probability) per vocabulary index.

    Negatives follow the unigram distribution raised to the 0.75 power.
    Frequent-word subsampling keeps a word of relative frequency f with
    probability sqrt(t/f) when f exceeds the threshold t (t = 0: keep all).
    """
    counts = np.asarray(counts, dtype=np.float64)
    total_tokens = counts.sum()
    noise = counts**0.75
    noise_cdf = np.cumsum(noise / noise.sum())
    if subsample_threshold > 0 and total_tokens > 0:
        rel = counts / total_tokens
        with np.errstate(divide="ignore"):
            keep_prob = np.minimum(1.0, np.sqrt(subsample_threshold / rel))
    else:
        keep_prob = np.ones(len(counts))
    return noise_cdf, keep_prob


def _pair_positions(n: int, window: int) -> tuple[np.ndarray, np.ndarray]:
    """(center, context) positions of every pair in a tweet of n tokens:
    center position ascending, then context position ascending."""
    pos = np.arange(n)
    ctx = pos[:, None] + np.arange(-window, window + 1)
    valid = (ctx >= 0) & (ctx < n) & (ctx != pos[:, None])
    return np.broadcast_to(pos[:, None], ctx.shape)[valid], ctx[valid]


def _draw_negatives(gen: np.random.Generator, noise_cdf: FloatArray, pairs: int, negatives: int) -> np.ndarray:
    """A tweet's negatives in one draw, row p for pair p: the same stream as
    `negatives` draws per pair in pair order.

    The last word takes every draw above the second-to-last bound, so a CDF
    whose sum rounds below 1 cannot yield an index past the vocabulary.
    """
    return np.searchsorted(noise_cdf[:-1], gen.random(pairs * negatives)).reshape(pairs, negatives)


def _subtract_rows(table: FloatArray, rows: np.ndarray, weights: FloatArray | None, vecs: FloatArray) -> None:
    """table[rows[p, j]] -= weights[p, j] * vecs[p] for every (p, j), repeated
    rows summed: the rows' weights form a (unique rows x pairs) matrix W and
    the update is one product W @ vecs. No weights means 1 everywhere."""
    pairs = vecs.shape[0]
    uniq, inverse = np.unique(rows, return_inverse=True)
    cells = inverse.reshape(-1) * pairs + np.arange(pairs).repeat(rows.shape[1])
    w = np.bincount(cells, None if weights is None else weights.reshape(-1), minlength=len(uniq) * pairs)
    table[uniq] -= w.reshape(len(uniq), pairs) @ vecs


class _PairBatch:
    """One SGD step over all (center, context) pairs of a tweet.

    The (pairs, negatives + 1, dim) gather is the largest array of a step, so
    it and the other per-pair arrays live in buffers sized once, to the
    longest tweet's pair count, and are reused for every tweet.
    """

    def __init__(self, max_pairs: int, negatives: int, dim: int):
        self.rows = np.empty((max_pairs, negatives + 1), dtype=np.intp)
        self.out_rows = np.empty((max_pairs, negatives + 1, dim))
        self.centers = np.empty((max_pairs, dim))
        self.scores = np.empty((max_pairs, negatives + 1, 1))
        self.d_centers = np.empty((max_pairs, 1, dim))

    def update(
        self,
        in_vecs: FloatArray,
        out_vecs: FloatArray,
        centers: np.ndarray,
        contexts: np.ndarray,
        negs: np.ndarray,
        lr: float,
    ) -> float:
        """Apply the summed gradient of every pair, each taken at the vectors
        as they stand on entry; return the summed loss at those vectors.

        A negative equal to its pair's context is skipped, not resampled: it
        has coefficient 0 and no loss term.
        """
        p = len(centers)
        rows = self.rows[:p]
        rows[:, 0] = contexts
        rows[:, 1:] = negs
        # indices are vocabulary rows by construction; mode="clip" lets take
        # write straight into the buffer (mode="raise" buffers `out`)
        u = np.take(out_vecs, rows, axis=0, out=self.out_rows[:p], mode="clip")
        v = np.take(in_vecs, centers, axis=0, out=self.centers[:p], mode="clip")
        scores = np.matmul(u, v[:, :, None], out=self.scores[:p])[:, :, 0]
        keep = negs != contexts[:, None]

        # -log sigma(s_pos) - sum(log sigma(-s_neg)), computed stably
        loss = np.logaddexp(0.0, -scores[:, 0]).sum() + np.logaddexp(0.0, scores[:, 1:])[keep].sum()

        # lr * (sigma(s) - label), with sigma(s) = (1 + tanh(s / 2)) / 2
        coeff = np.tanh(0.5 * scores)
        coeff += 1.0
        coeff *= 0.5 * lr
        coeff[:, 0] -= lr
        coeff[:, 1:] *= keep
        d_v = np.matmul(coeff[:, None, :], u, out=self.d_centers[:p])[:, 0]
        # every step is already computed, so applying them in blocks of pairs
        # changes nothing but the size of W, which grows with the square of a
        # block's pair count
        for lo in range(0, p, SCATTER_PAIRS):
            hi = lo + SCATTER_PAIRS
            _subtract_rows(out_vecs, rows[lo:hi], coeff[lo:hi], v[lo:hi])
            _subtract_rows(in_vecs, centers[lo:hi, None], None, d_v[lo:hi])
        return float(loss)


def train_embeddings(
    corpus: Sequence[CleanTweet],
    vocab: Vocabulary,
    params: EmbeddingParams,
    rng: RngState,
) -> EmbeddingMatrix:
    """Train skip-gram/negative-sampling vectors over the clean corpus.

    Each tweet is one update over all of its (center, context) pairs, every
    pair's gradient taken at the vectors as they stand at the start of that
    tweet. Deterministic for a fixed (corpus, vocab, params, rng). The mean
    negative-sampling loss per pair of each epoch, taken at each tweet's
    starting vectors, is recorded on the returned matrix as ``epoch_losses``.
    """
    unknown = {t for tweet in corpus for t in tweet.tokens if t not in vocab}
    if unknown:
        raise ValueError(f"corpus tokens missing from vocabulary: {sorted(unknown)[:5]}")

    gen = rng.generator()
    in_vecs = (gen.random((len(vocab), params.dim)) - 0.5) / params.dim
    out_vecs = np.zeros_like(in_vecs)
    emb = EmbeddingMatrix(in_vecs, out_vecs)
    noise_cdf, keep_prob = _sampling_tables(vocab.counts, params.subsample_threshold)

    sentences = [np.array([vocab.index(t) for t in tweet.tokens], dtype=np.intp) for tweet in corpus]
    longest = max((len(s) for s in sentences), default=0)
    batch = _PairBatch(len(_pair_positions(longest, params.window)[0]), params.negative_samples, params.dim)
    pairs_by_length: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    start_lr = params.learning_rate
    min_lr = start_lr * 1e-4
    total_steps = max(1, params.epochs * len(sentences))
    step = 0

    for _epoch in range(params.epochs):
        loss_sum = 0.0
        pair_count = 0
        for idxs in sentences:
            lr = max(min_lr, start_lr * (1.0 - step / total_steps))
            step += 1
            if params.subsample_threshold > 0:
                u = gen.random(len(idxs))
                idxs = idxs[u < keep_prob[idxs]]
            if len(idxs) not in pairs_by_length:
                pairs_by_length[len(idxs)] = _pair_positions(len(idxs), params.window)
            center_pos, context_pos = pairs_by_length[len(idxs)]
            pairs = len(center_pos)
            if pairs == 0:
                continue
            negs = _draw_negatives(gen, noise_cdf, pairs, params.negative_samples)
            loss_sum += batch.update(in_vecs, out_vecs, idxs[center_pos], idxs[context_pos], negs, lr)
            pair_count += pairs
        emb.epoch_losses.append(loss_sum / pair_count if pair_count else 0.0)
    return emb


def cosine_similarity(a: FloatArray, b: FloatArray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine similarity of a zero vector is undefined")
    return float(np.clip(a @ b / (na * nb), -1.0, 1.0))


def nearest_neighbors(
    emb: EmbeddingMatrix,
    vocab: Vocabulary,
    word: str,
    k: int,
) -> list[tuple[str, float]]:
    """Top-k words by cosine similarity over input vectors, query excluded.

    Descending similarity; exact ties broken by vocabulary index.
    """
    if word not in vocab:
        raise UnknownWordError(f"word {word!r} is not in the vocabulary")
    if not 1 <= k < len(vocab):
        raise ValueError(f"k must be in [1, {len(vocab) - 1}], got {k}")
    if emb.vocab_size != len(vocab):
        raise ValueError(f"embedding has {emb.vocab_size} rows but vocabulary has {len(vocab)}")

    query_idx = vocab.index(word)
    q = emb.input_vectors[query_idx]
    qnorm = np.linalg.norm(q)
    if qnorm == 0.0:
        raise ValueError(f"word {word!r} has a zero vector")
    norms = np.linalg.norm(emb.input_vectors, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        sims = (emb.input_vectors @ q) / (norms * qnorm)
    sims[norms == 0.0] = -np.inf
    sims[query_idx] = -np.inf

    order = np.lexsort((np.arange(len(sims)), -sims))[:k]
    return [(vocab.token(int(i)), float(sims[i])) for i in order]


def save_embeddings(emb: EmbeddingMatrix, vocab: Vocabulary, path: str | Path) -> None:
    """Header "SGNS-EMB v1 <vocab> <dim>", then one "token v1 .. vd" line per
    token in vocabulary-index order; 9 significant digits per value. Written
    atomically (see corpus.atomic_writer)."""
    if emb.vocab_size != len(vocab):
        raise ValueError(f"embedding has {emb.vocab_size} rows but vocabulary has {len(vocab)}")
    with atomic_writer(path) as fh:
        fh.write(f"{EMBEDDING_MAGIC} {EMBEDDING_VERSION} {emb.vocab_size} {emb.dim}\n")
        for index, token in enumerate(vocab.tokens):
            values = " ".join(f"{x:.9g}" for x in emb.input_vectors[index])
            fh.write(f"{token} {values}\n")


def load_embeddings(path: str | Path) -> EmbeddingMatrix:
    emb, _tokens = load_embeddings_with_tokens(path)
    return emb


def load_embeddings_with_tokens(path: str | Path) -> tuple[EmbeddingMatrix, tuple[str, ...]]:
    """Read an embedding file back; also returns the stored token order.

    Only input vectors are stored, so the loaded matrix has zero output
    vectors (queries and classification use input vectors only).
    """
    path = Path(path)
    with path.open(encoding="utf-8") as fh:
        header = read_header(fh, path, EMBEDDING_MAGIC, EMBEDDING_VERSION, 4, EmbeddingFileError, "an embedding file")
        try:
            vocab_size, dim = int(header[2]), int(header[3])
        except ValueError as exc:
            raise EmbeddingFileError(f"{path}: malformed header counts") from exc

        tokens: list[str] = []
        vectors = np.empty((vocab_size, dim))
        for i in range(vocab_size):
            line = fh.readline()
            if not line:
                raise EmbeddingFileError(f"{path}: corrupt file: expected {vocab_size} rows, found {i}")
            parts = line.split()
            if len(parts) != dim + 1:
                raise EmbeddingFileError(f"{path}: corrupt file: row {i} has {len(parts) - 1} values, expected {dim}")
            tokens.append(parts[0])
            try:
                vectors[i] = [float(x) for x in parts[1:]]
            except ValueError as exc:
                raise EmbeddingFileError(f"{path}: corrupt file: row {i} has a non-numeric value") from exc
        for extra, line in enumerate(fh, start=vocab_size):
            if line.strip():
                raise EmbeddingFileError(f"{path}: corrupt file: row {extra} follows the {vocab_size} declared rows")
    non_finite = np.flatnonzero(~np.isfinite(vectors).all(axis=1))
    if len(non_finite):
        raise EmbeddingFileError(f"{path}: corrupt file: row {non_finite[0]} has a non-finite value")
    return EmbeddingMatrix(vectors), tuple(tokens)
