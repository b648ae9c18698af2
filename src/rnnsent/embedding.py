"""Skip-gram word vectors with negative sampling, trained per tweet.

Context windows never cross tweet boundaries. Negative samples are drawn from
the unigram distribution raised to the 0.75 power. Input vectors start
uniform in [-0.5/dim, 0.5/dim], output vectors at zero.
"""

from __future__ import annotations

import io
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .corpus import Corpus, Vocabulary, _check_tokens, atomic_writer, open_artifact, read_header, read_rows, token_ids
from .numeric import FloatArray, RngState

EMBEDDING_MAGIC = "SGNS-EMB"
EMBEDDING_VERSION = "v1"
# Pairs per scatter of a tweet's update into the vector tables (see _Block)
SCATTER_PAIRS = 128
# Pairs a plan holds before it takes no further tweet (see _Planner); it
# bounds the plan's arrays, the largest of which are the scatter cells and
# the (pairs, negatives + 1) rows
PLAN_PAIRS = 1024
# SGD learning rate at the first tweet; it decays linearly to 1e-4 of this
LEARNING_RATE = 0.025
# Rows that save_embeddings formats, writes and parses back at a time; it
# bounds the save's transient memory, about 0.7 MiB at dim 100
SAVE_ROWS = 64
# The first bytes of an embedding file's binary twin, and the header they
# open: magic, the text's sha256, the payload's sha256, rows, columns (see
# save_embeddings)
TWIN_MAGIC = b"SGNS-EMB f64 v1\n"
_TWIN_HEADER = struct.Struct("<16s32s32sQQ")


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
    subsample_threshold: float = 1e-3  # 0 disables frequent-word subsampling

    def __post_init__(self) -> None:
        if self.dim < 1 or self.window < 1 or self.negative_samples < 1 or self.epochs < 1:
            raise ValueError("dim, window, negative_samples and epochs must all be >= 1")
        if self.subsample_threshold < 0:
            raise ValueError("subsample_threshold must be >= 0")


class EmbeddingMatrix:
    """A vocabulary's input vector table: row i is the vector of the
    vocabulary's token i."""

    def __init__(self, vocab: Vocabulary, input_vectors: FloatArray):
        input_vectors = np.asarray(input_vectors, dtype=np.float64)
        if input_vectors.ndim != 2:
            raise ValueError("input_vectors must be a 2-D array")
        if len(vocab) != input_vectors.shape[0]:
            raise ValueError(f"embedding has {input_vectors.shape[0]} rows but vocabulary has {len(vocab)}")
        self.vocab = vocab
        self.input_vectors = input_vectors
        self.epoch_losses: list[float] = []

    @property
    def dim(self) -> int:
        return self.input_vectors.shape[1]


def _sampling_tables(counts: Sequence[int], subsample_threshold: float) -> tuple[FloatArray, FloatArray | None]:
    """(noise CDF, keep probability) per vocabulary index, from counts that
    are >= 0 and not all 0.

    Negatives follow the unigram distribution raised to the 0.75 power.
    Frequent-word subsampling keeps a word of relative frequency f with
    probability sqrt(t/f) when f exceeds the threshold t; t = 0 keeps every
    word, and the keep probability is None.
    """
    counts = np.asarray(counts, dtype=np.float64)
    noise = counts**0.75
    noise_cdf = np.cumsum(noise / noise.sum())
    if subsample_threshold == 0:
        return noise_cdf, None
    with np.errstate(divide="ignore"):
        return noise_cdf, np.minimum(1.0, np.sqrt(subsample_threshold / (counts / counts.sum())))


class _Block(NamedTuple):
    """Pairs [lo, hi) of a step, scattered together into `rows`: the block's
    sorted unique input rows (its centers), then its sorted unique output
    rows (its contexts and negatives). The first `ins` rows take
    `bincount(in_cells)` as an (ins, hi - lo) matrix times the pairs' center
    gradients, the others `bincount(out_cells, coefficients)` as a
    (len(rows) - ins, hi - lo) matrix times the pairs' center vectors."""

    lo: int
    hi: int
    rows: np.ndarray  # table rows: input rows, then output rows
    ins: int
    in_cells: np.ndarray  # one cell per pair
    out_cells: np.ndarray  # one cell per context and negative


class _Step(NamedTuple):
    """One tweet's SGD step over all of its (center, context) pairs, with
    everything that does not depend on the vectors drawn and indexed."""

    tweet: int  # index in the corpus, which sets the learning rate
    first: int  # its first pair's index in the plan
    gather: np.ndarray  # (pairs * (negatives + 2),) table rows: the centers, then each pair's context and negatives
    keep: np.ndarray  # (pairs, negatives): False where a negative is its context
    blocks: list[_Block]  # SCATTER_PAIRS pairs each, the last one shorter


class _Workspace(NamedTuple):
    """Buffers of the vector work, sized once to the longest tweet's pair
    count and reused by every step; the gather of a step's vectors is the
    largest array of a step."""

    gathered: FloatArray  # a step's center vectors, then its context and negative vectors
    scores: FloatArray  # every step of a plan writes its scores at its first pair (see _plan_loss)
    d_centers: FloatArray
    update: FloatArray  # a scatter block's update, a row for each of its rows
    current: FloatArray  # the block's rows as they stand, then less the update

    @classmethod
    def sized(cls, max_pairs: int, negatives: int, vocab_size: int, dim: int) -> "_Workspace":
        block = min(SCATTER_PAIRS, max_pairs)
        block_rows = min(block, vocab_size) + min(block * (negatives + 1), vocab_size)
        return cls(
            np.empty((max_pairs * (negatives + 2), dim)),
            # a plan takes tweets while it holds fewer than PLAN_PAIRS pairs
            np.empty((PLAN_PAIRS + max_pairs, negatives + 1, 1)),
            np.empty((max_pairs, 1, dim)),
            np.empty((block_rows, dim)),
            np.empty((block_rows, dim)),
        )


def _scatter_cells(
    rows: np.ndarray, block: np.ndarray, slot: np.ndarray, size: np.ndarray, vocab_size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """For (pairs, negatives + 2) table rows, each pair's input row and then
    its output rows, pair p sitting in `block[p]` at `slot[p]`, from one
    unique pass over (block, row) keys: every block's sorted unique rows,
    concatenated, input rows before output rows; where each block's rows
    start, plus the end; where each block's output rows start; and each
    entry's bincount cell, its row's place among its block's input or output
    rows times the block's size plus its pair's slot."""
    span = 2 * vocab_size
    uniq, cells = np.unique(rows + (block * span)[:, None], return_inverse=True)
    bases = np.arange(block[-1] + 2) * span
    starts = np.searchsorted(uniq, bases)
    splits = np.searchsorted(uniq, bases[:-1] + vocab_size)
    cells = cells.reshape(rows.shape)
    cells[:, 0] -= starts[block]
    cells[:, 1:] -= splits[block][:, None]
    cells *= size[block][:, None]
    cells += slot[:, None]
    return uniq % span, starts, splits, cells


class _Planner:
    """Cuts a corpus, held as one flat id array and per-tweet offsets, into
    plans: the steps of whole tweets, up to PLAN_PAIRS pairs a plan."""

    def __init__(
        self,
        ids: np.ndarray,
        offsets: list[int],
        noise_cdf: FloatArray,
        keep_prob: FloatArray | None,
        window: int,
        negatives: int,
        vocab_size: int,
    ):
        self.ids, self.offsets, self.keep_prob = ids, offsets, keep_prob
        self.negatives, self.vocab_size = negatives, vocab_size
        # context offsets from a center, ascending
        self.shifts = np.r_[-window:0, 1 : window + 1]
        longest = max(b - a for a, b in zip(offsets, offsets[1:])) if len(offsets) > 1 else 0
        # a tweet's n-th token adds min(n - 1, window) pairs as a center and
        # as many as a context
        self.pair_counts = [0, *np.cumsum(2 * np.minimum(np.arange(longest), window)).tolist()]
        # a draw's negative is the first word whose CDF bound is >= the draw;
        # the last word takes every draw above the second-to-last bound, so a
        # CDF whose sum rounds below 1 cannot yield an index past the vocabulary
        self.bounds = np.append(noise_cdf[:-1], np.inf)
        # the first such word for each multiple of 1 / slots, where a search
        # for a draw may start (see _negatives)
        self.slots = 4 * len(noise_cdf)
        self.slot_start = np.searchsorted(noise_cdf[:-1], np.arange(self.slots + 1) / self.slots)

    def _negatives(self, draws: FloatArray) -> np.ndarray:
        """np.searchsorted(noise_cdf[:-1], draws), at a fraction of its cost
        on unsorted draws: each search starts at the first word at or above
        the multiple of 1 / slots one below the draw's own, which no rounding
        of draw * slots can put past its answer, then steps on, one masked
        pass per step, while the bound is below the draw. With 4 slots per
        word, few slots hold more than one bound, so few passes run."""
        found = self.slot_start[np.maximum((draws * self.slots).astype(np.intp) - 1, 0)]
        late = np.flatnonzero(self.bounds[found] < draws)
        while len(late):
            found[late] += 1
            late = late[self.bounds[found[late]] < draws[late]]
        return found

    def plan(self, gen: np.random.Generator, start: int) -> tuple[list[_Step], np.ndarray, int]:
        """The steps of the tweets from `start` until they hold PLAN_PAIRS
        pairs or the corpus ends (tweets without pairs have none), the
        plan's (pairs, negatives) keep mask, whose rows are its steps' in
        order, and the index of the first tweet left for the next plan.

        Per tweet in order it draws what one tweet at a time would: with
        subsampling, one uniform per token, keeping a token whose uniform is
        below its keep probability; then pairs x negatives uniforms, pair
        by pair, none for a tweet without pairs. Pairs, negatives, the keep
        mask, the gather indices and the scatter cells are then built in
        passes over the plan.
        """
        offsets, negatives, vocab_size = self.offsets, self.negatives, self.vocab_size
        kept: list[np.ndarray] = []
        lengths: list[int] = []
        draws: list[np.ndarray] = []
        end, total = start, 0
        while end < len(offsets) - 1 and total < PLAN_PAIRS:
            lo, hi = offsets[end], offsets[end + 1]
            n = hi - lo
            if self.keep_prob is not None:
                kept.append(gen.random(n) < self.keep_prob[self.ids[lo:hi]])
                n = int(np.count_nonzero(kept[-1]))
            if self.pair_counts[n]:
                draws.append(gen.random(self.pair_counts[n] * negatives))
            lengths.append(n)
            total += self.pair_counts[n]
            end += 1
        if not total:
            return [], np.empty((0, negatives), dtype=bool), end

        tokens = self.ids[offsets[start] : offsets[end]]
        if kept:
            tokens = tokens[np.concatenate(kept)]
        sizes = np.array(lengths)
        # every (center, context) pair: center ascending, then context
        # ascending; the table holds input vectors in its first vocab_size
        # rows and output vectors in the rest
        place = np.arange(len(tokens)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        context = place[:, None] + self.shifts
        valid = (context >= 0) & (context < np.repeat(sizes, sizes)[:, None])
        flat = np.arange(len(tokens))[:, None]
        width = negatives + 2
        rows = np.empty((total, width), dtype=np.intp)  # the center, the context, the negatives
        rows[:, 0] = tokens[np.broadcast_to(flat, valid.shape)[valid]]
        rows[:, 1] = tokens[(flat + self.shifts)[valid]]
        rows[:, 2:] = self._negatives(np.concatenate(draws)).reshape(total, negatives)
        rows[:, 1:] += vocab_size
        keep = rows[:, 2:] != rows[:, 1:2]

        pairs = np.array([self.pair_counts[n] for n in lengths])
        first = np.cumsum(pairs) - pairs
        slot = np.arange(total) - np.repeat(first, pairs)
        # a step gathers its centers, then each pair's context and negatives
        base = np.repeat(first * width, pairs) + slot
        gather = np.empty(total * width, dtype=np.intp)
        gather[base] = rows[:, 0]
        gather[(base + np.repeat(pairs, pairs) + slot * (width - 2))[:, None] + np.arange(width - 1)] = rows[:, 1:]

        opens = slot % SCATTER_PAIRS == 0
        slot %= SCATTER_PAIRS
        block = np.cumsum(opens) - 1
        block_lo = np.flatnonzero(opens)
        size = np.diff(block_lo, append=total)
        scatter_rows, starts, splits, cells = _scatter_cells(rows, block, slot, size, vocab_size)
        in_cells, out_cells = cells[:, 0].copy(), cells[:, 1:].reshape(-1)
        starts, splits = starts.tolist(), splits.tolist()

        outs = width - 1
        steps = []
        j = 0
        for tweet, a, p in zip(range(start, end), first.tolist(), pairs.tolist()):
            if not p:
                continue
            blocks = []
            for lo in range(0, p, SCATTER_PAIRS):
                hi = min(lo + SCATTER_PAIRS, p)
                blocks.append(_Block(
                    lo, hi, scatter_rows[starts[j] : starts[j + 1]], splits[j] - starts[j],
                    in_cells[a + lo : a + hi], out_cells[(a + lo) * outs : (a + hi) * outs],
                ))
                j += 1
            steps.append(_Step(tweet, a, gather[a * width : (a + p) * width], keep[a : a + p], blocks))
        return steps, keep, end


def _apply_step(step: _Step, table: FloatArray, lr: float, work: _Workspace) -> None:
    """Apply the summed gradient of every pair of a step to the vector table,
    each taken at the vectors as they stand on entry, and leave the pairs'
    scores at those vectors in work.scores, from the step's first pair on.

    A negative equal to its pair's context is skipped, not resampled: it has
    coefficient 0 (and no loss term, see _plan_loss).
    """
    p = len(step.keep)
    # indices are table rows by construction; mode="clip" lets take write
    # straight into the buffer (mode="raise" buffers `out`)
    gathered = table.take(step.gather, axis=0, out=work.gathered[: len(step.gather)], mode="clip")
    # both C-contiguous: with strided operands the products below rounded
    # differently from the same products on separate arrays
    v = gathered[:p]
    u = gathered[p:].reshape(p, -1, table.shape[1])
    scores = np.matmul(u, v[:, :, None], out=work.scores[step.first : step.first + p])[:, :, 0]

    # lr * (sigma(s) - label), with sigma(s) = (1 + tanh(s / 2)) / 2
    coeff = np.tanh(0.5 * scores)
    coeff += 1.0
    coeff *= 0.5 * lr
    coeff[:, 0] -= lr
    coeff[:, 1:] *= step.keep
    d_v = np.matmul(coeff[:, None, :], u, out=work.d_centers[:p])[:, 0]
    # every pair's step is already computed, so scattering in blocks changes
    # nothing but the size of each block's matrices, which grow with the
    # square of its pair count; a block's input and output rows are
    # distinct table rows, so one subtraction and one store write both
    update = work.update
    for b in step.blocks:
        pairs, n = b.hi - b.lo, len(b.rows)
        w = np.bincount(b.in_cells, None, minlength=b.ins * pairs)
        np.matmul(w.reshape(b.ins, pairs), d_v[b.lo : b.hi], out=update[: b.ins])
        w = np.bincount(b.out_cells, coeff[b.lo : b.hi].reshape(-1), minlength=(n - b.ins) * pairs)
        np.matmul(w.reshape(n - b.ins, pairs), v[b.lo : b.hi], out=update[b.ins : n])
        # table[b.rows] -= update[:n], without its temporary
        current = table.take(b.rows, axis=0, out=work.current[:n], mode="clip")
        current -= update[:n]
        table[b.rows] = current


def _plan_loss(scores: FloatArray, keep: np.ndarray) -> float:
    """The summed loss of a plan's pairs from the (pairs, negatives + 1)
    scores its steps left, without the negatives that `keep` drops:
    -log sigma(s_pos) - sum(log sigma(-s_neg)), computed stably."""
    return float(np.logaddexp(0.0, -scores[:, 0]).sum() + np.logaddexp(0.0, scores[:, 1:])[keep].sum())


def train_embeddings(
    corpus: Corpus,
    vocab: Vocabulary,
    params: EmbeddingParams,
    rng: RngState,
) -> EmbeddingMatrix:
    """Train skip-gram/negative-sampling vectors over the clean corpus.

    Each tweet is one update over all of its (center, context) pairs, every
    pair's gradient taken at the vectors as they stand at the start of that
    tweet. Deterministic for a fixed (corpus, vocab, params, rng). The
    returned matrix carries `vocab`; the mean negative-sampling loss per pair
    of each epoch, taken at each tweet's starting vectors, is recorded on it
    as ``epoch_losses``.

    The tweets are planned PLAN_PAIRS pairs at a time (see _Planner), so the
    per-tweet loop does only the work that reads the vectors, and the loss is
    summed once per plan. Input and output vectors are the two halves of one
    table, so that a step reads its vectors with one gather and a scatter
    block writes them back with one gather, subtraction and store.
    """
    ids, _, _ = token_ids(vocab, corpus)
    # token_ids skips the tokens the vocabulary lacks
    if len(ids) < len(corpus.word_ids):
        unknown = {corpus.words[w] for w in np.unique(corpus.word_ids).tolist() if corpus.words[w] not in vocab}
        raise ValueError(f"corpus tokens missing from vocabulary: {sorted(unknown)[:5]}")
    if not len(vocab):
        raise ValueError("the vocabulary holds no words")
    if min(vocab.counts) < 0 or not any(vocab.counts):
        raise ValueError("vocabulary counts must be >= 0, and not all 0: negatives are drawn by count")

    gen = rng.generator()
    size = len(vocab)
    table = np.zeros((2 * size, params.dim))
    # in place, the values of (gen.random((size, dim)) - 0.5) / dim
    gen.random(out=table[:size])
    table[:size] -= 0.5
    table[:size] /= params.dim
    emb = EmbeddingMatrix(vocab, table[:size])
    noise_cdf, keep_prob = _sampling_tables(vocab.counts, params.subsample_threshold)

    planner = _Planner(
        ids,
        corpus.offsets.tolist(),  # every token is known, so the corpus's own offsets
        noise_cdf,
        keep_prob,
        params.window,
        params.negative_samples,
        size,
    )
    work = _Workspace.sized(planner.pair_counts[-1], params.negative_samples, size, params.dim)
    min_lr = LEARNING_RATE * 1e-4
    total_steps = max(1, params.epochs * len(corpus))

    for epoch in range(params.epochs):
        loss_sum = 0.0
        pair_count = 0
        start = 0
        while start < len(corpus):
            steps, keep, start = planner.plan(gen, start)
            for step in steps:
                lr = max(min_lr, LEARNING_RATE * (1.0 - (epoch * len(corpus) + step.tweet) / total_steps))
                _apply_step(step, table, lr, work)
            loss_sum += _plan_loss(work.scores[: len(keep), :, 0], keep)
            pair_count += len(keep)
            # drop this plan before the next one is built, so only one is held
            steps = step = keep = None
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


def nearest_neighbors(emb: EmbeddingMatrix, word: str, k: int) -> list[tuple[str, float]]:
    """Top-k words of the embedding's vocabulary by cosine similarity over
    input vectors, query excluded.

    Descending similarity; exact ties broken by vocabulary index. A word
    with a zero vector has no direction: its similarity reads -inf, and it
    ranks after every word that has one.
    """
    vocab = emb.vocab
    if word not in vocab:
        raise UnknownWordError(f"word {word!r} is not in the vocabulary")
    if len(vocab) == 1:
        raise ValueError(f"the vocabulary holds no word besides {word!r}")
    if not 1 <= k < len(vocab):
        raise ValueError(f"k must be in [1, {len(vocab) - 1}], got {k}")

    query_idx = vocab.index(word)
    q = emb.input_vectors[query_idx]
    qnorm = np.linalg.norm(q)
    if qnorm == 0.0:
        raise ValueError(f"word {word!r} has a zero vector")
    norms = np.linalg.norm(emb.input_vectors, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        sims = (emb.input_vectors @ q) / (norms * qnorm)
    sims[norms == 0.0] = -np.inf

    others = np.delete(np.arange(len(vocab)), query_idx)
    order = others[np.argsort(-sims[others], kind="stable")[:k]]
    return [(vocab.tokens[i], float(sims[i])) for i in order.tolist()]


def embedding_twin(path: str | Path) -> Path:
    """The binary twin that save_embeddings writes beside the embedding file `path`."""
    return Path(f"{path}.f64")


def save_embeddings(emb: EmbeddingMatrix, path: str | Path) -> None:
    """Header "SGNS-EMB v1 <vocab> <dim>", then one "token v1 .. vd" line per
    token in vocabulary-index order; 9 significant digits per value.

    Beside it goes its binary twin, embedding_twin(path): a header that
    _TWIN_HEADER packs from TWIN_MAGIC, the sha256 of the text's bytes, the
    sha256 of the payload, and the row and column counts; then the payload,
    the vectors as little-endian float64 row by row, then each token and a
    newline in UTF-8. The twin's vectors are what the text reader returns for
    the text: each block of SAVE_ROWS lines is parsed back with
    corpus.read_rows as it is written. The text stays the file of record;
    load_embeddings takes the twin only when both digests match.

    A token that is empty or holds whitespace, a non-finite value or a
    matrix with no columns would give a text its own reader refuses, so it
    raises ValueError naming `path`, and nothing is written. Both files are
    written atomically (see corpus.atomic_writer).
    """
    path, tokens = Path(path), emb.vocab.tokens
    _check_tokens(tokens, path)
    if emb.dim < 1:
        raise ValueError(f"{path}: cannot store an embedding with no columns")
    text_digest, payload_digest = _sha256(), _sha256()
    template = "%s" + " %.9g" * emb.dim + "\n"
    rows = iter(emb.input_vectors)
    with atomic_writer(path, binary=True) as fh, atomic_writer(embedding_twin(path), binary=True) as twin:
        # the twin's header is written last, once its digests are known
        twin.write(bytes(_TWIN_HEADER.size))
        text = f"{EMBEDDING_MAGIC} {EMBEDDING_VERSION} {len(tokens)} {emb.dim}\n".encode()
        fh.write(text)
        text_digest.update(text)
        for start in range(0, len(tokens), SAVE_ROWS):
            names = tokens[start : start + SAVE_ROWS]
            block = np.array([next(rows) for _ in names], dtype=np.float64)
            finite = np.isfinite(block).all(axis=1)
            if not finite.all():
                r = int(np.argmin(finite))
                raise ValueError(f"{path}: cannot store row {start + r} ({names[r]!r}): it has a non-finite value")
            lines = "".join([template % (token, *values) for token, values in zip(names, block.tolist())])
            text = lines.encode()
            fh.write(text)
            text_digest.update(text)
            block = read_rows(io.StringIO(lines), path, len(names), emb.dim, EmbeddingFileError, tokens=[])
            data = block.astype("<f8", copy=False)
            twin.write(data)
            payload_digest.update(data)
        data = "".join([token + "\n" for token in tokens]).encode()
        twin.write(data)
        payload_digest.update(data)
        twin.seek(0)
        twin.write(_TWIN_HEADER.pack(TWIN_MAGIC, text_digest.digest(), payload_digest.digest(), len(tokens), emb.dim))


def _sha256(data: bytes | np.ndarray = b""):
    """hashlib.sha256(data). hashlib is imported on first use, since it loads
    OpenSSL, which only the twin's writer and reader need."""
    import hashlib

    return hashlib.sha256(data)


def _file_sha256(path: Path) -> bytes:
    digest = _sha256()
    with path.open("rb") as fh:
        while chunk := fh.read(1 << 16):
            digest.update(chunk)
    return digest.digest()


def _load_twin(path: Path) -> EmbeddingMatrix | None:
    """The matrix in `path`'s twin (see save_embeddings), or None when there
    is no twin or it is not whole and of `path`'s exact bytes."""
    try:
        with embedding_twin(path).open("rb") as fh:
            magic, text_digest, payload_digest, rows, cols = _TWIN_HEADER.unpack(fh.read(_TWIN_HEADER.size))
            size = rows * cols * 8
            if magic != TWIN_MAGIC or cols < 1 or size > os.fstat(fh.fileno()).st_size - _TWIN_HEADER.size:
                return None
            vectors = np.empty((rows, cols), dtype="<f8")
            if fh.readinto(vectors) != size:
                return None
            tail = fh.read()
        digest = _sha256(vectors)
        digest.update(tail)
        *tokens, rest = tail.decode("utf-8").split("\n")
        if digest.digest() != payload_digest or rest or len(tokens) != rows or _file_sha256(path) != text_digest:
            return None
        return EmbeddingMatrix(Vocabulary(tokens), vectors)
    except (OSError, struct.error, ValueError):
        return None


def load_embeddings(path: str | Path) -> EmbeddingMatrix:
    """Read an embedding file back, with a vocabulary of the stored tokens in
    their stored order; it has no counts, which the file does not store.

    When the twin that save_embeddings wrote beside `path` records the sha256
    of `path`'s bytes and of its own payload, the tokens and vectors come from
    it and no decimal text is parsed. Any other twin is ignored: the result
    and every error are those of the text.
    """
    path = Path(path)
    emb = _load_twin(path)
    if emb is not None:
        return emb
    with open_artifact(path, EmbeddingFileError) as fh:
        header = read_header(fh, path, EMBEDDING_MAGIC, EMBEDDING_VERSION, 4, EmbeddingFileError, "an embedding file")
        try:
            vocab_size, dim = int(header[2]), int(header[3])
        except ValueError:
            vocab_size = dim = -1
        if vocab_size < 0 or dim < 1:
            raise EmbeddingFileError(f"{path}: malformed header counts")
        tokens: list[str] = []
        vectors = read_rows(fh, path, vocab_size, dim, EmbeddingFileError, tokens=tokens)
        for extra, line in enumerate(fh, start=vocab_size):
            if line.strip():
                raise EmbeddingFileError(f"{path}: corrupt file: row {extra} follows the {vocab_size} declared rows")
    if len(set(tokens)) < len(tokens):
        first: dict[str, int] = {}
        row, token = next((r, t) for r, t in enumerate(tokens) if first.setdefault(t, r) != r)
        raise EmbeddingFileError(f"{path}: corrupt file: row {row} repeats the token {token!r} of row {first[token]}")
    return EmbeddingMatrix(Vocabulary(tokens), vectors)
