"""Reference implementations with explicit Python loops, kept as the oracles
the batched code is tested against.

RNN: the straightforward single-sequence implementation that the batched
kernel in rnnsent.model replaced: forward, full and k-truncated BPTT, and a
per-example SGD trainer. Parameters are the name -> array dicts of
rnnsent.model.param_shapes. `hidden` reads one cell's states out of the
kernel's packed trace, in the layout the oracle's forward returns them.

SGNS: the per-pair skip-gram trainer that rnnsent.embedding's per-tweet
update replaced, one SGD step per (center, context) pair; and the per-tweet
trainer that its plans replaced, which draws, pairs, negative-samples and
scatters one tweet at a time with the same stream and arithmetic.

Cleaning: the per-tweet pipeline that rnnsent.corpus's block pass replaced,
each strip rule and the whitespace collapse run on one tweet at a time; and
the regex special_chars rule that its translate table replaced.

Token ids: the per-occurrence lookup that rnnsent.corpus's word column
replaced, one vocabulary lookup for each token of the corpus.

Time buckets: the per-tweet tally that rnnsent.analysis's counting pass
replaced, each tweet's UTC date taken with astimezone, a naive timestamp
read as UTC, and each period stepped to the next one by one.
"""

from __future__ import annotations

import re
from collections import Counter
from datetime import date, timedelta, timezone
from itertools import repeat

import numpy as np

from rnnsent.analysis import SentimentDistribution, TemporalBucket, TemporalBuckets
from rnnsent.corpus import CorpusStats, Vocabulary
from rnnsent import embedding
from rnnsent.embedding import LEARNING_RATE, EmbeddingMatrix, _sampling_tables
from rnnsent.evaluation import FINE_CLASSES
from rnnsent.model import BPTT_FULL, STANDARD, init_params
from rnnsent.numeric import PROB_FLOOR, RngState, clip_gradients, dropout_mask, sgd_step
from rnnsent.training import CLIP_NORM
from synthdata import EPOCH, Tweet, table, tokens_of, tweets_of


def run_cell(arrays, prefix, inputs):
    """Every hidden state of one cell over `inputs`, from h_0 = 0."""
    w_xh, w_hh, b_h = arrays[prefix + "w_xh"], arrays[prefix + "w_hh"], arrays[prefix + "b_h"]
    h = np.zeros(b_h.shape[0])
    hidden = []
    for x in inputs:
        h = np.tanh(w_xh @ x + w_hh @ h + b_h)
        hidden.append(h)
    return hidden


def forward(arrays, config, sequence, mask=None):
    """(forward states, backward states or None, readout, probabilities)."""
    if config.direction == STANDARD:
        hidden_fwd, hidden_bwd = run_cell(arrays, "", sequence), None
        readout = hidden_fwd[-1]
    else:
        hidden_fwd = run_cell(arrays, "fwd.", sequence)
        hidden_bwd = run_cell(arrays, "bwd.", sequence[::-1])
        readout = np.concatenate([hidden_fwd[-1], hidden_bwd[-1]])
    if mask is not None:
        readout = readout * mask
    logits = arrays["w_hy"] @ readout + arrays["b_y"]
    e = np.exp(logits - logits.max())
    return hidden_fwd, hidden_bwd, readout, e / e.sum()


def hidden(trace, cell):
    """(T, B, H) states of one cell of a model.BatchTrace in the caller's
    order, 0 before a sequence starts; the backward cell (1) in its own
    processing order. None for a trace run with keep_states=False or a cell
    the net does not have."""
    if trace.states is None or cell >= trace.states.shape[1]:
        return None
    steps, batch = trace.steps, len(trace.order)
    states = np.zeros((steps, batch, trace.states.shape[2]))
    column, row = np.nonzero(np.arange(batch) < trace.active[:steps, None])
    states[column, trace.order[row]] = trace.states[trace.offsets[column + 1] + row, cell]
    return states


def cell_backward(w_hh, hidden, inputs, d_last, k):
    """BPTT of an error on the last state through at most k steps (None: all)."""
    steps = len(inputs)
    limit = steps if k is None else min(k, steps)
    d_w_xh = np.zeros((w_hh.shape[0], len(inputs[0])))
    d_w_hh = np.zeros_like(w_hh)
    d_b_h = np.zeros(w_hh.shape[0])
    dh = d_last
    for step in range(limit):
        t = steps - 1 - step
        h_prev = hidden[t - 1] if t > 0 else np.zeros_like(d_b_h)
        da = dh * (1.0 - hidden[t] * hidden[t])
        d_w_xh += np.outer(da, inputs[t])
        d_w_hh += np.outer(da, h_prev)
        d_b_h += da
        dh = w_hh.T @ da
    return d_w_xh, d_w_hh, d_b_h


def gradients(arrays, config, sequence, target, mask=None, k=None):
    """(probabilities, cross-entropy gradients) of one example."""
    hidden_fwd, hidden_bwd, readout, probs = forward(arrays, config, sequence, mask)
    dlogits = probs.copy()
    dlogits[target] -= 1.0
    grads = {"w_hy": np.outer(dlogits, readout), "b_y": dlogits}
    dr = arrays["w_hy"].T @ dlogits
    if mask is not None:
        dr = dr * mask
    names = ("w_xh", "w_hh", "b_h")
    if config.direction == STANDARD:
        grads.update(zip(names, cell_backward(arrays["w_hh"], hidden_fwd, sequence, dr, k)))
    else:
        h = config.hidden_size
        fwd = cell_backward(arrays["fwd.w_hh"], hidden_fwd, sequence, dr[:h], k)
        bwd = cell_backward(arrays["bwd.w_hh"], hidden_bwd, sequence[::-1], dr[h:], k)
        grads.update(zip(("fwd." + n for n in names), fwd))
        grads.update(zip(("bwd." + n for n in names), bwd))
    return probs, grads


def train(sequences, targets, model_cfg, train_cfg):
    """Per-example minibatch SGD with the stream layout of rnnsent.training.train:
    init from root.child(0), shuffle from root.child(1, epoch), and the batch
    at `start` draws one (B, R) dropout mask from root.child(2, epoch, start),
    whose row `pos` masks example `pos`. Returns (params dict, epoch mean losses)."""
    root = RngState(seed=train_cfg.seed)
    arrays = init_params(model_cfg, root.child(0))
    k = None if model_cfg.bptt_mode == BPTT_FULL else model_cfg.bptt_k
    n = len(sequences)
    epoch_losses = []
    for epoch in range(train_cfg.epochs):
        order = root.child(1, epoch).generator().permutation(n)
        loss_sum = 0.0
        for start in range(0, n, train_cfg.batch_size):
            batch = order[start : start + train_cfg.batch_size]
            masks = [None] * len(batch)
            if model_cfg.dropout_rate > 0.0:
                rng = root.child(2, epoch, start)
                masks = dropout_mask((len(batch), model_cfg.readout_size), model_cfg.dropout_rate, rng)
            grad_sum = None
            for i, mask in zip(batch, masks):
                probs, grads = gradients(arrays, model_cfg, sequences[i], targets[i], mask, k)
                loss_sum += -np.log(max(probs[targets[i]], PROB_FLOOR))
                grad_sum = grads if grad_sum is None else {name: grad_sum[name] + g for name, g in grads.items()}
            mean = {name: g / len(batch) for name, g in grad_sum.items()}
            arrays = sgd_step(arrays, clip_gradients(mean, CLIP_NORM), train_cfg.learning_rate)
        epoch_losses.append(loss_sum / n)
    return arrays, epoch_losses


def sgns_pairs(n, window):
    """(center, context) positions of a tweet of n tokens, in training order."""
    return [
        (center, ctx)
        for center in range(n)
        for ctx in range(max(0, center - window), min(n, center + window + 1))
        if ctx != center
    ]


def sgns_negatives(gen, noise_cdf, negatives):
    """One pair's negative samples."""
    return np.searchsorted(noise_cdf, gen.random(negatives))


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def sgns_pair_gradient(in_vecs, out_vecs, center, context, neg, lr):
    """(loss, output rows, their steps, the center's step) of one pair at the
    given vectors; a negative equal to the context is skipped, not resampled."""
    v = in_vecs[center]
    neg = neg[neg != context]
    rows = np.concatenate(([context], neg))
    labels = np.zeros(len(rows))
    labels[0] = 1.0
    u = out_vecs[rows]
    scores = u @ v
    coeff = (_sigmoid(scores) - labels) * lr
    # -log sigma(s_pos) - sum(log sigma(-s_neg)), computed stably
    loss = float(np.logaddexp(0.0, -scores[0]) + np.logaddexp(0.0, scores[1:]).sum())
    return loss, rows, np.outer(coeff, v), coeff @ u


def sgns_train(corpus, vocab, params, rng):
    """Per-pair SGD with the stream of rnnsent.embedding.train_embeddings:
    init, then per tweet the subsampling draw and, per pair in order, its
    negatives. Returns the EmbeddingMatrix with its epoch losses."""
    gen = rng.generator()
    in_vecs = (gen.random((len(vocab), params.dim)) - 0.5) / params.dim
    out_vecs = np.zeros_like(in_vecs)
    emb = EmbeddingMatrix(vocab, in_vecs, out_vecs)
    noise_cdf, keep_prob = _sampling_tables(vocab.counts, params.subsample_threshold)
    sentences = [np.array([vocab.index(t) for t in tweet.tokens], dtype=np.intp) for tweet in tweets_of(corpus)]
    start_lr = LEARNING_RATE
    total_steps = max(1, params.epochs * len(sentences))
    step = 0
    for _epoch in range(params.epochs):
        loss_sum = 0.0
        pair_count = 0
        for idxs in sentences:
            lr = max(start_lr * 1e-4, start_lr * (1.0 - step / total_steps))
            step += 1
            if params.subsample_threshold > 0:
                idxs = idxs[gen.random(len(idxs)) < keep_prob[idxs]]
            for center_pos, ctx_pos in sgns_pairs(len(idxs), params.window):
                neg = sgns_negatives(gen, noise_cdf, params.negative_samples)
                loss, rows, d_out, d_in = sgns_pair_gradient(
                    in_vecs, out_vecs, idxs[center_pos], idxs[ctx_pos], neg, lr
                )
                np.subtract.at(out_vecs, rows, d_out)
                in_vecs[idxs[center_pos]] -= d_in
                loss_sum += loss
                pair_count += 1
        emb.epoch_losses.append(loss_sum / pair_count if pair_count else 0.0)
    return emb


def sgns_subtract_rows(table, rows, weights, vecs):
    """table[rows[p, j]] -= weights[p, j] * vecs[p] for every (p, j), repeated
    rows summed: the rows' weights form a (unique rows x pairs) matrix W and
    the update is one product W @ vecs. No weights means 1 everywhere."""
    pairs = vecs.shape[0]
    uniq, inverse = np.unique(rows, return_inverse=True)
    cells = inverse.reshape(-1) * pairs + np.arange(pairs).repeat(rows.shape[1])
    w = np.bincount(cells, None if weights is None else weights.reshape(-1), minlength=len(uniq) * pairs)
    table[uniq] -= w.reshape(len(uniq), pairs) @ vecs


class SgnsPairBatch:
    """One SGD step over all (center, context) pairs of a tweet, in buffers
    sized to the longest tweet's pair count."""

    def __init__(self, max_pairs, negatives, dim):
        self.rows = np.empty((max_pairs, negatives + 1), dtype=np.intp)
        self.out_rows = np.empty((max_pairs, negatives + 1, dim))
        self.centers = np.empty((max_pairs, dim))
        self.scores = np.empty((max_pairs, negatives + 1, 1))
        self.d_centers = np.empty((max_pairs, 1, dim))

    def update(self, in_vecs, out_vecs, centers, contexts, negs, lr):
        """Apply the summed gradient of every pair at the vectors as they
        stand on entry, scattered SCATTER_PAIRS pairs at a time; return the
        (pairs, negatives + 1) scores at those vectors and the
        (pairs, negatives) mask of negatives that are not their context."""
        p = len(centers)
        rows = self.rows[:p]
        rows[:, 0] = contexts
        rows[:, 1:] = negs
        u = np.take(out_vecs, rows, axis=0, out=self.out_rows[:p], mode="clip")
        v = np.take(in_vecs, centers, axis=0, out=self.centers[:p], mode="clip")
        scores = np.matmul(u, v[:, :, None], out=self.scores[:p])[:, :, 0]
        keep = negs != contexts[:, None]
        coeff = np.tanh(0.5 * scores)
        coeff += 1.0
        coeff *= 0.5 * lr
        coeff[:, 0] -= lr
        coeff[:, 1:] *= keep
        d_v = np.matmul(coeff[:, None, :], u, out=self.d_centers[:p])[:, 0]
        block = embedding.SCATTER_PAIRS
        for lo in range(0, p, block):
            hi = lo + block
            sgns_subtract_rows(out_vecs, rows[lo:hi], coeff[lo:hi], v[lo:hi])
            sgns_subtract_rows(in_vecs, centers[lo:hi, None], None, d_v[lo:hi])
        return scores.copy(), keep


def sgns_loss(scores, keep):
    """-log sigma(s_pos) - sum(log sigma(-s_neg)) summed over the pairs of
    (pairs, negatives + 1) scores, without the negatives `keep` drops,
    computed stably."""
    return float(np.logaddexp(0.0, -scores[:, 0]).sum() + np.logaddexp(0.0, scores[:, 1:])[keep].sum())


def sgns_pair_positions(n, window):
    """(center, context) position arrays of sgns_pairs(n, window)."""
    pos = np.arange(n)
    ctx = pos[:, None] + np.arange(-window, window + 1)
    valid = (ctx >= 0) & (ctx < n) & (ctx != pos[:, None])
    return np.broadcast_to(pos[:, None], ctx.shape)[valid], ctx[valid]


def sgns_train_per_tweet(corpus, vocab, params, rng):
    """The per-tweet trainer that rnnsent.embedding's plans replaced: per
    tweet, its subsampling draw, its pairs, one draw of all its negatives and
    one SgnsPairBatch update. Same stream, same arithmetic. The loss is
    summed as rnnsent.embedding sums it, once per group of tweets that its
    planner puts in one plan: a group closes once it holds PLAN_PAIRS pairs,
    and at the end of an epoch."""
    gen = rng.generator()
    in_vecs = (gen.random((len(vocab), params.dim)) - 0.5) / params.dim
    out_vecs = np.zeros_like(in_vecs)
    emb = EmbeddingMatrix(vocab, in_vecs, out_vecs)
    noise_cdf, keep_prob = _sampling_tables(vocab.counts, params.subsample_threshold)
    sentences = [np.array([vocab.index(t) for t in tweet.tokens], dtype=np.intp) for tweet in tweets_of(corpus)]
    longest = max((len(s) for s in sentences), default=0)
    batch = SgnsPairBatch(len(sgns_pair_positions(longest, params.window)[0]), params.negative_samples, params.dim)
    min_lr = LEARNING_RATE * 1e-4
    total_steps = max(1, params.epochs * len(sentences))
    step = 0
    for _epoch in range(params.epochs):
        loss_sum = 0.0
        pair_count = 0
        plan = []
        for idxs in sentences:
            lr = max(min_lr, LEARNING_RATE * (1.0 - step / total_steps))
            step += 1
            if params.subsample_threshold > 0:
                idxs = idxs[gen.random(len(idxs)) < keep_prob[idxs]]
            center_pos, context_pos = sgns_pair_positions(len(idxs), params.window)
            pairs = len(center_pos)
            if pairs == 0:
                continue
            draws = gen.random(pairs * params.negative_samples)
            negs = np.searchsorted(noise_cdf[:-1], draws).reshape(pairs, params.negative_samples)
            plan.append(batch.update(in_vecs, out_vecs, idxs[center_pos], idxs[context_pos], negs, lr))
            pair_count += pairs
            if sum(len(scores) for scores, _ in plan) >= embedding.PLAN_PAIRS:
                loss_sum += sgns_loss(*map(np.concatenate, zip(*plan)))
                plan = []
        if plan:
            loss_sum += sgns_loss(*map(np.concatenate, zip(*plan)))
        emb.epoch_losses.append(loss_sum / pair_count if pair_count else 0.0)
    return emb


_USERNAME_RE = re.compile(r"@\w+")
_URL_RE = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)
_RETWEET_RE = re.compile(r"\brt\b")  # applied after lowercasing
_APOSTROPHE_RE = re.compile(r"['’]")
_SPECIAL_RE = re.compile(r"[^\w\s]|_")
_WS_RE = re.compile(r"\s+")
_SPECIAL_RULE_RE = re.compile(r"[^\w\s]")


# in the order rnnsent.corpus applies them
STRIP_RULES = {
    "username": lambda text: _USERNAME_RE.sub(" ", text),
    "url": lambda text: _URL_RE.sub(" ", text),
    "retweet_marker": lambda text: _RETWEET_RE.sub(" ", text),
    "hashtag_symbol_only": lambda text: text.replace("#", ""),
    # allowlist: ASCII plus any Unicode letter, digit or whitespace
    "emoji": lambda text: "".join(ch for ch in text if ord(ch) < 128 or ch.isalnum() or ch.isspace()),
    "special_chars": lambda text: _SPECIAL_RE.sub(" ", _APOSTROPHE_RE.sub("", text)),
}


def normalize_text(text, rules=tuple(STRIP_RULES)):
    """Lowercase, apply the named strip rules in the order given, collapse whitespace."""
    text = text.lower()
    for name in rules:
        text = STRIP_RULES[name](text)
    return _WS_RE.sub(" ", text).strip()


def preprocess_corpus(raw, config, rules=tuple(STRIP_RULES)):
    """(clean Corpus, Vocabulary, CorpusStats) of the raw table `raw`, one
    tweet at a time, stripped by the named rules in the order given."""
    seen, deduped = set(), []
    for tweet_id, micros, text in zip(raw.ids, raw.micros.tolist(), raw.texts):
        key = _WS_RE.sub(" ", text.strip()).lower()
        if key not in seen:
            seen.add(key)
            deduped.append((tweet_id, EPOCH + timedelta(microseconds=micros), text))

    filtered, counts = [], Counter()
    for tweet_id, timestamp, text in deduped:
        tokens = [
            tok
            for tok in normalize_text(text, rules).split()
            if tok not in config.stopwords and len(tok) >= config.min_token_length
        ]
        filtered.append((tweet_id, timestamp, tokens))
        counts.update(tokens)

    surviving = {tok: n for tok, n in counts.items() if n >= config.min_global_frequency}
    vocab = Vocabulary.from_counts(surviving)
    clean = []
    for tweet_id, timestamp, tokens in filtered:
        kept = tuple(tok for tok in tokens if tok in surviving)
        if kept:
            clean.append(Tweet(id=tweet_id, timestamp=timestamp, tokens=kept))
    return table(clean), vocab, CorpusStats(len(raw), len(deduped), len(clean), len(vocab))


def token_ids(vocab, corpus):
    """(ids, starts, lengths) as rnnsent.corpus.token_ids gives them, each
    token of the corpus looked up in the vocabulary on its own."""
    tokens = tokens_of(corpus)
    ids = np.fromiter(map(vocab.token_to_index.get, tokens, repeat(-1)), dtype=np.int64, count=len(tokens))
    known = ids >= 0
    # the known tokens before each offset, so each tweet's count is a difference
    before = np.r_[0, known.cumsum()][corpus.offsets]
    return ids[known], before[:-1], np.diff(before)


def strip_special_chars(text):
    """The special_chars rule as rnnsent.corpus wrote it before its
    translate table: three str.replace passes and one regex pass."""
    text = text.replace("'", "").replace("’", "").replace("_", " ")
    return _SPECIAL_RULE_RE.sub(" ", text)


def _period_start(day, granularity):
    if granularity == "month":
        return day.replace(day=1)
    if granularity == "week":
        return day - timedelta(days=day.weekday())
    return day


def _next_period(start, granularity):
    if granularity == "month":
        return date(start.year + (start.month == 12), start.month % 12 + 1, 1)
    if granularity == "week":
        return start + timedelta(days=7)
    return start + timedelta(days=1)


def _utc(stamp):
    """`stamp` in UTC; a naive one is read as UTC, not as local time."""
    return stamp.replace(tzinfo=timezone.utc) if stamp.tzinfo is None else stamp.astimezone(timezone.utc)


def sentiment_distribution(labels):
    """SentimentDistribution of `labels` (indices into FINE_CLASSES), one tweet at a time."""
    counts = {c: 0 for c in FINE_CLASSES}
    for label in labels:
        counts[FINE_CLASSES[label]] += 1
    percentages = {c: round(100.0 * counts[c] / len(labels), 1) for c in FINE_CLASSES}
    return SentimentDistribution(counts=counts, percentages=percentages, total=len(labels))


def temporal_buckets(corpus, labels, granularity):
    """TemporalBuckets of `corpus`, each tweet counted under its class in
    `labels` (indices into FINE_CLASSES), by UTC month, Monday week or day,
    contiguous from the first period to the last, one tweet at a time."""
    pairs = Counter(
        (_utc(t.timestamp).date(), FINE_CLASSES[label]) for t, label in zip(tweets_of(corpus), labels, strict=True)
    )
    tallies = {}
    for (day, label), n in pairs.items():
        bucket = tallies.setdefault(_period_start(day, granularity), {c: 0 for c in FINE_CLASSES})
        bucket[label] += n
    buckets = []
    cursor, last = min(tallies), max(tallies)
    while True:
        label = f"{cursor.year:04d}-{cursor.month:02d}" if granularity == "month" else cursor.isoformat()
        buckets.append(TemporalBucket(label, cursor, tallies.get(cursor, {c: 0 for c in FINE_CLASSES})))
        if cursor == last:  # the period after the last may be past what date holds
            break
        cursor = _next_period(cursor, granularity)
    return TemporalBuckets(granularity=granularity, buckets=tuple(buckets))
