"""Reference implementations with explicit Python loops, kept as the oracles
the batched code is tested against.

RNN: the straightforward single-sequence implementation that the batched
kernel in rnnsent.model replaced: forward, full and k-truncated BPTT, and a
per-example SGD trainer. Parameters are the name -> array dicts of
rnnsent.model.param_shapes.

SGNS: the per-pair skip-gram trainer that rnnsent.embedding's per-tweet
update replaced, one SGD step per (center, context) pair.
"""

from __future__ import annotations

import numpy as np

from rnnsent.embedding import EmbeddingMatrix, _sampling_tables
from rnnsent.model import BPTT_FULL, STANDARD, init_params
from rnnsent.numeric import PROB_FLOOR, RngState, clip_gradients, dropout_mask, sgd_step


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
    init from root.child(0), shuffle from root.child(1, epoch), and example
    `pos` of the batch at `start` draws its dropout mask from
    root.child(2, epoch, start + pos). Returns (params dict, epoch mean losses)."""
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
            grad_sum = None
            for pos, i in enumerate(batch):
                mask = None
                if model_cfg.dropout_rate > 0.0:
                    rng = root.child(2, epoch, start + pos)
                    mask = dropout_mask(model_cfg.readout_size, model_cfg.dropout_rate, rng)
                probs, grads = gradients(arrays, model_cfg, sequences[i], targets[i], mask, k)
                loss_sum += -np.log(max(probs[targets[i]], PROB_FLOOR))
                grad_sum = grads if grad_sum is None else {name: grad_sum[name] + g for name, g in grads.items()}
            mean = {name: g / len(batch) for name, g in grad_sum.items()}
            arrays = sgd_step(arrays, clip_gradients(mean, train_cfg.clip_norm), train_cfg.learning_rate)
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
    emb = EmbeddingMatrix(in_vecs, out_vecs)
    noise_cdf, keep_prob = _sampling_tables(vocab.counts, params.subsample_threshold)
    sentences = [np.array([vocab.index(t) for t in tweet.tokens], dtype=np.intp) for tweet in corpus]
    start_lr = params.learning_rate
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
