"""Per-example reference RNN: explicit Python loops over timesteps.

This is the straightforward single-sequence implementation that the batched
kernel in rnnsent.model replaced, kept as the oracle the kernel is tested
against: forward, full and k-truncated BPTT, and a per-example SGD trainer.
Parameters are the name -> array dicts of rnnsent.model.as_param_dict.
"""

from __future__ import annotations

import numpy as np

from rnnsent.model import BPTT_FULL, STANDARD, as_param_dict, init_params
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
    arrays = as_param_dict(init_params(model_cfg, root.child(0)))
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
