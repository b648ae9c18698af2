"""Independent numpy reference for the classifier, written from the model
equations and the two file formats, not from the package's code.

    h_t = tanh(W_xh x_t + W_hh h_{t-1} + b_h),  h_0 = 0
    standard:      r = h_T
    bidirectional: r = [h_T of x_1..x_T ; h_T of x_T..x_1]
    p = softmax(W_hy r + b_y),  loss = -log p[target]

Sequences run as one left-aligned batch; a padded step leaves the state as it
was, so each row ends holding its own final state. Class index order is
positive, negative, neutral.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

CLASSES = ("positive", "negative", "neutral")


def read_model(path: Path) -> tuple[dict, dict[str, np.ndarray]]:
    """The model text format: header, seven `key value` lines, then
    `param <name> <dims>` blocks of row-major values."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    config = dict(line.split(maxsplit=1) for line in lines[1:8])
    params: dict[str, np.ndarray] = {}
    i = 8
    while i < len(lines):
        _, name, *dims = lines[i].split()
        shape = tuple(int(d) for d in dims)
        rows = shape[0] if len(shape) == 2 else 1
        params[name] = np.array([[float(x) for x in line.split()] for line in lines[i + 1 : i + 1 + rows]]).reshape(shape)
        i += 1 + rows
    return config, params


def read_embeddings(path: Path) -> tuple[list[str], np.ndarray]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    rows = [line.split() for line in lines[1:]]
    return [r[0] for r in rows], np.array([[float(x) for x in r[1:]] for r in rows])


def _cells(params: dict[str, np.ndarray]) -> list[tuple[str, bool]]:
    return [("fwd.", False), ("bwd.", True)] if "fwd.w_xh" in params else [("", False)]


def _pad(seqs: list[np.ndarray], reverse: bool) -> tuple[np.ndarray, np.ndarray]:
    steps = max(len(s) for s in seqs)
    x = np.zeros((len(seqs), steps, seqs[0].shape[1]))
    mask = np.zeros((len(seqs), steps), dtype=bool)
    for b, s in enumerate(seqs):
        x[b, : len(s)] = s[::-1] if reverse else s
        mask[b, : len(s)] = True
    return x, mask


def _run(params, prefix, x, mask, keep=True) -> list[np.ndarray]:
    """The states after each timestep, or only the last one unless `keep`."""
    h = np.zeros((x.shape[0], params[prefix + "b_h"].shape[0]))
    states = []
    for t in range(x.shape[1]):
        a = x[:, t] @ params[prefix + "w_xh"].T + h @ params[prefix + "w_hh"].T + params[prefix + "b_h"]
        h = np.where(mask[:, t, None], np.tanh(a), h)
        if keep:
            states.append(h)
    return states if keep else [h]


CHUNK = 128  # sequences per padded batch, so a check's memory stays small


def probabilities(params: dict[str, np.ndarray], seqs: list[np.ndarray]) -> np.ndarray:
    """Class probabilities, one row per (nonempty) embedded sequence."""
    if len(seqs) > CHUNK:
        return np.vstack([probabilities(params, seqs[j : j + CHUNK]) for j in range(0, len(seqs), CHUNK)])
    readout = np.hstack([_run(params, p, *_pad(seqs, rev), keep=False)[-1] for p, rev in _cells(params)])
    logits = readout @ params["w_hy"].T + params["b_y"]
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def loss(params: dict[str, np.ndarray], seq: np.ndarray, target: int) -> float:
    return float(-np.log(probabilities(params, [seq])[0, target]))


def gradients(params: dict[str, np.ndarray], seq: np.ndarray, target: int, k: int | None = None) -> dict:
    """Cross-entropy gradients of one sequence; with k, only the last k
    timesteps of each direction receive parameter gradient (truncated BPTT)."""
    grads: dict[str, np.ndarray] = {}
    finals, runs = [], []
    for prefix, rev in _cells(params):
        x, mask = _pad([seq], rev)
        states = _run(params, prefix, x, mask)
        finals.append(states[-1][0])
        runs.append((prefix, x[0], [s[0] for s in states]))
    r = np.concatenate(finals)
    logits = params["w_hy"] @ r + params["b_y"]
    p = np.exp(logits - logits.max())
    dlogits = p / p.sum()
    dlogits[target] -= 1.0
    grads["w_hy"], grads["b_y"] = np.outer(dlogits, r), dlogits
    dr = params["w_hy"].T @ dlogits
    hidden = params[runs[0][0] + "b_h"].shape[0]
    for c, (prefix, x, hs) in enumerate(runs):
        steps = len(hs)
        first = 0 if k is None else max(0, steps - k)
        das, prev, dh = [], [], dr[c * hidden : (c + 1) * hidden]
        for t in range(steps - 1, first - 1, -1):
            da = dh * (1.0 - hs[t] ** 2)
            das.append(da)
            prev.append(hs[t - 1] if t > 0 else np.zeros(hidden))
            dh = params[prefix + "w_hh"].T @ da
        da_m = np.array(das)
        grads[prefix + "w_xh"] = da_m.T @ x[first:steps][::-1]
        grads[prefix + "w_hh"] = da_m.T @ np.array(prev)
        grads[prefix + "b_h"] = da_m.sum(axis=0)
    return grads
