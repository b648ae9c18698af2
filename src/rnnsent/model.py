"""Standard (Elman) and bidirectional recurrent classifiers.

Forward pass, full backpropagation through time, and truncated BPTT are all
hand-derived; there is no autodiff anywhere.

Standard:       h_t = tanh(W_xh x_t + W_hh h_{t-1} + b_h),  h_0 = 0
                readout r = h_T
Bidirectional:  one pass over x_1..x_T, an independent pass over x_T..x_1,
                readout r = [h_T^fwd ; final backward state]

In train mode a single inverted-dropout mask is applied to r; the class
distribution is softmax(W_hy r + b_y).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import Vocabulary
from .embedding import EmbeddingMatrix
from .numeric import FloatArray, RngState, dropout_mask, softmax

STANDARD = "standard"
BIDIRECTIONAL = "bidirectional"
BPTT_FULL = "full"
BPTT_TRUNCATED = "truncated"

MODEL_MAGIC = "RNN-SENT"
MODEL_VERSION = "v1"


class ModelFileError(ValueError):
    """Bad magic/version, malformed lines, or shape inconsistencies in a model file."""


class AllTokensUnknownError(ValueError):
    """Every token of the input was out-of-vocabulary; nothing can be embedded."""


@dataclass(frozen=True)
class ModelConfig:
    embedding_dim: int
    hidden_size: int = 64
    num_classes: int = 3
    dropout_rate: float = 0.0
    direction: str = STANDARD
    bptt_mode: str = BPTT_TRUNCATED
    bptt_k: int = 50

    def __post_init__(self) -> None:
        if self.embedding_dim < 1 or self.hidden_size < 1:
            raise ValueError("embedding_dim and hidden_size must be >= 1")
        if self.num_classes not in (2, 3):
            raise ValueError(f"num_classes must be 2 or 3, got {self.num_classes}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.direction not in (STANDARD, BIDIRECTIONAL):
            raise ValueError(f"direction must be {STANDARD!r} or {BIDIRECTIONAL!r}")
        if self.bptt_mode not in (BPTT_FULL, BPTT_TRUNCATED):
            raise ValueError(f"bptt_mode must be {BPTT_FULL!r} or {BPTT_TRUNCATED!r}")
        if self.bptt_mode == BPTT_TRUNCATED and self.bptt_k < 1:
            raise ValueError(f"truncated BPTT needs k >= 1, got {self.bptt_k}")

    @property
    def readout_size(self) -> int:
        return self.hidden_size * (2 if self.direction == BIDIRECTIONAL else 1)


@dataclass
class RnnCellParams:
    w_xh: FloatArray  # hidden x embedding_dim
    w_hh: FloatArray  # hidden x hidden
    b_h: FloatArray   # hidden


@dataclass
class RnnParams:
    w_xh: FloatArray
    w_hh: FloatArray
    b_h: FloatArray
    w_hy: FloatArray  # classes x hidden
    b_y: FloatArray   # classes


@dataclass
class BiRnnParams:
    forward_cell: RnnCellParams
    backward_cell: RnnCellParams
    w_hy: FloatArray  # classes x (2*hidden)
    b_y: FloatArray


Params = RnnParams | BiRnnParams


def as_param_dict(params: Params) -> dict[str, FloatArray]:
    """Flatten params into an ordered name -> array dict (gradients share the keys)."""
    if isinstance(params, RnnParams):
        return {
            "w_xh": params.w_xh,
            "w_hh": params.w_hh,
            "b_h": params.b_h,
            "w_hy": params.w_hy,
            "b_y": params.b_y,
        }
    return {
        "fwd.w_xh": params.forward_cell.w_xh,
        "fwd.w_hh": params.forward_cell.w_hh,
        "fwd.b_h": params.forward_cell.b_h,
        "bwd.w_xh": params.backward_cell.w_xh,
        "bwd.w_hh": params.backward_cell.w_hh,
        "bwd.b_h": params.backward_cell.b_h,
        "w_hy": params.w_hy,
        "b_y": params.b_y,
    }


def params_from_dict(arrays: dict[str, FloatArray], direction: str) -> Params:
    if direction == STANDARD:
        return RnnParams(**{k: arrays[k] for k in ("w_xh", "w_hh", "b_h", "w_hy", "b_y")})
    return BiRnnParams(
        forward_cell=RnnCellParams(arrays["fwd.w_xh"], arrays["fwd.w_hh"], arrays["fwd.b_h"]),
        backward_cell=RnnCellParams(arrays["bwd.w_xh"], arrays["bwd.w_hh"], arrays["bwd.b_h"]),
        w_hy=arrays["w_hy"],
        b_y=arrays["b_y"],
    )


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    h, e, c = config.hidden_size, config.embedding_dim, config.num_classes
    cell = {"w_xh": (h, e), "w_hh": (h, h), "b_h": (h,)}
    if config.direction == STANDARD:
        return {**cell, "w_hy": (c, h), "b_y": (c,)}
    shapes = {f"fwd.{k}": s for k, s in cell.items()}
    shapes.update({f"bwd.{k}": s for k, s in cell.items()})
    shapes.update({"w_hy": (c, 2 * h), "b_y": (c,)})
    return shapes


def init_params(config: ModelConfig, rng: RngState) -> Params:
    """Glorot-uniform weights (bound sqrt(6/(fan_in+fan_out))), zero biases."""
    gen = rng.generator()

    def uniform(fan_in: int, fan_out: int, shape: tuple[int, ...]) -> FloatArray:
        s = np.sqrt(6.0 / (fan_in + fan_out))
        return gen.uniform(-s, s, shape)

    h, e, c = config.hidden_size, config.embedding_dim, config.num_classes

    def cell() -> RnnCellParams:
        return RnnCellParams(
            w_xh=uniform(e, h, (h, e)),
            w_hh=uniform(h, h, (h, h)),
            b_h=np.zeros(h),
        )

    if config.direction == STANDARD:
        base = cell()
        return RnnParams(
            w_xh=base.w_xh,
            w_hh=base.w_hh,
            b_h=base.b_h,
            w_hy=uniform(h, c, (c, h)),
            b_y=np.zeros(c),
        )
    return BiRnnParams(
        forward_cell=cell(),
        backward_cell=cell(),
        w_hy=uniform(2 * h, c, (c, 2 * h)),
        b_y=np.zeros(c),
    )


# ---------------------------------------------------------------------------
# Minibatch kernel
# ---------------------------------------------------------------------------

# Inference runs at most this many sequences through the kernel at once.
INFER_CHUNK = 64
# Each weight-gradient product covers at most this many (step, sequence)
# rows, which bounds the error buffer of backward_batch.
GRAD_ROWS = 256


@dataclass
class BatchTrace:
    """Activations of one minibatch, kept for backward_batch.

    Sequences are left-padded to a common length T, so every one ends at
    column T-1; `valid` is 1.0 on real steps and 0.0 on padding, where the
    state is held at exactly 0 (= h_0). The backward cell reads the reversed
    sequences, padded the same way: at step t it reads column
    `reverse[t]` of `inputs` (column T-1 holds each sequence's first token),
    and `hidden_bwd` is in that processing order. The hidden states are None
    in a trace run with keep_states=False.
    """

    inputs: FloatArray              # (T, B, E)
    valid: FloatArray               # (T, B, 1)
    reverse: np.ndarray | None      # (T, B) column indices, bidirectional only
    hidden_fwd: FloatArray | None   # (T, B, H)
    hidden_bwd: FloatArray | None   # (T, B, H), bidirectional only
    readout: FloatArray             # (B, R), dropout applied
    probabilities: FloatArray       # (B, C)
    dropout_masks: FloatArray | None  # (B, R)


def pad_batch(sequences: Sequence[FloatArray]) -> tuple[FloatArray, np.ndarray]:
    """Left-pad (L_i, E) sequences into a zero-filled (T, B, E) tensor with
    T = max L_i; returns it with the lengths."""
    lengths = np.array([len(seq) for seq in sequences])
    steps = int(lengths.max())
    inputs = np.zeros((steps, len(sequences), np.shape(sequences[0])[1]))
    for b, seq in enumerate(sequences):
        inputs[steps - len(seq) :, b] = seq
    return inputs, lengths


def _cell_inputs(inputs: FloatArray, order: np.ndarray | None, lo: int, hi: int) -> FloatArray:
    """A cell's inputs at steps lo..hi-1: columns of `inputs`, read through
    `order` (T, B) for the backward cell."""
    if order is None:
        return inputs[lo:hi]
    return inputs[order[lo:hi], np.arange(inputs.shape[1])]


def _run_cell(
    arrays: dict[str, FloatArray],
    prefix: str,
    inputs: FloatArray,
    order: np.ndarray | None,
    valid: FloatArray,
    states: FloatArray | None,
) -> FloatArray:
    """Run one cell over left-padded inputs from h_0 = 0 and return the final
    (B, H) state; every state is also written to `states` when given."""
    w_xh_t, w_hh_t, b_h = arrays[prefix + "w_xh"].T, arrays[prefix + "w_hh"].T, arrays[prefix + "b_h"]
    h = np.zeros((inputs.shape[1], b_h.shape[0]))
    for t in range(inputs.shape[0]):
        x = _cell_inputs(inputs, order, t, t + 1)[0]
        h = np.tanh(x @ w_xh_t + h @ w_hh_t + b_h) * valid[t]
        if states is not None:
            states[t] = h
    return h


def forward_batch(
    arrays: dict[str, FloatArray],
    config: ModelConfig,
    inputs: FloatArray,
    lengths: np.ndarray,
    dropout_masks: FloatArray | None = None,
    keep_states: bool = True,
) -> BatchTrace:
    """Run the classifier over a left-padded (T, B, E) batch (see pad_batch).

    `dropout_masks` (B, R) multiplies the readout (train mode). With
    keep_states=False only the running state is kept (inference); such a
    trace cannot be passed to backward_batch.
    """
    steps, batch, _ = inputs.shape
    start = steps - np.asarray(lengths)
    column = np.arange(steps)[:, None]
    valid = (column >= start).astype(np.float64)[:, :, None]

    shape = (steps, batch, config.hidden_size)
    hidden_fwd = np.empty(shape) if keep_states else None
    prefix = "" if config.direction == STANDARD else "fwd."
    readout = _run_cell(arrays, prefix, inputs, None, valid, hidden_fwd)
    reverse = hidden_bwd = None
    if config.direction == BIDIRECTIONAL:
        # step j of reversed sequence b sits at column start_b + j and reads
        # x_{L_b - j}, which the forward layout holds at column T-1-j
        reverse = np.where(column >= start, start + steps - 1 - column, column)
        hidden_bwd = np.empty(shape) if keep_states else None
        readout = np.concatenate([readout, _run_cell(arrays, "bwd.", inputs, reverse, valid, hidden_bwd)], axis=1)

    if dropout_masks is not None:
        readout = readout * dropout_masks
    w_hy = arrays["w_hy"]
    if config.direction == STANDARD:
        logits = readout @ w_hy.T + arrays["b_y"]
    else:
        # per-direction half products: a bidirectional net whose backward cell
        # and backward readout columns are zero then reproduces the standard
        # net's output bit for bit
        h = config.hidden_size
        logits = readout[:, :h] @ w_hy[:, :h].T + readout[:, h:] @ w_hy[:, h:].T + arrays["b_y"]
    return BatchTrace(
        inputs=inputs,
        valid=valid,
        reverse=reverse,
        hidden_fwd=hidden_fwd,
        hidden_bwd=hidden_bwd,
        readout=readout,
        probabilities=softmax(logits),
        dropout_masks=dropout_masks,
    )


def _cell_backward(
    w_hh: FloatArray,
    states: FloatArray,
    inputs: FloatArray,
    order: np.ndarray | None,
    valid: FloatArray,
    d_last: FloatArray,
    limit: int,
) -> tuple[FloatArray, FloatArray, FloatArray]:
    """Backpropagate a (B, H) error on the final states through the last
    `limit` columns; parameter gradients summed over the batch.

    tanh'(a_t) is evaluated as 1 - h_t^2. Padded steps have valid = 0, so no
    error reaches them: a sequence shorter than `limit` gets its full BPTT.
    The weight gradients are products over batch and time, GRAD_ROWS
    (step, sequence) rows at a time.
    """
    steps, batch, hidden = states.shape
    lo = steps - limit
    block = max(1, GRAD_ROWS // batch)
    da = np.empty((min(block, limit), batch, hidden))
    d_w_xh = np.zeros((hidden, inputs.shape[2]))
    d_w_hh = np.zeros((hidden, hidden))
    d_b_h = np.zeros(hidden)
    dh = d_last
    for hi in range(steps, lo, -block):
        first = max(lo, hi - block)
        for t in range(hi - 1, first - 1, -1):
            h = states[t]
            da[t - first] = dh * (1.0 - h * h) * valid[t]
            if t > lo:
                dh = da[t - first] @ w_hh
        errors = da[: hi - first]
        flat = errors.reshape(-1, hidden)
        d_w_xh += flat.T @ _cell_inputs(inputs, order, first, hi).reshape(-1, inputs.shape[2])
        # column t reads the state of column t-1 (h_0 = 0 before column 0)
        d_w_hh += errors[1:].reshape(-1, hidden).T @ states[first : hi - 1].reshape(-1, hidden)
        if first > 0:
            d_w_hh += errors[0].T @ states[first - 1]
        d_b_h += flat.sum(axis=0)
    return d_w_xh, d_w_hh, d_b_h


def backward_batch(
    arrays: dict[str, FloatArray],
    config: ModelConfig,
    trace: BatchTrace,
    targets: np.ndarray,
    k: int | None = None,
) -> dict[str, FloatArray]:
    """Cross-entropy gradients summed over the batch, through every timestep
    (k=None) or the last k columns, which are the last k steps of every
    sequence."""
    if trace.hidden_fwd is None:
        raise ValueError("backward needs a trace run with keep_states=True")
    steps = trace.inputs.shape[0]
    limit = steps if k is None else min(k, steps)

    # softmax + cross-entropy collapses to (p - onehot) at the logits
    dlogits = trace.probabilities.copy()
    dlogits[np.arange(len(targets)), targets] -= 1.0
    dr = dlogits @ arrays["w_hy"]
    if trace.dropout_masks is not None:
        dr = dr * trace.dropout_masks

    if config.direction == STANDARD:
        cells = [("", trace.hidden_fwd, None, dr)]
    else:
        h = config.hidden_size
        cells = [("fwd.", trace.hidden_fwd, None, dr[:, :h]), ("bwd.", trace.hidden_bwd, trace.reverse, dr[:, h:])]
    grads = {}
    for prefix, states, order, d_last in cells:
        d_w_xh, d_w_hh, d_b_h = _cell_backward(
            arrays[prefix + "w_hh"], states, trace.inputs, order, trace.valid, d_last, limit
        )
        grads.update({prefix + "w_xh": d_w_xh, prefix + "w_hh": d_w_hh, prefix + "b_h": d_b_h})
    grads["w_hy"] = dlogits.T @ trace.readout
    grads["b_y"] = dlogits.sum(axis=0)
    return grads


# ---------------------------------------------------------------------------
# Single-sequence API: batch-of-1 calls into the kernel
# ---------------------------------------------------------------------------


@dataclass
class ForwardTrace:
    """One sequence's activations: a batch-of-1 BatchTrace.

    hidden_fwd[t] is the state after x_{t+1}. hidden_bwd is in processing
    order: entry s holds the state after consuming x_{T-s}, so the last entry
    aligns with input position 1.
    """

    batch: BatchTrace

    def __len__(self) -> int:
        return self.batch.inputs.shape[0]

    @property
    def hidden_fwd(self) -> FloatArray:
        return self.batch.hidden_fwd[:, 0]

    @property
    def hidden_bwd(self) -> FloatArray | None:
        return None if self.batch.hidden_bwd is None else self.batch.hidden_bwd[:, 0]

    @property
    def probabilities(self) -> FloatArray:
        return self.batch.probabilities[0]

    @property
    def dropout_mask(self) -> FloatArray | None:
        return None if self.batch.dropout_masks is None else self.batch.dropout_masks[0]


def _param_arrays(params: Params, config: ModelConfig) -> dict[str, FloatArray]:
    kind = STANDARD if isinstance(params, RnnParams) else BIDIRECTIONAL
    if kind != config.direction:
        raise ValueError(f"config direction is {config.direction} but params are {kind}")
    return as_param_dict(params)


def _check_sequence(config: ModelConfig, sequence: Sequence[FloatArray]) -> FloatArray:
    if len(sequence) == 0:
        raise ValueError("cannot run the network on an empty sequence")
    seq = [np.asarray(x, dtype=np.float64) for x in sequence]
    for i, x in enumerate(seq):
        if x.shape != (config.embedding_dim,):
            raise ValueError(
                f"dimension mismatch at position {i}: expected ({config.embedding_dim},), got {x.shape}"
            )
    return np.array(seq)


def forward(
    params: Params,
    config: ModelConfig,
    sequence: Sequence[FloatArray],
    train: bool = False,
    rng: RngState | None = None,
) -> ForwardTrace:
    """Run the classifier over one embedded sequence.

    In train mode with dropout_rate > 0 an inverted-dropout mask is drawn from
    `rng` and applied to the readout vector; infer mode never applies a mask.
    """
    seq = _check_sequence(config, sequence)
    arrays = _param_arrays(params, config)
    mask = None
    if train and config.dropout_rate > 0.0:
        if rng is None:
            raise ValueError("train-mode forward with dropout needs an RngState")
        mask = dropout_mask(config.readout_size, config.dropout_rate, rng)[None, :]
    return ForwardTrace(forward_batch(arrays, config, seq[:, None, :], np.array([len(seq)]), mask))


def _backward(
    params: Params,
    config: ModelConfig,
    trace: ForwardTrace,
    sequence: Sequence[FloatArray],
    target_class: int,
    k: int | None,
) -> dict[str, FloatArray]:
    seq = _check_sequence(config, sequence)
    if len(trace) != len(seq):
        raise ValueError(f"trace covers {len(trace)} timesteps but the sequence has {len(seq)}")
    if (trace.hidden_bwd is None) != (config.direction == STANDARD):
        raise ValueError("trace direction does not match the config")
    if not 0 <= target_class < config.num_classes:
        raise IndexError(f"target class {target_class} out of range for {config.num_classes} classes")
    return backward_batch(_param_arrays(params, config), config, trace.batch, np.array([target_class]), k)


def backward_full(
    params: Params,
    config: ModelConfig,
    trace: ForwardTrace,
    sequence: Sequence[FloatArray],
    target_class: int,
) -> dict[str, FloatArray]:
    """Exact cross-entropy gradients through every timestep (both directions)."""
    return _backward(params, config, trace, sequence, target_class, k=None)


def backward_truncated(
    params: Params,
    config: ModelConfig,
    trace: ForwardTrace,
    sequence: Sequence[FloatArray],
    target_class: int,
    k: int = 50,
) -> dict[str, FloatArray]:
    """Like backward_full, but the temporal error stops after k steps backward."""
    if k < 1:
        raise ValueError(f"truncation length must be >= 1, got {k}")
    return _backward(params, config, trace, sequence, target_class, k=k)


def backward_for_config(
    params: Params,
    config: ModelConfig,
    trace: ForwardTrace,
    sequence: Sequence[FloatArray],
    target_class: int,
) -> dict[str, FloatArray]:
    """Dispatch on config.bptt_mode."""
    if config.bptt_mode == BPTT_FULL:
        return backward_full(params, config, trace, sequence, target_class)
    return backward_truncated(params, config, trace, sequence, target_class, k=config.bptt_k)


def token_rows(vocab: Vocabulary, tokens: Sequence[str]) -> np.ndarray:
    """Embedding-row indices of the in-vocabulary tokens, in order; OOV tokens skipped."""
    return np.array([vocab.index(t) for t in tokens if t in vocab], dtype=np.int64)


def embed_tokens(
    emb: EmbeddingMatrix,
    vocab: Vocabulary,
    tokens: Sequence[str],
) -> list[FloatArray]:
    """Embedding rows for the in-vocabulary tokens, in order; OOV tokens skipped."""
    return list(emb.input_vectors[token_rows(vocab, tokens)])


def _predict_chunk(
    arrays: dict[str, FloatArray],
    config: ModelConfig,
    emb: EmbeddingMatrix,
    vocab: Vocabulary,
    token_lists: Sequence[Sequence[str]],
) -> tuple[FloatArray, np.ndarray]:
    sequences = [emb.input_vectors[token_rows(vocab, tokens)] for tokens in token_lists]
    known = np.array([len(seq) > 0 for seq in sequences])
    probabilities = np.zeros((len(sequences), config.num_classes))
    if known.any():
        inputs, lengths = pad_batch([seq for seq in sequences if len(seq)])
        probabilities[known] = forward_batch(arrays, config, inputs, lengths, keep_states=False).probabilities
    return probabilities, known


def predict_many(
    params: Params,
    config: ModelConfig,
    emb: EmbeddingMatrix,
    vocab: Vocabulary,
    token_lists: Sequence[Sequence[str]],
) -> tuple[FloatArray, np.ndarray]:
    """Class probabilities (N, C) of N token lists, and a boolean mask of the
    lists with at least one in-vocabulary token (the other rows are 0).

    Runs the kernel in inference mode on INFER_CHUNK lists at a time, so
    memory is bounded by one chunk's padded inputs and running states.
    """
    arrays = _param_arrays(params, config)
    probabilities = np.zeros((len(token_lists), config.num_classes))
    known = np.zeros(len(token_lists), dtype=bool)
    for lo in range(0, len(token_lists), INFER_CHUNK):
        hi = lo + INFER_CHUNK
        probabilities[lo:hi], known[lo:hi] = _predict_chunk(arrays, config, emb, vocab, token_lists[lo:hi])
    return probabilities, known


def predict(
    params: Params,
    config: ModelConfig,
    emb: EmbeddingMatrix,
    vocab: Vocabulary,
    tokens: Sequence[str],
) -> tuple[int, FloatArray]:
    """Classify a token list: (argmax class index, class probabilities).

    Ties resolve to the lowest class index. Raises AllTokensUnknownError when
    no token can be embedded.
    """
    probabilities, known = predict_many(params, config, emb, vocab, [tokens])
    if not known[0]:
        raise AllTokensUnknownError(f"none of the {len(tokens)} tokens are in the vocabulary")
    return int(np.argmax(probabilities[0])), probabilities[0]


# ---------------------------------------------------------------------------
# Model file format
# ---------------------------------------------------------------------------

_CONFIG_FIELDS = (
    "direction",
    "hidden_size",
    "num_classes",
    "embedding_dim",
    "dropout_rate",
    "bptt_mode",
    "bptt_k",
)


def save_model(params: Params, config: ModelConfig, path: str | Path) -> None:
    """Text format: "RNN-SENT v1" header, config block, then each parameter as
    a "param <name> <shape...>" line followed by row-major values at 17
    significant digits (lossless for float64)."""
    arrays = as_param_dict(params)
    expected = param_shapes(config)
    for name, arr in arrays.items():
        if arr.shape != expected[name]:
            raise ValueError(f"parameter {name!r} has shape {arr.shape}, config implies {expected[name]}")
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write(f"{MODEL_MAGIC} {MODEL_VERSION}\n")
        fh.write(f"direction {config.direction}\n")
        fh.write(f"hidden_size {config.hidden_size}\n")
        fh.write(f"num_classes {config.num_classes}\n")
        fh.write(f"embedding_dim {config.embedding_dim}\n")
        fh.write(f"dropout_rate {config.dropout_rate:.17g}\n")
        fh.write(f"bptt_mode {config.bptt_mode}\n")
        fh.write(f"bptt_k {config.bptt_k}\n")
        for name, arr in arrays.items():
            dims = " ".join(str(d) for d in arr.shape)
            fh.write(f"param {name} {dims}\n")
            rows = arr if arr.ndim == 2 else arr[None, :]
            for row in rows:
                fh.write(" ".join(f"{x:.17g}" for x in row) + "\n")


def load_model(path: str | Path) -> tuple[Params, ModelConfig]:
    path = Path(path)
    with path.open(encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2 or header[0] != MODEL_MAGIC:
            raise ModelFileError(f"{path}: not a model file (expected {MODEL_MAGIC} header)")
        if header[1] != MODEL_VERSION:
            raise ModelFileError(
                f"{path}: version mismatch: file is {header[1]!r}, reader supports {MODEL_VERSION!r}"
            )

        raw: dict[str, str] = {}
        for field in _CONFIG_FIELDS:
            line = fh.readline().split(maxsplit=1)
            if len(line) != 2 or line[0] != field:
                raise ModelFileError(f"{path}: corrupt config block (expected {field!r} line)")
            raw[field] = line[1].strip()
        try:
            config = ModelConfig(
                direction=raw["direction"],
                hidden_size=int(raw["hidden_size"]),
                num_classes=int(raw["num_classes"]),
                embedding_dim=int(raw["embedding_dim"]),
                dropout_rate=float(raw["dropout_rate"]),
                bptt_mode=raw["bptt_mode"],
                bptt_k=int(raw["bptt_k"]),
            )
        except ValueError as exc:
            raise ModelFileError(f"{path}: invalid config: {exc}") from exc

        expected = param_shapes(config)
        arrays: dict[str, FloatArray] = {}
        for name, shape in expected.items():
            head = fh.readline().split()
            if len(head) != 2 + len(shape) or head[0] != "param" or head[1] != name:
                raise ModelFileError(f"{path}: corrupt file: expected 'param {name}' block")
            file_shape = tuple(int(d) for d in head[2:])
            if file_shape != shape:
                raise ModelFileError(
                    f"{path}: shape inconsistency for {name!r}: file says {file_shape}, config implies {shape}"
                )
            n_rows = shape[0] if len(shape) == 2 else 1
            n_cols = shape[1] if len(shape) == 2 else shape[0]
            rows = []
            for r in range(n_rows):
                line = fh.readline().split()
                if len(line) != n_cols:
                    raise ModelFileError(f"{path}: corrupt file: bad row {r} of {name!r}")
                try:
                    rows.append([float(x) for x in line])
                except ValueError as exc:
                    raise ModelFileError(f"{path}: corrupt file: non-numeric value in {name!r}") from exc
            arr = np.array(rows)
            arrays[name] = arr if len(shape) == 2 else arr[0]
    return params_from_dict(arrays, config.direction), config
