"""Standard (Elman) and bidirectional recurrent classifiers.

Forward pass, full backpropagation through time, and truncated BPTT are all
hand-derived; there is no autodiff anywhere.

Standard:       h_t = tanh(W_xh x_t + W_hh h_{t-1} + b_h),  h_0 = 0
                readout r = h_T
Bidirectional:  one pass over x_1..x_T, an independent pass over x_T..x_1,
                readout r = [h_T^fwd ; final backward state]

In train mode a single inverted-dropout mask is applied to r; the class
distribution is softmax(W_hy r + b_y).

Parameters and gradients are ordered name -> array dicts keyed by
param_shapes(config); the standard net is the bidirectional net's one-cell
case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import reduce
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import Corpus, atomic_writer, open_artifact, read_header, read_rows, token_ids
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


def _cells(config: ModelConfig) -> tuple[str, ...]:
    return ("",) if config.direction == STANDARD else ("fwd.", "bwd.")


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """The parameters' names and shapes, in the order that init_params draws,
    save_model writes and every parameter or gradient dict follows: each
    cell's w_xh, w_hh and b_h, then the readout's w_hy and b_y. The
    bidirectional net's cells are prefixed "fwd." and "bwd."; the standard
    net is its one-cell case, with unprefixed names."""
    h, e = config.hidden_size, config.embedding_dim
    shapes: dict[str, tuple[int, ...]] = {}
    for prefix in _cells(config):
        shapes.update({prefix + "w_xh": (h, e), prefix + "w_hh": (h, h), prefix + "b_h": (h,)})
    shapes.update({"w_hy": (config.num_classes, config.readout_size), "b_y": (config.num_classes,)})
    return shapes


def init_params(config: ModelConfig, rng: RngState) -> dict[str, FloatArray]:
    """Glorot-uniform weights (bound sqrt(6/(fan_in+fan_out))), zero biases,
    drawn in param_shapes order."""
    gen = rng.generator()
    params = {}
    for name, shape in param_shapes(config).items():
        if len(shape) == 2:
            s = np.sqrt(6.0 / (shape[0] + shape[1]))
            params[name] = gen.uniform(-s, s, shape)
        else:
            params[name] = np.zeros(shape)
    return params


def _check_params(params: dict[str, FloatArray], config: ModelConfig) -> None:
    """Raise ValueError unless `params` has exactly the names and shapes of
    param_shapes(config)."""
    expected = param_shapes(config)
    if params.keys() != expected.keys():
        other = BIDIRECTIONAL if config.direction == STANDARD else STANDARD
        if params.keys() == param_shapes(replace(config, direction=other)).keys():
            raise ValueError(f"config direction is {config.direction} but params are {other}")
        missing = [name for name in expected if name not in params]
        unexpected = [name for name in params if name not in expected]
        raise ValueError(
            f"params do not match the {config.direction} net: missing {missing}, unexpected {unexpected}"
        )
    for name, shape in expected.items():
        if np.shape(params[name]) != shape:
            raise ValueError(f"parameter {name!r} has shape {np.shape(params[name])}, config implies {shape}")


# ---------------------------------------------------------------------------
# Minibatch kernel
# ---------------------------------------------------------------------------

# Inference runs at most this many sequences through the kernel at once.
INFER_CHUNK = 64
# The input projection and each weight-gradient product cover at most this
# many (step, sequence) rows (or one step, if a step has more), which bounds
# the per-block buffers: forward_batch keeps a block's input projection in the
# "block" buffer, and backward_batch its tanh slopes there (both ask for the
# slopes' size, one step's rows more than a block) and its errors in "errors".
GRAD_ROWS = 256


class Workspace:
    """Grow-only buffers that the kernel reuses from one call to the next.

    A caller that runs many batches creates one and passes it to
    forward_batch; backward_batch uses the trace's. Buffers are views of
    the workspace, so a trace stays valid only until the next call on it. A
    buffer that must grow gets a quarter more than asked, so that batches a
    little longer than the longest so far do not reallocate it again.
    """

    def __init__(self) -> None:
        self._buffers: dict[str, FloatArray] = {}

    def take(self, name: str, shape: tuple[int, ...]) -> FloatArray:
        size = math.prod(shape)
        buffer = self._buffers.get(name)
        if buffer is None or buffer.size < size:
            buffer = self._buffers[name] = np.empty(size + size // 4)
        return buffer[:size].reshape(shape)


@dataclass
class BatchTrace:
    """Activations of one minibatch, kept for backward_batch.

    Sequences are aligned at their ends on T = max length columns, so
    sequence b of length L_b starts at column T - L_b and every one ends at
    column T-1; the backward cell reads the reversed sequences, aligned the
    same way. Inside the kernel the batch is ordered by length, longest
    first (`order`), so the sequences active at column t are the first
    `active[t]` ones, and only those are computed. Their rows are packed
    column after column: column t's rows start at `offsets[t]`, and row
    (t, j) of cell c reads row `source[offsets[t] + j, c]` of `table`.

    Slot t of `states` (rows offsets[t]..offsets[t+1]) holds the state that
    each row of column t starts from (0 for a sequence's first step), and
    slot T the final states. Cell 0 is the forward cell, cell 1 the backward
    one. `states` is None in a trace run with keep_states=False.
    """

    order: np.ndarray               # (B,) batch position of each sorted sequence
    active: np.ndarray              # (T+1,) rows of each column; active[T] = B
    offsets: np.ndarray             # (T+2,) packed row where each column starts
    table: FloatArray               # (V, E) as passed in
    source: np.ndarray              # (N, cells) packed row -> row of table
    states: FloatArray | None       # (N+B, cells, H)
    readout: FloatArray             # (B, R), caller's order, dropout applied
    probabilities: FloatArray       # (B, C), caller's order
    dropout_masks: FloatArray | None  # (B, R)
    workspace: Workspace

    @property
    def steps(self) -> int:
        return len(self.active) - 1


def pack_sequences(sequences: Sequence[FloatArray]) -> tuple[FloatArray, np.ndarray, np.ndarray, np.ndarray]:
    """(L_i, E) sequences as forward_batch's (table, ids, starts, lengths):
    the table is the sequences stacked, and the ids count its rows."""
    lengths = np.array([len(seq) for seq in sequences])
    table = np.concatenate(sequences)
    return table, np.arange(len(table)), np.cumsum(lengths) - lengths, lengths


def _stacked(
    params: dict[str, FloatArray], prefixes: tuple[str, ...], name: str, transpose: bool = False
) -> FloatArray:
    """One parameter of every cell as a contiguous (cells, ...) array, its
    matrices transposed on request (BLAS runs faster on a contiguous copy
    than on a transposed view)."""
    return np.array([params[prefix + name].T if transpose else params[prefix + name] for prefix in prefixes])


def _blocks(offsets: list[int], lo: int, hi: int) -> list[tuple[int, int]]:
    """Split columns lo..hi-1 into runs of whole columns of at most GRAD_ROWS
    packed rows each (a longer column is a run of its own)."""
    blocks, first = [], lo
    for t in range(lo + 1, hi):
        if offsets[t + 1] - offsets[first] > GRAD_ROWS:
            blocks.append((first, t))
            first = t
    blocks.append((first, hi))
    return blocks


def _block_rows(batch: int) -> int:
    """The most packed rows a block of _blocks can hold."""
    return max(GRAD_ROWS, batch)


def _gather(table: FloatArray, source: np.ndarray, out: FloatArray) -> FloatArray:
    """The rows `source` (n, cells) of a (V, E) table, into out[:n]."""
    rows = out[: len(source)]
    np.take(table, source, axis=0, out=rows, mode="clip")
    return rows


def _by_cell(rows: FloatArray) -> FloatArray:
    """(n, cells, X) rows as a (cells, n, X) stack of matrices (a view)."""
    return rows.transpose(1, 0, 2)


def forward_batch(
    params: dict[str, FloatArray],
    config: ModelConfig,
    table: FloatArray,
    ids: np.ndarray,
    starts: np.ndarray,
    lengths: np.ndarray,
    dropout_masks: FloatArray | None = None,
    keep_states: bool = True,
    workspace: Workspace | None = None,
) -> BatchTrace:
    """Run the classifier over B sequences of rows of a (V, E) table:
    sequence b is table[ids[starts[b] : starts[b] + lengths[b]]] (see
    pack_sequences for sequences held as arrays).

    `dropout_masks` (B, R) multiplies the readout (train mode). With
    keep_states=False only the running state is kept (inference); such a
    trace cannot be passed to backward_batch. Buffers come from `workspace`
    (see Workspace), a fresh one when none is given.
    """
    workspace = Workspace() if workspace is None else workspace
    lengths = np.asarray(lengths)
    steps, batch, emb_dim = int(lengths.max()), len(lengths), table.shape[1]
    prefixes = _cells(config)
    cells, hidden = len(prefixes), config.hidden_size
    order = np.argsort(-lengths, kind="stable")
    start = steps - lengths[order]
    column, row = np.nonzero(np.arange(steps)[:, None] >= start)
    active = np.append(np.bincount(column, minlength=steps), batch)
    offsets = np.concatenate(([0], np.cumsum(active)))
    act, off = active.tolist(), offsets.tolist()
    rows = off[steps]

    # row (t, j) of the forward cell is step t - start of sorted sequence j;
    # the backward cell's step s reads x_{L-1-s}, at column T-1-t
    source = np.empty((rows, cells), dtype=np.int64)
    first = np.asarray(starts)[order][row]
    source[:, 0] = ids[first + column - start[row]]
    if cells == 2:
        source[:, 1] = ids[first + steps - 1 - column]

    w_xh_t = _stacked(params, prefixes, "w_xh", transpose=True)
    w_hh_t = _stacked(params, prefixes, "w_hh", transpose=True)
    b_h = _stacked(params, prefixes, "b_h")
    blocks = _blocks(off, 0, steps)
    projection = workspace.take("block", (_block_rows(batch) + batch, cells, hidden))
    block_inputs = workspace.take("block_inputs", (_block_rows(batch), cells, emb_dim))
    if keep_states:
        # sized for B sequences of T steps, so that batches of the same shape never
        # grow it; only the rows in use are ever touched
        states = workspace.take("states", ((steps + 1) * batch, cells, hidden))[: rows + batch]

        def slot(t: int) -> FloatArray:
            return states[off[t] : off[t + 1]]
    else:
        states = None
        running = workspace.take("running", (2, batch, cells, hidden))

        def slot(t: int) -> FloatArray:
            return running[t % 2, : act[t]]

    slot(0).fill(0.0)
    for lo, hi in blocks:
        base = off[lo]
        proj = projection[: off[hi] - base]
        # the input projection of every step of the block, bias included
        np.matmul(_by_cell(_gather(table, source[base : off[hi]], block_inputs)), w_xh_t, out=_by_cell(proj))
        proj += b_h
        for t in range(lo, hi):
            n = act[t]
            cur = slot(t + 1)
            h = cur[:n]
            np.matmul(_by_cell(slot(t)), w_hh_t, out=_by_cell(h))
            h += proj[off[t] - base : off[t + 1] - base]
            np.tanh(h, out=h)
            if act[t + 1] > n:
                # the sequences that start at column t+1 start from h_0 = 0
                cur[n:].fill(0.0)

    # the final states in the caller's order: [h_fwd ; h_bwd] per sequence
    readout = np.empty((batch, cells * hidden))
    readout[order] = slot(steps).reshape(batch, cells * hidden)
    if dropout_masks is not None:
        readout *= dropout_masks
    # one product per cell over its readout columns, summed in cell order: the
    # standard net's logits are the bidirectional net's one-cell case, bit for bit
    cols = [slice(c * hidden, (c + 1) * hidden) for c in range(cells)]
    logits = reduce(np.add, [readout[:, c] @ params["w_hy"][:, c].T for c in cols]) + params["b_y"]
    return BatchTrace(
        order=order,
        active=active,
        offsets=offsets,
        table=table,
        source=source,
        states=states,
        readout=readout,
        probabilities=softmax(logits),
        dropout_masks=dropout_masks,
        workspace=workspace,
    )


def backward_batch(
    params: dict[str, FloatArray],
    config: ModelConfig,
    trace: BatchTrace,
    targets: np.ndarray,
    k: int | None = None,
) -> dict[str, FloatArray]:
    """Cross-entropy gradients summed over the batch, through every timestep
    (k=None) or the last k columns, which are the last k steps of every
    sequence.

    tanh'(a_t) is evaluated as 1 - h_t^2. Only active rows carry error, so a
    sequence shorter than the window gets its full BPTT. The weight gradients
    are products over batch and time, GRAD_ROWS packed rows at a time.
    """
    if trace.states is None:
        raise ValueError("backward needs a trace run with keep_states=True")
    steps, batch = trace.steps, len(trace.order)
    lo = steps - (steps if k is None else min(k, steps))
    prefixes = _cells(config)
    cells, hidden = len(prefixes), config.hidden_size
    act, off, states = trace.active.tolist(), trace.offsets.tolist(), trace.states

    # softmax + cross-entropy collapses to (p - onehot) at the logits
    dlogits = trace.probabilities.copy()
    dlogits[np.arange(len(targets)), targets] -= 1.0
    dr = dlogits @ params["w_hy"]
    if trace.dropout_masks is not None:
        dr = dr * trace.dropout_masks

    w_hh = _stacked(params, prefixes, "w_hh")
    d_w_xh = np.zeros((cells, hidden, config.embedding_dim))
    d_w_hh = np.zeros((cells, hidden, hidden))
    d_b_h = np.zeros((cells, hidden))
    blocks = _blocks(off, lo, steps)
    errors = trace.workspace.take("errors", (_block_rows(batch), cells, hidden))
    block_inputs = trace.workspace.take("block_inputs", (_block_rows(batch), cells, config.embedding_dim))
    slopes = trace.workspace.take("block", (_block_rows(batch) + batch, cells, hidden))
    dh = trace.workspace.take("dh", (batch, cells, hidden))
    dh[:] = dr[trace.order].reshape(batch, cells, hidden)
    for first, hi in reversed(blocks):
        base = off[first]
        block = errors[: off[hi] - base]
        # tanh'(a_t) = 1 - h_t^2 over the block's states (slots first+1..hi)
        top = off[first + 1]
        slope = slopes[: off[hi + 1] - top]
        np.multiply(states[top : off[hi + 1]], states[top : off[hi + 1]], out=slope)
        np.subtract(1.0, slope, out=slope)
        for t in range(hi - 1, first - 1, -1):
            da = block[off[t] - base : off[t + 1] - base]
            # h_t is the first act[t] rows of slot t+1
            row = off[t + 1] - top
            np.multiply(slope[row : row + act[t]], dh[: act[t]], out=da)
            if t > lo:
                n = act[t - 1]
                np.matmul(_by_cell(da[:n]), w_hh, out=_by_cell(dh[:n]))
        by_cell = block.transpose(1, 2, 0)
        d_w_xh += by_cell @ _by_cell(_gather(trace.table, trace.source[base : off[hi]], block_inputs))
        # slot t holds the state that each row of column t started from
        d_w_hh += by_cell @ _by_cell(states[base : off[hi]])
        d_b_h += block.sum(axis=0)

    grads = {}
    for c, prefix in enumerate(prefixes):
        grads.update({prefix + "w_xh": d_w_xh[c], prefix + "w_hh": d_w_hh[c], prefix + "b_h": d_b_h[c]})
    grads["w_hy"] = dlogits.T @ trace.readout
    grads["b_y"] = dlogits.sum(axis=0)
    return grads


# ---------------------------------------------------------------------------
# Single-sequence API: batch-of-1 calls into the kernel
# ---------------------------------------------------------------------------


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
    params: dict[str, FloatArray],
    config: ModelConfig,
    sequence: Sequence[FloatArray],
    train: bool = False,
    rng: RngState | None = None,
) -> BatchTrace:
    """Run the classifier over one embedded sequence: the trace of a batch of
    one, which backward_full and backward_truncated take.

    In train mode with dropout_rate > 0 a (1, R) inverted-dropout mask is
    drawn from `rng` and applied to the readout; infer mode never applies one.
    """
    seq = _check_sequence(config, sequence)
    _check_params(params, config)
    mask = None
    if train and config.dropout_rate > 0.0:
        if rng is None:
            raise ValueError("train-mode forward with dropout needs an RngState")
        mask = dropout_mask((1, config.readout_size), config.dropout_rate, rng)
    return forward_batch(params, config, *pack_sequences([seq]), mask)


def _backward(
    params: dict[str, FloatArray],
    config: ModelConfig,
    trace: BatchTrace,
    sequence: Sequence[FloatArray],
    target_class: int,
    k: int | None,
) -> dict[str, FloatArray]:
    seq = _check_sequence(config, sequence)
    if len(trace.order) != 1:
        raise ValueError(f"trace covers {len(trace.order)} sequences, not one")
    if trace.steps != len(seq):
        raise ValueError(f"trace covers {trace.steps} timesteps but the sequence has {len(seq)}")
    if (trace.source.shape[1] == 1) != (config.direction == STANDARD):
        raise ValueError("trace direction does not match the config")
    if not 0 <= target_class < config.num_classes:
        raise IndexError(f"target class {target_class} out of range for {config.num_classes} classes")
    _check_params(params, config)
    return backward_batch(params, config, trace, np.array([target_class]), k)


def backward_full(
    params: dict[str, FloatArray],
    config: ModelConfig,
    trace: BatchTrace,
    sequence: Sequence[FloatArray],
    target_class: int,
) -> dict[str, FloatArray]:
    """Exact cross-entropy gradients through every timestep (both directions)."""
    return _backward(params, config, trace, sequence, target_class, k=None)


def backward_truncated(
    params: dict[str, FloatArray],
    config: ModelConfig,
    trace: BatchTrace,
    sequence: Sequence[FloatArray],
    target_class: int,
    k: int = 50,
) -> dict[str, FloatArray]:
    """Like backward_full, but the temporal error stops after k steps backward."""
    if k < 1:
        raise ValueError(f"truncation length must be >= 1, got {k}")
    return _backward(params, config, trace, sequence, target_class, k=k)


def check_embedding_dim(emb: EmbeddingMatrix, config: ModelConfig) -> None:
    """Raise ValueError unless the embedding's vectors have the model's input size."""
    if emb.dim != config.embedding_dim:
        raise ValueError(f"config mismatch: embeddings have dim {emb.dim}, model expects {config.embedding_dim}")


def predict_many(
    params: dict[str, FloatArray],
    config: ModelConfig,
    emb: EmbeddingMatrix,
    corpus: Corpus,
) -> tuple[FloatArray, np.ndarray]:
    """Class probabilities (N, C) of the N tweets of `corpus`, and a boolean
    mask of the tweets with at least one token in the embedding's vocabulary
    (the other rows are 0).

    The tweets with such a token are run longest first, INFER_CHUNK at a
    time, so each chunk holds tweets of similar length; the kernel gathers their
    embedding rows by id and runs in inference mode on one workspace, so
    memory is bounded by one chunk's running states. The results are
    scattered back to the caller's order.
    """
    _check_params(params, config)
    check_embedding_dim(emb, config)
    ids, starts, lengths = token_ids(emb.vocab, corpus)
    known = lengths > 0
    probabilities = np.zeros((len(corpus), config.num_classes))
    live = np.flatnonzero(known)
    live = live[np.argsort(-lengths[live], kind="stable")]
    workspace = Workspace()
    for lo in range(0, len(live), INFER_CHUNK):
        chunk = live[lo : lo + INFER_CHUNK]
        trace = forward_batch(
            params, config, emb.input_vectors, ids, starts[chunk], lengths[chunk],
            keep_states=False, workspace=workspace,
        )
        probabilities[chunk] = trace.probabilities
    return probabilities, known


# ---------------------------------------------------------------------------
# Model file format
# ---------------------------------------------------------------------------

# each line of a model file's config block, in file order, with the type it is read as
_CONFIG_FIELDS = {
    "direction": str,
    "hidden_size": int,
    "num_classes": int,
    "embedding_dim": int,
    "dropout_rate": float,
    "bptt_mode": str,
    "bptt_k": int,
}


def save_model(params: dict[str, FloatArray], config: ModelConfig, path: str | Path) -> None:
    """Text format: "RNN-SENT v1" header, config block, then each parameter,
    in param_shapes order, as a "param <name> <shape...>" line followed by
    row-major values at 17 significant digits (lossless for float64).
    Written atomically (see corpus.atomic_writer)."""
    _check_params(params, config)
    with atomic_writer(path) as fh:
        fh.write(f"{MODEL_MAGIC} {MODEL_VERSION}\n")
        for field, kind in _CONFIG_FIELDS.items():
            value = getattr(config, field)
            fh.write(f"{field} {value:.17g}\n" if kind is float else f"{field} {value}\n")
        for name, shape in param_shapes(config).items():
            arr = params[name]
            dims = " ".join(str(d) for d in shape)
            fh.write(f"param {name} {dims}\n")
            rows = arr if arr.ndim == 2 else arr[None, :]
            template = " ".join(["%.17g"] * rows.shape[1]) + "\n"
            for row in rows:
                fh.write(template % tuple(row.tolist()))


def load_model(path: str | Path) -> tuple[dict[str, FloatArray], ModelConfig]:
    path = Path(path)
    with open_artifact(path, ModelFileError) as fh:
        read_header(fh, path, MODEL_MAGIC, MODEL_VERSION, 2, ModelFileError, "a model file")

        raw: dict[str, str] = {}
        for field in _CONFIG_FIELDS:
            line = fh.readline().split(maxsplit=1)
            if len(line) != 2 or line[0] != field:
                raise ModelFileError(f"{path}: corrupt config block (expected {field!r} line)")
            raw[field] = line[1].strip()
        try:
            config = ModelConfig(**{field: kind(raw[field]) for field, kind in _CONFIG_FIELDS.items()})
        except ValueError as exc:
            raise ModelFileError(f"{path}: invalid config: {exc}") from exc

        expected = param_shapes(config)
        params: dict[str, FloatArray] = {}
        lines_read = 1 + len(_CONFIG_FIELDS)
        for name, shape in expected.items():
            head = fh.readline().split()
            if len(head) != 2 + len(shape) or head[0] != "param" or head[1] != name:
                raise ModelFileError(f"{path}: corrupt file: expected 'param {name}' block")
            try:
                file_shape = tuple(int(d) for d in head[2:])
            except ValueError as exc:
                raise ModelFileError(f"{path}: corrupt file: expected 'param {name}' block") from exc
            if file_shape != shape:
                raise ModelFileError(
                    f"{path}: shape inconsistency for {name!r}: file says {file_shape}, config implies {shape}"
                )
            n_rows, n_cols = shape if len(shape) == 2 else (1, shape[0])
            params[name] = read_rows(fh, path, n_rows, n_cols, ModelFileError, f" of {name!r}").reshape(shape)
            lines_read += 1 + n_rows
        for line_no, line in enumerate(fh, start=lines_read + 1):
            if line.strip():
                raise ModelFileError(f"{path}: corrupt file: line {line_no} follows the last parameter row")
    return params, config
