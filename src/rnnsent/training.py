"""Dataset preparation and the SGD training loop.

Covers annotation loading, per-class balancing, the stratified 80/20 split,
minibatch training with full or truncated BPTT, and the 8-cell hyperparameter
grid over {architecture} x {batch size} x {dropout}.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path
import numpy as np

from .corpus import Corpus, atomic_writer, csv_records, open_artifact, token_ids, write_json
from .embedding import EmbeddingMatrix
from .evaluation import (
    BINARY_CLASSES,
    FINE_CLASSES,
    ConfusionMatrix,
    Metrics,
    evaluate,
)
from .model import (
    BIDIRECTIONAL,
    BPTT_FULL,
    BPTT_TRUNCATED,
    STANDARD,
    ModelConfig,
    Workspace,
    backward_batch,
    check_embedding_dim,
    forward_batch,
    init_params,
)
from .numeric import FloatArray, RngState, clip_gradients, cross_entropy, dropout_mask, global_norm, sgd_step

TASK_FINE = "fine_grained"
TASK_BINARY = "binary"
# A task's model has this many classes, the first of FINE_CLASSES
NUM_CLASSES = {TASK_FINE: len(FINE_CLASSES), TASK_BINARY: len(BINARY_CLASSES)}

# Each minibatch's mean gradient is rescaled to this global L2 norm when above it
CLIP_NORM = 5.0


class TrainingDivergedError(ValueError):
    """A minibatch's loss or gradient norm is not finite."""


@dataclass(frozen=True, eq=False)
class DatasetSplit:
    """Train and test tweets, each side a table with its label column of
    indices into FINE_CLASSES."""

    train: Corpus
    train_labels: np.ndarray
    test: Corpus
    test_labels: np.ndarray

    def __post_init__(self) -> None:
        if not self.train or not self.test:
            raise ValueError("both sides of a split must be nonempty")
        if len(self.train_labels) != len(self.train) or len(self.test_labels) != len(self.test):
            raise ValueError("each side of a split needs one label per tweet")
        overlap = set(self.train.ids).intersection(self.test.ids)
        if overlap:
            raise ValueError(f"train/test leakage: ids {sorted(overlap)[:5]} appear on both sides")


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 64
    learning_rate: float = 1.8e-3
    epochs: int = 30
    seed: int = 0

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate < 0:
            raise ValueError(f"learning_rate cannot be negative, got {self.learning_rate}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")


def load_annotations(path: str | Path, corpus: Corpus) -> tuple[np.ndarray, np.ndarray]:
    """Join an id,label CSV against the clean corpus: the annotated tweets'
    rows in file order and their labels, int64 indices into `corpus` and
    into FINE_CLASSES.

    Rejects a corpus that repeats an id, labels outside the three classes,
    ids absent from the corpus, ids annotated twice, and tweets without tokens.
    """
    by_id = dict(zip(corpus.ids, range(len(corpus))))
    if len(by_id) != len(corpus):
        row, tweet_id = next((r, i) for r, i in enumerate(corpus.ids) if by_id[i] != r)
        raise ValueError(f"the corpus repeats the id {tweet_id!r} in rows {row} and {by_id[tweet_id]}")
    sizes = np.diff(corpus.offsets)
    path = Path(path)
    rows: list[int] = []
    labels: list[int] = []
    seen: set[str] = set()
    with open_artifact(path, ValueError, newline="") as fh:
        header_error = ValueError(f"{path}: annotation CSV must have an 'id,label' header")
        records = csv_records(fh, ("id", "label"), header_error, lambda line, msg: ValueError(f"{path}:{line}: {msg}"))
        for line, row in records:
            tweet_id, label = row["id"], row["label"]
            if label not in FINE_CLASSES:
                raise ValueError(f"{path}:{line}: unknown label {label!r}; expected one of {list(FINE_CLASSES)}")
            if tweet_id not in by_id:
                raise ValueError(f"{path}:{line}: id {tweet_id!r} does not exist in the corpus")
            if tweet_id in seen:
                raise ValueError(f"{path}:{line}: id {tweet_id!r} is annotated more than once")
            if not sizes[by_id[tweet_id]]:
                raise ValueError(f"{path}:{line}: tweet {tweet_id!r} has no tokens")
            seen.add(tweet_id)
            rows.append(by_id[tweet_id])
            labels.append(FINE_CLASSES.index(label))
    return np.array(rows, dtype=np.int64), np.array(labels, dtype=np.int64)


def balance_classes(
    rows: np.ndarray,
    labels: np.ndarray,
    per_class: int,
    rng: RngState,
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform sample without replacement of per_class examples from every class
    present in the data: their rows and labels, in the order given."""
    gen = rng.generator()
    keep = np.zeros(len(labels), dtype=bool)
    for j, name in enumerate(FINE_CLASSES):
        members = np.flatnonzero(labels == j)
        if len(members) == 0:
            continue
        if len(members) < per_class:
            raise ValueError(f"class {name!r} has only {len(members)} examples, cannot sample {per_class}")
        keep[members[gen.choice(len(members), size=per_class, replace=False)]] = True
    return rows[keep], labels[keep]


def binary_subset(rows: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positive and negative examples only, as rows and labels; neutral dropped."""
    keep = labels < len(BINARY_CLASSES)
    return rows[keep], labels[keep]


def split(
    corpus: Corpus,
    rows: np.ndarray,
    labels: np.ndarray,
    ratio: float = 0.8,
    *,
    rng: RngState,
    stratified: bool = True,
) -> DatasetSplit:
    """Shuffled train/test partition of the rows `rows` of `corpus`, labeled
    `labels`, each side in the order given; floor(ratio*n) to train per stratum.

    Stratified mode applies the formula within each class; global mode applies
    it once over the whole set. A stratum that would leave either side empty
    raises a degenerate-split error.
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"split ratio must be in (0, 1), got {ratio}")
    if len(rows) < 2:
        raise ValueError("need at least 2 examples to split")
    gen = rng.generator()

    def cut(rows: np.ndarray, stratum: str) -> tuple[np.ndarray, np.ndarray]:
        n_train = math.floor(ratio * len(rows))
        if n_train == 0 or n_train == len(rows):
            raise ValueError(
                f"degenerate split: {stratum} with {len(rows)} examples at ratio {ratio} "
                "leaves one side empty"
            )
        perm = gen.permutation(len(rows))
        return rows[perm[:n_train]], rows[perm[n_train:]]

    if stratified:
        strata = [(np.flatnonzero(labels == j), f"class {name!r}") for j, name in enumerate(FINE_CLASSES)]
    else:
        strata = [(np.arange(len(rows)), "the dataset")]
    sides = [cut(members, stratum) for members, stratum in strata if len(members)]
    train, test = (np.sort(np.concatenate(side)) for side in zip(*sides))
    return DatasetSplit(corpus.take(rows[train]), labels[train], corpus.take(rows[test]), labels[test])


@dataclass
class TrainReport:
    epoch_losses: list[float]
    epoch_accuracies: list[float]
    test_metrics: Metrics
    test_confusion: ConfusionMatrix
    model_config: ModelConfig
    train_config: TrainConfig


def save_report(report: TrainReport, path: str | Path) -> None:
    write_json(path, asdict(report))


def _check_labels(data: DatasetSplit, num_classes: int) -> None:
    for side_name, side, labels in (("train", data.train, data.train_labels), ("test", data.test, data.test_labels)):
        bad = np.flatnonzero((labels < 0) | (labels >= num_classes))
        if len(bad):
            i = bad[0]
            raise ValueError(
                f"config mismatch: {side_name} example {side.ids[i]!r} has label {labels[i]}, "
                f"task classes are 0..{num_classes - 1}: {list(FINE_CLASSES[:num_classes])}"
            )


def train(
    data: DatasetSplit,
    emb: EmbeddingMatrix,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
) -> tuple[dict[str, FloatArray], TrainReport]:
    """Minibatch SGD: per epoch, shuffle, batch, average the per-example BPTT
    gradients (one batched kernel call per minibatch), clip to CLIP_NORM, take
    one step. Deterministic given the seed: the initial weights come from
    root.child(0), epoch e's shuffle from root.child(1, e), and the batch at
    offset `start` draws one (B, R) dropout mask from root.child(2, e, start).

    Raises TrainingDivergedError naming the epoch and batch whose loss or
    gradient is not finite."""
    check_embedding_dim(emb, model_cfg)
    _check_labels(data, model_cfg.num_classes)

    # every example's embedding-row ids; the kernel gathers a batch's rows by id
    ids, starts, lengths = token_ids(emb.vocab, data.train)
    if not lengths.all():
        example = data.train.ids[int(np.argmin(lengths))]
        raise ValueError(f"train example {example!r} has no in-vocabulary tokens and cannot be embedded")

    root = RngState(seed=train_cfg.seed)
    params = init_params(model_cfg, root.child(0))
    rate = model_cfg.dropout_rate
    k = None if model_cfg.bptt_mode == BPTT_FULL else model_cfg.bptt_k

    n = len(lengths)
    workspace = Workspace()
    epoch_losses: list[float] = []
    epoch_accuracies: list[float] = []

    # a diverged step makes the next batch's products overflow or go NaN; the loss
    # and gradient-norm checks below stop the run, so numpy need not warn first
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(train_cfg.epochs):
            order = root.child(1, epoch).generator().permutation(n)
            losses: list[np.ndarray] = []
            correct = 0
            for number, start in enumerate(range(0, n, train_cfg.batch_size), start=1):
                batch = order[start : start + train_cfg.batch_size]
                # one (B, R) draw per minibatch; row pos is the mask of the batch's example pos
                masks = None
                if rate > 0.0:
                    masks = dropout_mask((len(batch), model_cfg.readout_size), rate, root.child(2, epoch, start))
                trace = forward_batch(
                    params, model_cfg, emb.input_vectors, ids, starts[batch], lengths[batch], masks,
                    workspace=workspace,
                )
                y = data.train_labels[batch]
                batch_losses = cross_entropy(trace.probabilities, y)
                if not np.isfinite(batch_losses.sum()):
                    raise TrainingDivergedError(
                        f"training diverged: epoch {epoch + 1}, batch {number} has mean loss {batch_losses.mean()}"
                    )
                losses.append(batch_losses)
                correct += int(np.sum(np.argmax(trace.probabilities, axis=1) == y))
                grads = backward_batch(params, model_cfg, trace, y, k)
                # the trace's arrays are views of the workspace, which the next batch overwrites
                del trace
                mean = {name: g / len(batch) for name, g in grads.items()}
                norm = global_norm(mean)
                if not math.isfinite(norm):
                    raise TrainingDivergedError(
                        f"training diverged: epoch {epoch + 1}, batch {number} has gradient norm {norm}"
                    )
                params = sgd_step(params, clip_gradients(mean, CLIP_NORM, norm), train_cfg.learning_rate)

            epoch_losses.append(math.fsum(np.concatenate(losses)) / n)
            epoch_accuracies.append(correct / n)

    del workspace  # free the training buffers before evaluation allocates its own
    cm, metrics = evaluate(params, model_cfg, emb, data.test, data.test_labels)
    report = TrainReport(
        epoch_losses=epoch_losses,
        epoch_accuracies=epoch_accuracies,
        test_metrics=metrics,
        test_confusion=cm,
        model_config=model_cfg,
        train_config=train_cfg,
    )
    return params, report


# ---------------------------------------------------------------------------
# Hyperparameter grid
# ---------------------------------------------------------------------------

GRID_MODELS = ((STANDARD, BPTT_TRUNCATED), (BIDIRECTIONAL, BPTT_FULL))
GRID_BATCH_SIZES = (64, 128)
GRID_DROPOUTS = (None, 0.5)
MODEL_NAMES = {STANDARD: "Standard RNN", BIDIRECTIONAL: "Bidirectional RNN"}
BPTT_NAMES = {BPTT_TRUNCATED: "tBPTT", BPTT_FULL: "Full"}
GRID_COLUMNS = ("Model", "Batch Size", "Learning Rate", "Drop Out", "BPTT Type", "ACC", "F1 Score")


@dataclass(frozen=True)
class GridRow:
    model: str
    batch_size: int
    learning_rate: float
    dropout: float | None
    bptt_type: str
    accuracy: float
    f1: float


@dataclass(frozen=True)
class GridResult:
    task: str
    rows: tuple[GridRow, ...]

    def format_table(self) -> str:
        """Aligned text table; the model name labels its block once."""
        cells = [list(GRID_COLUMNS)]
        previous_model = None
        for row in self.rows:
            model = row.model if row.model != previous_model else ""
            previous_model = row.model
            cells.append(
                [
                    model,
                    str(row.batch_size),
                    f"{row.learning_rate:.2E}",
                    "-" if row.dropout is None else f"{row.dropout:g}",
                    row.bptt_type,
                    f"{row.accuracy:.4f}",
                    f"{row.f1:.4f}",
                ]
            )
        widths = [max(len(r[c]) for r in cells) for c in range(len(GRID_COLUMNS))]
        lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in cells]
        return "\n".join(lines) + "\n"


def save_grid(result: GridResult, json_path: str | Path, table_path: str | Path) -> None:
    write_json(json_path, {**asdict(result), "columns": GRID_COLUMNS})
    with atomic_writer(table_path) as fh:
        fh.write(result.format_table())


def run_grid(
    data: DatasetSplit,
    emb: EmbeddingMatrix,
    task: str,
    base_cfg: TrainConfig,
    hidden_size: int = 64,
) -> GridResult:
    """The 8-cell grid: {standard + tBPTT(50), bidirectional + full} x batch
    {64, 128} x dropout {off, 0.5}, learning rate fixed, rows in table order.

    For the binary task, neutral examples are dropped from both sides first.
    """
    if task == TASK_BINARY:
        train_rows, train_labels = binary_subset(np.arange(len(data.train)), data.train_labels)
        test_rows, test_labels = binary_subset(np.arange(len(data.test)), data.test_labels)
        data = DatasetSplit(data.train.take(train_rows), train_labels, data.test.take(test_rows), test_labels)

    rows: list[GridRow] = []
    for direction, bptt_mode in GRID_MODELS:
        for dropout in GRID_DROPOUTS:
            for batch_size in GRID_BATCH_SIZES:
                model_cfg = ModelConfig(
                    embedding_dim=emb.dim,
                    hidden_size=hidden_size,
                    num_classes=NUM_CLASSES[task],
                    dropout_rate=0.0 if dropout is None else dropout,
                    direction=direction,
                    bptt_mode=bptt_mode,
                    bptt_k=50,
                )
                cell_cfg = replace(base_cfg, batch_size=batch_size)
                _, report = train(data, emb, model_cfg, cell_cfg)
                rows.append(
                    GridRow(
                        model=MODEL_NAMES[direction],
                        batch_size=batch_size,
                        learning_rate=cell_cfg.learning_rate,
                        dropout=dropout,
                        bptt_type=BPTT_NAMES[bptt_mode],
                        accuracy=report.test_metrics.accuracy,
                        f1=report.test_metrics.f1_macro,
                    )
                )
    return GridResult(task=task, rows=tuple(rows))
