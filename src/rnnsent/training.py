"""Dataset preparation and the SGD training loop.

Covers annotation loading, per-class balancing, the stratified 80/20 split,
minibatch training with full or truncated BPTT, and the 8-cell hyperparameter
grid over {architecture} x {batch size} x {dropout}.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import CleanTweet, Vocabulary, atomic_writer
from .embedding import EmbeddingMatrix
from .evaluation import (
    BINARY_CLASSES,
    FINE_CLASSES,
    ConfusionMatrix,
    Metrics,
    classes_for,
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
    forward_batch,
    init_params,
    pad_batch,
    token_rows,
)
from .numeric import PROB_FLOOR, FloatArray, RngState, clip_gradients, dropout_mask, global_norm, sgd_step

TASK_FINE = "fine_grained"
TASK_BINARY = "binary"

# Early stopping (opt-in): stop once the best epoch loss has improved by less
# than MIN_DELTA for PATIENCE consecutive epochs.
EARLY_STOP_MIN_DELTA = 1e-5
EARLY_STOP_PATIENCE = 5


class TrainingDivergedError(ValueError):
    """A minibatch's loss or gradient norm is not finite."""


@dataclass(frozen=True)
class LabeledTweet:
    tweet: CleanTweet
    label: str

    def __post_init__(self) -> None:
        if self.label not in FINE_CLASSES:
            raise ValueError(f"unknown label {self.label!r}; expected one of {list(FINE_CLASSES)}")
        if len(self.tweet.tokens) == 0:
            raise ValueError(f"tweet {self.tweet.id!r} has no tokens")

    @property
    def tokens(self) -> tuple[str, ...]:
        return self.tweet.tokens

    @property
    def id(self) -> str:
        return self.tweet.id


@dataclass(frozen=True)
class DatasetSplit:
    train: tuple[LabeledTweet, ...]
    test: tuple[LabeledTweet, ...]

    def __post_init__(self) -> None:
        if not self.train or not self.test:
            raise ValueError("both sides of a split must be nonempty")
        overlap = {t.id for t in self.train} & {t.id for t in self.test}
        if overlap:
            raise ValueError(f"train/test leakage: ids {sorted(overlap)[:5]} appear on both sides")


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 64
    learning_rate: float = 1.8e-3
    epochs: int = 30
    seed: int = 0
    task: str = TASK_FINE
    clip_norm: float = 5.0
    balance_per_class: int | None = None
    early_stop: bool = False

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate < 0:
            raise ValueError(f"learning_rate cannot be negative, got {self.learning_rate}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.task not in (TASK_FINE, TASK_BINARY):
            raise ValueError(f"task must be {TASK_FINE!r} or {TASK_BINARY!r}")
        if self.clip_norm <= 0:
            raise ValueError(f"clip_norm must be positive, got {self.clip_norm}")
        if self.balance_per_class is not None and self.balance_per_class < 1:
            raise ValueError(f"balance_per_class must be >= 1, got {self.balance_per_class}")

    @property
    def num_classes(self) -> int:
        return 2 if self.task == TASK_BINARY else 3

    def to_dict(self) -> dict:
        return asdict(self)


def load_annotations(path: str | Path, corpus: Sequence[CleanTweet]) -> list[LabeledTweet]:
    """Join an id,label CSV against the clean corpus.

    Rejects labels outside the three classes, ids absent from the corpus, and
    ids annotated twice.
    """
    by_id = {t.id: t for t in corpus}
    path = Path(path)
    labeled: list[LabeledTweet] = []
    seen: set[str] = set()
    with path.open(encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"id", "label"} <= set(reader.fieldnames):
            raise ValueError(f"{path}: annotation CSV must have an 'id,label' header")
        for line, row in enumerate(reader, start=2):
            tweet_id, label = row["id"], row["label"]
            if label not in FINE_CLASSES:
                raise ValueError(
                    f"{path}:{line}: unknown label {label!r}; expected one of {list(FINE_CLASSES)}"
                )
            if tweet_id not in by_id:
                raise ValueError(f"{path}:{line}: id {tweet_id!r} does not exist in the corpus")
            if tweet_id in seen:
                raise ValueError(f"{path}:{line}: id {tweet_id!r} is annotated more than once")
            seen.add(tweet_id)
            labeled.append(LabeledTweet(tweet=by_id[tweet_id], label=label))
    return labeled


def _indices_by_class(data: Sequence[LabeledTweet]) -> dict[str, list[int]]:
    by_class: dict[str, list[int]] = {}
    for i, ex in enumerate(data):
        by_class.setdefault(ex.label, []).append(i)
    return by_class


def balance_classes(
    data: Sequence[LabeledTweet],
    per_class: int,
    rng: RngState,
) -> list[LabeledTweet]:
    """Uniform sample without replacement of per_class examples from every class
    present in the data, returned in the original corpus order."""
    by_class = _indices_by_class(data)
    gen = rng.generator()
    selected: list[int] = []
    for label in FINE_CLASSES:
        if label not in by_class:
            continue
        idxs = by_class[label]
        if len(idxs) < per_class:
            raise ValueError(
                f"class {label!r} has only {len(idxs)} examples, cannot sample {per_class}"
            )
        picks = gen.choice(len(idxs), size=per_class, replace=False)
        selected.extend(idxs[i] for i in picks)
    selected.sort()
    return [data[i] for i in selected]


def binary_subset(data: Sequence[LabeledTweet]) -> list[LabeledTweet]:
    """Positive and negative examples only; neutral dropped."""
    return [ex for ex in data if ex.label in BINARY_CLASSES]


def split(
    data: Sequence[LabeledTweet],
    ratio: float = 0.8,
    rng: RngState | None = None,
    stratified: bool = True,
) -> DatasetSplit:
    """Shuffled train/test partition; floor(ratio*n) to train per stratum.

    Stratified mode applies the formula within each class; global mode applies
    it once over the whole set. A stratum that would leave either side empty
    raises a degenerate-split error.
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"split ratio must be in (0, 1), got {ratio}")
    if len(data) < 2:
        raise ValueError("need at least 2 examples to split")
    if rng is None:
        rng = RngState(seed=0)
    gen = rng.generator()

    def cut(idxs: list[int], stratum: str) -> tuple[list[int], list[int]]:
        n_train = math.floor(ratio * len(idxs))
        if n_train == 0 or n_train == len(idxs):
            raise ValueError(
                f"degenerate split: {stratum} with {len(idxs)} examples at ratio {ratio} "
                "leaves one side empty"
            )
        perm = gen.permutation(len(idxs))
        return [idxs[i] for i in perm[:n_train]], [idxs[i] for i in perm[n_train:]]

    train_idx: list[int] = []
    test_idx: list[int] = []
    if stratified:
        by_class = _indices_by_class(data)
        for label in FINE_CLASSES:
            if label not in by_class:
                continue
            tr, te = cut(by_class[label], f"class {label!r}")
            train_idx.extend(tr)
            test_idx.extend(te)
    else:
        train_idx, test_idx = cut(list(range(len(data))), "the dataset")
    return DatasetSplit(
        train=tuple(data[i] for i in sorted(train_idx)),
        test=tuple(data[i] for i in sorted(test_idx)),
    )


@dataclass
class TrainReport:
    epoch_losses: list[float]
    epoch_accuracies: list[float]
    test_metrics: Metrics
    test_confusion: ConfusionMatrix
    wall_seconds: float
    model_config: ModelConfig
    train_config: TrainConfig

    @property
    def epochs_run(self) -> int:
        return len(self.epoch_losses)

    def to_dict(self) -> dict:
        return {
            "epochs_run": self.epochs_run,
            "epoch_losses": self.epoch_losses,
            "epoch_accuracies": self.epoch_accuracies,
            "test_metrics": self.test_metrics.to_dict(),
            "test_confusion": {
                "classes": list(self.test_confusion.classes),
                "counts": [list(row) for row in self.test_confusion.counts],
            },
            "wall_seconds": self.wall_seconds,
            "model_config": asdict(self.model_config),
            "train_config": self.train_config.to_dict(),
        }


def save_report(report: TrainReport, path: str | Path) -> None:
    with atomic_writer(path) as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _check_train_inputs(
    data: DatasetSplit,
    emb: EmbeddingMatrix,
    vocab: Vocabulary,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
) -> tuple[str, ...]:
    if model_cfg.num_classes != train_cfg.num_classes:
        raise ValueError(
            f"config mismatch: task {train_cfg.task!r} implies {train_cfg.num_classes} classes "
            f"but the model has {model_cfg.num_classes}"
        )
    if emb.dim != model_cfg.embedding_dim:
        raise ValueError(
            f"config mismatch: embeddings have dim {emb.dim}, model expects {model_cfg.embedding_dim}"
        )
    if emb.vocab_size != len(vocab):
        raise ValueError(
            f"config mismatch: embedding matrix covers {emb.vocab_size} words, vocabulary has {len(vocab)}"
        )
    classes = classes_for(model_cfg.num_classes)
    for side_name, side in (("train", data.train), ("test", data.test)):
        for ex in side:
            if ex.label not in classes:
                raise ValueError(
                    f"config mismatch: {side_name} example {ex.id!r} has label {ex.label!r}, "
                    f"task classes are {list(classes)}"
                )
    return classes


def train(
    data: DatasetSplit,
    emb: EmbeddingMatrix,
    vocab: Vocabulary,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
) -> tuple[dict[str, FloatArray], TrainReport]:
    """Minibatch SGD: per epoch, shuffle, batch, average the per-example BPTT
    gradients (one batched kernel call per minibatch), clip to clip_norm, take
    one step. Deterministic given the seed.

    Raises TrainingDivergedError naming the epoch and batch whose loss or
    gradient is not finite."""
    started = time.perf_counter()
    classes = _check_train_inputs(data, emb, vocab, model_cfg, train_cfg)
    class_index = {c: i for i, c in enumerate(classes)}

    # embedding-row indices, gathered into a padded batch at each step
    rows: list[np.ndarray] = []
    for ex in data.train:
        row = token_rows(vocab, ex.tokens)
        if not len(row):
            raise ValueError(
                f"train example {ex.id!r} has no in-vocabulary tokens and cannot be embedded"
            )
        rows.append(row)
    targets = np.array([class_index[ex.label] for ex in data.train])

    root = RngState(seed=train_cfg.seed)
    params = init_params(model_cfg, root.child(0))
    rate = model_cfg.dropout_rate
    k = None if model_cfg.bptt_mode == BPTT_FULL else model_cfg.bptt_k

    n = len(rows)
    workspace = Workspace()
    epoch_losses: list[float] = []
    epoch_accuracies: list[float] = []
    best_loss = math.inf
    stall = 0

    for epoch in range(train_cfg.epochs):
        order = root.child(1, epoch).generator().permutation(n)
        losses: list[np.ndarray] = []
        correct = 0
        for number, start in enumerate(range(0, n, train_cfg.batch_size), start=1):
            batch = order[start : start + train_cfg.batch_size]
            masks = None
            if rate > 0.0:
                masks = np.stack(
                    [dropout_mask(model_cfg.readout_size, rate, root.child(2, epoch, start + pos))
                     for pos in range(len(batch))]
                )
            inputs, lengths = pad_batch([emb.input_vectors[rows[i]] for i in batch], workspace)
            trace = forward_batch(params, model_cfg, inputs, lengths, masks, workspace=workspace)
            y = targets[batch]
            batch_losses = -np.log(np.maximum(trace.probabilities[np.arange(len(batch)), y], PROB_FLOOR))
            if not np.isfinite(batch_losses.sum()):
                raise TrainingDivergedError(
                    f"training diverged: epoch {epoch + 1}, batch {number} has mean loss {batch_losses.mean()}"
                )
            losses.append(batch_losses)
            correct += int(np.sum(np.argmax(trace.probabilities, axis=1) == y))
            grads = backward_batch(params, model_cfg, trace, y, k)
            # the trace's arrays are views of the workspace, which the next batch overwrites
            del trace, inputs
            mean = {name: g / len(batch) for name, g in grads.items()}
            norm = global_norm(mean)
            if not math.isfinite(norm):
                raise TrainingDivergedError(
                    f"training diverged: epoch {epoch + 1}, batch {number} has gradient norm {norm}"
                )
            params = sgd_step(params, clip_gradients(mean, train_cfg.clip_norm, norm), train_cfg.learning_rate)

        epoch_loss = math.fsum(np.concatenate(losses)) / n
        epoch_losses.append(epoch_loss)
        epoch_accuracies.append(correct / n)

        if train_cfg.early_stop:
            stall = stall + 1 if best_loss - epoch_loss < EARLY_STOP_MIN_DELTA else 0
            best_loss = min(best_loss, epoch_loss)
            if stall >= EARLY_STOP_PATIENCE:
                break

    del workspace  # free the training buffers before evaluation allocates its own
    cm, metrics = evaluate(params, model_cfg, emb, vocab, data.test, classes=classes)
    report = TrainReport(
        epoch_losses=epoch_losses,
        epoch_accuracies=epoch_accuracies,
        test_metrics=metrics,
        test_confusion=cm,
        wall_seconds=time.perf_counter() - started,
        model_config=model_cfg,
        train_config=train_cfg,
    )
    return params, report


# ---------------------------------------------------------------------------
# Hyperparameter grid
# ---------------------------------------------------------------------------

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

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class GridResult:
    task: str
    rows: tuple[GridRow, ...]

    def to_dict(self) -> dict:
        return {"task": self.task, "columns": list(GRID_COLUMNS), "rows": [r.to_dict() for r in self.rows]}

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


def save_grid(result: GridResult, json_path: str | Path, table_path: str | Path | None = None) -> None:
    with atomic_writer(json_path) as fh:
        json.dump(result.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    if table_path is not None:
        with atomic_writer(table_path) as fh:
            fh.write(result.format_table())


def run_grid(
    data: DatasetSplit,
    emb: EmbeddingMatrix,
    vocab: Vocabulary,
    task: str,
    base_cfg: TrainConfig,
    hidden_size: int = 64,
) -> GridResult:
    """The 8-cell grid: {standard + tBPTT(50), bidirectional + full} x batch
    {64, 128} x dropout {off, 0.5}, learning rate fixed, rows in table order.

    For the binary task, neutral examples are dropped from both sides first.
    """
    if task == TASK_BINARY:
        data = DatasetSplit(
            train=tuple(binary_subset(data.train)),
            test=tuple(binary_subset(data.test)),
        )
    num_classes = 2 if task == TASK_BINARY else 3

    rows: list[GridRow] = []
    for direction, bptt_mode in ((STANDARD, BPTT_TRUNCATED), (BIDIRECTIONAL, BPTT_FULL)):
        for dropout in GRID_DROPOUTS:
            for batch_size in GRID_BATCH_SIZES:
                model_cfg = ModelConfig(
                    embedding_dim=emb.dim,
                    hidden_size=hidden_size,
                    num_classes=num_classes,
                    dropout_rate=0.0 if dropout is None else dropout,
                    direction=direction,
                    bptt_mode=bptt_mode,
                    bptt_k=50,
                )
                cell_cfg = replace(base_cfg, batch_size=batch_size, task=task)
                _, report = train(data, emb, vocab, model_cfg, cell_cfg)
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
