"""Classification metrics: confusion matrix, accuracy, per-class F1, error shares.

Every derived number is recomputable from the confusion matrix alone, so the
matrix is the canonical artifact and Metrics is a pure function of it.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import Corpus, atomic_writer, write_json
from .embedding import EmbeddingMatrix
from .model import ModelConfig, predict_many
from .numeric import FloatArray

# Canonical reporting order for sentiment labels, used everywhere a class list
# is implied rather than passed explicitly. A label is an index into
# FINE_CLASSES; the binary classes are its first two, so a task with C classes
# keeps the labels below C and needs no second numbering.
FINE_CLASSES = ("positive", "negative", "neutral")
BINARY_CLASSES = FINE_CLASSES[:2]


def classes_for(num_classes: int) -> tuple[str, ...]:
    if num_classes == 3:
        return FINE_CLASSES
    if num_classes == 2:
        return BINARY_CLASSES
    raise ValueError(f"no label set defined for {num_classes} classes")


@dataclass(frozen=True)
class ConfusionMatrix:
    """counts[i][j] = examples with gold class i predicted as class j."""

    classes: tuple[str, ...]
    counts: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.classes)
        if n == 0 or len(set(self.classes)) != n:
            raise ValueError("class names must be non-empty and unique")
        if len(self.counts) != n or any(len(row) != n for row in self.counts):
            raise ValueError(f"counts must be {n}x{n} to match the class list")
        if any(c < 0 for row in self.counts for c in row):
            raise ValueError("confusion counts cannot be negative")

    @property
    def total(self) -> int:
        return sum(sum(row) for row in self.counts)

    def as_array(self) -> np.ndarray:
        return np.array(self.counts, dtype=np.int64)


def confusion_matrix(
    golds: Sequence[int],
    preds: Sequence[int],
    classes: Sequence[str],
) -> ConfusionMatrix:
    """Count gold/predicted pairs, each label an index into `classes`."""
    golds, preds = np.asarray(golds, dtype=np.int64), np.asarray(preds, dtype=np.int64)
    if len(golds) != len(preds):
        raise ValueError(f"length mismatch: {len(golds)} gold labels vs {len(preds)} predictions")
    n = len(classes)
    for kind, column in (("gold", golds), ("predicted", preds)):
        unknown = column[(column < 0) | (column >= n)]
        if len(unknown):
            raise ValueError(f"unknown {kind} label {unknown[0]}; classes are indices 0..{n - 1} of {list(classes)}")
    counts = np.bincount(golds * n + preds, minlength=n * n).reshape(n, n)
    return ConfusionMatrix(tuple(classes), tuple(map(tuple, counts.tolist())))


@dataclass(frozen=True)
class ClassScores:
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class Metrics:
    accuracy: float
    f1_macro: float
    per_class: dict[str, ClassScores]
    false_negative_share: float
    total: int
    oov_examples: int = 0


def _ratio(num: float, den: float) -> float:
    """Division with the zero-denominator-yields-zero convention."""
    return float(num / den) if den > 0 else 0.0


def metrics_from_confusion(cm: ConfusionMatrix, oov_examples: int = 0) -> Metrics:
    """Accuracy, per-class and macro F1, and the false-negative share: the fraction of all examples
    wrongly predicted as negative, 0.0 without a negative class. All are read from one array of `cm`."""
    arr = cm.as_array()
    total = float(arr.sum())
    if total == 0:
        raise ValueError("confusion matrix is empty (no evaluated examples)")
    scores = {}
    for i, name in enumerate(cm.classes):
        p = _ratio(float(arr[i, i]), float(arr[:, i].sum()))
        r = _ratio(float(arr[i, i]), float(arr[i, :].sum()))
        scores[name] = ClassScores(precision=p, recall=r, f1=_ratio(2.0 * p * r, p + r))
    share = 0.0
    if "negative" in cm.classes:
        j = cm.classes.index("negative")
        share = _ratio(float(arr[:, j].sum() - arr[j, j]), total)
    return Metrics(
        accuracy=float(np.trace(arr)) / total,
        f1_macro=float(np.mean([s.f1 for s in scores.values()])),
        per_class=scores,
        false_negative_share=share,
        total=cm.total,
        oov_examples=oov_examples,
    )


def evaluate(
    params: dict[str, FloatArray],
    model_cfg: ModelConfig,
    emb: EmbeddingMatrix,
    corpus: Corpus,
    golds: Sequence[int],
) -> tuple[ConfusionMatrix, Metrics]:
    """Score the tweets of `corpus` against their gold labels, indices into
    the model's classes, FINE_CLASSES[:num_classes].

    An example whose tokens are all out-of-vocabulary cannot be classified; it
    is charged as an error by recording a prediction of the first class that
    differs from its gold label (negative for a positive gold, positive
    otherwise), and counted in Metrics.oov_examples. This keeps Metrics an
    exact function of the returned confusion matrix.
    """
    if len(corpus) == 0:
        raise ValueError("cannot evaluate an empty test set")
    if len(golds) != len(corpus):
        raise ValueError(f"length mismatch: {len(corpus)} tweets vs {len(golds)} gold labels")
    golds = np.asarray(golds, dtype=np.int64)
    probabilities, known = predict_many(params, model_cfg, emb, corpus)
    # argmax takes the first maximum, so ties go to the lowest class index
    preds = np.where(known, probabilities.argmax(axis=1), golds == 0)
    cm = confusion_matrix(golds, preds, classes_for(model_cfg.num_classes))
    return cm, metrics_from_confusion(cm, oov_examples=int(np.sum(~known)))


def save_metrics(metrics: Metrics, path: str | Path) -> None:
    write_json(path, asdict(metrics))


def save_confusion(cm: ConfusionMatrix, path: str | Path) -> None:
    """CSV with a leading gold-label column and one predicted-label column per class."""
    with atomic_writer(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["gold"] + list(cm.classes))
        for name, row in zip(cm.classes, cm.counts):
            writer.writerow([name] + [str(c) for c in row])
