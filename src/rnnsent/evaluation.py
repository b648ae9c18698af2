"""Classification metrics: confusion matrix, accuracy, per-class F1, error shares.

Every derived number is recomputable from the confusion matrix alone, so the
matrix is the canonical artifact and Metrics is a pure function of it.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import Vocabulary, atomic_writer
from .embedding import EmbeddingMatrix
from .model import ModelConfig, predict_many
from .numeric import FloatArray

# Canonical reporting order for sentiment labels, used everywhere a class list
# is implied rather than passed explicitly.
FINE_CLASSES = ("positive", "negative", "neutral")
BINARY_CLASSES = ("positive", "negative")


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
    golds: Sequence[str],
    preds: Sequence[str],
    classes: Sequence[str],
) -> ConfusionMatrix:
    if len(golds) != len(preds):
        raise ValueError(f"length mismatch: {len(golds)} gold labels vs {len(preds)} predictions")
    index = {c: i for i, c in enumerate(classes)}
    counts = np.zeros((len(index), len(index)), dtype=np.int64)
    for g, p in zip(golds, preds):
        if g not in index:
            raise ValueError(f"unknown gold label {g!r}; classes are {list(classes)}")
        if p not in index:
            raise ValueError(f"unknown predicted label {p!r}; classes are {list(classes)}")
        counts[index[g], index[p]] += 1
    return ConfusionMatrix(tuple(classes), tuple(tuple(int(c) for c in row) for row in counts))


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

    def to_dict(self) -> dict:
        return asdict(self)


def _ratio(num: float, den: float) -> float:
    """Division with the zero-denominator-yields-zero convention."""
    return float(num / den) if den > 0 else 0.0


def _require_nonempty(matrix: ConfusionMatrix) -> None:
    if matrix.total == 0:
        raise ValueError("confusion matrix is empty (no evaluated examples)")


def accuracy(cm: ConfusionMatrix) -> float:
    _require_nonempty(cm)
    arr = cm.as_array()
    return float(np.trace(arr)) / float(arr.sum())


def per_class_scores(cm: ConfusionMatrix) -> dict[str, ClassScores]:
    _require_nonempty(cm)
    arr = cm.as_array()
    scores = {}
    for i, name in enumerate(cm.classes):
        p = _ratio(float(arr[i, i]), float(arr[:, i].sum()))
        r = _ratio(float(arr[i, i]), float(arr[i, :].sum()))
        scores[name] = ClassScores(precision=p, recall=r, f1=_ratio(2.0 * p * r, p + r))
    return scores


def f1_scores(cm: ConfusionMatrix) -> tuple[list[float], float]:
    """(per-class F1 in class order, unweighted macro mean)."""
    scores = per_class_scores(cm)
    per_class = [scores[c].f1 for c in cm.classes]
    return per_class, float(np.mean(per_class))


def false_negative_share(cm: ConfusionMatrix, negative_label: str = "negative") -> float:
    """Fraction of all examples wrongly predicted as negative_label."""
    if negative_label not in cm.classes:
        raise ValueError(f"unknown label {negative_label!r}; classes are {list(cm.classes)}")
    arr = cm.as_array()
    j = cm.classes.index(negative_label)
    wrong_into_negative = float(arr[:, j].sum() - arr[j, j])
    return _ratio(wrong_into_negative, float(arr.sum()))


def metrics_from_confusion(cm: ConfusionMatrix, oov_examples: int = 0) -> Metrics:
    scores = per_class_scores(cm)
    _, macro = f1_scores(cm)
    share = false_negative_share(cm) if "negative" in cm.classes else 0.0
    return Metrics(
        accuracy=accuracy(cm),
        f1_macro=macro,
        per_class=scores,
        false_negative_share=share,
        total=cm.total,
        oov_examples=oov_examples,
    )


def _example_fields(example) -> tuple[Sequence[str], str]:
    if hasattr(example, "tokens") and hasattr(example, "label"):
        return example.tokens, example.label
    tokens, label = example
    return tokens, label


def evaluate(
    params: dict[str, FloatArray],
    model_cfg: ModelConfig,
    emb: EmbeddingMatrix,
    vocab: Vocabulary,
    test: Sequence,
    classes: Sequence[str] | None = None,
) -> tuple[ConfusionMatrix, Metrics]:
    """Score labeled examples (anything with .tokens/.label, or (tokens, label) pairs).

    An example whose tokens are all out-of-vocabulary cannot be classified; it
    is charged as an error by recording a prediction of the first class that
    differs from its gold label, and counted in Metrics.oov_examples. This
    keeps Metrics an exact function of the returned confusion matrix.
    """
    if len(test) == 0:
        raise ValueError("cannot evaluate an empty test set")
    class_list = list(classes) if classes is not None else list(classes_for(model_cfg.num_classes))
    fields = [_example_fields(example) for example in test]
    golds = [gold for _, gold in fields]
    for gold in golds:
        if gold not in class_list:
            raise ValueError(f"gold label {gold!r} is not in the class list {class_list}")
    probabilities, known = predict_many(params, model_cfg, emb, vocab, [tokens for tokens, _ in fields])
    preds = [
        class_list[int(np.argmax(probs))] if scored else next(c for c in class_list if c != gold)
        for gold, probs, scored in zip(golds, probabilities, known)
    ]
    oov = int(np.sum(~known))
    cm = confusion_matrix(golds, preds, class_list)
    return cm, metrics_from_confusion(cm, oov_examples=oov)


def save_metrics(metrics: Metrics, path: str | Path) -> None:
    with atomic_writer(path) as fh:
        json.dump(metrics.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_confusion(cm: ConfusionMatrix, path: str | Path) -> None:
    """CSV with a leading gold-label column and one predicted-label column per class."""
    with atomic_writer(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["gold"] + list(cm.classes))
        for name, row in zip(cm.classes, cm.counts):
            writer.writerow([name] + [str(c) for c in row])


def load_confusion(path: str | Path) -> ConfusionMatrix:
    with Path(path).open(encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0][:1] != ["gold"]:
        raise ValueError(f"{path}: not a confusion-matrix CSV")
    classes = tuple(rows[0][1:])
    counts = []
    for row in rows[1:]:
        if len(row) != len(classes) + 1:
            raise ValueError(f"{path}: malformed row {row!r}")
        counts.append(tuple(int(c) for c in row[1:]))
    return ConfusionMatrix(classes, tuple(counts))
