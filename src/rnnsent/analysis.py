"""Corpus-level sentiment analysis: label the full clean corpus with a trained
model, then aggregate into an overall distribution and a time-bucketed
breakdown suitable for plotting.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .corpus import Corpus, _write_jsonl, atomic_writer, write_json
from .embedding import EmbeddingMatrix
from .evaluation import FINE_CLASSES
from .model import ModelConfig, predict_many
from .numeric import FloatArray

GRANULARITIES = ("month", "week", "day")

NEUTRAL = "neutral"


@dataclass(frozen=True)
class SentimentDistribution:
    """Counts and one-decimal percentages per class, in canonical class order."""

    counts: dict[str, int]
    percentages: dict[str, float]
    total: int

    def __post_init__(self) -> None:
        if sum(self.counts.values()) != self.total:
            raise ValueError("distribution counts do not sum to the total")


@dataclass(frozen=True)
class TemporalBucket:
    label: str  # ISO text of the period's first day (2013-11-11), or of its month (2013-11)
    counts: dict[str, int]


@dataclass(frozen=True)
class TemporalBuckets:
    granularity: str
    buckets: tuple[TemporalBucket, ...]


def classify_corpus(
    params: dict[str, FloatArray],
    model_cfg: ModelConfig,
    emb: EmbeddingMatrix,
    corpus: Corpus,
) -> tuple[np.ndarray, FloatArray, np.ndarray]:
    """Predict every tweet: (labels, confidences, oov), three columns in
    corpus order. A label is an index into FINE_CLASSES, whose first
    num_classes entries are the model's classes, and a confidence is the
    winning probability.

    A tweet with no in-vocabulary token cannot be scored: it is kept, labeled
    neutral with confidence 0.0, and flagged in the oov mask so downstream
    consumers can exclude it.
    """
    if len(corpus) == 0:
        raise ValueError("cannot classify an empty corpus")
    probabilities, known = predict_many(params, model_cfg, emb, corpus)
    # argmax takes the first maximum, so ties go to the lowest class index
    winners = probabilities.argmax(axis=1)
    labels = np.where(known, winners, FINE_CLASSES.index(NEUTRAL))
    confidences = np.where(known, probabilities[np.arange(len(winners)), winners], 0.0)
    return labels, confidences, ~known


def sentiment_distribution(labels: np.ndarray) -> SentimentDistribution:
    """Counts and percentages of `labels`, indices into FINE_CLASSES."""
    if len(labels) == 0:
        raise ValueError("cannot summarize an empty classification")
    counts = dict(zip(FINE_CLASSES, np.bincount(labels, minlength=len(FINE_CLASSES)).tolist()))
    total = len(labels)
    percentages = {c: round(100.0 * counts[c] / total, 1) for c in FINE_CLASSES}
    return SentimentDistribution(counts=counts, percentages=percentages, total=total)


_DAY_MICROS = 86_400_000_000


def temporal_buckets(
    corpus: Corpus,
    labels: np.ndarray,
    granularity: str = "month",
) -> TemporalBuckets:
    """Group each tweet of `corpus`, counted under its class in `labels`
    (indices into FINE_CLASSES), by UTC calendar period (month, ISO week
    starting Monday, or day).

    Buckets are chronological and contiguous: periods inside the observed span
    with no tweets are emitted with zero counts.
    """
    if granularity not in GRANULARITIES:
        raise ValueError(f"granularity must be one of {list(GRANULARITIES)}, got {granularity!r}")
    if len(corpus) == 0:
        raise ValueError("cannot bucket an empty classification")

    # floor division, so an instant before 1970 falls on its own day
    days = (corpus.micros // _DAY_MICROS).astype("M8[D]")
    # each tweet's period as the datetime64 it starts at: its month, its week's
    # Monday (1970-01-01 is a Thursday), or its day
    if granularity == "month":
        periods = days.astype("M8[M]")
    elif granularity == "week":
        periods = days - (days.astype(np.int64) + 3) % 7
    else:
        periods = days
    step = 7 if granularity == "week" else 1
    first = periods.min()
    index = (periods - first).astype(np.int64) // step
    # one row per period from the first to the last, one column per class
    rows = np.bincount(index * len(FINE_CLASSES) + labels, minlength=(index.max() + 1) * len(FINE_CLASSES))
    names = np.datetime_as_string(first + step * np.arange(index.max() + 1)).tolist()
    counts = [dict(zip(FINE_CLASSES, row)) for row in rows.reshape(-1, len(FINE_CLASSES)).tolist()]
    return TemporalBuckets(granularity, tuple(map(TemporalBucket, names, counts)))


def export_report(
    distribution: SentimentDistribution,
    buckets: TemporalBuckets,
    json_path: str | Path,
    csv_path: str | Path,
) -> None:
    """Both report files: JSON carries both structures losslessly; CSV is the
    bucket table with columns period,positive,negative,neutral (the
    distribution is its column sums)."""
    write_json(json_path, {
        "distribution": asdict(distribution),
        "granularity": buckets.granularity,
        "buckets": [{"period": b.label, **b.counts} for b in buckets.buckets],
    })
    with atomic_writer(csv_path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["period", *FINE_CLASSES])
        for b in buckets.buckets:
            writer.writerow([b.label] + [str(b.counts[c]) for c in FINE_CLASSES])


# JSONEncoder(sort_keys=True) writes a float with float.__repr__, also for a
# numpy scalar (whose repr() reads "np.float64(...)"), and these three so
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def save_classified(
    corpus: Corpus,
    labels: np.ndarray,
    confidences: FloatArray,
    oov: np.ndarray,
    path: str | Path,
) -> None:
    """Clean-corpus JSONL plus label, confidence, and oov fields per tweet,
    keys sorted: the bytes of JSONEncoder(sort_keys=True).encode(record),
    line by line; the three columns are classify_corpus's."""
    if not len(corpus) == len(labels) == len(confidences) == len(oov):
        raise ValueError("the corpus and its label, confidence and oov columns differ in length")
    names = [encode_basestring_ascii(c) for c in FINE_CLASSES]
    label_text = list(map(names.__getitem__, labels.tolist()))
    confidence_text = [_JSON_NON_FINITE.get(r, r) for r in map(float.__repr__, confidences.tolist())]
    oov_text = list(map(("false", "true").__getitem__, oov.tolist()))
    line = '{"confidence": %s, "id": %s, "label": %s, "oov": %s, "timestamp": "%s", "tokens": [%s]}\n'.__mod__

    def lines(lo: int, hi: int, ids, stamps, tokens) -> str:
        return "".join(map(line, zip(confidence_text[lo:hi], ids, label_text[lo:hi], oov_text[lo:hi], stamps, tokens)))

    _write_jsonl(path, corpus, encode_basestring_ascii, lines)
