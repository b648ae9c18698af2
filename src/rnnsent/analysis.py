"""Corpus-level sentiment analysis: label the full clean corpus with a trained
model, then aggregate into an overall distribution and a time-bucketed
breakdown suitable for plotting.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from datetime import date
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import CleanTweet, _ensure_utc, _isoformat_all, _write_jsonl, atomic_writer
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
    label: str
    start: date
    counts: dict[str, int]


@dataclass(frozen=True)
class TemporalBuckets:
    granularity: str
    buckets: tuple[TemporalBucket, ...]


def classify_corpus(
    params: dict[str, FloatArray],
    model_cfg: ModelConfig,
    emb: EmbeddingMatrix,
    corpus: Sequence[CleanTweet],
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
    probabilities, known = predict_many(params, model_cfg, emb, [tweet.tokens for tweet in corpus])
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


_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()


def _period_indices(days: np.ndarray, granularity: str) -> np.ndarray:
    """The period of each proleptic Gregorian day ordinal in `days`, numbered
    so that consecutive periods have consecutive numbers: months since
    1970-01, weeks since the Monday of ordinal 1, or the day ordinal itself."""
    if granularity == "month":
        return (days - _EPOCH_ORDINAL).astype("M8[D]").astype("M8[M]").astype(np.int64)
    if granularity == "week":
        return (days - 1) // 7  # ordinal 1, 0001-01-01, is a Monday
    return days


def _period_start(period: int, granularity: str) -> date:
    if granularity == "month":
        year, month = divmod(period, 12)
        return date(1970 + year, month + 1, 1)
    if granularity == "week":
        return date.fromordinal(7 * period + 1)
    return date.fromordinal(period)


def _period_label(start: date, granularity: str) -> str:
    if granularity == "month":
        return f"{start.year:04d}-{start.month:02d}"
    return start.isoformat()


def temporal_buckets(
    corpus: Sequence[CleanTweet],
    labels: np.ndarray,
    granularity: str = "month",
) -> TemporalBuckets:
    """Group each tweet of `corpus`, counted under its class in `labels`
    (indices into FINE_CLASSES), by UTC calendar period (month, ISO week
    starting Monday, or day); a naive timestamp is read as UTC, as
    parse_timestamp reads one.

    Buckets are chronological and contiguous: periods inside the observed span
    with no tweets are emitted with zero counts.
    """
    if granularity not in GRANULARITIES:
        raise ValueError(f"granularity must be one of {list(GRANULARITIES)}, got {granularity!r}")
    if len(corpus) == 0:
        raise ValueError("cannot bucket an empty classification")

    days = np.fromiter((_ensure_utc(tweet.timestamp).toordinal() for tweet in corpus), np.int64, len(corpus))
    periods = _period_indices(days, granularity)
    first, last = int(periods.min()), int(periods.max())
    # one row per period from the first to the last, one column per class
    rows = np.bincount((periods - first) * len(FINE_CLASSES) + labels, minlength=(last - first + 1) * len(FINE_CLASSES))
    buckets = []
    for period, counts in enumerate(rows.reshape(-1, len(FINE_CLASSES)).tolist(), first):
        start = _period_start(period, granularity)
        buckets.append(TemporalBucket(_period_label(start, granularity), start, dict(zip(FINE_CLASSES, counts))))
    return TemporalBuckets(granularity=granularity, buckets=tuple(buckets))


def export_report(
    distribution: SentimentDistribution,
    buckets: TemporalBuckets,
    path: str | Path,
    format: str = "json",
) -> None:
    """JSON carries both structures losslessly; CSV is the bucket table with
    columns period,positive,negative,neutral (the distribution is its column
    sums)."""
    if format not in ("json", "csv"):
        raise ValueError(f"format must be 'json' or 'csv', got {format!r}")
    if format == "json":
        payload = {
            "distribution": {
                "counts": dict(distribution.counts),
                "percentages": dict(distribution.percentages),
                "total": distribution.total,
            },
            "granularity": buckets.granularity,
            "buckets": [
                {"period": b.label, **{c: b.counts[c] for c in FINE_CLASSES}}
                for b in buckets.buckets
            ],
        }
        with atomic_writer(path) as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        with atomic_writer(path) as fh:
            writer = csv.writer(fh)
            writer.writerow(["period", *FINE_CLASSES])
            for b in buckets.buckets:
                writer.writerow([b.label] + [str(b.counts[c]) for c in FINE_CLASSES])


# JSONEncoder(sort_keys=True) writes a float with float.__repr__, also for a
# numpy scalar (whose repr() reads "np.float64(...)"), and these three so
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _classified_lines(rows: list[tuple[CleanTweet, str, str, str]]) -> str:
    # the bytes of JSONEncoder(sort_keys=True).encode(record), line by line;
    # isoformat's text (digits and "T:.+-") needs no escape
    stamps = _isoformat_all([row[0].timestamp for row in rows])
    return "".join([
        '{"confidence": %s, "id": %s, "label": %s, "oov": %s, "timestamp": "%s", "tokens": [%s]}\n'
        % (
            confidence,
            encode_basestring_ascii(tweet.id),
            label,
            oov,
            stamp,
            ", ".join(map(encode_basestring_ascii, tweet.tokens)),
        )
        for (tweet, label, confidence, oov), stamp in zip(rows, stamps)
    ])


def save_classified(
    corpus: Sequence[CleanTweet],
    labels: np.ndarray,
    confidences: FloatArray,
    oov: np.ndarray,
    path: str | Path,
) -> None:
    """Clean-corpus JSONL plus label, confidence, and oov fields per tweet,
    keys sorted; the three columns are classify_corpus's."""
    names = [encode_basestring_ascii(c) for c in FINE_CLASSES]
    label_text = map(names.__getitem__, labels.tolist())
    confidence_text = (_JSON_NON_FINITE.get(r, r) for r in map(float.__repr__, confidences.tolist()))
    oov_text = map(("false", "true").__getitem__, oov.tolist())
    _write_jsonl(path, zip(corpus, label_text, confidence_text, oov_text, strict=True), _classified_lines)
