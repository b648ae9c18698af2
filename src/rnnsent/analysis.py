"""Corpus-level sentiment analysis: label the full clean corpus with a trained
model, then aggregate into an overall distribution and a time-bucketed
breakdown suitable for plotting.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from datetime import date, timedelta, timezone
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import CleanTweet, Vocabulary, atomic_writer
from .embedding import EmbeddingMatrix
from .evaluation import FINE_CLASSES, classes_for
from .model import ModelConfig, predict_many
from .numeric import FloatArray

GRANULARITIES = ("month", "week", "day")

NEUTRAL = "neutral"


@dataclass(frozen=True)
class ClassifiedTweet:
    tweet: CleanTweet
    label: str
    confidence: float
    oov: bool = False


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
    vocab: Vocabulary,
    corpus: Sequence[CleanTweet],
) -> list[ClassifiedTweet]:
    """Predict every tweet; confidence is the winning probability.

    A tweet with no in-vocabulary token cannot be scored: it is kept, labeled
    neutral with confidence 0.0, and flagged oov so downstream consumers can
    exclude it.
    """
    if len(corpus) == 0:
        raise ValueError("cannot classify an empty corpus")
    classes = classes_for(model_cfg.num_classes)
    out: list[ClassifiedTweet] = []
    probabilities, known = predict_many(params, model_cfg, emb, vocab, [tweet.tokens for tweet in corpus])
    # argmax takes the first maximum, so ties go to the lowest class index
    winners = probabilities.argmax(axis=1)
    confidences = probabilities[np.arange(len(winners)), winners]
    for tweet, idx, confidence, scored in zip(corpus, winners.tolist(), confidences.tolist(), known.tolist()):
        if scored:
            out.append(ClassifiedTweet(tweet, classes[idx], confidence))
        else:
            out.append(ClassifiedTweet(tweet, NEUTRAL, 0.0, oov=True))
    return out


def sentiment_distribution(classified: Sequence[ClassifiedTweet]) -> SentimentDistribution:
    if len(classified) == 0:
        raise ValueError("cannot summarize an empty classification")
    counts = {c: 0 for c in FINE_CLASSES}
    for item in classified:
        counts[item.label] += 1
    total = len(classified)
    percentages = {c: round(100.0 * counts[c] / total, 1) for c in FINE_CLASSES}
    return SentimentDistribution(counts=counts, percentages=percentages, total=total)


def _period_start(day: date, granularity: str) -> date:
    if granularity == "month":
        return day.replace(day=1)
    if granularity == "week":
        return day - timedelta(days=day.weekday())
    return day


def _next_period(start: date, granularity: str) -> date:
    if granularity == "month":
        return date(start.year + (start.month == 12), start.month % 12 + 1, 1)
    if granularity == "week":
        return start + timedelta(days=7)
    return start + timedelta(days=1)


def _period_label(start: date, granularity: str) -> str:
    if granularity == "month":
        return f"{start.year:04d}-{start.month:02d}"
    return start.isoformat()


def temporal_buckets(
    classified: Sequence[ClassifiedTweet],
    granularity: str = "month",
) -> TemporalBuckets:
    """Group by UTC calendar period (month, ISO week starting Monday, or day).

    Buckets are chronological and contiguous: periods inside the observed span
    with no tweets are emitted with zero counts.
    """
    if granularity not in GRANULARITIES:
        raise ValueError(f"granularity must be one of {list(GRANULARITIES)}, got {granularity!r}")
    if len(classified) == 0:
        raise ValueError("cannot bucket an empty classification")

    tallies: dict[date, dict[str, int]] = {}
    for item in classified:
        day = item.tweet.timestamp.astimezone(timezone.utc).date()
        start = _period_start(day, granularity)
        bucket = tallies.setdefault(start, {c: 0 for c in FINE_CLASSES})
        bucket[item.label] += 1

    first, last = min(tallies), max(tallies)
    buckets: list[TemporalBucket] = []
    cursor = first
    while cursor <= last:
        counts = tallies.get(cursor, {c: 0 for c in FINE_CLASSES})
        buckets.append(TemporalBucket(_period_label(cursor, granularity), cursor, counts))
        cursor = _next_period(cursor, granularity)
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


def load_report(path: str | Path) -> tuple[SentimentDistribution, TemporalBuckets]:
    """Inverse of export_report's JSON form."""
    with Path(path).open(encoding="utf-8") as fh:
        payload = json.load(fh)
    dist = SentimentDistribution(
        counts={c: int(payload["distribution"]["counts"][c]) for c in FINE_CLASSES},
        percentages={c: float(payload["distribution"]["percentages"][c]) for c in FINE_CLASSES},
        total=int(payload["distribution"]["total"]),
    )
    granularity = payload["granularity"]
    buckets = tuple(
        TemporalBucket(
            label=b["period"],
            start=_label_to_date(b["period"], granularity),
            counts={c: int(b[c]) for c in FINE_CLASSES},
        )
        for b in payload["buckets"]
    )
    return dist, TemporalBuckets(granularity=granularity, buckets=buckets)


def _label_to_date(label: str, granularity: str) -> date:
    if granularity == "month":
        year, month = label.split("-")
        return date(int(year), int(month), 1)
    return date.fromisoformat(label)


_encode_json = json.JSONEncoder(sort_keys=True).encode


def save_classified(classified: Sequence[ClassifiedTweet], path: str | Path) -> None:
    """Clean-corpus JSONL plus label, confidence, and oov fields per tweet, keys sorted."""
    with atomic_writer(path) as fh:
        for item in classified:
            record = {
                "id": item.tweet.id,
                "timestamp": item.tweet.timestamp.isoformat(),
                "tokens": item.tweet.tokens,  # a tuple encodes as a JSON array
                "label": item.label,
                "confidence": item.confidence,
                "oov": item.oov,
            }
            fh.write(_encode_json(record) + "\n")
