"""Shared synthetic fixtures: separable sentiment corpora, planted embedding
clusters, raw-tweet files for the CLI, and the hand-traced preprocessing case;
and the tests' own row form of a clean corpus, Tweet, with the conversions
between a list of them and the Corpus table.
"""

from __future__ import annotations

import csv
import json
from collections import Counter
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from rnnsent.corpus import Corpus, Vocabulary
from rnnsent.embedding import EmbeddingMatrix
from rnnsent.evaluation import FINE_CLASSES
from rnnsent.numeric import RngState

CLASS_WORDS = {
    "positive": ("salamat", "masaya", "ligtas", "tulong", "mabuti", "pagasa"),
    "negative": ("wasak", "patay", "lungkot", "takot", "sira", "sugat"),
    "neutral": ("balita", "lista", "bilang", "report", "mapa", "radyo"),
}
FILLER_WORDS = ("bagyo", "yolanda", "tacloban", "leyte", "gamit", "tubig")

EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


class Tweet(NamedTuple):
    """One row of a clean corpus, as a test writes one down."""

    id: str
    timestamp: datetime
    tokens: tuple[str, ...]


def micros(stamp: datetime) -> int:
    """UTC microseconds since the epoch of `stamp`; a naive one is read as UTC."""
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    return (stamp - EPOCH) // timedelta(microseconds=1)


def table(tweets: Iterable[Tweet]) -> Corpus:
    """The Corpus of `tweets`, in order; a naive timestamp is read as UTC.

    Its words are sorted, not in the order first seen that the reader
    builds, so the tests that use it also run on another word order.
    """
    tweets = list(tweets)
    words = sorted({token for t in tweets for token in t.tokens})
    index = {word: i for i, word in enumerate(words)}
    return Corpus(
        tuple(t.id for t in tweets),
        np.array([micros(t.timestamp) for t in tweets], dtype=np.int64),
        tuple(words),
        np.array([index[token] for t in tweets for token in t.tokens], dtype=np.int32),
        np.cumsum([0] + [len(t.tokens) for t in tweets], dtype=np.int64),
    )


def lists_table(token_lists: Iterable[Iterable[str]]) -> Corpus:
    """The Corpus of one tweet per token list, with ids "0", "1", ..., all at
    the epoch, and its words sorted, as table builds them."""
    return table(Tweet(str(i), EPOCH, tuple(tokens)) for i, tokens in enumerate(token_lists))


def tokens_of(corpus: Corpus) -> list[str]:
    """Every token of `corpus` in order, read from its word column."""
    return list(map(corpus.words.__getitem__, corpus.word_ids.tolist()))


def tweets_of(corpus: Corpus) -> list[Tweet]:
    """The rows of `corpus`, each timestamp an aware UTC datetime."""
    tokens, offsets = tokens_of(corpus), corpus.offsets.tolist()
    return [
        Tweet(tid, EPOCH + timedelta(microseconds=m), tuple(tokens[a:b]))
        for tid, m, a, b in zip(corpus.ids, corpus.micros.tolist(), offsets, offsets[1:])
    ]


def synthetic_labeled(n_per_class: int, seed: int) -> tuple[Corpus, np.ndarray]:
    """Class-indicative tweets: 4-6 class keywords plus 2-3 shared fillers,
    timestamps cycling over Nov 2013 - Jan 2014; and their labels, indices
    into FINE_CLASSES (n_per_class of each, in class order)."""
    gen = RngState(seed=seed).generator()
    out: list[Tweet] = []
    i = 0
    for label in FINE_CLASSES:
        words = CLASS_WORDS[label]
        for _ in range(n_per_class):
            k = int(gen.integers(4, 7))
            tokens = [words[j] for j in gen.integers(len(words), size=k)]
            tokens += [FILLER_WORDS[j] for j in gen.integers(len(FILLER_WORDS), size=int(gen.integers(2, 4)))]
            tokens = [tokens[j] for j in gen.permutation(len(tokens))]
            month = (11, 12, 1)[i % 3]
            ts = datetime(2014 if month == 1 else 2013, month, 1 + i % 28, 10, 0, tzinfo=timezone.utc)
            out.append(Tweet(id=f"s{i:05d}", timestamp=ts, tokens=tuple(tokens)))
            i += 1
    return table(out), np.repeat(np.arange(len(FINE_CLASSES)), n_per_class)


def vocabulary_of(corpus: Corpus) -> Vocabulary:
    return Vocabulary.from_counts(Counter(tokens_of(corpus)))


def separable_embeddings(
    vocab: Vocabulary,
    seed: int,
    dim: int = 12,
    scale: float = 1.5,
) -> EmbeddingMatrix:
    """Hand-planted vectors: each class's keywords share one of three
    orthogonal block directions, fillers are small noise."""
    gen = RngState(seed=seed).generator()
    vectors = 0.05 * gen.normal(size=(len(vocab), dim))
    block = dim // 3
    for c, (_, words) in enumerate(sorted(CLASS_WORDS.items())):
        for w in words:
            if w in vocab:
                vectors[vocab.index(w), c * block : (c + 1) * block] += scale
    return EmbeddingMatrix(vocab, vectors)


def two_cluster_corpus(
    words_per_cluster: int = 8,
    sentences: int = 300,
    seed: int = 0,
) -> tuple[Corpus, Vocabulary]:
    """Planted co-occurrence structure: every sentence draws from one cluster."""
    gen = RngState(seed=seed).generator()
    clusters = (
        [f"aaa{i}" for i in range(words_per_cluster)],
        [f"bbb{i}" for i in range(words_per_cluster)],
    )
    tweets = []
    for s in range(sentences):
        words = clusters[s % 2]
        tokens = tuple(words[j] for j in gen.integers(len(words), size=6))
        ts = datetime(2013, 11, 1 + s % 28, tzinfo=timezone.utc)
        tweets.append(Tweet(id=f"c{s:04d}", timestamp=ts, tokens=tokens))
    counts = Counter(t for tw in tweets for t in tw.tokens)
    return table(tweets), Vocabulary.from_counts(counts)


def write_raw_corpus(
    directory: Path,
    n_per_class: int,
    seed: int,
) -> tuple[Path, Path]:
    """Raw JSONL + annotations CSV whose cleaned tokens reproduce the labeled
    examples exactly: noise (retweet marker, mentions, hashtag, url, emoji) is
    stripped by preprocessing and a unique low-frequency marker token defeats
    text-level deduplication without surviving the frequency filter."""
    corpus, labels = synthetic_labeled(n_per_class, seed)
    tweets = tweets_of(corpus)
    raw_path = directory / "raw.jsonl"
    ann_path = directory / "annotations.csv"
    with raw_path.open("w", encoding="utf-8") as fh:
        for i, tweet in enumerate(tweets):
            text = (
                f"RT @user{i % 9}: " + " ".join(tweet.tokens)
                + f" marker{i} #tag{i} \U0001f64f http://t.co/x{i}"
            )
            record = {"id": tweet.id, "timestamp": tweet.timestamp.isoformat(), "text": text}
            fh.write(json.dumps(record) + "\n")
    with ann_path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "label"])
        for tweet, label in zip(tweets, labels):
            writer.writerow([tweet.id, FINE_CLASSES[label]])
    return raw_path, ann_path


# ---------------------------------------------------------------------------
# Hand-traced preprocessing fixture: 10 raw tweets covering every cleaning
# rule, with the expected output worked out by hand and frozen here.
#
# Trace summary (min_len 3, min_freq 5, default stopwords):
#   a1  strips RT marker, @user, url, # symbol; "yolandaph" later fails min_freq
#   a2  apostrophe deleted ("storm's" -> "storms", freq 1), "..."/"!" to space
#   a3  www-url, emoji removed; "and"/"in" stopwords
#   a4  two mentions; "ph" fails min_len
#   a5  "&" stripped; help appears 3x total so fails min_freq
#   a6  non-ascii emoji; "ang"/"sa" stopwords
#   a7  "again" survives filters but fails min_freq; "uy"/"na"/"sa" dropped
#   a8  underscore split ("food_relief" -> "food relief"); duplicate "relief" kept
#   a9  duplicate of a1 up to case and spacing -> removed by deduplication
#   a10 reduces to nothing -> dropped as empty
#
# Surviving corpus-wide counts: storm 7, food 5, relief 5, tacloban 5, water 5.
# ---------------------------------------------------------------------------

HAND_TRACE_RAW = (
    ("a1", "2013-11-09T08:00:00Z", "RT @juan: Storm relief water food #YolandaPH http://t.co/abc"),
    ("a2", "2013-11-10T09:30:00Z", "The storm's damage is huge... please help! #storm"),
    ("a3", "2013-11-20T12:00:00Z", "Water and food relief arrived in Tacloban \U0001f64f www.relief.ph/updates"),
    ("a4", "2013-12-01T10:00:00Z", "@maria @jose PH needs help: water, food, relief goods"),
    ("a5", "2013-12-15T14:00:00Z", "Tacloban update: storm survivors need water & food #help"),
    ("a6", "2013-12-25T16:00:00Z", "RT @nina: grabe ang bagyo... storm damage sa Tacloban \U0001f62d"),
    ("a7", "2014-01-05T09:00:00Z", "Is it the storm again? uy! na sa Tacloban storm"),
    ("a8", "2014-01-10T11:00:00Z", "Food_relief and water relief for Tacloban storm victims"),
    ("a9", "2014-01-15T13:00:00Z", "rt   @JUAN:  STORM relief water FOOD #yolandaph HTTP://T.CO/ABC"),
    ("a10", "2014-01-20T15:00:00Z", "@pedro sa the is of to \U0001f64f uy ph"),
)

HAND_TRACE_EXPECTED_TOKENS = {
    "a1": ("storm", "relief", "water", "food"),
    "a2": ("storm",),
    "a3": ("water", "food", "relief", "tacloban"),
    "a4": ("water", "food", "relief"),
    "a5": ("tacloban", "storm", "water", "food"),
    "a6": ("storm", "tacloban"),
    "a7": ("storm", "tacloban", "storm"),
    "a8": ("food", "relief", "water", "relief", "tacloban", "storm"),
}

HAND_TRACE_EXPECTED_ORDER = ("a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8")

# (token, index, count) ordered by descending count then token
HAND_TRACE_EXPECTED_VOCAB = (
    ("storm", 0, 7),
    ("food", 1, 5),
    ("relief", 2, 5),
    ("tacloban", 3, 5),
    ("water", 4, 5),
)

HAND_TRACE_EXPECTED_STATS = {
    "raw_count": 10,
    "deduplicated_count": 9,
    "final_count": 8,
    "vocab_size": 5,
}
