"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed and returns both the files the
program will read and the properties planted in them, which the checks later
compare the program's outputs against. The program sees only the files.
"""

from __future__ import annotations

import csv
import json
from collections import Counter
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

CLASSES = ("positive", "negative", "neutral")

# The make-up of the package's own synthetic test corpus: six keywords per
# class and six shared fillers, with planted 12-dim embeddings in which each
# class's keywords share one block direction.
CLASS_WORDS = {
    "positive": ("salamat", "masaya", "ligtas", "tulong", "mabuti", "pagasa"),
    "negative": ("wasak", "patay", "lungkot", "takot", "sira", "sugat"),
    "neutral": ("balita", "lista", "bilang", "report", "mapa", "radyo"),
}
FILLER_WORDS = ("bagyo", "yolanda", "tacloban", "leyte", "gamit", "tubig")
EMBED_DIM = 12
# One label in LABEL_NOISE_EVERY disagrees with the tweet's keywords, as
# annotators do. The training loss then settles near a floor set by that
# share, instead of sinking towards zero at a seed-dependent pace. Which
# other class a label goes to is drawn, so the confusion matrix is not
# symmetric and per-class scores differ, as a macro-F1 recount needs.
LABEL_NOISE_EVERY = 5
EPOCH0 = datetime(2013, 11, 1, tzinfo=timezone.utc)
SPAN_DAYS = 92  # Nov 2013 - Jan 2014

_CONSONANTS = "bdghklmnprstvyz"
_VOWELS = "aeiou"
_SYLLABLES = [c + v for c in _CONSONANTS for v in _VOWELS]


def pseudo_word(i: int, prefix: str = "") -> str:
    """A distinct lowercase three-syllable word for every i < 75**3."""
    n = len(_SYLLABLES)
    return prefix + _SYLLABLES[i % n] + _SYLLABLES[(i // n) % n] + _SYLLABLES[(i // n // n) % n]


def rng_for(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**64, stream])


def _timestamp(gen: np.random.Generator) -> datetime:
    return EPOCH0 + timedelta(seconds=int(gen.integers(SPAN_DAYS * 86400)))


def _write_clean(path: Path, records: list[tuple[str, datetime, list[str]]]) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for tid, ts, tokens in records:
            fh.write(json.dumps({"id": tid, "timestamp": ts.isoformat(), "tokens": tokens}) + "\n")


def _write_embeddings(path: Path, tokens: list[str], vectors: np.ndarray) -> None:
    with path.open("w", encoding="utf-8") as fh:
        fh.write(f"SGNS-EMB v1 {len(tokens)} {vectors.shape[1]}\n")
        for tok, row in zip(tokens, vectors):
            fh.write(tok + " " + " ".join(f"{x:.9g}" for x in row) + "\n")


def _planted_embeddings(gen: np.random.Generator, tokens: list[str], scale: float = 1.5) -> np.ndarray:
    vectors = 0.05 * gen.normal(size=(len(tokens), EMBED_DIM))
    block = EMBED_DIM // 3
    index = {t: i for i, t in enumerate(tokens)}
    for c, label in enumerate(CLASSES):
        for w in CLASS_WORDS[label]:
            vectors[index[w], c * block : (c + 1) * block] += scale
    return vectors


def labeled_tweets(directory: Path, seed: int, n_per_class: int, n_stream: int) -> dict:
    """train-tweets: 4-6 class keywords plus 2-3 fillers per tweet (6-9 tokens).

    Writes the labeled corpus with its annotations, the planted embeddings,
    and a larger unlabeled stream of the same make for analysis.
    """
    gen = rng_for(seed, 1)

    def tweet(label: str) -> list[str]:
        words = CLASS_WORDS[label]
        tokens = [words[j] for j in gen.integers(len(words), size=int(gen.integers(4, 7)))]
        tokens += [FILLER_WORDS[j] for j in gen.integers(len(FILLER_WORDS), size=int(gen.integers(2, 4)))]
        return [tokens[j] for j in gen.permutation(len(tokens))]

    vocab = [w for label in CLASSES for w in CLASS_WORDS[label]] + list(FILLER_WORDS)
    labeled = [
        (f"t{i:05d}", _timestamp(gen), tweet(label), label)
        for i, label in enumerate(label for label in CLASSES for _ in range(n_per_class))
    ]
    stream = [
        (f"u{i:05d}", _timestamp(gen), tweet(CLASSES[int(gen.integers(3))]))
        for i in range(n_stream)
    ]
    return _write_classifier_inputs(directory, gen, vocab, labeled, stream)


def long_tweets(directory: Path, seed: int, n_per_class: int, n_stream: int) -> dict:
    """train-long: lengths 5-150, one token in four a class keyword and the
    rest drawn from forty fillers. In the unlabeled stream one token in ten is
    out of vocabulary, and one tweet in twenty consists of such tokens only."""
    gen = rng_for(seed, 2)
    fillers = list(FILLER_WORDS) + [pseudo_word(i, "f") for i in range(34)]

    def tweet(label: str, oov_rate: float = 0.0) -> list[str]:
        length = int(gen.integers(5, 151))
        n_class = max(1, int(round(length / 4)))
        words = CLASS_WORDS[label]
        tokens = [words[j] for j in gen.integers(len(words), size=n_class)]
        tokens += [fillers[j] for j in gen.integers(len(fillers), size=length - n_class)]
        tokens = [tokens[j] for j in gen.permutation(len(tokens))]
        if oov_rate:
            tokens = [f"oov{j}" if u < oov_rate else t for t, u, j in
                      zip(tokens, gen.random(len(tokens)), gen.integers(500, size=len(tokens)))]
        return tokens

    vocab = [w for label in CLASSES for w in CLASS_WORDS[label]] + fillers
    labeled = [
        (f"t{i:05d}", _timestamp(gen), tweet(label), label)
        for i, label in enumerate(label for label in CLASSES for _ in range(n_per_class))
    ]
    stream = []
    for i in range(n_stream):
        if i % 20 == 7:
            tokens = [f"oov{j}" for j in gen.integers(500, size=int(gen.integers(1, 30)))]
        else:
            tokens = tweet(CLASSES[int(gen.integers(3))], oov_rate=0.1)
        stream.append((f"u{i:05d}", _timestamp(gen), tokens))
    return _write_classifier_inputs(directory, gen, vocab, labeled, stream)


def _write_classifier_inputs(directory: Path, gen, vocab, labeled, stream) -> dict:
    labeled = [
        (t, ts, tok, CLASSES[(CLASSES.index(label) + int(gen.integers(1, 3))) % 3] if i % LABEL_NOISE_EVERY == 3 else label)
        for i, (t, ts, tok, label) in enumerate(labeled)
    ]
    directory.mkdir(parents=True, exist_ok=True)
    _write_clean(directory / "labeled.jsonl", [(t, ts, tok) for t, ts, tok, _ in labeled])
    with (directory / "annotations.csv").open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "label"])
        writer.writerows((t, label) for t, _, _, label in labeled)
    _write_clean(directory / "stream.jsonl", stream)
    _write_embeddings(directory / "embeddings.txt", vocab, _planted_embeddings(gen, vocab))
    in_vocab = set(vocab)
    return {
        "n_labeled": len(labeled),
        "n_stream": len(stream),
        "n_stream_oov": sum(not any(t in in_vocab for t in tok) for _, _, tok in stream),
        "labels": {t: label for t, _, _, label in labeled},
    }


# ---------------------------------------------------------------------------
# text-embed: a raw collection with the noise of a real one
# ---------------------------------------------------------------------------

N_TOPICS = 10
TOPIC_SIZE = 10
BACKGROUND_WORDS = 5000
# Flatter than the law of running text (about 1): with the frequency filter
# at 5, about 3,000 words then survive in 10,000 tweets, few enough tokens
# for embed to finish within one run.
ZIPF_EXPONENT = 0.7
STOPWORDS = ("the", "and", "for", "this", "with", "ang", "mga", "naman", "lang", "yung")
SHORT_TOKENS = ("ok", "ph", "uy", "go", "na", "sa")
EMOJI = ("\U0001f64f", "\U0001f62d", "❤️", "\U0001f602", "\U0001f494")
PUNCT = (",", "!", "...", "?", ":", "!!", ".")


def raw_collection(directory: Path, seed: int, n_tweets: int, min_freq: int = 5) -> dict:
    """Raw JSONL tweets whose clean tokens are planted.

    Each tweet belongs to one of N_TOPICS topics and carries 3-4 of its topic
    words among 3-7 background words drawn from a Zipf law over
    BACKGROUND_WORDS words; only words used at least min_freq times survive.
    Around them sit retweet markers, mentions, URLs, hashtags, emoji,
    punctuation, stopwords, short tokens, case changes and a unique marker
    token (too rare to survive the frequency filter, it keeps every original
    tweet distinct). Some tweets are noise only, and some are exact, case- or
    space-variant duplicates of an earlier tweet.

    Returns the clean corpus, vocabulary, statistics and topics that cleaning
    must reproduce exactly.
    """
    gen = rng_for(seed, 3)
    words = [pseudo_word(i) for i in range(N_TOPICS * TOPIC_SIZE + BACKGROUND_WORDS)]
    words = [words[j] for j in gen.permutation(len(words))]
    topics = [words[t * TOPIC_SIZE : (t + 1) * TOPIC_SIZE] for t in range(N_TOPICS)]
    background = words[N_TOPICS * TOPIC_SIZE :]
    zipf = 1.0 / np.arange(1, BACKGROUND_WORDS + 1) ** ZIPF_EXPONENT
    zipf_cdf = np.cumsum(zipf / zipf.sum())

    def dress(token: str) -> str:
        u = gen.random()
        if u < 0.1:
            token = "#" + token
        elif u < 0.2:
            token = token.capitalize()
        elif u < 0.23:
            token = token.upper()
        if gen.random() < 0.15:
            token += PUNCT[int(gen.integers(len(PUNCT)))]
        return token

    originals: list[tuple[str, datetime, str, list[str]]] = []
    for i in range(n_tweets):
        if i % 50 == 13:
            planted: list[str] = []
            noise = [f"@user{i}", STOPWORDS[i % len(STOPWORDS)], SHORT_TOKENS[i % len(SHORT_TOKENS)],
                     EMOJI[i % len(EMOJI)], f"https://t.co/n{i}", f"ref{i}x"]
            parts = noise
        else:
            topic = topics[int(gen.integers(N_TOPICS))]
            planted = [topic[j] for j in gen.integers(TOPIC_SIZE, size=int(gen.integers(3, 5)))]
            n_bg = int(gen.integers(3, 8))
            planted += [background[j] for j in np.searchsorted(zipf_cdf, gen.random(n_bg))]
            planted = [planted[j] for j in gen.permutation(len(planted))]
            parts = [dress(t) for t in planted]
            for extra in (
                STOPWORDS[int(gen.integers(len(STOPWORDS)))],
                SHORT_TOKENS[int(gen.integers(len(SHORT_TOKENS)))],
                STOPWORDS[int(gen.integers(len(STOPWORDS)))],
                f"ref{i}x",
            ):
                parts.insert(int(gen.integers(len(parts) + 1)), extra)
            if gen.random() < 0.3:
                parts.insert(int(gen.integers(len(parts) + 1)), f"@user{int(gen.integers(400))}")
            if gen.random() < 0.3:
                parts.insert(int(gen.integers(len(parts) + 1)), EMOJI[int(gen.integers(len(EMOJI)))])
            if gen.random() < 0.4:
                parts.append(f"https://t.co/{pseudo_word(int(gen.integers(1000)))}{i}")
            if gen.random() < 0.25:
                parts.insert(0, f"RT @user{int(gen.integers(400))}:")
        originals.append((f"r{i:06d}", _timestamp(gen), " ".join(parts), planted))

    # A duplicate follows the original at some later tweet, so that
    # deduplication keeps the original.
    n_dups = n_tweets // 12
    after: dict[int, list[tuple[str, datetime, str]]] = {}
    for d in range(n_dups):
        src = int(gen.integers(n_tweets))
        _, ts, text, _ = originals[src]
        kind = d % 3
        if kind == 1:
            text = text.upper() if d % 2 else text.lower()
        elif kind == 2:
            text = "  " + text.replace(" ", "   ") + " "
        after.setdefault(int(gen.integers(src, n_tweets)), []).append((f"d{d:06d}", ts + timedelta(minutes=5), text))
    records = []
    for i, (tid, ts, text, _) in enumerate(originals):
        records.append((tid, ts, text))
        records.extend(after.get(i, ()))

    directory.mkdir(parents=True, exist_ok=True)
    with (directory / "raw.jsonl").open("w", encoding="utf-8") as fh:
        for tid, ts, text in records:
            fh.write(json.dumps({"id": tid, "timestamp": ts.isoformat(), "text": text}) + "\n")

    counts = Counter(t for *_, planted in originals for t in planted)
    kept = {t: c for t, c in counts.items() if c >= min_freq}
    clean = []
    for tid, ts, _, planted in originals:
        tokens = [t for t in planted if t in kept]
        if tokens:
            clean.append((tid, ts.isoformat(), tokens))
    vocab = sorted(kept.items(), key=lambda kv: (-kv[1], kv[0]))
    return {
        "clean": clean,
        "vocab": vocab,
        "stats": {
            "raw_count": len(records),
            "deduplicated_count": n_tweets,
            "final_count": len(clean),
            "vocab_size": len(vocab),
        },
        "duplicates": n_dups,
        "topics": [[w for w in topic if w in kept] for topic in topics],
        "clean_tokens": sum(len(tokens) for _, _, tokens in clean),
    }
