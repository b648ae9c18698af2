"""Tweet ingestion, cleaning pipeline, and vocabulary construction.

The cleaning pipeline applies a fixed rule order so that identical inputs
always produce identical outputs:

    dedup -> lowercase -> strip patterns -> tokenize -> stopword filter
    -> min-length filter -> global-frequency filter -> drop empty tweets

Strip patterns themselves run in the order given by
``PreprocessConfig.strip_patterns`` (default: username, url, retweet_marker,
hashtag_symbol_only, emoji, special_chars).
"""

from __future__ import annotations

import csv
import json
import os
import re
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence, TextIO


class TweetFormatError(ValueError):
    """Raised for malformed input files (bad record, duplicate id, bad vocab line)."""


@contextmanager
def atomic_writer(path: str | Path) -> Iterator[TextIO]:
    """A UTF-8 text file that replaces `path` only once it is fully written.

    It is written beside the target and renamed over it, so a failed write
    leaves the previous file as it was and no partial file under the
    target's name.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        # newline="" writes text untranslated, as the csv module requires
        with tmp.open("x", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_header(
    fh: TextIO, path: Path, magic: str, version: str, fields: int, error: type[ValueError], kind: str
) -> list[str]:
    """The `fields` words of an artifact's "<magic> <version> ..." first line.

    Raises `error` naming `path` when the line is not `kind` (say, "a model
    file") or its version is not `version`.
    """
    header = fh.readline().split()
    if len(header) != fields or header[0] != magic:
        raise error(f"{path}: not {kind} (expected {magic} header)")
    if header[1] != version:
        raise error(f"{path}: version mismatch: file is {header[1]!r}, reader supports {version!r}")
    return header


@dataclass(frozen=True)
class RawTweet:
    id: str
    timestamp: datetime
    text: str


@dataclass(frozen=True)
class CleanTweet:
    id: str
    timestamp: datetime
    tokens: tuple[str, ...]


@dataclass(frozen=True)
class CorpusStats:
    raw_count: int
    deduplicated_count: int
    final_count: int
    vocab_size: int

    def to_dict(self) -> dict:
        return asdict(self)

_USERNAME_RE = re.compile(r"@\w+")
_URL_RE = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)
_RETWEET_RE = re.compile(r"\brt\b")  # applied after lowercasing
_APOSTROPHE_RE = re.compile(r"['’]")
_SPECIAL_RE = re.compile(r"[^\w\s]|_")
_WS_RE = re.compile(r"\s+")


def _strip_username(text: str) -> str:
    return _USERNAME_RE.sub(" ", text)


def _strip_url(text: str) -> str:
    return _URL_RE.sub(" ", text)


def _strip_retweet_marker(text: str) -> str:
    return _RETWEET_RE.sub(" ", text)


def _strip_hashtag_symbol(text: str) -> str:
    # Keep the hashtag word itself; only the symbol goes.
    return text.replace("#", "")


def _strip_emoji(text: str) -> str:
    # Allowlist: ASCII (punctuation is handled by the special_chars rule) plus
    # any Unicode letter/digit/whitespace. Everything else (emoji, pictographs,
    # dingbats) is dropped.
    return "".join(ch for ch in text if ord(ch) < 128 or ch.isalnum() or ch.isspace())


def _strip_special_chars(text: str) -> str:
    # Apostrophes vanish (don't -> dont); other punctuation splits words.
    text = _APOSTROPHE_RE.sub("", text)
    return _SPECIAL_RE.sub(" ", text)


_STRIP_RULES = {
    "username": _strip_username,
    "url": _strip_url,
    "retweet_marker": _strip_retweet_marker,
    "hashtag_symbol_only": _strip_hashtag_symbol,
    "emoji": _strip_emoji,
    "special_chars": _strip_special_chars,
}

DEFAULT_STRIP_PATTERNS = (
    "username",
    "url",
    "retweet_marker",
    "hashtag_symbol_only",
    "emoji",
    "special_chars",
)


def default_stopwords() -> frozenset[str]:
    """Combined English + Filipino default stopword list shipped with the package."""
    text = resources.files("rnnsent").joinpath("data/stopwords.txt").read_text("utf-8")
    return frozenset(_parse_stopwords(text))


def load_stopwords(path: str | Path) -> frozenset[str]:
    """One stopword per line; blank lines and lines starting with '#' ignored."""
    return frozenset(_parse_stopwords(Path(path).read_text("utf-8")))


def _parse_stopwords(text: str) -> Iterable[str]:
    for line in text.splitlines():
        word = line.strip().lower()
        if word and not word.startswith("#"):
            yield word


@dataclass(frozen=True)
class PreprocessConfig:
    stopwords: frozenset[str]
    min_token_length: int = 3
    min_global_frequency: int = 5
    strip_patterns: tuple[str, ...] = DEFAULT_STRIP_PATTERNS

    def __post_init__(self) -> None:
        if self.min_token_length < 1:
            raise ValueError(f"min_token_length must be >= 1, got {self.min_token_length}")
        if self.min_global_frequency < 1:
            raise ValueError(f"min_global_frequency must be >= 1, got {self.min_global_frequency}")
        unknown = [p for p in self.strip_patterns if p not in _STRIP_RULES]
        if unknown:
            raise ValueError(f"unknown strip patterns: {unknown}")

    @classmethod
    def default(cls, **overrides) -> "PreprocessConfig":
        return cls(stopwords=default_stopwords(), **overrides)


class Vocabulary:
    """Dense 0-based token index with per-token corpus frequencies.

    Tokens are ordered by descending count, ties broken lexicographically,
    which makes index assignment a pure function of the counts.
    """

    def __init__(self, tokens: Sequence[str], counts: Sequence[int] | None = None):
        self.tokens: tuple[str, ...] = tuple(tokens)
        if counts is None:
            counts = [0] * len(self.tokens)
        if len(counts) != len(self.tokens):
            raise ValueError("tokens and counts must have equal length")
        self.counts: tuple[int, ...] = tuple(int(c) for c in counts)
        self.token_to_index: dict[str, int] = {t: i for i, t in enumerate(self.tokens)}
        if len(self.token_to_index) != len(self.tokens):
            raise ValueError("duplicate tokens in vocabulary")

    @classmethod
    def from_counts(cls, counts: Mapping[str, int]) -> "Vocabulary":
        ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return cls([t for t, _ in ordered], [c for _, c in ordered])

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_index

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Vocabulary)
            and self.tokens == other.tokens
            and self.counts == other.counts
        )

    def index(self, token: str) -> int:
        return self.token_to_index[token]

    def token(self, index: int) -> str:
        return self.tokens[index]

    def count(self, token: str) -> int:
        return self.counts[self.token_to_index[token]]


def _ensure_utc(dt: datetime) -> datetime:
    if dt.tzinfo is None:
        return dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc)


def parse_timestamp(value: str) -> datetime:
    """ISO-8601 timestamp; a trailing 'Z' and naive times are both read as UTC."""
    if value.endswith(("Z", "z")):
        value = value[:-1] + "+00:00"
    return _ensure_utc(datetime.fromisoformat(value))


def _record_to_tweet(record: Mapping, line: int) -> RawTweet:
    for field in ("id", "timestamp", "text"):
        if field not in record or record[field] is None or record[field] == "":
            raise TweetFormatError(f"line {line}: missing field {field!r}")
    try:
        ts = parse_timestamp(str(record["timestamp"]))
    except ValueError as exc:
        raise TweetFormatError(f"line {line}: bad timestamp {record['timestamp']!r}: {exc}") from exc
    return RawTweet(id=str(record["id"]), timestamp=ts, text=str(record["text"]))


def load_tweets(path: str | Path, format: str | None = None) -> list[RawTweet]:
    """Read raw tweets from JSONL or CSV (header id,timestamp,text).

    `format` is "jsonl" or "csv"; when omitted it is inferred from the file
    extension. Records are returned in file order; duplicate ids are rejected.
    """
    path = Path(path)
    if format is None:
        format = path.suffix.lstrip(".").lower()
    if format not in ("jsonl", "csv"):
        raise TweetFormatError(f"unsupported corpus format {format!r} (use jsonl or csv)")

    tweets: list[RawTweet] = []
    seen: dict[str, int] = {}
    if format == "jsonl":
        with path.open(encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise TweetFormatError(f"line {line_no}: invalid JSON: {exc}") from exc
                if not isinstance(record, dict):
                    raise TweetFormatError(f"line {line_no}: expected a JSON object")
                tweets.append(_record_to_tweet(record, line_no))
                _check_duplicate(tweets[-1].id, line_no, seen)
    else:
        with path.open(encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or not {"id", "timestamp", "text"} <= set(reader.fieldnames):
                raise TweetFormatError(f"{path}: CSV header must contain id,timestamp,text")
            for record in reader:
                line_no = reader.line_num
                tweets.append(_record_to_tweet(record, line_no))
                _check_duplicate(tweets[-1].id, line_no, seen)
    return tweets


def _check_duplicate(tweet_id: str, line: int, seen: dict[str, int]) -> None:
    if tweet_id in seen:
        raise TweetFormatError(f"line {line}: duplicate id {tweet_id!r} (first seen on line {seen[tweet_id]})")
    seen[tweet_id] = line


def filter_by_collection_window(
    tweets: Sequence[RawTweet],
    keywords: Iterable[str],
    start: datetime,
    end: datetime,
) -> list[RawTweet]:
    """Keep tweets containing any keyword (case-insensitive) inside [start, end].

    An empty keyword list applies no keyword restriction (window check only).
    """
    start, end = _ensure_utc(start), _ensure_utc(end)
    if start > end:
        raise ValueError(f"window start {start.isoformat()} is after end {end.isoformat()}")
    lowered = [k.lower() for k in keywords]
    kept = []
    for tweet in tweets:
        text = tweet.text.lower()
        if start <= _ensure_utc(tweet.timestamp) <= end and (
            not lowered or any(k in text for k in lowered)
        ):
            kept.append(tweet)
    return kept


def deduplicate(tweets: Sequence[RawTweet]) -> list[RawTweet]:
    """Drop later tweets whose normalized text (lowercased, whitespace-collapsed)
    repeats an earlier one; order preserved."""
    seen: set[str] = set()
    kept = []
    for tweet in tweets:
        key = _WS_RE.sub(" ", tweet.text.strip()).lower()
        if key not in seen:
            seen.add(key)
            kept.append(tweet)
    return kept


def normalize_text(text: str, config: PreprocessConfig) -> str:
    """Lowercase, apply the configured strip rules in order, collapse whitespace."""
    text = text.lower()
    for name in config.strip_patterns:
        text = _STRIP_RULES[name](text)
    return _WS_RE.sub(" ", text).strip()


def tokenize(text: str) -> list[str]:
    """Whitespace split of already-normalized text; never yields empty tokens."""
    return text.split()


def preprocess_corpus(
    raw: Sequence[RawTweet],
    config: PreprocessConfig,
) -> tuple[list[CleanTweet], Vocabulary, CorpusStats]:
    """Run the full cleaning pipeline and build the vocabulary.

    Global frequencies are counted on the deduplicated, stopword- and
    length-filtered corpus; tokens below ``min_global_frequency`` are then
    removed everywhere, and tweets left empty are dropped.
    """
    deduped = deduplicate(raw)

    filtered: list[tuple[RawTweet, list[str]]] = []
    counts: Counter[str] = Counter()
    for tweet in deduped:
        tokens = [
            tok
            for tok in tokenize(normalize_text(tweet.text, config))
            if tok not in config.stopwords and len(tok) >= config.min_token_length
        ]
        filtered.append((tweet, tokens))
        counts.update(tokens)

    surviving = {tok: n for tok, n in counts.items() if n >= config.min_global_frequency}
    vocab = Vocabulary.from_counts(surviving)

    clean: list[CleanTweet] = []
    for tweet, tokens in filtered:
        kept = tuple(tok for tok in tokens if tok in surviving)
        if kept:
            clean.append(CleanTweet(id=tweet.id, timestamp=tweet.timestamp, tokens=kept))

    stats = CorpusStats(
        raw_count=len(raw),
        deduplicated_count=len(deduped),
        final_count=len(clean),
        vocab_size=len(vocab),
    )
    return clean, vocab, stats


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def save_clean_corpus(tweets: Iterable[CleanTweet], path: str | Path) -> None:
    with atomic_writer(path) as fh:
        for tweet in tweets:
            record = {
                "id": tweet.id,
                "timestamp": tweet.timestamp.isoformat(),
                "tokens": list(tweet.tokens),
            }
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def load_clean_corpus(path: str | Path) -> list[CleanTweet]:
    tweets = []
    seen: dict[str, int] = {}
    with Path(path).open(encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TweetFormatError(f"line {line_no}: invalid JSON: {exc}") from exc
            if not isinstance(record, dict):
                raise TweetFormatError(f"line {line_no}: expected a JSON object")
            for field in ("id", "timestamp", "tokens"):
                if field not in record:
                    raise TweetFormatError(f"line {line_no}: missing field {field!r}")
            tokens = record["tokens"]
            if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
                raise TweetFormatError(f"line {line_no}: 'tokens' must be a list of strings")
            _check_duplicate(str(record["id"]), line_no, seen)
            tweets.append(
                CleanTweet(
                    id=str(record["id"]),
                    timestamp=parse_timestamp(str(record["timestamp"])),
                    tokens=tuple(tokens),
                )
            )
    return tweets


def save_vocabulary(vocab: Vocabulary, path: str | Path) -> None:
    """Text format: token<TAB>index<TAB>count, one line per token, sorted by index."""
    with atomic_writer(path) as fh:
        for index, token in enumerate(vocab.tokens):
            fh.write(f"{token}\t{index}\t{vocab.counts[index]}\n")


def load_vocabulary(path: str | Path) -> Vocabulary:
    tokens: list[str] = []
    counts: list[int] = []
    with Path(path).open(encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 3:
                raise TweetFormatError(f"line {line_no}: expected token<TAB>index<TAB>count")
            token, index_s, count_s = parts
            try:
                index, count = int(index_s), int(count_s)
            except ValueError as exc:
                raise TweetFormatError(f"line {line_no}: non-integer index/count") from exc
            if index != len(tokens):
                raise TweetFormatError(f"line {line_no}: index {index} out of order (expected {len(tokens)})")
            tokens.append(token)
            counts.append(count)
    return Vocabulary(tokens, counts)


def save_stats(stats: CorpusStats, path: str | Path) -> None:
    with atomic_writer(path) as fh:
        fh.write(json.dumps(stats.to_dict(), indent=2) + "\n")
