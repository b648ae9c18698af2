"""Tweet ingestion, cleaning pipeline, and vocabulary construction.

The cleaning pipeline applies a fixed rule order so that identical inputs
always produce identical outputs:

    dedup -> lowercase -> strip patterns -> tokenize -> stopword filter
    -> min-length filter -> global-frequency filter -> drop empty tweets

Strip patterns themselves run in the fixed order of ``_STRIP_RULES``:
username, url, retweet_marker, hashtag_symbol_only, emoji, special_chars.

Cleaning runs on blocks of CLEAN_BLOCK tweets: each tweet's newlines become
spaces, the block's texts are joined by newlines and lowercased, and each
strip rule runs once over the joined text before it is split back into
tweets. A strip rule must therefore never match across whitespace, or it
could join two tweets. Tokenizing is str.split, which splits on exactly the
characters re's \\s matches, so no separate whitespace collapse is needed.
"""

from __future__ import annotations

import csv
import json
import os
import re
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from datetime import datetime, timedelta, timezone
from functools import partial
from importlib import resources
from itertools import chain, compress, islice, repeat
from operator import attrgetter, floordiv, itemgetter, methodcaller, sub
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np


class TweetFormatError(ValueError):
    """Raised for malformed input files (bad record, duplicate id, bad vocab line)."""


@contextmanager
def atomic_writer(path: str | Path, binary: bool = False) -> Iterator[IO]:
    """A UTF-8 text file, or with `binary` a binary one, that replaces `path`
    only once it is fully written.

    It is written beside the target and renamed over it, so a failed write
    leaves the previous file as it was and no partial file under the
    target's name.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        # newline="" writes text untranslated, as the csv module requires
        with tmp.open("xb") if binary else tmp.open("x", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: str | Path, payload) -> None:
    """`payload` as JSON indented by 2, keys sorted, with a final newline,
    written atomically: the form of every JSON report and manifest."""
    with atomic_writer(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


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


@contextmanager
def open_artifact(
    path: Path, error: type[ValueError], newline: str | None = None, encoding: str = "utf-8-sig"
) -> Iterator[TextIO]:
    """`path` opened as UTF-8 text; a byte that is not UTF-8 raises `error` naming `path`.

    With the default encoding a byte-order mark at the start of the file, as
    spreadsheet programs save CSV files, is skipped; one anywhere else is
    text. "utf-8" keeps it: a vocabulary file has no header, so a mark there
    opens its first token. `newline` is passed to open ("" for the csv module).
    """
    try:
        with path.open(encoding=encoding, newline=newline) as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise error(f"{path}: corrupt file: not UTF-8 text: {exc}") from exc


def read_rows(
    fh: TextIO,
    path: Path,
    n_rows: int,
    n_cols: int,
    error: type[ValueError],
    what: str = "",
    tokens: list[str] | None = None,
) -> np.ndarray:
    """The next `n_rows` lines of `fh` as an (n_rows, n_cols) float64 array.

    Whitespace separates values, as in str.split; numpy's C tokenizer parses
    them, reading one line at a time. With `tokens` given, each line starts
    with a token, which is appended to it. A missing or blank row, a row of
    the wrong length, and a non-numeric or non-finite value raise `error`
    naming `path` and the row; `what` follows the row number (say " of
    'w_xh'"). `n_cols` must be at least 1.
    """
    where = f"{path}: corrupt file: row"
    last = [0, ""]  # the row loadtxt read last: it fails on the row it reads

    def check_length(r: int, line: str) -> None:
        found = len(line.split())
        if found != n_cols:
            raise error(f"{where} {r}{what} has {found} values, expected {n_cols}")

    def lines() -> Iterator[str]:
        for r in range(n_rows):
            line = fh.readline()
            if not line:
                raise error(f"{path}: corrupt file: expected {n_rows} rows{what}, found {r}")
            if tokens is not None:
                parts = line.split(None, 1)
                tokens.extend(parts[:1])
                line = parts[1] if len(parts) == 2 else ""
            last[0], last[1] = r, line
            # loadtxt skips blank lines, which would shift every later row up,
            # and takes the row length from the first row
            if r == 0 or not line or line.isspace():
                check_length(r, line)
            yield line

    if n_rows == 0:
        return np.empty((0, n_cols))
    try:
        values = np.loadtxt(lines(), dtype=np.float64, comments=None, ndmin=2)
    except (error, UnicodeDecodeError):  # raised by lines(), and ValueErrors too
        raise
    except ValueError as exc:
        check_length(*last)
        raise error(f"{where} {last[0]}{what} has a non-numeric value") from exc
    non_finite = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if len(non_finite):
        raise error(f"{where} {non_finite[0]}{what} has a non-finite value")
    return values


# the UTC microseconds since the epoch of datetime's first and last instants,
# 0001-01-01T00:00:00 and 9999-12-31T23:59:59.999999: the instants a table's
# writers can format and its readers read back
_MICROS_RANGE = (-62_135_596_800_000_000, 253_402_300_799_999_999)


def _check_micros(micros: np.ndarray) -> None:
    """Raise ValueError naming the first of `micros` outside _MICROS_RANGE."""
    first, last = _MICROS_RANGE
    if len(micros) and (micros.min() < first or micros.max() > last):
        row = int(np.flatnonzero((micros < first) | (micros > last))[0])
        raise ValueError(f"row {row}: {micros[row]} microseconds since the epoch lies outside datetime's range")


@dataclass(frozen=True, eq=False)
class RawCorpus:
    """Raw tweets as one table, row i being tweet i: its id ids[i], its
    instant micros[i] in UTC microseconds since the epoch (int64), and its
    text texts[i]."""

    ids: tuple[str, ...]
    micros: np.ndarray
    texts: tuple[str, ...]

    def __post_init__(self) -> None:
        if not len(self.ids) == len(self.micros) == len(self.texts):
            raise ValueError(f"{len(self.ids)} ids, {len(self.micros)} micros and {len(self.texts)} texts differ in length")
        _check_micros(self.micros)

    @classmethod
    def of(cls, ids: Iterable[str], micros: Sequence[int], texts: Iterable[str]) -> "RawCorpus":
        return cls(tuple(ids), np.array(micros, dtype=np.int64), tuple(texts))

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other) -> bool:
        same = isinstance(other, RawCorpus) and (self.ids, self.texts) == (other.ids, other.texts)
        return same and np.array_equal(self.micros, other.micros)

    def take(self, rows: np.ndarray) -> "RawCorpus":
        """The table of rows `rows` (int64 indices), in that order."""
        listed = rows.tolist()
        return RawCorpus.of(map(self.ids.__getitem__, listed), self.micros[rows], map(self.texts.__getitem__, listed))


class _WordIndex(dict):
    """word -> its index; a word not yet here is given the next index when
    first looked up, so each word's type is checked once: a word that is not
    a str raises TypeError, as an unhashable one does."""

    def __missing__(self, word: str) -> int:
        if type(word) is not str:
            raise TypeError(f"a word must be a str, got {word!r}")
        self[word] = index = len(self)
        return index

    def ids(self, tokens: Iterable[str]) -> np.ndarray:
        """The int32 index of each of `tokens`."""
        return np.fromiter(map(self.__getitem__, tokens), dtype=np.int32)


@dataclass(frozen=True, eq=False)
class Corpus:
    """A clean corpus as one table, row i being tweet i: its id ids[i], its
    instant micros[i] in UTC microseconds since the epoch (int64), and its
    tokens words[j] for each j of word_ids[offsets[i] : offsets[i + 1]]: an
    int32 column of indices into a tuple of distinct words, in no set order."""

    ids: tuple[str, ...]
    micros: np.ndarray
    words: tuple[str, ...]
    word_ids: np.ndarray
    offsets: np.ndarray

    def __post_init__(self) -> None:
        if not len(self.ids) == len(self.micros) == len(self.offsets) - 1:
            raise ValueError(f"{len(self.ids)} ids, {len(self.micros)} micros and {len(self.offsets) - 1} sizes differ in length")
        if self.offsets[-1] != len(self.word_ids):
            raise ValueError(f"the sizes add up to {self.offsets[-1]} tokens, but there are {len(self.word_ids)}")
        _check_micros(self.micros)

    @classmethod
    def of(cls, ids: Iterable[str], micros: Sequence[int], tokens: Iterable[str], sizes: Sequence[int]) -> "Corpus":
        """The table of tweets ids[i] at micros[i], tweet i holding the next sizes[i] of `tokens`."""
        return cls.of_blocks([(ids, micros, tokens, sizes)])

    @classmethod
    def of_blocks(cls, blocks: Iterable[tuple[Iterable[str], Iterable[int], Iterable[str], Iterable[int]]]) -> "Corpus":
        """Corpus.of of each block's columns in turn; of a block's token strings, one per word outlives it."""
        index = _WordIndex()
        return cls._of_interned(((ids, micros, [index.ids(tokens)], sizes) for ids, micros, tokens, sizes in blocks), index)

    @classmethod
    def _of_interned(
        cls, blocks: Iterable[tuple[Iterable[str], Iterable[int], Iterable[np.ndarray], Iterable[int]]], index: _WordIndex
    ) -> "Corpus":
        """The table of each block's ids, micros, arrays of word ids into `index` and sizes, in turn."""
        ids, micros, word_ids, sizes = [], [], [np.empty(0, np.int32)], [0]
        for block_ids, block_micros, block_word_ids, block_sizes in blocks:
            ids.extend(block_ids)
            micros.extend(block_micros)
            word_ids.extend(block_word_ids)
            sizes.extend(block_sizes)
        return cls(tuple(ids), np.array(micros, np.int64), tuple(index), np.concatenate(word_ids), np.cumsum(sizes, dtype=np.int64))

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other) -> bool:
        """Equal when the rows are, whatever the order of either table's words."""
        same = isinstance(other, Corpus) and self.ids == other.ids and np.array_equal(self.micros, other.micros)
        # other's tokens as indices into these words; one that is not here is skipped, and so shortens them
        theirs = token_ids(Vocabulary(self.words), other)[0] if same else None
        return same and np.array_equal(self.offsets, other.offsets) and np.array_equal(theirs, self.word_ids)

    def take(self, rows: np.ndarray) -> "Corpus":
        """The table of rows `rows` (int64 indices), in that order; it shares this table's words."""
        sizes = np.diff(self.offsets)[rows]
        offsets = np.r_[0, np.cumsum(sizes)]
        # each taken token's position: its row's start, plus its place among the taken tokens less the row's first
        positions = np.repeat(self.offsets[rows] - offsets[:-1], sizes) + np.arange(offsets[-1])
        return Corpus(tuple(map(self.ids.__getitem__, rows.tolist())), self.micros[rows], self.words, self.word_ids[positions], offsets)


@dataclass(frozen=True)
class CorpusStats:
    raw_count: int
    deduplicated_count: int
    final_count: int
    vocab_size: int


# The rules run on lowercased text. There the url rule matches what it
# matched under re.IGNORECASE, where "ſ" (U+017F) matches "s"; without the
# flag re searches for the rule's literal start instead of trying the rule
# at every position. The retweet rule is \brt\b written to start with "rt",
# for the same reason.
_USERNAME_RE = re.compile(r"@\w+")
_URL_RE = re.compile(r"(?:http[sſ]?://|www\.)\S+")
_RETWEET_RE = re.compile(r"rt\b(?<!\wrt)")
# Allowlist: ASCII (punctuation is handled by the special_chars rule) plus
# any Unicode letter/digit/whitespace. Everything else (emoji, pictographs,
# dingbats) is dropped.
_EMOJI_RE = re.compile(r"[^\x00-\x7f\w\s]")
_SPECIAL_RE = re.compile(r"[^\w\s]")
# special_chars as a table of UTF-8 bytes: "_" and each ASCII character that
# _SPECIAL_RE matches become a space, and the bytes of a non-ASCII character
# stay, so only text that still holds one needs the regex pass.
_SPECIAL_TABLE = bytes(ord(" ") if chr(c) == "_" or (c < 128 and _SPECIAL_RE.match(chr(c))) else c for c in range(256))

# Tweets joined into one text per strip pass; a whole corpus in one text
# would hold several copies of it in memory at once.
CLEAN_BLOCK = 256


def _strip_special_chars(text: str) -> str:
    # Apostrophes vanish (don't -> dont); other punctuation and "_" split words.
    # surrogatepass carries a lone surrogate through the bytes unchanged.
    data = text.replace("’", "").encode("utf-8", "surrogatepass").translate(_SPECIAL_TABLE, b"'")
    text = data.decode("utf-8", "surrogatepass")
    return text if text.isascii() else _SPECIAL_RE.sub(" ", text)


# The strip rules, applied in this order
_STRIP_RULES = {
    "username": partial(_USERNAME_RE.sub, " "),
    "url": partial(_URL_RE.sub, " "),
    "retweet_marker": partial(_RETWEET_RE.sub, " "),
    "hashtag_symbol_only": methodcaller("replace", "#", ""),  # the hashtag word itself stays
    "emoji": partial(_EMOJI_RE.sub, ""),
    "special_chars": _strip_special_chars,
}


def default_stopwords() -> frozenset[str]:
    """Combined English + Filipino default stopword list shipped with the package."""
    text = resources.files("rnnsent").joinpath("data/stopwords.txt").read_text("utf-8")
    return frozenset(_parse_stopwords(text))


def load_stopwords(path: str | Path) -> frozenset[str]:
    """One stopword per line; blank lines and lines starting with '#' ignored.

    A byte that is not UTF-8 raises TweetFormatError naming the file.
    """
    with open_artifact(Path(path), TweetFormatError) as fh:
        return frozenset(_parse_stopwords(fh.read()))


def _parse_stopwords(text: str) -> Iterable[str]:
    # read in text mode, so "\r\n" and "\r" are already "\n"; str.splitlines
    # would also split at characters such as U+2028 and U+0085
    for line in text.split("\n"):
        word = line.strip().lower()
        if word and not word.startswith("#"):
            yield word


@dataclass(frozen=True)
class PreprocessConfig:
    stopwords: frozenset[str]
    min_token_length: int = 3
    min_global_frequency: int = 5

    def __post_init__(self) -> None:
        if self.min_token_length < 1:
            raise ValueError(f"min_token_length must be >= 1, got {self.min_token_length}")
        if self.min_global_frequency < 1:
            raise ValueError(f"min_global_frequency must be >= 1, got {self.min_global_frequency}")


class Vocabulary:
    """Dense 0-based token index with per-token corpus frequencies.

    Tokens are ordered by descending count, ties broken lexicographically,
    which makes index assignment a pure function of the counts.
    """

    def __init__(self, tokens: Sequence[str], counts: Sequence[int] | None = None):
        self.tokens: tuple[str, ...] = tuple(tokens)
        self.counts: tuple[int, ...] = (0,) * len(self.tokens) if counts is None else tuple(map(int, counts))
        if len(self.counts) != len(self.tokens):
            raise ValueError("tokens and counts must have equal length")
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
        return isinstance(other, Vocabulary) and (self.tokens, self.counts) == (other.tokens, other.counts)

    def index(self, token: str) -> int:
        return self.token_to_index[token]

    def token(self, index: int) -> str:
        return self.tokens[index]

    def count(self, token: str) -> int:
        return self.counts[self.token_to_index[token]]


def token_ids(vocab: Vocabulary, corpus: Corpus) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ids, starts, lengths) for the N tweets of `corpus`: the vocabulary
    index of each tweet's in-vocabulary tokens in order, OOV tokens skipped,
    so a tweet with no such token has length 0; tweet i's ids are
    ids[starts[i] : starts[i] + lengths[i]]. Each word is looked up once."""
    lookup = np.fromiter(map(vocab.token_to_index.get, corpus.words, repeat(-1)), dtype=np.int64, count=len(corpus.words))
    ids = lookup[corpus.word_ids]
    known = ids >= 0
    # the known tokens before each offset, so each tweet's count is a difference
    before = np.r_[0, known.cumsum()][corpus.offsets]
    return ids[known], before[:-1], np.diff(before)


def _ensure_utc(dt: datetime) -> datetime:
    if dt.tzinfo is None:
        return dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc)


def parse_timestamp(value: str) -> datetime:
    """ISO-8601 timestamp; a trailing 'Z' and naive times are both read as UTC."""
    if value.endswith(("Z", "z")):
        value = value[:-1] + "+00:00"
    try:
        return _ensure_utc(datetime.fromisoformat(value))
    except OverflowError as exc:  # an offset that moves the time out of datetime's range
        raise ValueError(str(exc)) from exc


_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)


def _micros(stamps: Iterable[datetime]) -> list[int]:
    """The UTC microseconds since the epoch of each aware datetime of `stamps`,
    divided as integers: the float of datetime.timestamp() can land an
    instant of about 1.4e15 microseconds one microsecond off."""
    return list(map(floordiv, map(sub, stamps, repeat(_EPOCH)), repeat(_MICROSECOND)))


def _line_micros(value: str, line: int) -> int:
    """The UTC microseconds of the timestamp `value` on line `line`, or its TweetFormatError."""
    try:
        return (parse_timestamp(value) - _EPOCH) // _MICROSECOND
    except ValueError as exc:
        raise TweetFormatError(f"line {line}: bad timestamp {value!r}: {exc}") from exc


def _isoformat_all(micros: np.ndarray) -> list[str]:
    """The isoformat of the UTC datetime of each of `micros`, microseconds
    since the epoch. numpy formats the column in one pass: to the second, or
    to the microsecond where that is not 0, plus "+00:00", which is
    isoformat's text for a UTC instant."""
    instants = micros.view("M8[us]")
    text = np.datetime_as_string(instants, unit="s")
    fraction = micros % 1_000_000 != 0
    if fraction.any():
        text = np.where(fraction, np.datetime_as_string(instants, unit="us"), text)
    return np.char.add(text, "+00:00").tolist()


def _check_unicode(line: int, field: str, values: Iterable[str]) -> None:
    """Reject a string holding a lone surrogate, which a \\uD800-\\uDFFF JSON
    escape can decode to but no UTF-8 file can hold."""
    for value in values:
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise TweetFormatError(f"line {line}: {field!r} holds a lone surrogate: {value!r}") from None


def _record_row(record: Mapping, line: int) -> tuple[str, int, str]:
    """The id, UTC microseconds and text of the raw record on line `line`."""
    for field in ("id", "timestamp", "text"):
        if field not in record or record[field] is None or record[field] == "":
            raise TweetFormatError(f"line {line}: missing field {field!r}")
    tweet_id, timestamp, text = record["id"], record["timestamp"], record["text"]
    # raw Twitter dumps carry numeric ids; a bool is an int to Python but not an id
    if not isinstance(tweet_id, (str, int)) or isinstance(tweet_id, bool):
        raise TweetFormatError(f"line {line}: 'id' must be a string or an integer, got {tweet_id!r}")
    for field, value in (("timestamp", timestamp), ("text", text)):
        if not isinstance(value, str):
            raise TweetFormatError(f"line {line}: {field!r} must be a string, got {value!r}")
    return str(tweet_id), _line_micros(timestamp, line), text


def load_tweets(path: str | Path) -> RawCorpus:
    """Read raw tweets from JSONL or CSV (header id,timestamp,text).

    The format is the file's extension, .jsonl or .csv. Records are returned
    in file order; duplicate ids are rejected.
    A JSONL id is a string or an integer, and its timestamp and text are
    strings, holding no lone surrogate. Every TweetFormatError names the
    file, and a bad record its line.
    """
    path = Path(path)
    format = path.suffix.lstrip(".").lower()
    if format not in ("jsonl", "csv"):
        raise TweetFormatError(f"{path}: unsupported corpus format {format!r} (use jsonl or csv)")
    with open_artifact(path, TweetFormatError, newline="" if format == "csv" else None) as fh:
        try:
            blocks = _read_jsonl(fh, _raw_tweet_block, _raw_tweet_line) if format == "jsonl" else _read_csv_tweets(fh)
            columns = [list(chain.from_iterable(column)) for column in zip(*blocks)] or [(), (), ()]
        except TweetFormatError as exc:
            raise TweetFormatError(f"{path}: {exc}") from exc
    return RawCorpus.of(*columns)


def csv_records(
    fh: TextIO, fields: Iterable[str], header_error: Exception, record_error: Callable[[int, str], Exception]
) -> Iterator[tuple[int, dict[str, str | None]]]:
    """Each record of the CSV text `fh` as csv.DictReader gives it, with the line it starts on. Raises
    `header_error` when the header lacks one of `fields`, record_error(line, message) on a csv.Error."""
    reader = csv.reader(fh)
    start = 1  # the line the next record starts on
    try:
        header = next(reader, None)
        if header is None or not set(fields) <= set(header):
            raise header_error
        start = reader.line_num + 1
        for values in reader:
            if values:
                yield start, dict(zip(header, chain(values, repeat(None))))
            start = reader.line_num + 1
    except csv.Error as exc:
        raise record_error(start, f"the CSV record that starts here cannot be parsed: {exc}") from None


def _read_csv_tweets(fh: TextIO) -> list[tuple[Sequence, ...]]:
    """The id, microseconds and text columns of a raw CSV text, as one block."""
    rows = []
    seen: dict[str, int] = {}
    header_error = TweetFormatError("CSV header must contain id,timestamp,text")
    records = csv_records(fh, ("id", "timestamp", "text"), header_error, lambda line, msg: TweetFormatError(f"line {line}: {msg}"))
    for line, record in records:
        rows.append(_record_row(record, line))
        _check_duplicate(rows[-1][0], line, seen)
    return [tuple(zip(*rows))] if rows else []


def _check_duplicate(tweet_id: str, line: int, seen: dict[str, int]) -> None:
    if tweet_id in seen:
        raise TweetFormatError(f"line {line}: duplicate id {tweet_id!r} (first seen on line {seen[tweet_id]})")
    seen[tweet_id] = line


def filter_by_collection_window(tweets: RawCorpus, keywords: Iterable[str], start: datetime, end: datetime) -> RawCorpus:
    """Keep tweets containing any keyword (case-insensitive) inside [start, end].

    An empty keyword list applies no keyword restriction (window check only).
    """
    start, end = _ensure_utc(start), _ensure_utc(end)
    if start > end:
        raise ValueError(f"window start {start.isoformat()} is after end {end.isoformat()}")
    lowered = [k.lower() for k in keywords]
    first, last = _micros([start, end])
    rows = np.flatnonzero((tweets.micros >= first) & (tweets.micros <= last))
    if lowered:
        rows = rows[[any(k in tweets.texts[row].lower() for k in lowered) for row in rows.tolist()]]
    return tweets.take(rows)


def deduplicate(tweets: RawCorpus) -> RawCorpus:
    """Drop later tweets whose normalized text (lowercased, whitespace-collapsed)
    repeats an earlier one; order preserved."""
    first: dict[str, int] = {}  # normalized text -> the first row holding it
    for row, text in enumerate(tweets.texts):
        first.setdefault(" ".join(text.split()).lower(), row)
    return tweets.take(np.fromiter(first.values(), dtype=np.int64, count=len(first)))


def _clean_block(texts: Sequence[str]) -> list[list[str]]:
    """The tokens of each of `texts`: lowercased, stripped by each of
    _STRIP_RULES in order, split on whitespace.

    The texts are cleaned as one newline-joined text, so each rule runs once
    per block; a newline inside a text becomes a space first, which no rule
    tells apart from it.
    """
    text = "\n".join([t.replace("\n", " ") for t in texts]).lower()
    for rule in _STRIP_RULES.values():
        text = rule(text)
    return [line.split() for line in text.split("\n")]


def preprocess_corpus(raw: RawCorpus, config: PreprocessConfig) -> tuple[Corpus, Vocabulary, CorpusStats]:
    """Run the full cleaning pipeline and build the vocabulary.

    Global frequencies are counted on the deduplicated, stopword- and
    length-filtered corpus; tokens below ``min_global_frequency`` are then
    removed everywhere, and tweets left empty are dropped.
    """
    deduped = deduplicate(raw)
    blocks = (slice(lo, lo + CLEAN_BLOCK) for lo in range(0, len(deduped), CLEAN_BLOCK))
    cleaned = ((deduped.ids[b], deduped.micros[b].tolist(), _clean_block(deduped.texts[b])) for b in blocks)
    table = Corpus.of_blocks((ids, micros, chain.from_iterable(t), map(len, t)) for ids, micros, t in cleaned)

    # stopword and length are decided once per word, then every word is counted at once
    candidate = np.array([w not in config.stopwords and len(w) >= config.min_token_length for w in table.words], dtype=bool)
    counts = np.bincount(table.word_ids[candidate[table.word_ids]], minlength=len(candidate))
    surviving = counts >= config.min_global_frequency
    vocab = Vocabulary.from_counts(dict(zip(compress(table.words, surviving), counts[surviving].tolist())))

    # the surviving tokens as vocabulary indices, and the rows that hold one, whose starts stay the same
    ids, starts, lengths = token_ids(vocab, table)
    rows = np.flatnonzero(lengths)
    offsets = np.r_[starts[rows], len(ids)]
    clean = Corpus(tuple(map(table.ids.__getitem__, rows.tolist())), table.micros[rows], vocab.tokens, ids.astype(np.int32), offsets)
    return clean, vocab, CorpusStats(len(raw), len(deduped), len(clean), len(vocab))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


# JSONL files are read and written JSONL_BLOCK lines at a time. A block
# whose records are all well formed is decoded, checked and built in a few
# passes of C-level calls (map, set, zip); on any anomaly the block is read
# again one line at a time, which raises the error of its first bad line,
# naming that line. The text file's own line iteration splits the lines, so
# a line ends at "\n", "\r" or "\r\n" only; str.splitlines would also split
# at characters such as U+2028, which the writers leave unescaped. Blocks
# of 64 to 1024 lines read and write equally fast; a smaller block holds
# fewer objects at once, and so less peak memory.
JSONL_BLOCK = 128

_decode_json = json.JSONDecoder().raw_decode
_JSON_SPACE = " \t\n\r"  # the whitespace json.loads allows around a value
# what json raises on a malformed line: JSONDecodeError, a plain ValueError
# for an integer of over 4300 digits, RecursionError for deep nesting
_JSON_ERRORS = (ValueError, RecursionError)
# json's own C string escaper, the one json.dumps uses with ensure_ascii=False
_escape = json.encoder.encode_basestring


def _read_jsonl(
    fh: TextIO,
    read_block: Callable[[list[str]], tuple[Sequence, ...] | None],
    read_line: Callable[[str, int], tuple | None],
) -> Iterator[tuple[Sequence, ...]]:
    """The records of the JSONL text `fh`, in file order, as a tuple of
    columns per block that holds one; ids, the first column, must be unique.

    `read_block(lines)` gives a block's columns, or None when a line is blank
    or any record is malformed. Such a block, or one holding a duplicate id,
    is read again by `read_line(line, line_no)`, which gives a line's row, or
    None for a blank line, or raises its TweetFormatError.
    """
    seen: dict[str, int] = {}  # id -> the line it was first read from
    start = 1
    while lines := list(islice(fh, JSONL_BLOCK)):
        columns = read_block(lines)
        if columns is not None and len(set(columns[0])) == len(lines) and seen.keys().isdisjoint(columns[0]):
            seen.update(zip(columns[0], range(start, start + len(lines))))
        else:
            rows = []
            for line_no, line in enumerate(lines, start):
                row = read_line(line, line_no)
                if row is not None:
                    _check_duplicate(row[0], line_no, seen)
                    rows.append(row)
            columns = tuple(zip(*rows))
        start += len(lines)
        if columns:
            yield columns


def _decode_block(lines: list[str], fields: tuple[str, ...]) -> list[tuple] | None:
    """The `fields` of each line's JSON object, one tuple per field, or None
    when a line is blank, is not one JSON object, or lacks a field."""
    texts = list(map(str.strip, lines, repeat(_JSON_SPACE)))
    try:
        records, ends = zip(*map(_decode_json, texts))
    except _JSON_ERRORS:
        return None
    if list(ends) != list(map(len, texts)) or not {dict}.issuperset(map(type, records)):
        return None
    try:
        return list(zip(*map(itemgetter(*fields), records)))
    except KeyError:
        return None


def _is_unicode(lines: list[str], strings: Iterable[str]) -> bool:
    """False when one of `strings`, decoded from `lines`, holds a lone surrogate.

    Only a \\uD800-\\uDFFF escape decodes to a surrogate, so the strings
    are encoded only when the lines hold one.
    """
    text = "".join(lines)
    if "\\ud" not in text and "\\uD" not in text:
        return True
    try:
        "".join(strings).encode("utf-8")
    except (UnicodeEncodeError, TypeError):  # TypeError: one is not a str
        return False
    return True


def _parsed_micros(stamps: Sequence[str]) -> list[int] | None:
    """The UTC microseconds of each of `stamps` as parse_timestamp reads
    them, or None when one is not a timestamp."""
    try:
        if not any(map(methodcaller("endswith", ("Z", "z")), stamps)):
            parsed = list(map(datetime.fromisoformat, stamps))
            # as parse_timestamp gives them, when all are in UTC already
            if {timezone.utc}.issuperset(map(attrgetter("tzinfo"), parsed)):
                return _micros(parsed)
        return _micros(map(parse_timestamp, stamps))
    except ValueError:
        return None


def _raw_tweet_block(lines: list[str]) -> tuple[list[str], list[int], Sequence[str]] | None:
    columns = _decode_block(lines, ("id", "timestamp", "text"))
    if columns is None:
        return None
    ids, stamps, texts = columns
    if not (
        {str, int}.issuperset(map(type, ids))
        and {str}.issuperset(map(type, stamps))
        and {str}.issuperset(map(type, texts))
        and "" not in ids
        and "" not in stamps
        and "" not in texts
    ):
        return None
    ids = list(map(str, ids))
    micros = _parsed_micros(stamps)
    if micros is None or not _is_unicode(lines, chain(ids, texts)):
        return None
    return ids, micros, texts


def _json_object(line: str, line_no: int) -> dict | None:
    """The JSON object of line `line_no`, decoded as _decode_block decodes
    it, or None for a blank line."""
    text = line.strip(_JSON_SPACE)
    if not text or text.isspace():
        return None
    try:
        if line.startswith("\ufeff"):  # worded as json.loads words it
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        record, end = _decode_json(text)
        if end != len(text):
            raise json.JSONDecodeError("Extra data", text, end)
    except _JSON_ERRORS as exc:
        raise TweetFormatError(f"line {line_no}: invalid JSON: {exc}") from exc
    if type(record) is not dict:
        raise TweetFormatError(f"line {line_no}: expected a JSON object")
    return record


def _raw_tweet_line(line: str, line_no: int) -> tuple[str, int, str] | None:
    if (record := _json_object(line, line_no)) is None:
        return None
    row = _record_row(record, line_no)
    _check_unicode(line_no, "id", row[:1])
    _check_unicode(line_no, "text", row[2:])
    return row


def _clean_tweet_block(lines: list[str]) -> tuple[Sequence[str], list[int], Sequence[list]] | None:
    """A block's ids, micros and token lists. The tokens' own types are
    left to the interning that follows (see load_clean_corpus), which sees
    each word once."""
    columns = _decode_block(lines, ("id", "timestamp", "tokens"))
    if columns is None:
        return None
    ids, stamps, token_lists = columns
    if not (
        {str}.issuperset(map(type, ids))
        and {str}.issuperset(map(type, stamps))
        and {list}.issuperset(map(type, token_lists))
    ):
        return None
    micros = _parsed_micros(stamps)
    if micros is None or not _is_unicode(lines, chain(ids, chain.from_iterable(token_lists))):
        return None
    return ids, micros, token_lists


def _clean_tweet_line(line: str, line_no: int) -> tuple[str, int, list[str]] | None:
    if (record := _json_object(line, line_no)) is None:
        return None
    for field in ("id", "timestamp", "tokens"):
        if field not in record:
            raise TweetFormatError(f"line {line_no}: missing field {field!r}")
    for field in ("id", "timestamp"):
        if type(record[field]) is not str:
            raise TweetFormatError(f"line {line_no}: {field!r} must be a string, got {record[field]!r}")
    tokens = record["tokens"]
    if type(tokens) is not list or not {str}.issuperset(map(type, tokens)):
        raise TweetFormatError(f"line {line_no}: 'tokens' must be a list of strings")
    _check_unicode(line_no, "id", [record["id"]])
    _check_unicode(line_no, "tokens", tokens)
    return record["id"], _line_micros(record["timestamp"], line_no), tokens


def _write_jsonl(path: str | Path, corpus: Corpus, escape: Callable[[str], str], format_block: Callable[..., str]) -> None:
    """Write `corpus` atomically, one fh.write per JSONL_BLOCK tweets of format_block(lo, hi, ids, stamps,
    tokens): their escaped ids, isoformat timestamps (digits and "T:.+-" need no escape) and joined tokens."""
    escaped = np.array(list(map(escape, corpus.words)), dtype=object)  # each word escaped once
    with atomic_writer(path) as fh:
        for lo in range(0, len(corpus), JSONL_BLOCK):
            hi = min(lo + JSONL_BLOCK, len(corpus))
            offsets = corpus.offsets[lo : hi + 1]
            block, bounds = escaped[corpus.word_ids[offsets[0] : offsets[-1]]].tolist(), (offsets - offsets[0]).tolist()
            tokens = [", ".join(block[a:b]) for a, b in zip(bounds, bounds[1:])]
            fh.write(format_block(lo, hi, map(escape, corpus.ids[lo:hi]), _isoformat_all(corpus.micros[lo:hi]), tokens))


def save_clean_corpus(corpus: Corpus, path: str | Path) -> None:
    """One line per tweet, the bytes of json.dumps({"id": ..., "timestamp": ..., "tokens": [...]}, ensure_ascii=False)."""
    line = '{"id": %s, "timestamp": "%s", "tokens": [%s]}\n'.__mod__
    _write_jsonl(path, corpus, _escape, lambda lo, hi, *columns: "".join(map(line, zip(*columns))))


def load_clean_corpus(path: str | Path) -> Corpus:
    """Read a clean corpus written by save_clean_corpus; a malformed record,
    a duplicate id or a string holding a lone surrogate raises
    TweetFormatError naming the file and line."""
    index = _WordIndex()

    def read_block(lines: list[str]) -> tuple[Sequence[str], list[int], list[np.ndarray], list[int]] | None:
        columns = _clean_tweet_block(lines)
        if columns is None:
            return None
        ids, micros, token_lists = columns
        try:
            word_ids = index.ids(chain.from_iterable(token_lists))
        except TypeError:
            # a token that is not a str; the words taken in before it stay in
            # the index, but the line reader then refuses the token, and the file
            return None
        return ids, micros, [word_ids], list(map(len, token_lists))

    def read_line(line: str, line_no: int) -> tuple[str, int, np.ndarray, int] | None:
        row = _clean_tweet_line(line, line_no)
        return None if row is None else (row[0], row[1], index.ids(row[2]), len(row[2]))

    with open_artifact(Path(path), TweetFormatError) as fh:
        try:
            return Corpus._of_interned(_read_jsonl(fh, read_block, read_line), index)
        except TweetFormatError as exc:
            raise TweetFormatError(f"{path}: {exc}") from exc


def _check_tokens(tokens: Iterable[str], path: str | Path) -> None:
    """Raise ValueError naming `path` and the first token that is empty or
    holds whitespace: the vocabulary and embedding files separate a token from
    its fields by whitespace, so their readers refuse such a token."""
    bad = next((token for token in tokens if token.split() != [token]), None)
    if bad is not None:
        raise ValueError(f"{path}: cannot store the token {bad!r}: it is empty or holds whitespace")


def save_vocabulary(vocab: Vocabulary, path: str | Path) -> None:
    """Text format: token<TAB>index<TAB>count, one line per token, sorted by
    index. A token that is empty or holds whitespace raises ValueError before
    anything is written."""
    _check_tokens(vocab.tokens, path)
    with atomic_writer(path) as fh:
        for index, token in enumerate(vocab.tokens):
            fh.write(f"{token}\t{index}\t{vocab.counts[index]}\n")


def load_vocabulary(path: str | Path) -> Vocabulary:
    """Read a vocabulary written by save_vocabulary; a malformed line raises
    TweetFormatError naming the file and line. See vocabulary_columns."""
    return Vocabulary(*vocabulary_columns(path))


def vocabulary_columns(path: str | Path) -> tuple[list[str], list[str]]:
    """The checked columns of a file written by save_vocabulary: its tokens
    in index order, and their counts as written, each the text of a
    non-negative integer that int() reads. load_vocabulary builds its
    Vocabulary from these; a malformed line raises TweetFormatError naming
    the file and line.

    The file is read once and all of its rows are checked at once. Only a
    file that fails a check, or holds a blank line, which is skipped, is
    read again line by line, which names its first bad line.
    """
    path = Path(path)
    try:
        with path.open(encoding="utf-8") as fh:
            columns = _vocabulary_block(fh.read())
    except UnicodeDecodeError:
        columns = None
    return columns if columns is not None else _vocabulary_lines(path)


def _vocabulary_block(text: str) -> tuple[list[str], list[str]] | None:
    """vocabulary_columns of the text of a vocab.tsv, or None when a line is
    blank or malformed or a token repeats."""
    # each line end becomes a field of its own, so a file of n well-formed lines
    # splits into token, index, count, "\n", token, ..., count: 4n - 1 fields
    fields = text.removesuffix("\n").replace("\n", "\t\n\t").split("\t")
    n = (len(fields) + 1) // 4
    if len(fields) != 4 * n - 1 or fields[3::4] != ["\n"] * (n - 1):
        return None
    tokens, counts = fields[0::4], fields[2::4]
    try:
        if list(map(int, fields[1::4])) != list(range(n)) or min(map(int, counts)) < 0:
            return None
    except ValueError:
        return None
    # every token is nonempty and free of whitespace exactly when they split back whole
    if " ".join(tokens).split() != tokens or len(set(tokens)) < n:
        return None
    return tokens, counts


def _vocabulary_lines(path: Path) -> tuple[list[str], list[str]]:
    """vocabulary_columns one line at a time, raising at the first bad line."""
    tokens: list[str] = []
    counts: list[str] = []
    first: dict[str, int] = {}  # token -> the line it was first read from
    with open_artifact(path, TweetFormatError, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 3:
                raise TweetFormatError(f"{path}: line {line_no}: expected token<TAB>index<TAB>count")
            token, index_s, count_s = parts
            try:
                index, count = int(index_s), int(count_s)
            except ValueError as exc:
                raise TweetFormatError(f"{path}: line {line_no}: non-integer index/count") from exc
            if count < 0:
                raise TweetFormatError(f"{path}: line {line_no}: negative count {count}")
            if index != len(tokens):
                raise TweetFormatError(f"{path}: line {line_no}: index {index} out of order (expected {len(tokens)})")
            # an embedding file separates a token from its values by whitespace
            if token.split() != [token]:
                raise TweetFormatError(f"{path}: line {line_no}: token {token!r} is empty or holds whitespace")
            if first.setdefault(token, line_no) != line_no:
                raise TweetFormatError(
                    f"{path}: duplicate tokens in vocabulary: line {line_no} repeats the token {token!r} of line {first[token]}"
                )
            tokens.append(token)
            counts.append(count_s)
    return tokens, counts


def save_stats(stats: CorpusStats, path: str | Path) -> None:
    """The counts in field order, the one JSON artifact whose keys are not sorted."""
    with atomic_writer(path) as fh:
        fh.write(json.dumps(asdict(stats), indent=2) + "\n")
