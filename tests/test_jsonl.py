"""The block-wise JSONL reader and writer behind load_tweets, the clean
corpus and classified.jsonl: byte equality with json.dumps, round trips at
several block sizes, agreement with the line-by-line reader, and the errors
the command line reports."""

import csv
import json
from datetime import datetime, timedelta, timezone
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rnnsent import corpus
from rnnsent.analysis import save_classified
from rnnsent.cli import main
from rnnsent.corpus import (
    Corpus,
    TweetFormatError,
    load_clean_corpus,
    load_stopwords,
    load_tweets,
    save_clean_corpus,
)
from rnnsent.evaluation import FINE_CLASSES
from rnnsent.training import load_annotations
from synthdata import Tweet, table, tweets_of

NOV9 = "2013-11-09T08:00:00+00:00"
BLOCKS = [1, 7, corpus.JSONL_BLOCK]

# characters json escapes, characters str.splitlines splits on but a text
# file's lines do not, and characters outside the Basic Multilingual Plane
TRICKY = '"\\/\x00\x1f\x7f\r\n\t\u2028\u2029\x85\x1c\x1d\x1e\ufeff\U0001f600\U0010ffff'
strings = st.text(st.one_of(st.sampled_from(TRICKY), st.characters(blacklist_categories=("Cs",))), max_size=8)
utc_times = st.datetimes(timezones=st.just(timezone.utc))
# instants in datetime's range in UTC, the ones the readers give: at +08:30 the
# first 8.5 hours of year 1 fall before it, and a table refuses them
any_times = st.datetimes(
    min_value=datetime(1, 1, 1, 8, 30),
    timezones=st.sampled_from([None, timezone.utc, timezone(timedelta(hours=8, minutes=30))]),
)
confidences = st.floats(allow_nan=True, allow_infinity=True)


def _outcome(load, *args):
    try:
        return load(*args)
    except TweetFormatError as exc:
        return ("error", str(exc))


# ---------------------------------------------------------------------------
# Writers: the bytes json.dumps wrote before the block writer
# ---------------------------------------------------------------------------

# the microsecond column is formatted a block at a time: whole seconds and
# not, the first and last years datetime holds; a naive and a +08:30
# timestamp enter the table as their UTC instants, and are written as those
UTC_STAMPS = [
    datetime(2013, 11, 9, 8, tzinfo=timezone.utc),
    datetime(2013, 11, 9, 8, 0, 0, 1, tzinfo=timezone.utc),
    datetime(1, 1, 1, tzinfo=timezone.utc),
    datetime(1, 1, 1, 0, 0, 0, 999_999, tzinfo=timezone.utc),
    datetime(9999, 12, 31, 23, 59, 59, tzinfo=timezone.utc),
    datetime(9999, 12, 31, 23, 59, 59, 999_999, tzinfo=timezone.utc),
]
MIXED_STAMPS = [datetime(2013, 11, 9, 8), datetime(2013, 11, 9, 8, 0, 0, 250, tzinfo=timezone(timedelta(hours=8, minutes=30)))]


@settings(max_examples=40, deadline=None)
@given(
    records=st.lists(st.tuples(strings, any_times, st.lists(strings, max_size=4)), max_size=12),
    block=st.sampled_from(BLOCKS),
)
@example(records=[(f"t{i}", ts, ["bagyo"]) for i, ts in enumerate(UTC_STAMPS)], block=corpus.JSONL_BLOCK)
@example(records=[(f"t{i}", ts, ["bagyo"]) for i, ts in enumerate(UTC_STAMPS + MIXED_STAMPS)], block=6)
def test_clean_corpus_bytes_equal_json_dumps(tmp_path_factory, records, block):
    tweets = table(Tweet(tid, ts, tuple(tokens)) for tid, ts, tokens in records)
    path = tmp_path_factory.mktemp("jsonl") / "corpus.jsonl"
    with mock.patch.object(corpus, "JSONL_BLOCK", block):
        save_clean_corpus(tweets, path)
    expected = "".join(
        json.dumps({"id": t.id, "timestamp": t.timestamp.isoformat(), "tokens": list(t.tokens)}, ensure_ascii=False) + "\n"
        for t in tweets_of(tweets)
    )
    assert path.read_bytes() == expected.encode("utf-8")


@settings(max_examples=40, deadline=None)
@given(
    records=st.lists(
        st.tuples(
            strings, any_times, st.lists(strings, max_size=4), st.sampled_from(FINE_CLASSES), confidences,
            st.booleans(), st.booleans(),
        ),
        max_size=12,
    ),
    block=st.sampled_from(BLOCKS),
)
@example(
    records=[
        ("t1", datetime(2013, 11, 9), [], "positive", 0.25, False, True),
        ("t2", datetime(2013, 11, 9, tzinfo=timezone.utc), ["bagyo"], "neutral", float("nan"), True, False),
        ("t3", datetime(2013, 11, 9, tzinfo=timezone.utc), ["bagyo"], "negative", float("-inf"), False, True),
    ],
    block=1,
)
@example(
    records=[(f"t{i}", ts, ["bagyo"], "positive", 0.5, i % 2 == 0, False) for i, ts in enumerate(UTC_STAMPS)],
    block=corpus.JSONL_BLOCK,
)
@example(
    records=[(f"t{i}", ts, [], "neutral", 0.0, True, True) for i, ts in enumerate(UTC_STAMPS + MIXED_STAMPS)],
    block=6,
)
def test_classified_bytes_equal_json_encoder(tmp_path_factory, records, block):
    tweets = table(Tweet(tid, ts, tuple(tokens)) for tid, ts, tokens, *_ in records)
    labels = np.array([FINE_CLASSES.index(r[3]) for r in records], dtype=np.int64)
    confidences = np.array([r[4] for r in records], dtype=np.float64)
    oov = np.array([r[5] for r in records], dtype=bool)
    path = tmp_path_factory.mktemp("jsonl") / "classified.jsonl"
    with mock.patch.object(corpus, "JSONL_BLOCK", block):
        save_classified(tweets, labels, confidences, oov, path)
    encode = json.JSONEncoder(sort_keys=True).encode
    expected = "".join(
        encode({
            "id": tweet.id,
            "timestamp": tweet.timestamp.isoformat(),
            "tokens": tweet.tokens,
            "label": label,
            # a numpy scalar writes as the Python float does
            "confidence": np.float64(conf) if as_numpy else conf,
            "oov": flagged,
        }) + "\n"
        for tweet, (_, _, _, label, conf, flagged, as_numpy) in zip(tweets_of(tweets), records)
    )
    assert path.read_bytes() == expected.encode("ascii")


# ---------------------------------------------------------------------------
# Round trips and agreement with the line-by-line reader
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    records=st.lists(st.tuples(strings, utc_times, st.lists(strings, max_size=4)), max_size=20, unique_by=lambda r: r[0]),
    block=st.sampled_from(BLOCKS),
)
def test_clean_corpus_save_load_is_identity(tmp_path_factory, records, block):
    tweets = table(Tweet(tid, ts, tuple(tokens)) for tid, ts, tokens in records)
    path = tmp_path_factory.mktemp("jsonl") / "corpus.jsonl"
    with mock.patch.object(corpus, "JSONL_BLOCK", block):
        save_clean_corpus(tweets, path)
        assert load_clean_corpus(path) == tweets


# lines that pass or fail each check of the two readers
RAW_LINES = st.one_of(
    st.builds(
        lambda tid, ts, text: json.dumps({"id": tid, "timestamp": ts, "text": text}),
        st.one_of(st.sampled_from(["t1", "t2", "1", "", "a\ud800", "\U0001f600"]), st.sampled_from([1, 2, True, None, 1.5])),
        st.sampled_from([NOV9, "2013-11-09T08:00:00Z", "2013-11-09T08:00:00z", "2013-11-09T16:00:00+08:00",
                         "2013-11-09T08:00:00", "2013-11-09", "yesterday", "", "0001-01-01T00:00:00+01:00", 20131109]),
        st.sampled_from(["bagyo", "", "x\udc00", None, 7]),
    ),
    st.sampled_from(["", " ", "\x0c", "{not json", "[]", "7", '{"id": "t9"}',
                     f'{{"id": "t8", "timestamp": "{NOV9}", "text": "a"}} {{"id": "t7"}}',
                     f'  {{"id": "t6", "timestamp": "{NOV9}", "text": "b"}}\t']),
)
CLEAN_LINES = st.one_of(
    st.builds(
        lambda tid, ts, tokens: json.dumps({"id": tid, "timestamp": ts, "tokens": tokens}),
        st.sampled_from(["t1", "t2", "", "a\ud800", 7]),
        st.sampled_from([NOV9, "2013-11-09T08:00:00Z", "2013-11-09T16:00:00+08:00", "2013-11-09T08:00:00", "bad", None]),
        st.sampled_from([["bagyo"], [], ["b\udfff"], ["\U0001f600"], "bagyo", ["bagyo", 3]]),
    ),
    st.sampled_from(["", " \t", "\x0c", "{not json", "null", '{"id": "t9", "tokens": []}',
                     f'{{"id": "t8", "timestamp": "{NOV9}", "tokens": []}}]']),
)


@settings(max_examples=200, deadline=None)
@given(lines=st.lists(RAW_LINES, max_size=12), block=st.sampled_from([1, 3, corpus.JSONL_BLOCK]))
def test_raw_block_reader_agrees_with_line_reader(tmp_path_factory, lines, block):
    path = tmp_path_factory.mktemp("jsonl") / "raw.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with mock.patch.object(corpus, "JSONL_BLOCK", block):
        got = _outcome(load_tweets, path)
        with mock.patch.object(corpus, "_raw_tweet_block", lambda lines: None):
            assert got == _outcome(load_tweets, path)


# one instant, 2013-11-09T08:00:00 UTC, written "Z", naive and at +08:00;
# an integer id; non-ASCII text, one piece of it a JSON escape
RAW_MIXED = [
    json.dumps({"id": "t1", "timestamp": "2013-11-09T08:00:00Z", "text": "bagyo niño"}, ensure_ascii=False),
    json.dumps({"id": 398765432109876543, "timestamp": "2013-11-09T08:00:00", "text": "naïve \U0001f62d"}),
    json.dumps({"id": "t3", "timestamp": "2013-11-09T16:00:00+08:00", "text": "Tacloban ’ok’"}, ensure_ascii=False),
]
RAW_MIXED_TABLE = corpus.RawCorpus.of(
    ["t1", "398765432109876543", "t3"], [1_383_984_000_000_000] * 3, ["bagyo niño", "naïve \U0001f62d", "Tacloban ’ok’"]
)


def _raw_csv(path, rows):
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "timestamp", "text"])
        writer.writerows(rows)


def _both_readers(path, block):
    """load_tweets of `path`, or its error, by the block reader and by the line reader alone."""
    with mock.patch.object(corpus, "JSONL_BLOCK", block):
        got = _outcome(load_tweets, path)
        with mock.patch.object(corpus, "_raw_tweet_block", lambda lines: None):
            return got, _outcome(load_tweets, path)


@pytest.mark.parametrize("block", [1, 2, corpus.JSONL_BLOCK])
def test_raw_jsonl_block_reader_gives_the_line_readers_table(tmp_path, block):
    path = tmp_path / "raw.jsonl"
    path.write_text("".join(line + "\n" for line in RAW_MIXED), encoding="utf-8")
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    rows = [corpus._raw_tweet_line(line, n) for n, line in enumerate(lines, 1)]
    assert [list(column) for column in corpus._raw_tweet_block(lines)] == [list(column) for column in zip(*rows)]
    assert _both_readers(path, block) == (RAW_MIXED_TABLE, RAW_MIXED_TABLE)
    # a malformed line: both give the line reader's error, naming its line
    path.write_text("".join(line + "\n" for line in RAW_MIXED[:2] + ['{"id": "t4", "text": "x"}'] + RAW_MIXED[2:]))
    error = ("error", f"{path}: line 3: missing field 'timestamp'")
    assert _both_readers(path, block) == (error, error)


@pytest.mark.parametrize(
    "line, message",
    [
        ('{"id": "t1"} x', "Extra data: line 1 column 13 (char 12)"),
        (' \t{"id": ', "Expecting value: line 1 column 7 (char 6)"),
        ('\ufeff{"id": "t1"}', "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
    ],
)
def test_raw_and_clean_line_readers_word_invalid_json_alike(line, message):
    # both decode the line stripped of JSON whitespace, so an offset counts from its first other character
    for read_line in (corpus._raw_tweet_line, corpus._clean_tweet_line):
        with pytest.raises(TweetFormatError) as exc:
            read_line(line + "\n", 7)
        assert str(exc.value) == f"line 7: invalid JSON: {message}"


def test_raw_csv_reader_gives_the_jsonl_readers_table(tmp_path):
    # the same tweets as RAW_MIXED, the integer id written as digits
    path = tmp_path / "raw.csv"
    stamps = [json.loads(line)["timestamp"] for line in RAW_MIXED]
    rows = list(zip(RAW_MIXED_TABLE.ids, stamps, RAW_MIXED_TABLE.texts))
    _raw_csv(path, rows)
    assert load_tweets(path) == RAW_MIXED_TABLE
    # a text over two lines, so the record after it starts a line later, and a
    # repeated id: the error names the line each record starts on
    _raw_csv(path, [rows[0], ("t2", rows[1][1], "two\nlines"), rows[2], ("t2", rows[2][1], "again")])
    assert _outcome(load_tweets, path) == ("error", f"{path}: line 6: duplicate id 't2' (first seen on line 3)")
    # a malformed timestamp
    _raw_csv(path, [rows[0], ("t2", "yesterday", "x"), rows[2]])
    message = "line 3: bad timestamp 'yesterday': Invalid isoformat string: 'yesterday'"
    assert _outcome(load_tweets, path) == ("error", f"{path}: {message}")


@settings(max_examples=200, deadline=None)
@given(lines=st.lists(CLEAN_LINES, max_size=12), block=st.sampled_from([1, 3, corpus.JSONL_BLOCK]))
def test_clean_block_reader_agrees_with_line_reader(tmp_path_factory, lines, block):
    path = tmp_path_factory.mktemp("jsonl") / "corpus.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with mock.patch.object(corpus, "JSONL_BLOCK", block):
        got = _outcome(load_clean_corpus, path)
        with mock.patch.object(corpus, "_clean_tweet_block", lambda lines: None):
            assert got == _outcome(load_clean_corpus, path)


# Clean-corpus records in every form the column reader reads: ids and tokens
# with non-ASCII text, \" and \\ escapes and lone surrogates (written as
# escapes, the only way a UTF-8 file holds one); "Z", naive and offset
# timestamps with and without fractional seconds, over all the years datetime
# holds, so before 1970 too and past its range once an offset applies; ids
# drawn from few, so they repeat; and blank and malformed lines between them.
def _record_line(tid, stamp, tokens, ascii):
    surrogate = any(0xD800 <= ord(c) <= 0xDFFF for c in tid + "".join(tokens))
    return json.dumps({"id": tid, "timestamp": stamp, "tokens": tokens}, ensure_ascii=ascii or surrogate)


COLUMN_TEXT = st.text(st.sampled_from('aé"\\ñ\U0001f600\ud800\udc00'), min_size=1, max_size=4)
COLUMN_STAMPS = st.builds(
    lambda moment, spec, suffix: moment.isoformat(timespec=spec) + suffix,
    st.datetimes(),
    st.sampled_from(["seconds", "milliseconds", "microseconds"]),
    st.sampled_from(["", "Z", "z", "+00:00", "+08:00", "-05:30"]),
)
COLUMN_RECORDS = st.builds(
    _record_line, st.one_of(st.sampled_from(["t1", "t2", "t3"]), COLUMN_TEXT), COLUMN_STAMPS,
    st.lists(COLUMN_TEXT, max_size=4), st.booleans(),
)
COLUMN_LINES = st.one_of(
    COLUMN_RECORDS,
    st.sampled_from([
        "", " \t", "{not json", "[]", "null", '{"id": "t9", "tokens": []}', f'{{"id": "t8", "timestamp": "{NOV9}", "tokens": "a"}}',
        '{"id": "t7", "timestamp": "2013-13-01T00:00:00", "tokens": []}', f'{{"id": 7, "timestamp": "{NOV9}", "tokens": []}}',
    ]),
)
# one of each timestamp form, all well formed, so the column reader takes the block
GOOD_BLOCK = [
    _record_line("t1", "1969-12-31T23:59:59.999999Z", ["niño", 'a"b'], False),
    _record_line("t2", "1970-01-01T00:00:00", ["back\\slash"], True),
    _record_line("é", "1970-01-01T08:00:00.000001+08:00", [], False),
    _record_line("t3", "0001-01-01T00:00:00+00:00", ["\U0001f600"], True),
    _record_line("t4", "9999-12-31T23:59:59.999999-00:00", ["ok"], True),
]


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(COLUMN_LINES, max_size=10), block=st.sampled_from([1, 4, corpus.JSONL_BLOCK]))
@example(lines=GOOD_BLOCK, block=corpus.JSONL_BLOCK)
@example(lines=GOOD_BLOCK[:2] + ["", GOOD_BLOCK[0]], block=2)
def test_column_reader_gives_the_line_readers_columns_or_error(tmp_path_factory, lines, block):
    path = tmp_path_factory.mktemp("jsonl") / "corpus.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    with mock.patch.object(corpus, "JSONL_BLOCK", block):
        got = _outcome(load_clean_corpus, path)
        with mock.patch.object(corpus, "_clean_tweet_block", lambda lines: None):
            assert got == _outcome(load_clean_corpus, path)
    # a block the column reader takes gives, column by column, the line reader's rows
    with path.open(encoding="utf-8") as fh:
        file_lines = list(fh)
    columns = corpus._clean_tweet_block(file_lines)
    if columns is not None:
        rows = [corpus._clean_tweet_line(line, n) for n, line in enumerate(file_lines, 1)]
        assert [list(column) for column in columns] == [list(column) for column in zip(*rows)]


def test_column_reader_takes_a_well_formed_block_at_hand_computed_instants():
    columns = corpus._clean_tweet_block([line + "\n" for line in GOOD_BLOCK])
    assert columns is not None
    ids, micros, token_lists = columns
    assert list(ids) == ["t1", "t2", "é", "t3", "t4"]
    # the last microsecond before the epoch, the epoch, one past it at +08:00,
    # and the first and last microseconds datetime holds
    assert micros == [-1, 0, 1, -62_135_596_800_000_000, 253_402_300_799_999_999]
    assert list(token_lists) == [["niño", 'a"b'], ["back\\slash"], [], ["\U0001f600"], ["ok"]]


def test_written_lines_equal_json_dumps_of_hand_written_records(tmp_path):
    tweets = Corpus.of(["t1", 'é"\\'], [-1, 1_383_984_000_000_001], ["niño", 'a"b'], [2, 0])
    records = [
        {"id": "t1", "timestamp": "1969-12-31T23:59:59.999999+00:00", "tokens": ["niño", 'a"b']},
        {"id": 'é"\\', "timestamp": "2013-11-09T08:00:00.000001+00:00", "tokens": []},
    ]
    save_clean_corpus(tweets, tmp_path / "corpus.jsonl")
    lines = (tmp_path / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
    assert lines == [json.dumps(record, ensure_ascii=False) for record in records]

    labels, confidences, oov = np.array([0, 2]), np.array([0.25, 0.0]), np.array([False, True])
    save_classified(tweets, labels, confidences, oov, tmp_path / "classified.jsonl")
    lines = (tmp_path / "classified.jsonl").read_text(encoding="ascii").splitlines()
    records[0].update(label="positive", confidence=0.25, oov=False)
    records[1].update(label="neutral", confidence=0.0, oov=True)
    assert lines == [json.dumps(record, sort_keys=True) for record in records]


# ---------------------------------------------------------------------------
# Arbitrary bytes: only the typed error, naming the file
# ---------------------------------------------------------------------------

# JSONL-ish bytes: record syntax, line ends and bytes that are not UTF-8 drawn often
fuzz_bytes = st.lists(
    st.one_of(
        st.sampled_from([b"{", b"}", b'"id": ', b'"timestamp": ', b'"text": ', b'"tokens": ', b'"t1"', b'["a"]',
                         f'"{NOV9}"'.encode(), b",", b"\n", b"\r", b"\r\n", b"\\ud800", b"\xff", b"\xe2\x80\xa8"]),
        st.binary(max_size=4),
    ),
    max_size=30,
).map(b"".join)


@settings(max_examples=200, deadline=None)
@given(content=fuzz_bytes, reader=st.sampled_from(["raw.jsonl", "raw.csv", "corpus.jsonl"]))
@example(content=b'{"id": "t1", "timestamp": "0001-01-01T00:00:00+01:00", "text": "x"}\n', reader="raw.jsonl")
@example(content=b'{"id": ' + b"1" * 5000 + b"}\n", reader="raw.jsonl")
@example(content=b"[" * 100_000, reader="corpus.jsonl")
@example(content=b"id,timestamp,text\nt1,0001-01-01T00:00:00+01:00,x\n", reader="raw.csv")
def test_arbitrary_bytes_fail_typed_naming_the_file(tmp_path_factory, content, reader):
    path = tmp_path_factory.mktemp("fuzz") / reader
    path.write_bytes(content)
    load = load_clean_corpus if reader == "corpus.jsonl" else load_tweets
    try:
        load(path)
    except TweetFormatError as exc:
        assert str(exc).startswith(f"{path}: ")


# ---------------------------------------------------------------------------
# Errors that name the file and line
# ---------------------------------------------------------------------------


def test_records_split_across_lines_are_rejected_at_the_first_line(tmp_path):
    # as a JSON array this text parses to three objects from three lines
    path = tmp_path / "raw.jsonl"
    path.write_text(
        f'{{"id": "a", "timestamp": "{NOV9}", "text": "x"}} {{"id": "b", "timestamp": "{NOV9}", "text": "y"}}\n'
        f'{{"id": "c", "timestamp": "{NOV9}",\n'
        '"text": "z"}\n'
    )
    with pytest.raises(TweetFormatError, match=f"^{path}: line 1: invalid JSON: Extra data"):
        load_tweets(path)
    clean = tmp_path / "corpus.jsonl"
    clean.write_text(path.read_text().replace('"text": "x"', '"tokens": []').replace('"text": "y"', '"tokens": []'))
    with pytest.raises(TweetFormatError, match=f"^{clean}: line 1: invalid JSON: Extra data"):
        load_clean_corpus(clean)


@pytest.mark.parametrize("block", [1, 2, 3])
def test_duplicate_id_across_blocks_names_both_lines(tmp_path, block):
    path = tmp_path / "corpus.jsonl"
    save_clean_corpus(table(Tweet(tid, datetime(2013, 11, 9, tzinfo=timezone.utc), ("bagyo",)) for tid in "abcb"), path)
    with mock.patch.object(corpus, "JSONL_BLOCK", block):
        with pytest.raises(TweetFormatError, match=f"^{path}: line 4: duplicate id 'b' \\(first seen on line 2\\)"):
            load_clean_corpus(path)
    raw = tmp_path / "raw.jsonl"
    raw.write_text("".join(json.dumps({"id": tid, "timestamp": NOV9, "text": "x"}) + "\n" for tid in ["a", "b", "c", 2, "2"]))
    with mock.patch.object(corpus, "JSONL_BLOCK", block):
        with pytest.raises(TweetFormatError, match=f"^{raw}: line 5: duplicate id '2' \\(first seen on line 4\\)"):
            load_tweets(raw)


def _preprocess(path, tmp_path):
    return main(["preprocess", "--input", str(path), "--output-dir", str(tmp_path / "pre")])


@pytest.mark.parametrize(
    "record, message",
    [
        ({"id": "a\ud800", "timestamp": NOV9, "text": "x"}, "line 2: 'id' holds a lone surrogate: 'a\\ud800'"),
        ({"id": "t2", "timestamp": NOV9, "text": "x \udc00"}, "line 2: 'text' holds a lone surrogate: 'x \\udc00'"),
    ],
)
def test_lone_surrogate_in_raw_tweet_names_file_and_line(tmp_path, capsys, record, message):
    path = tmp_path / "raw.jsonl"
    path.write_text(json.dumps({"id": "t1", "timestamp": NOV9, "text": "ok \U0001f600"}) + "\n" + json.dumps(record) + "\n")
    with pytest.raises(TweetFormatError) as info:
        load_tweets(path)
    assert str(info.value) == f"{path}: {message}"
    # the command fails on reading, not on writing corpus.jsonl
    assert _preprocess(path, tmp_path) == 2
    assert f"error: {path}: {message}" in capsys.readouterr().err


def test_surrogate_pairs_are_text(tmp_path):
    path = tmp_path / "raw.jsonl"
    path.write_text(json.dumps({"id": "t\U0001f600", "timestamp": NOV9, "text": "ok \U0001f600"}) + "\n")
    assert "\\ud83d\\ude00" in path.read_text()
    tweets = load_tweets(path)
    assert (tweets.ids, tweets.texts) == (("t\U0001f600",), ("ok \U0001f600",))


@pytest.mark.parametrize(
    "record, message",
    [
        ('{"id": "a\\ud800", "timestamp": "%s", "tokens": ["baha"]}' % NOV9, "line 2: 'id' holds a lone surrogate: 'a\\ud800'"),
        ('{"id": "t2", "timestamp": "%s", "tokens": ["baha", "b\\udfff"]}' % NOV9, "line 2: 'tokens' holds a lone surrogate: 'b\\udfff'"),
    ],
)
def test_lone_surrogate_in_clean_corpus_names_file_and_line(tmp_path, capsys, record, message):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "t1", "timestamp": "%s", "tokens": ["bagyo"]}\n%s\n' % (NOV9, record))
    with pytest.raises(TweetFormatError) as info:
        load_clean_corpus(path)
    assert str(info.value) == f"{path}: {message}"
    assert main(["embed", "--corpus", str(path), "--vocab", str(tmp_path / "missing.tsv"),
                 "--output", str(tmp_path / "emb.txt")]) == 2
    assert f"error: {path}: {message}" in capsys.readouterr().err


def test_timestamp_out_of_range_is_a_bad_timestamp(tmp_path, capsys):
    path = tmp_path / "raw.jsonl"
    path.write_text(json.dumps({"id": "t1", "timestamp": "0001-01-01T00:00:00+01:00", "text": "x"}) + "\n")
    message = "line 1: bad timestamp '0001-01-01T00:00:00+01:00': date value out of range"
    with pytest.raises(TweetFormatError) as info:
        load_tweets(path)
    assert str(info.value) == f"{path}: {message}"
    assert _preprocess(path, tmp_path) == 2
    assert f"error: {path}: {message}" in capsys.readouterr().err


def test_stopwords_that_are_not_utf8_name_the_file(tmp_path, capsys):
    stopwords = tmp_path / "stop.txt"
    stopwords.write_bytes(b"ang\n\xff\n")
    with pytest.raises(TweetFormatError, match=f"^{stopwords}: corrupt file: not UTF-8 text"):
        load_stopwords(stopwords)
    raw = tmp_path / "raw.jsonl"
    raw.write_text(json.dumps({"id": "t1", "timestamp": NOV9, "text": "bagyo"}) + "\n")
    assert main(["preprocess", "--input", str(raw), "--output-dir", str(tmp_path / "pre"), "--stopwords", str(stopwords)]) == 2
    assert f"error: {stopwords}: corrupt file: not UTF-8 text" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Byte-order marks and tokens that are not strings
# ---------------------------------------------------------------------------

BOM = "\ufeff".encode()


@pytest.mark.parametrize("suffix", ["jsonl", "csv"])
def test_raw_corpus_may_open_with_a_byte_order_mark(tmp_path, suffix):
    path = tmp_path / f"raw.{suffix}"
    if suffix == "csv":
        _raw_csv(path, [("t1", NOV9, "bagyo"), ("t2", NOV9, "baha")])
    else:
        path.write_text("".join(json.dumps({"id": i, "timestamp": NOV9, "text": t}) + "\n" for i, t in [("t1", "bagyo"), ("t2", "baha")]))
    plain = load_tweets(path)
    path.write_bytes(BOM + path.read_bytes())
    assert load_tweets(path) == plain
    assert plain.ids == ("t1", "t2")


def test_a_byte_order_mark_after_the_first_byte_is_still_refused(tmp_path):
    path = tmp_path / "raw.jsonl"
    line = json.dumps({"id": "t1", "timestamp": NOV9, "text": "bagyo"})
    path.write_bytes(BOM + line.encode() + b"\n" + BOM + line.replace("t1", "t2").encode() + b"\n")
    with pytest.raises(TweetFormatError, match="line 2: invalid JSON: Unexpected UTF-8 BOM"):
        load_tweets(path)
    path = tmp_path / "raw.csv"
    path.write_bytes(BOM + BOM + b"id,timestamp,text\nt1,2013-11-09T08:00:00Z,bagyo\n")
    with pytest.raises(TweetFormatError, match="CSV header must contain id,timestamp,text"):
        load_tweets(path)


def test_annotations_and_stopwords_may_open_with_a_byte_order_mark(tmp_path):
    annotations = tmp_path / "labels.csv"
    annotations.write_bytes(BOM + b"id,label\nt2,negative\nt1,positive\n")
    tweets = table(Tweet(f"t{i}", datetime(2013, 11, 9, tzinfo=timezone.utc), ("bagyo",)) for i in range(3))
    rows, labels = load_annotations(annotations, tweets)
    assert rows.tolist() == [2, 1]
    assert [FINE_CLASSES[label] for label in labels] == ["negative", "positive"]
    stopwords = tmp_path / "stop.txt"
    stopwords.write_bytes(BOM + b"ang\nsa\n")
    assert load_stopwords(stopwords) == frozenset({"ang", "sa"})


@pytest.mark.parametrize("token", [7, None, True, ["x"], {"x": 1}])
def test_a_token_that_is_not_a_string_in_a_block_names_its_line(tmp_path, token):
    # line 64 of a 128-line block: the block's words are checked once each,
    # as they are interned, and the line reader then names the line
    path = tmp_path / "corpus.jsonl"
    records = [{"id": f"t{i}", "timestamp": NOV9, "tokens": ["bagyo", "baha"]} for i in range(corpus.JSONL_BLOCK)]
    records[63]["tokens"] = ["bagyo", token]
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    with pytest.raises(TweetFormatError) as info:
        load_clean_corpus(path)
    assert str(info.value) == f"{path}: line 64: 'tokens' must be a list of strings"
