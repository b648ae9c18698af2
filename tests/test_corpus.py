import json
import re
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
import synthdata
from rnnsent import corpus
from rnnsent.corpus import (
    PreprocessConfig,
    RawCorpus,
    TweetFormatError,
    Vocabulary,
    deduplicate,
    default_stopwords,
    filter_by_collection_window,
    load_clean_corpus,
    load_stopwords,
    load_tweets,
    load_vocabulary,
    parse_timestamp,
    preprocess_corpus,
    save_clean_corpus,
    save_vocabulary,
    vocabulary_columns,
)
from synthdata import Tweet, micros, table, tweets_of


def _raw(*rows):
    """The raw table of (id, timestamp, text) rows."""
    return RawCorpus.of([r[0] for r in rows], [micros(parse_timestamp(r[1])) for r in rows], [r[2] for r in rows])


NOV9 = "2013-11-09T08:00:00Z"


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------


def test_load_tweets_jsonl(tmp_path):
    path = tmp_path / "raw.jsonl"
    records = [
        {"id": "t1", "timestamp": NOV9, "text": "hello world"},
        {"id": "t2", "timestamp": "2013-11-10T00:00:00+00:00", "text": "second"},
        {"id": "t3", "timestamp": "2013-11-11T08:00:00+08:00", "text": "third"},
    ]
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    tweets = load_tweets(path)
    assert tweets.ids == ("t1", "t2", "t3")
    assert tweets.texts[0] == "hello world"
    assert tweets.micros[0] == micros(datetime(2013, 11, 9, 8, tzinfo=timezone.utc))
    # +08:00 normalized to UTC
    assert tweets.micros[2] == micros(datetime(2013, 11, 11, 0, tzinfo=timezone.utc))


def test_load_tweets_csv(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_text('id,timestamp,text\nt1,2013-11-09T08:00:00Z,"hello, world"\nt2,2013-11-10T00:00:00Z,bye\n')
    tweets = load_tweets(path)
    assert tweets.ids == ("t1", "t2")
    assert tweets.texts[0] == "hello, world"


@pytest.mark.parametrize("before, line", [(0, 2), (2, 4), (None, 1)])
def test_load_tweets_csv_record_the_csv_module_cannot_parse_names_its_first_line(tmp_path, before, line):
    # a quote that never closes swallows every later line, past the csv module's
    # field limit; before=None puts it in the header
    good = [f"t{i},2013-11-09T08:00:00Z,bagyo" for i in range(8000)]
    header = 'id,timestamp,"text' if before is None else "id,timestamp,text"
    bad = [] if before is None else ['tq,2013-11-09T08:00:00Z,"open']
    path = tmp_path / "raw.csv"
    path.write_text("\n".join([header, *good[: before or 0], *bad, *good]) + "\n")
    with pytest.raises(TweetFormatError) as exc:
        load_tweets(path)
    assert str(exc.value).startswith(
        f"{path}: line {line}: the CSV record that starts here cannot be parsed: field larger than field limit"
    )


# each bad record starts on line 4: after a record over lines 2-3, or after two blank lines
@pytest.mark.parametrize(
    "lines, message",
    [
        (
            ['t1,2013-11-09T08:00:00Z,"two', 'lines"', 't2,notatime,"also', 'two"'],
            "line 4: bad timestamp 'notatime': Invalid isoformat string: 'notatime'",
        ),
        (["", "", "t1,notatime,x"], "line 4: bad timestamp 'notatime': Invalid isoformat string: 'notatime'"),
        (
            ['t1,2013-11-09T08:00:00Z,"two', 'lines"', 't1,2013-11-09T08:00:00Z,"again', 'here"'],
            "line 4: duplicate id 't1' (first seen on line 2)",
        ),
        (
            ['t1,2013-11-09T08:00:00Z,"two', 'lines"', 'tq,2013-11-09T08:00:00Z,"open']
            + [f"t{i},2013-11-09T08:00:00Z,bagyo" for i in range(8000)],
            "line 4: the CSV record that starts here cannot be parsed: field larger than field limit (131072)",
        ),
    ],
)
def test_load_tweets_csv_error_names_the_first_line_of_its_record(tmp_path, lines, message):
    path = tmp_path / "raw.csv"
    path.write_text("\n".join(["id,timestamp,text", *lines]) + "\n")
    with pytest.raises(TweetFormatError) as exc:
        load_tweets(path)
    assert str(exc.value) == f"{path}: {message}"


def test_load_tweets_missing_field_names_line(tmp_path):
    path = tmp_path / "raw.jsonl"
    path.write_text(
        json.dumps({"id": "t1", "timestamp": NOV9, "text": "ok"})
        + "\n"
        + json.dumps({"id": "t2", "timestamp": NOV9})
        + "\n"
    )
    with pytest.raises(TweetFormatError, match="line 2.*text"):
        load_tweets(path)


def test_load_tweets_duplicate_id_rejected(tmp_path):
    path = tmp_path / "raw.jsonl"
    rec = {"id": "t1", "timestamp": NOV9, "text": "x"}
    path.write_text(json.dumps(rec) + "\n" + json.dumps(rec | {"text": "y"}) + "\n")
    with pytest.raises(TweetFormatError, match="duplicate id 't1'"):
        load_tweets(path)


def test_load_tweets_bad_json_names_line(tmp_path):
    path = tmp_path / "raw.jsonl"
    path.write_text(json.dumps({"id": "t1", "timestamp": NOV9, "text": "x"}) + "\n{not json\n")
    with pytest.raises(TweetFormatError, match="line 2"):
        load_tweets(path)


def test_load_tweets_bad_timestamp(tmp_path):
    path = tmp_path / "raw.jsonl"
    path.write_text(json.dumps({"id": "t1", "timestamp": "yesterday", "text": "x"}) + "\n")
    with pytest.raises(TweetFormatError, match="line 1.*timestamp"):
        load_tweets(path)


def test_load_tweets_unknown_format(tmp_path):
    path = tmp_path / "raw.xml"
    path.write_text("<tweets/>")
    with pytest.raises(TweetFormatError, match="format"):
        load_tweets(path)


def test_load_tweets_accepts_integer_ids(tmp_path):
    path = tmp_path / "raw.jsonl"
    records = [
        {"id": 398765432109876543, "timestamp": NOV9, "text": "numeric id"},
        {"id": "t2", "timestamp": NOV9, "text": "string id"},
    ]
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    assert load_tweets(path).ids == ("398765432109876543", "t2")


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("id", [1, 2], r"line 2: 'id' must be a string or an integer, got \[1, 2\]"),
        ("id", True, r"line 2: 'id' must be a string or an integer, got True"),
        ("id", 1.5, r"line 2: 'id' must be a string or an integer, got 1.5"),
        ("timestamp", 20131108, r"line 2: 'timestamp' must be a string, got 20131108"),
        ("text", {"body": "x"}, r"line 2: 'text' must be a string, got \{'body': 'x'\}"),
        ("text", 7, r"line 2: 'text' must be a string, got 7"),
    ],
)
def test_load_tweets_rejects_wrong_field_types(tmp_path, field, value, message):
    path = tmp_path / "raw.jsonl"
    good = {"id": "t1", "timestamp": NOV9, "text": "ok"}
    path.write_text(json.dumps(good) + "\n" + json.dumps(good | {"id": "t2", field: value}) + "\n")
    with pytest.raises(TweetFormatError, match=message):
        load_tweets(path)


@pytest.mark.parametrize(
    "name, content, message",
    [
        ("raw.jsonl", "{not json\n", "line 1: invalid JSON"),
        ("raw.jsonl", '{"id": "t1"}\n', "line 1: missing field 'timestamp'"),
        ("raw.csv", "id,text\nt1,x\n", "CSV header must contain id,timestamp,text"),
        ("raw.csv", f"id,timestamp,text\nt1,{NOV9},x\nt1,{NOV9},y\n", "line 3: duplicate id 't1'"),
        ("raw.xml", "<tweets/>", "unsupported corpus format 'xml'"),
    ],
)
def test_load_tweets_errors_name_the_file(tmp_path, name, content, message):
    path = tmp_path / name
    path.write_text(content)
    with pytest.raises(TweetFormatError) as info:
        load_tweets(path)
    assert str(info.value).startswith(f"{path}: {message}")


# ---------------------------------------------------------------------------
# Collection-window filter
# ---------------------------------------------------------------------------


WINDOW_START = datetime(2013, 11, 1, tzinfo=timezone.utc)
WINDOW_END = datetime(2014, 1, 31, 23, 59, 59, tzinfo=timezone.utc)
KEYWORDS = ("#YolandaPH", "#BangonPH", "#BangonPilipinas")


def test_filter_keeps_keyword_inside_window():
    tweet = _raw(("t1", NOV9, "Pray for Leyte #YolandaPH"))
    assert filter_by_collection_window(tweet, KEYWORDS, WINDOW_START, WINDOW_END) == tweet


def test_filter_drops_no_keyword():
    tweet = _raw(("t1", NOV9, "Pray for Leyte"))
    assert filter_by_collection_window(tweet, KEYWORDS, WINDOW_START, WINDOW_END) == _raw()


def test_filter_drops_outside_window():
    tweet = _raw(("t1", "2014-03-01T00:00:00Z", "rebuild #BangonPH"))
    assert filter_by_collection_window(tweet, KEYWORDS, WINDOW_START, WINDOW_END) == _raw()


def test_filter_keyword_match_is_case_insensitive_and_order_preserving():
    tweets = _raw(
        ("t1", NOV9, "relief #yolandaph now"),
        ("t2", NOV9, "nothing relevant"),
        ("t3", NOV9, "bangon! #BANGONPILIPINAS"),
    )
    kept = filter_by_collection_window(tweets, KEYWORDS, WINDOW_START, WINDOW_END)
    assert kept.ids == ("t1", "t3")


def test_filter_empty_keywords_is_window_only():
    tweets = _raw(("t1", NOV9, "anything"), ("t2", "2014-03-01T00:00:00Z", "late"))
    kept = filter_by_collection_window(tweets, (), WINDOW_START, WINDOW_END)
    assert kept.ids == ("t1",)


def test_filter_rejects_inverted_window():
    with pytest.raises(ValueError):
        filter_by_collection_window(_raw(), KEYWORDS, WINDOW_END, WINDOW_START)


# ---------------------------------------------------------------------------
# Deduplication / normalization / tokenization
# ---------------------------------------------------------------------------


def test_deduplicate_whitespace_and_case_insensitive():
    tweets = _raw(("t1", NOV9, "Pray for Leyte"), ("t2", NOV9, "pray  for leyte"))
    assert deduplicate(tweets).ids == ("t1",)


def test_deduplicate_empty_and_distinct():
    assert deduplicate(_raw()) == _raw()
    tweets = _raw(("t1", NOV9, "a"), ("t2", NOV9, "b"))
    assert deduplicate(tweets) == tweets


def test_normalize_text_strips_all_noise_classes():
    got = corpus._clean_block(["@juan RT Pray for Tacloban!! http://t.co/xy #YolandaPH"])
    assert got == [["pray", "for", "tacloban", "yolandaph"]]


def test_normalize_text_trivial_cases():
    assert corpus._clean_block([""]) == [[]]
    assert corpus._clean_block(["hello"]) == [["hello"]]


def test_normalize_text_apostrophe_underscore_emoji():
    got = corpus._clean_block(["don't STOP_now... ok? \U0001f62d"])
    assert got == [["dont", "stop", "now", "ok"]]


def test_normalize_text_keeps_hashtag_word():
    assert corpus._clean_block(["#BangonPilipinas"]) == [["bangonpilipinas"]]


def test_normalize_text_rt_only_as_word():
    # "rt" is removed as a standalone token, not inside words
    assert corpus._clean_block(["RT start"]) == [["start"]]
    assert corpus._clean_block(["artwork"]) == [["artwork"]]


# the default rules leave lowercase letters and digits separated by single spaces
_NORMALIZED = re.compile(r"(?:[^\W_]+(?: [^\W_]+)*)?")


@given(st.text())
@example("r't now")  # cleans to "rt now", which a second pass cleans to "now"
def test_normalize_text_gives_lowercase_word_tokens(text):
    got = " ".join(corpus._clean_block([text])[0])
    assert _NORMALIZED.fullmatch(got)
    assert got == got.lower()


def _every_char():
    return "".join(map(chr, range(sys.maxunicode + 1)))


def _assert_same_text(got, want):
    same = got == want  # outside the assert, which would diff million-character strings
    if not same:
        i = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        pytest.fail(f"first difference at {i}: {got[max(i - 5, 0):i + 5]!r} != {want[max(i - 5, 0):i + 5]!r}")


def test_re_whitespace_is_str_isspace():
    # tokenizing with str.split stands in for the old \s+ collapse
    every = _every_char()
    _assert_same_text(re.sub(r"\S", "", every), "".join(filter(str.isspace, every)))
    words = re.sub(r"\s", "", every)
    assert len(words.split()) == 1


def test_emoji_rule_keeps_ascii_letters_digits_and_whitespace():
    every = _every_char()
    allowed = set(every[:128]) | set(filter(str.isalnum, every)) | set(filter(str.isspace, every))
    _assert_same_text(corpus._STRIP_RULES["emoji"](every), "".join(sorted(allowed)))


def test_url_rule_spells_out_ignorecase_on_lowercased_text():
    lowered = _every_char().lower()
    for letter in "htpsw":
        matched = set(re.findall(letter, lowered, re.IGNORECASE))
        assert matched == ({"s", "ſ"} if letter == "s" else {letter})


@pytest.mark.parametrize("name, joiner", [("retweet_marker", "rt"), ("special_chars", "")])
def test_rewritten_rule_matches_per_tweet_rule_beside_every_char(name, joiner):
    text = joiner.join(_every_char())
    _assert_same_text(corpus._STRIP_RULES[name](text), oracle.STRIP_RULES[name](text))


def test_special_chars_table_is_the_regex_on_ascii():
    # the table turns exactly "_" and the ASCII characters the regex matches into
    # a space, and keeps every byte of a multi-byte UTF-8 character
    table = corpus._SPECIAL_TABLE
    matched = {c for c in range(128) if re.fullmatch(r"[^\w\s]", chr(c))}
    assert {c for c in range(256) if table[c] != c} == matched | {ord("_")}
    assert {table[c] for c in matched} == {ord(" ")}


# ASCII punctuation, the characters the rule deletes or splits at, control
# characters, non-ASCII letters, combining marks, emoji and non-ASCII punctuation
_SPECIAL_PIECES = st.one_of(
    st.sampled_from(list("!\"#$%&()*+,-./:;<=>?@[\\]^`{|}~'’_ \t\n\x7f") + ["don't", "o’clock", "snake_case"]),
    st.characters(max_codepoint=0x1F),
    st.sampled_from(["ñ", "é", "e\u0301", "\u0301", "\u0489", "ß", "ΟΔΟΣ", "İ", "ſ", "\U0001f62d", "\u2764\ufe0f",
                     "\U0001f1f5\U0001f1ed", "\xa0", "\u2028", "\u201c", "\u2014", "\xbf", "\xbd"]),
    st.text(max_size=3),
)


@settings(max_examples=500)
@given(st.lists(_SPECIAL_PIECES, max_size=20).map("".join))
@example("it's_a ‘test’ — ok?")
@example("café's")
def test_special_chars_translate_rule_equals_the_regex_rule(text):
    assert corpus._strip_special_chars(text) == oracle.strip_special_chars(text)


# Pieces that each probe a way the block pass could differ from cleaning one
# tweet at a time: separators str.splitlines knows but the block split does
# not, case mappings that depend on context (final sigma) or change length
# (İ), characters the emoji and special_chars rules treat differently, and
# rules that end at a tweet's end or would match across two tweets.
_PIECES = [
    "\n", "\r", "\r\n", "\x1c", "\x1d", "\x1e", "\x1f", " ", "\x85", "\u2028", "\t", "\xa0",
    "ΟΔΟΣ", "Σ", "σ", "İ", "I", "e\u0301", "\u0301", "\u0489", "\U0001f62d", "\u2764\ufe0f", "\U0001f1f5\U0001f1ed",
    "_", "'", "’", "rt", "RT", "Rt!", "(rt)", "rt:", "art", "rt_", "_rt", "ſ", "ß", "½",
    "@", "@user", "@Yolanda_PH", "http://t.co/x", "HTTPS://T.CO/Y", "httpſ://z", "www.", "www.Site.ph",
    "#", "#Bangon", "storm", "Storm", "the", "and", "ok", "a", "ab", "abc", "don't", "...", "!!", "123",
]
_tweet_text = st.lists(st.one_of(st.sampled_from(_PIECES), st.text(max_size=2)), max_size=12).map("".join)
# the rule names in their fixed order, or a prefix of some permutation of them
_rules = st.one_of(
    st.just(tuple(corpus._STRIP_RULES)),
    st.permutations(tuple(corpus._STRIP_RULES)).flatmap(lambda rules: st.integers(0, len(rules)).map(lambda n: tuple(rules[:n]))),
)
_configs = st.builds(
    PreprocessConfig,
    stopwords=st.just(frozenset({"the", "and"})),
    min_token_length=st.integers(1, 3),
    min_global_frequency=st.integers(1, 3),
)


@given(
    texts=st.lists(_tweet_text, max_size=30),
    repeats=st.lists(st.tuples(st.integers(0, 29), st.sampled_from([str.upper, str.lower, lambda t: f" {t}\n"])), max_size=8),
    config=_configs,
    rules=_rules,
    block=st.sampled_from([1, 7, corpus.CLEAN_BLOCK]),  # tweets per joined text
)
@example(
    texts=[
        "ΟΔΟΣ", "İstanbul\nRT: storm", "x\x1cy\x1dz\x1e\x1fw\x85v\rstorm", "cafe\u0301 \U0001f62d_ok storm",
        "don’t rt! art storm", "storm http://t.co/x", "#Storm @end", "@only http://only", "",
    ],
    repeats=[(0, str.upper), (4, str.lower)],
    config=PreprocessConfig(stopwords=frozenset(), min_global_frequency=1),
    rules=tuple(corpus._STRIP_RULES),
    block=7,
)
def test_block_pass_matches_per_tweet_oracle(texts, repeats, config, rules, block):
    texts = texts + [change(texts[i % len(texts)]) for i, change in repeats if texts]
    raw = _raw(*[(f"t{i}", NOV9, text) for i, text in enumerate(texts)])
    # the drawn rules, in the drawn order, stand in for the fixed table
    drawn = {name: corpus._STRIP_RULES[name] for name in rules}
    with mock.patch.object(corpus, "CLEAN_BLOCK", block), mock.patch.dict(corpus._STRIP_RULES, drawn, clear=True):
        got = preprocess_corpus(raw, config)
        normalized = [" ".join(corpus._clean_block([text])[0]) for text in texts]
    assert got == oracle.preprocess_corpus(raw, config, rules)
    assert normalized == [oracle.normalize_text(text, rules) for text in texts]


# ---------------------------------------------------------------------------
# Stopwords / config
# ---------------------------------------------------------------------------


def test_default_stopwords_contain_english_and_filipino():
    words = default_stopwords()
    assert {"the", "is", "and", "ang", "na", "sa"} <= words


def test_load_stopwords_skips_blank_and_comment_lines(tmp_path):
    path = tmp_path / "stop.txt"
    path.write_text("the\n\n# comment\nAng\n")
    assert load_stopwords(path) == frozenset({"the", "ang"})


def test_load_stopwords_splits_only_at_line_ends(tmp_path):
    # str.splitlines would also split at U+2028, U+0085 and \x1c-\x1e
    path = tmp_path / "stop.txt"
    path.write_bytes("ab\u2028cd\r\nef\u0085gh\rij\x1ckl\x1emn\nop\n".encode("utf-8"))
    assert load_stopwords(path) == frozenset({"ab\u2028cd", "ef\u0085gh", "ij\x1ckl\x1emn", "op"})


def test_preprocess_config_validation():
    with pytest.raises(ValueError):
        PreprocessConfig(stopwords=frozenset(), min_token_length=0)
    with pytest.raises(ValueError):
        PreprocessConfig(stopwords=frozenset(), min_global_frequency=0)


# ---------------------------------------------------------------------------
# Full pipeline: hand-traced fixture
# ---------------------------------------------------------------------------


def _hand_trace_raw():
    return _raw(*synthdata.HAND_TRACE_RAW)


def _default_config():
    return PreprocessConfig(stopwords=default_stopwords())


def test_pipeline_hand_trace_exact():
    clean, vocab, stats = preprocess_corpus(_hand_trace_raw(), _default_config())
    assert tuple(t.id for t in tweets_of(clean)) == synthdata.HAND_TRACE_EXPECTED_ORDER
    for tweet in tweets_of(clean):
        assert tweet.tokens == synthdata.HAND_TRACE_EXPECTED_TOKENS[tweet.id]
    assert tuple(zip(vocab.tokens, range(len(vocab)), vocab.counts)) == synthdata.HAND_TRACE_EXPECTED_VOCAB
    assert asdict(stats) == synthdata.HAND_TRACE_EXPECTED_STATS


def test_pipeline_low_frequency_token_absent_everywhere():
    clean, vocab, _ = preprocess_corpus(_hand_trace_raw(), _default_config())
    # "help" appears 3 times and "yolandaph" twice before the frequency cut
    for word in ("help", "yolandaph", "damage"):
        assert word not in vocab
        assert all(word not in t.tokens for t in tweets_of(clean))


def test_pipeline_short_token_dropped():
    clean, vocab, _ = preprocess_corpus(_hand_trace_raw(), _default_config())
    # "ph" has length 2; even though it repeats it never reaches the vocabulary
    assert "ph" not in vocab
    assert all("ph" not in t.tokens for t in tweets_of(clean))


def test_pipeline_frequency_boundary():
    # "boundary" appears exactly min_global_frequency times, "below" once less;
    # the 2-char zN token defeats text-level dedup and then fails min length
    raws = _raw(*[(f"t{i}", NOV9, f"boundary {'below ' if i < 4 else ''}z{i}") for i in range(5)])
    clean, vocab, _ = preprocess_corpus(raws, PreprocessConfig(stopwords=frozenset()))
    assert "boundary" in vocab and vocab.counts[vocab.index("boundary")] == 5
    assert "below" not in vocab  # 4 occurrences
    assert all(t.tokens == ("boundary",) for t in tweets_of(clean))


def test_pipeline_tokens_all_in_vocab_with_min_frequency():
    clean, vocab, _ = preprocess_corpus(_hand_trace_raw(), _default_config())
    for tweet in tweets_of(clean):
        for token in tweet.tokens:
            assert token in vocab
    for token, count in zip(vocab.tokens, vocab.counts):
        assert count >= 5
        assert count == sum(t.tokens.count(token) for t in tweets_of(clean))


def test_pipeline_idempotent():
    config = _default_config()
    clean1, vocab1, _ = preprocess_corpus(_hand_trace_raw(), config)
    rejoined = RawCorpus.of(clean1.ids, clean1.micros, [" ".join(t.tokens) for t in tweets_of(clean1)])
    clean2, vocab2, stats2 = preprocess_corpus(rejoined, config)
    assert [(t.id, t.tokens) for t in tweets_of(clean2)] == [(t.id, t.tokens) for t in tweets_of(clean1)]
    assert vocab2 == vocab1
    assert stats2.final_count == stats2.raw_count == len(clean1)


def test_pipeline_deterministic_serialization(tmp_path):
    config = _default_config()
    outputs = []
    for run in ("a", "b"):
        clean, vocab, _ = preprocess_corpus(_hand_trace_raw(), config)
        cpath, vpath = tmp_path / f"{run}.jsonl", tmp_path / f"{run}.tsv"
        save_clean_corpus(clean, cpath)
        save_vocabulary(vocab, vpath)
        outputs.append((cpath.read_bytes(), vpath.read_bytes()))
    assert outputs[0] == outputs[1]


def test_pipeline_stats_monotonic():
    _, _, stats = preprocess_corpus(_hand_trace_raw(), _default_config())
    assert stats.raw_count >= stats.deduplicated_count >= stats.final_count >= 0


# ---------------------------------------------------------------------------
# Vocabulary and serialization
# ---------------------------------------------------------------------------


def test_vocabulary_ordering_and_lookups():
    vocab = Vocabulary.from_counts({"b": 5, "a": 5, "c": 9})
    assert vocab.tokens == ("c", "a", "b")
    assert [vocab.index(t) for t in vocab.tokens] == [0, 1, 2]
    assert vocab.counts == (9, 5, 5)
    assert "a" in vocab and "z" not in vocab
    assert len(vocab) == 3


def test_vocabulary_rejects_duplicates_and_bad_counts():
    with pytest.raises(ValueError):
        Vocabulary(["a", "a"])
    with pytest.raises(ValueError):
        Vocabulary(["a", "b"], [1])


def test_vocabulary_round_trip(tmp_path):
    vocab = Vocabulary.from_counts({"storm": 7, "water": 5, "food": 5})
    path = tmp_path / "vocab.tsv"
    save_vocabulary(vocab, path)
    assert load_vocabulary(path) == vocab


@pytest.mark.parametrize("token", ["", "two words", "tab\there", "line\nend", "nbsp\u00a0"])
def test_save_vocabulary_refuses_a_token_its_reader_refuses(tmp_path, token):
    path = tmp_path / "vocab.tsv"
    with pytest.raises(ValueError) as info:
        save_vocabulary(Vocabulary(["storm", token], [7, 5]), path)
    assert str(info.value) == f"{path}: cannot store the token {token!r}: it is empty or holds whitespace"
    assert list(tmp_path.iterdir()) == []


def test_load_vocabulary_rejects_out_of_order_index(tmp_path):
    path = tmp_path / "vocab.tsv"
    path.write_text("storm\t0\t7\nwater\t2\t5\n")
    with pytest.raises(TweetFormatError, match="line 2"):
        load_vocabulary(path)


@pytest.mark.parametrize(
    "text, message",
    [
        ("storm\t0\t7\nwater 1 5\n", "line 2: expected token<TAB>index<TAB>count"),
        ("storm\t0\t7\nwater\t1\tfive\n", "line 2: non-integer index/count"),
        ("storm\t0\t7\nwater\t2\t5\n", "line 2: index 2 out of order (expected 1)"),
        ("storm\t0\t7\nwater\t1\t-3\n", "line 2: negative count -3"),
        ("storm\t0\t7\nstorm\t1\t5\n", "duplicate tokens in vocabulary"),
        # an embedding file separates a token from its values by whitespace
        ("storm\t0\t7\ntwo words\t1\t3\n", "line 2: token 'two words' is empty or holds whitespace"),
        ("storm\t0\t7\n\t1\t3\n", "line 2: token '' is empty or holds whitespace"),
        ("storm\t0\t7\nw\xffter\t1\t5\n", "corrupt file: not UTF-8 text"),
    ],
)
def test_load_vocabulary_errors_start_with_the_file(tmp_path, capsys, text, message):
    path = tmp_path / "vocab.tsv"
    path.write_bytes(text.encode("latin-1"))
    with pytest.raises(TweetFormatError) as info:
        load_vocabulary(path)
    assert str(info.value).startswith(f"{path}: {message}")
    # `neighbors` reads the vocabulary after a valid embedding file
    emb_path = tmp_path / "emb.txt"
    emb_path.write_text("SGNS-EMB v1 2 1\nstorm 1\nwater 2\n")
    from rnnsent.cli import main

    assert main(["neighbors", "--embeddings", str(emb_path), "--vocab", str(path), "--word", "storm", "--k", "1"]) == 2
    assert f"error: {path}: {message}" in capsys.readouterr().err


# vocab.tsv-ish bytes: its separators, line ends, digits and bytes that are not UTF-8 drawn often
vocab_bytes = st.lists(
    st.one_of(
        st.sampled_from([b"\t", b"\n", b"\r", b"\r\n", b"0", b"1", b"-1", b"storm", b" ", b"\xff", b"\xe2\x80\xa8"]),
        st.binary(max_size=4),
    ),
    max_size=30,
).map(b"".join)


@settings(max_examples=200, deadline=None)
@given(content=vocab_bytes)
@example(content=b"storm\t0\t" + b"1" * 5000 + b"\n")
@example(content=b"storm\t0\t7\nstorm\t1\t5\n")
def test_load_vocabulary_arbitrary_bytes_fail_typed_naming_the_file(tmp_path_factory, content):
    path = tmp_path_factory.mktemp("fuzz") / "vocab.tsv"
    path.write_bytes(content)
    try:
        load_vocabulary(path)
    except TweetFormatError as exc:
        assert str(exc).startswith(f"{path}: ")


@st.composite
def vocab_rows(draw):
    """vocab.tsv bytes close to valid: mostly indices in order, with spellings
    of an integer that int() reads, bad counts and tokens, repeated tokens,
    blank lines, and every line end that text mode reads as one."""
    lines = []
    for i in range(draw(st.integers(0, 8))):
        token = draw(st.one_of(st.sampled_from(["storm", "water", "bagyo"]), st.text(st.characters(blacklist_categories=("Cs",)), max_size=3)))
        index = draw(st.sampled_from([str(i)] * 6 + [f"+{i}", f" {i}", f"0{i}", f"{i}_0", str(i + 1), "x"]))
        count = draw(st.one_of(st.integers(-2, 12).map(str), st.sampled_from([" 5", "5 ", "1_0", "\u0663", "", "-0", "9" * 4400])))
        lines.append(draw(st.sampled_from(["\t".join([token, index, count])] * 8 + [f"{token}\t{index}", f"{token}\t{index}\t{count}\t"])))
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t\t", "\x1c", "\u2028"])))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return (end.join(lines) + draw(st.sampled_from(["", end, end + end]))).encode("utf-8")


def _vocabulary_or_error(read, path):
    try:
        return read(path)
    except TweetFormatError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(content=st.one_of(vocab_bytes, vocab_rows()))
@example(content=b"")
@example(content=b"storm\t0\t7\nstorm\t1\t5\n")
@example(content=b"storm\t0\t7\nwater\t1\t5\xe2\x80")  # an incomplete UTF-8 sequence at the end
@example(content=b"storm\t0\n7\twater\t1\t5\n")  # six fields, but not three a line
def test_vocabulary_block_reader_matches_the_line_reader(tmp_path_factory, content):
    path = tmp_path_factory.mktemp("vocab") / "vocab.tsv"
    path.write_bytes(content)
    expected = _vocabulary_or_error(corpus._vocabulary_lines, path)
    assert _vocabulary_or_error(vocabulary_columns, path) == expected
    if not isinstance(expected, str):
        expected = Vocabulary(*expected)
    assert _vocabulary_or_error(load_vocabulary, path) == expected


def test_a_saved_vocabulary_is_read_in_one_pass(tmp_path):
    path = tmp_path / "vocab.tsv"
    vocab = Vocabulary([f"w{i}" for i in range(500)], range(1000, 500, -1))
    save_vocabulary(vocab, path)
    with mock.patch.object(corpus, "_vocabulary_lines", side_effect=AssertionError("read line by line")):
        assert load_vocabulary(path) == vocab
    # CRLF line ends and the spellings of an integer that int() reads take the same pass
    path.write_bytes(b"storm\t0\t7\r\nwater\t+1\t 0\r\nfood\t02\t1_0\r\n")
    with mock.patch.object(corpus, "_vocabulary_lines", side_effect=AssertionError("read line by line")):
        assert load_vocabulary(path) == Vocabulary(["storm", "water", "food"], [7, 0, 10])


def test_repeated_vocabulary_token_names_both_lines(tmp_path):
    path = tmp_path / "vocab.tsv"
    path.write_text("storm\t0\t7\nwater\t1\t5\n\nstorm\t2\t3\nx y\t3\t1\n")
    with pytest.raises(TweetFormatError) as info:
        load_vocabulary(path)
    # the first bad line is named, though a later line is malformed as well
    assert str(info.value) == f"{path}: duplicate tokens in vocabulary: line 4 repeats the token 'storm' of line 1"


# a token is any nonempty text without whitespace, which separates the fields of a
# vocabulary file and a token from its values in an embedding file
tokens = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6).filter(lambda t: t.split() == [t])


@settings(max_examples=50, deadline=None)
@given(entries=st.lists(st.tuples(tokens, st.integers(min_value=0)), max_size=12, unique_by=lambda e: e[0]))
def test_vocabulary_save_load_is_identity(tmp_path_factory, entries):
    vocab = Vocabulary([t for t, _ in entries], [c for _, c in entries])
    path = tmp_path_factory.mktemp("vocab") / "vocab.tsv"
    save_vocabulary(vocab, path)
    loaded = load_vocabulary(path)
    assert loaded == vocab
    assert loaded.token_to_index == vocab.token_to_index


def test_clean_corpus_round_trip(tmp_path):
    clean, _, _ = preprocess_corpus(_hand_trace_raw(), _default_config())
    path = tmp_path / "clean.jsonl"
    save_clean_corpus(clean, path)
    loaded = load_clean_corpus(path)
    assert loaded == clean


def _embed_exit_code(corpus_path, tmp_path):
    from rnnsent.cli import main

    return main(["embed", "--corpus", str(corpus_path), "--vocab", str(tmp_path / "missing.tsv"),
                 "--output", str(tmp_path / "emb.txt")])


@pytest.mark.parametrize("record", ["7", '"text"', "null", '["t1", "2013-11-08T00:00:00+00:00"]'])
def test_load_clean_corpus_rejects_non_object_line(tmp_path, record):
    path = tmp_path / "clean.jsonl"
    path.write_text('{"id": "t1", "timestamp": "2013-11-08T00:00:00+00:00", "tokens": ["bagyo"]}\n' + record + "\n")
    with pytest.raises(TweetFormatError, match="line 2: expected a JSON object"):
        load_clean_corpus(path)
    # a usage failure, not an internal error
    assert _embed_exit_code(path, tmp_path) == 2


@pytest.mark.parametrize("tokens", ['"bagyo"', '["bagyo", 3]', '{"bagyo": 1}', "null", '[["bagyo"]]'])
def test_load_clean_corpus_rejects_tokens_not_a_list_of_strings(tmp_path, tokens):
    path = tmp_path / "clean.jsonl"
    path.write_text('{"id": "t1", "timestamp": "2013-11-08T00:00:00+00:00", "tokens": ' + tokens + "}\n")
    with pytest.raises(TweetFormatError, match="line 1: 'tokens' must be a list of strings"):
        load_clean_corpus(path)
    assert _embed_exit_code(path, tmp_path) == 2


@pytest.mark.parametrize("field, value", [("id", [1, 2]), ("id", 7), ("timestamp", 1383868800), ("timestamp", None)])
def test_load_clean_corpus_rejects_non_string_id_or_timestamp(tmp_path, field, value):
    record = {"id": "t2", "timestamp": "2013-11-08T00:00:00+00:00", "tokens": ["baha"], field: value}
    path = tmp_path / "clean.jsonl"
    path.write_text('{"id": "t1", "timestamp": "2013-11-08T00:00:00+00:00", "tokens": ["bagyo"]}\n' + json.dumps(record) + "\n")
    with pytest.raises(TweetFormatError) as info:
        load_clean_corpus(path)
    assert str(info.value).startswith(f"{path}: line 2: '{field}' must be a string")
    assert _embed_exit_code(path, tmp_path) == 2


def test_load_clean_corpus_bad_timestamp_names_file_and_line(tmp_path):
    path = tmp_path / "clean.jsonl"
    path.write_text('{"id": "t1", "timestamp": "not a time", "tokens": ["bagyo"]}\n')
    with pytest.raises(TweetFormatError, match=r"clean\.jsonl: line 1: bad timestamp 'not a time'"):
        load_clean_corpus(path)


def test_load_clean_corpus_reads_records_as_json_loads_does(tmp_path):
    record = '{"id": "t1", "timestamp": "2013-11-08T00:00:00+00:00", "tokens": ["bagyo"]}'
    path = tmp_path / "clean.jsonl"
    # JSON whitespace around a record and whitespace-only lines are accepted
    path.write_text(f" \t{record}\t \n\x0c\n\n")
    assert load_clean_corpus(path) == table([Tweet("t1", datetime(2013, 11, 8, tzinfo=timezone.utc), ("bagyo",))])
    for trailing in (" x", " {}", "]"):
        path.write_text(record + "\n" + record.replace("t1", "t2") + trailing + "\n")
        with pytest.raises(TweetFormatError, match=r"clean\.jsonl: line 2: invalid JSON: Extra data"):
            load_clean_corpus(path)

    path.write_bytes(record.encode() + b"\n\xff\n")
    with pytest.raises(TweetFormatError, match=r"clean\.jsonl: corrupt file: not UTF-8 text"):
        load_clean_corpus(path)
