"""The clean corpus table's word column: its columns must agree, token_ids
gives what one lookup per token gave, a loaded table holds one string per
word, and no result depends on the order the words were interned in."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from rnnsent import corpus
from rnnsent.analysis import save_classified
from rnnsent.corpus import Corpus, RawCorpus, Vocabulary, load_clean_corpus, save_clean_corpus, token_ids
from synthdata import lists_table, tokens_of, tweets_of


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Corpus.of(["a", "b"], [0], ["x", "y", "z"], [1]), "2 ids, 1 micros and 1 sizes differ in length"),
        (lambda: Corpus.of(["a"], [0, 1], [], [0]), "1 ids, 2 micros and 1 sizes differ in length"),
        (lambda: Corpus.of(["a", "b"], [0, 1], ["x"], [1]), "2 ids, 2 micros and 1 sizes differ in length"),
        (lambda: Corpus.of(["a"], [0], ["x", "y", "z"], [1]), "the sizes add up to 1 tokens, but there are 3"),
        (lambda: Corpus.of(["a", "b"], [0, 1], ["x"], [1, 1]), "the sizes add up to 2 tokens, but there are 1"),
        (lambda: RawCorpus.of(["a", "b"], [0], ["t", "u"]), "2 ids, 1 micros and 2 texts differ in length"),
        (lambda: RawCorpus.of(["a"], [0], ["t", "u"]), "1 ids, 1 micros and 2 texts differ in length"),
    ],
)
def test_tables_refuse_columns_that_disagree(build, message):
    with pytest.raises(ValueError, match=message):
        build()


FIRST_MICROS, LAST_MICROS = -62_135_596_800_000_000, 253_402_300_799_999_999  # 0001-01-01, 9999-12-31T23:59:59.999999


@pytest.mark.parametrize("build", [
    lambda micros: Corpus.of(["a", "b", "c"], micros, [], [0, 0, 0]),
    lambda micros: RawCorpus.of(["a", "b", "c"], micros, ["t", "u", "v"]),
])
def test_tables_refuse_an_instant_outside_datetimes_range(build):
    # the instants datetime holds in UTC, the only ones the writers can format and the readers read back
    assert np.array_equal(build([FIRST_MICROS, 0, LAST_MICROS]).micros, [FIRST_MICROS, 0, LAST_MICROS])
    with pytest.raises(ValueError, match=f"^row 1: {FIRST_MICROS - 1} microseconds since the epoch lies outside"):
        build([0, FIRST_MICROS - 1, LAST_MICROS + 1])
    with pytest.raises(ValueError, match=f"^row 2: {LAST_MICROS + 1} microseconds since the epoch lies outside"):
        build([0, LAST_MICROS, LAST_MICROS + 1])


def test_of_interns_one_string_per_word():
    tokens = ["".join(["bag", "yo"]) for _ in range(3)] + ["baha"]  # three equal strings, three objects
    table = Corpus.of(["t1", "t2"], [0, 1], tokens, [2, 2])
    assert table.words == ("bagyo", "baha")
    assert table.word_ids.dtype == np.int32 and table.word_ids.tolist() == [0, 0, 0, 1]
    assert table.offsets.tolist() == [0, 2, 4]


# a small pool, so words repeat; the vocabulary holds some of them, so others are OOV
WORDS = ["bagyo", "baha", "ulan", "hangin", "niño", "\U0001f600", "x"]
token_lists = st.lists(st.lists(st.sampled_from(WORDS), max_size=6), max_size=12)


@settings(max_examples=60, deadline=None)
@given(lists=token_lists, known=st.sets(st.sampled_from(WORDS)), block=st.integers(1, 4), data=st.data())
def test_token_ids_equals_the_per_token_lookup(tmp_path_factory, lists, known, block, data):
    vocab = Vocabulary(sorted(known))
    built = Corpus.of(map(str, range(len(lists))), [0] * len(lists), [t for tokens in lists for t in tokens], map(len, lists))
    # a small block, so some words are first seen in a later block
    path = tmp_path_factory.mktemp("word-column") / "corpus.jsonl"
    with mock.patch.object(corpus, "JSONL_BLOCK", block):
        save_clean_corpus(built, path)
        loaded = load_clean_corpus(path)
    rows = np.array(data.draw(st.permutations(range(len(lists)))), dtype=np.int64)
    for table in (built, loaded, lists_table(lists), loaded.take(rows), loaded.take(rows[: len(rows) // 2])):
        got, want = token_ids(vocab, table), oracle.token_ids(vocab, table)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tolist() == b.tolist()
    assert [t.tokens for t in tweets_of(loaded.take(rows))] == [tuple(lists[r]) for r in rows.tolist()]


def test_a_loaded_table_holds_one_string_per_word(tmp_path):
    # 2,000 tweets of 50 tokens each: 100,000 occurrences of 20 words
    words = [f"salita{i:02d}" for i in range(20)]
    lists = [[words[(7 * i + j) % 20] for j in range(50)] for i in range(2000)]
    path = tmp_path / "corpus.jsonl"
    save_clean_corpus(lists_table(lists), path)

    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loaded = load_clean_corpus(path)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(set(map(id, loaded.words))) == len(loaded.words) <= 20
    assert held < 1 << 20, f"the loaded table holds {held} bytes"
    assert tokens_of(loaded) == [t for tokens in lists for t in tokens]


@settings(max_examples=40, deadline=None)
@given(lists=token_lists, data=st.data())
def test_the_order_of_the_words_changes_no_result(tmp_path_factory, lists, data):
    first = Corpus.of(map(str, range(len(lists))), range(len(lists)), [t for tokens in lists for t in tokens], map(len, lists))
    order = data.draw(st.permutations(range(len(first.words))))
    # the same rows, their words interned in another order
    rank = np.argsort(np.array(order, dtype=np.int64)).astype(np.int32)
    second = Corpus(first.ids, first.micros, tuple(first.words[i] for i in order), rank[first.word_ids], first.offsets)
    assert first == second and second == first

    out = tmp_path_factory.mktemp("order")
    n = len(first)
    labels, confidences, oov = np.arange(n) % 3, np.linspace(0, 1, n), np.arange(n) % 2 == 0
    for name, table in (("first", first), ("second", second)):
        save_clean_corpus(table, out / f"{name}.jsonl")
        save_classified(table, labels, confidences, oov, out / f"{name}-classified.jsonl")
    assert (out / "first.jsonl").read_bytes() == (out / "second.jsonl").read_bytes()
    assert (out / "first-classified.jsonl").read_bytes() == (out / "second-classified.jsonl").read_bytes()


def test_tables_with_other_tokens_are_not_equal():
    table = lists_table([["bagyo", "baha"], ["ulan"]])
    swapped = lists_table([["baha", "bagyo"], ["ulan"]])
    foreign = lists_table([["bagyo", "hangin"], ["ulan"]])
    moved = lists_table([["bagyo"], ["baha", "ulan"]])
    for other in (swapped, foreign, moved):
        assert table != other and other != table
    assert table == lists_table([["bagyo", "baha"], ["ulan"]])
