import json
import time
from datetime import date, datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
import synthdata
from rnnsent.analysis import (
    GRANULARITIES,
    SentimentDistribution,
    classify_corpus,
    export_report,
    save_classified,
    sentiment_distribution,
    temporal_buckets,
)
from rnnsent.corpus import Corpus, load_clean_corpus, save_clean_corpus
from rnnsent.evaluation import FINE_CLASSES
from rnnsent.model import ModelConfig, init_params, param_shapes, predict_many
from rnnsent.numeric import RngState
from synthdata import Tweet, table, tweets_of


def _tweet(i, ts):
    return Tweet(id=f"t{i}", timestamp=ts, tokens=("tok",))


def _labels(names):
    return np.array([FINE_CLASSES.index(name) for name in names], dtype=np.int64)


def _classified(spec):
    """spec: list of (label, iso timestamp) -> (corpus, label column)"""
    corpus = []
    for i, (_, ts) in enumerate(spec):
        stamp = datetime.fromisoformat(ts)
        if stamp.tzinfo is None:
            stamp = stamp.replace(tzinfo=timezone.utc)
        corpus.append(_tweet(i, stamp))
    return table(corpus), _labels([label for label, _ in spec])


# ---------------------------------------------------------------------------
# classify_corpus
# ---------------------------------------------------------------------------


def _model_world():
    corpus, _ = synthdata.synthetic_labeled(4, seed=80)
    vocab = synthdata.vocabulary_of(corpus)
    emb = synthdata.separable_embeddings(vocab, seed=80)
    cfg = ModelConfig(embedding_dim=emb.dim, hidden_size=4)
    params = {n: np.zeros(s) for n, s in param_shapes(cfg).items()}
    return corpus, emb, cfg, params


def test_classify_corpus_covers_every_tweet():
    corpus, emb, cfg, params = _model_world()
    labels, confidences, oov = classify_corpus(params, cfg, emb, corpus)
    assert len(labels) == len(confidences) == len(oov) == len(corpus)
    # zero-weight model: uniform probabilities, class 0 by tie-break
    for label, confidence, flagged in zip(labels, confidences, oov):
        assert FINE_CLASSES[label] == "positive"
        assert confidence == pytest.approx(1 / 3, abs=1e-12)
        assert not flagged


def test_classify_corpus_flags_oov_as_neutral():
    corpus, emb, cfg, params = _model_world()
    tweets = tweets_of(corpus)
    ghost = Tweet(id="ghost", timestamp=tweets[0].timestamp, tokens=("zzzz", "qqqq"))
    labels, confidences, oov = classify_corpus(params, cfg, emb, table([*tweets, ghost]))
    assert FINE_CLASSES[labels[-1]] == "neutral"
    assert confidences[-1] == 0.0
    assert oov[-1]


def test_classify_corpus_deterministic():
    corpus, emb, cfg, _ = _model_world()
    params = init_params(cfg, RngState(seed=81))
    a = classify_corpus(params, cfg, emb, corpus)
    b = classify_corpus(params, cfg, emb, corpus)
    assert list(zip(a[0].tolist(), a[1].tolist())) == list(zip(b[0].tolist(), b[1].tolist()))


def test_classify_corpus_rejects_empty():
    _, emb, cfg, params = _model_world()
    with pytest.raises(ValueError, match="empty"):
        classify_corpus(params, cfg, emb, table([]))


# ---------------------------------------------------------------------------
# Distribution
# ---------------------------------------------------------------------------


def test_distribution_all_positive():
    d = sentiment_distribution(_labels(["positive"] * 10))
    assert d.counts == {"positive": 10, "negative": 0, "neutral": 0}
    assert d.percentages == {"positive": 100.0, "negative": 0.0, "neutral": 0.0}
    assert d.total == 10


def test_distribution_two_three_five():
    spec = [("positive", "2013-11-09")] * 2 + [("negative", "2013-11-09")] * 3 + [
        ("neutral", "2013-11-09")
    ] * 5
    d = sentiment_distribution(_classified(spec)[1])
    assert d.counts == {"positive": 2, "negative": 3, "neutral": 5}
    assert d.percentages == {"positive": 20.0, "negative": 30.0, "neutral": 50.0}


def test_distribution_one_decimal_rounding():
    spec = [("positive", "2013-11-09")] * 1 + [("negative", "2013-11-09")] * 2
    d = sentiment_distribution(_classified(spec)[1])
    assert d.percentages == {"positive": 33.3, "negative": 66.7, "neutral": 0.0}
    assert abs(sum(d.percentages.values()) - 100.0) <= 0.1


def test_distribution_empty_rejected():
    with pytest.raises(ValueError, match="empty"):
        sentiment_distribution([])
    with pytest.raises(ValueError, match="sum"):
        SentimentDistribution(counts={"positive": 1}, percentages={"positive": 100.0}, total=2)


# ---------------------------------------------------------------------------
# Temporal buckets
# ---------------------------------------------------------------------------

NINE_TWEETS = [
    ("positive", "2013-11-05"),
    ("positive", "2013-11-20"),
    ("negative", "2013-11-28"),
    ("neutral", "2013-12-03"),
    ("neutral", "2013-12-25"),
    ("positive", "2014-01-02"),
    ("negative", "2014-01-10"),
    ("negative", "2014-01-15"),
    ("neutral", "2014-01-30"),
]


def test_buckets_three_months_hand_tally():
    buckets = temporal_buckets(*_classified(NINE_TWEETS), "month")
    assert buckets.granularity == "month"
    assert [b.label for b in buckets.buckets] == ["2013-11", "2013-12", "2014-01"]
    assert [b.start for b in buckets.buckets] == [date(2013, 11, 1), date(2013, 12, 1), date(2014, 1, 1)]
    assert buckets.buckets[0].counts == {"positive": 2, "negative": 1, "neutral": 0}
    assert buckets.buckets[1].counts == {"positive": 0, "negative": 0, "neutral": 2}
    assert buckets.buckets[2].counts == {"positive": 1, "negative": 2, "neutral": 1}


def test_bucket_column_sums_equal_distribution():
    corpus, labels = _classified(NINE_TWEETS)
    d = sentiment_distribution(labels)
    buckets = temporal_buckets(corpus, labels, "month")
    for label in ("positive", "negative", "neutral"):
        assert sum(b.counts[label] for b in buckets.buckets) == d.counts[label]
    assert sum(sum(b.counts.values()) for b in buckets.buckets) == len(corpus)


def test_buckets_single_month_matches_distribution():
    spec = [("positive", "2013-11-01"), ("neutral", "2013-11-30")]
    corpus, labels = _classified(spec)
    buckets = temporal_buckets(corpus, labels, "month")
    assert len(buckets.buckets) == 1
    assert buckets.buckets[0].counts == sentiment_distribution(labels).counts


def test_buckets_interior_gap_zero_filled():
    spec = [("positive", "2013-11-09"), ("negative", "2014-01-15")]
    buckets = temporal_buckets(*_classified(spec), "month")
    assert [b.label for b in buckets.buckets] == ["2013-11", "2013-12", "2014-01"]
    assert buckets.buckets[1].counts == {"positive": 0, "negative": 0, "neutral": 0}


def test_buckets_use_utc_calendar():
    # 07:00+08:00 on Dec 1 is still Nov 30 in UTC
    corpus = table([_tweet(0, datetime(2013, 12, 1, 7, 0, tzinfo=timezone(timedelta(hours=8))))])
    buckets = temporal_buckets(corpus, _labels(["positive"]), "month")
    assert [b.label for b in buckets.buckets] == ["2013-11"]


def test_buckets_week_starts_monday():
    # Nov 13 2013 is a Wednesday; its ISO week starts Monday Nov 11
    spec = [("positive", "2013-11-13"), ("negative", "2013-11-25")]
    buckets = temporal_buckets(*_classified(spec), "week")
    assert [b.label for b in buckets.buckets] == ["2013-11-11", "2013-11-18", "2013-11-25"]
    assert [b.start.weekday() for b in buckets.buckets] == [0, 0, 0]
    assert buckets.buckets[1].counts == {"positive": 0, "negative": 0, "neutral": 0}


def test_buckets_day_granularity():
    spec = [("positive", "2013-11-09"), ("negative", "2013-11-11")]
    buckets = temporal_buckets(*_classified(spec), "day")
    assert [b.label for b in buckets.buckets] == ["2013-11-09", "2013-11-10", "2013-11-11"]


# each example's timestamps sit within a day of the month ends, a Monday or the
# first or last days of one group, in UTC, at +08:30 or naive; half the
# examples are all in UTC
_EDGE_GROUPS = [
    [datetime(2013, 11, 30), datetime(2013, 12, 31), datetime(2014, 1, 31), datetime(2013, 11, 11)],
    [datetime(2016, 2, 29), datetime(2016, 3, 1)],
    [datetime(1, 1, 3)],
    [datetime(9999, 12, 29)],
]
_ZONES = [None, timezone.utc, timezone(timedelta(hours=8, minutes=30))]


@st.composite
def _bucket_spec(draw):
    edges = draw(st.sampled_from(_EDGE_GROUPS))
    zones = draw(st.sampled_from([[timezone.utc], _ZONES]))
    stamp = st.builds(
        lambda edge, minutes, zone: (edge + timedelta(minutes=minutes)).replace(tzinfo=zone),
        st.sampled_from(edges), st.integers(-24 * 60, 24 * 60), st.sampled_from(zones),
    )
    return draw(st.lists(st.tuples(st.sampled_from(["positive", "negative", "neutral"]), stamp), min_size=1, max_size=20))


@settings(max_examples=200, deadline=None)
@given(spec=_bucket_spec(), granularity=st.sampled_from(GRANULARITIES))
def test_buckets_equal_per_tweet_reference(spec, granularity):
    corpus = table(_tweet(i, ts) for i, (_, ts) in enumerate(spec))
    labels = _labels([label for label, _ in spec])
    assert temporal_buckets(corpus, labels, granularity) == oracle.temporal_buckets(corpus, labels, granularity)


@pytest.fixture
def local_time_utc_plus_8(monkeypatch):
    """The process's local time zone at UTC+8 (the POSIX TZ "PHT-8", which
    needs no tz database), restored afterwards."""
    with monkeypatch.context() as m:
        m.setenv("TZ", "PHT-8")
        time.tzset()
        yield
    time.tzset()


def test_buckets_read_naive_timestamp_as_utc_in_any_local_zone(local_time_utc_plus_8, tmp_path):
    # 03:00 naive is 03:00 UTC, as parse_timestamp and a save-load round trip read it,
    # not 03:00 local time, which is 19:00 UTC on the day before
    naive = table([Tweet(id="t0", timestamp=datetime(2013, 11, 8, 3), tokens=("tok",))])
    path = tmp_path / "corpus.jsonl"
    save_clean_corpus(naive, path)
    for corpus in (naive, load_clean_corpus(path)):
        labels = _labels(["positive"])
        buckets = temporal_buckets(corpus, labels, "day")
        assert [b.label for b in buckets.buckets] == ["2013-11-08"]
        assert buckets == oracle.temporal_buckets(corpus, labels, "day")


DAY = 86_400_000_000  # microseconds
P, N, U = "positive", "negative", "neutral"
# (UTC microseconds, label) of each tweet, by hand: the first microsecond of a
# day is positive, its last one negative
EDGE_CORPORA = {
    "epoch": [
        (-3 * DAY, P),  # 1969-12-29, a Monday
        (-DAY, P), (-1, N),  # 1969-12-31
        (0, P), (DAY - 1, N),  # 1970-01-01
        (59 * DAY, U),  # 1970-03-01, a Sunday, after an empty February
    ],
    "year 1": [(-62_135_596_800_000_000, P), (-62_135_596_800_000_000 + DAY - 1, N), (-62_135_596_800_000_000 + 2 * DAY, U)],
    "year 9999": [(253_402_300_800_000_000 - 3 * DAY, P), (253_402_300_800_000_000 - 1, N)],
}
# the number of buckets and the nonempty ones, {label: (positive, negative, neutral)}, by hand
EDGE_BUCKETS = {
    ("epoch", "day"): (63, {"1969-12-29": (1, 0, 0), "1969-12-31": (1, 1, 0), "1970-01-01": (1, 1, 0), "1970-03-01": (0, 0, 1)}),
    ("epoch", "week"): (9, {"1969-12-29": (3, 2, 0), "1970-02-23": (0, 0, 1)}),
    ("epoch", "month"): (4, {"1969-12": (2, 1, 0), "1970-01": (1, 1, 0), "1970-03": (0, 0, 1)}),
    ("year 1", "day"): (3, {"0001-01-01": (1, 1, 0), "0001-01-03": (0, 0, 1)}),
    ("year 1", "week"): (1, {"0001-01-01": (1, 1, 1)}),
    ("year 1", "month"): (1, {"0001-01": (1, 1, 1)}),
    ("year 9999", "day"): (3, {"9999-12-29": (1, 0, 0), "9999-12-31": (0, 1, 0)}),
    ("year 9999", "week"): (1, {"9999-12-27": (1, 1, 0)}),
    ("year 9999", "month"): (1, {"9999-12": (1, 1, 0)}),
}


@pytest.mark.parametrize("name, granularity", list(EDGE_BUCKETS))
def test_buckets_of_the_micro_column_at_day_edges_equal_hand_and_per_tweet_dates(name, granularity):
    stamps, names = zip(*EDGE_CORPORA[name])
    corpus = Corpus.of([f"t{i}" for i in range(len(stamps))], stamps, ["tok"] * len(stamps), [1] * len(stamps))
    labels = _labels(names)
    buckets = temporal_buckets(corpus, labels, granularity)
    # oracle.temporal_buckets takes each tweet's date from its datetime, one tweet at a time
    assert buckets == oracle.temporal_buckets(corpus, labels, granularity)
    count, nonempty = EDGE_BUCKETS[name, granularity]
    assert len(buckets.buckets) == count
    got = {b.label: tuple(b.counts.values()) for b in buckets.buckets if any(b.counts.values())}
    assert got == nonempty


@pytest.mark.parametrize("granularity, label", [("month", "9999-12"), ("week", "9999-12-27"), ("day", "9999-12-31")])
def test_buckets_reach_the_last_period_of_the_calendar(granularity, label):
    # a loop that steps to the period after the last one cannot hold it in a date
    buckets = temporal_buckets(*_classified([("neutral", "9999-12-31T23:59:59")]), granularity)
    assert [(b.label, b.counts) for b in buckets.buckets] == [(label, {"positive": 0, "negative": 0, "neutral": 1})]


def test_buckets_errors():
    with pytest.raises(ValueError, match="granularity"):
        temporal_buckets(*_classified([("positive", "2013-11-09")]), "fortnight")
    with pytest.raises(ValueError, match="empty"):
        temporal_buckets(*_classified([]), "month")


# ---------------------------------------------------------------------------
# Report export
# ---------------------------------------------------------------------------


def test_export_json_round_trip(tmp_path):
    corpus, labels = _classified(NINE_TWEETS)
    dist = sentiment_distribution(labels)
    buckets = temporal_buckets(corpus, labels, "month")
    path = tmp_path / "report.json"
    export_report(dist, buckets, path, tmp_path / "report.csv")
    payload = json.loads(path.read_text())
    assert payload["distribution"] == {"counts": dist.counts, "percentages": dist.percentages, "total": dist.total}
    assert payload["granularity"] == buckets.granularity
    assert payload["buckets"] == [{"period": b.label, **b.counts} for b in buckets.buckets]


def test_export_json_percentages_one_decimal(tmp_path):
    corpus, labels = _classified([("positive", "2013-11-09")] + [("negative", "2013-11-09")] * 2)
    path = tmp_path / "report.json"
    dist, buckets = sentiment_distribution(labels), temporal_buckets(corpus, labels, "month")
    export_report(dist, buckets, path, tmp_path / "report.csv")
    payload = json.loads(path.read_text())
    assert payload["distribution"]["percentages"] == {
        "positive": 33.3,
        "negative": 66.7,
        "neutral": 0.0,
    }
    assert payload["buckets"][0]["period"] == "2013-11"


def test_export_csv_exact_rows(tmp_path):
    corpus, labels = _classified(NINE_TWEETS)
    path = tmp_path / "report.csv"
    dist, buckets = sentiment_distribution(labels), temporal_buckets(corpus, labels, "month")
    export_report(dist, buckets, tmp_path / "report.json", path)
    lines = path.read_text().splitlines()
    assert lines == [
        "period,positive,negative,neutral",
        "2013-11,2,1,0",
        "2013-12,0,0,2",
        "2014-01,1,2,1",
    ]


def test_save_classified_jsonl(tmp_path):
    corpus, emb, cfg, params = _model_world()
    first3 = corpus.take(np.arange(3))
    columns = classify_corpus(params, cfg, emb, first3)
    path = tmp_path / "classified.jsonl"
    save_classified(first3, *columns, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    first = json.loads(lines[0])
    assert set(first) == {"id", "timestamp", "tokens", "label", "confidence", "oov"}
    assert first["label"] == "positive"
    # records stay loadable as a clean corpus (extra fields ignored)
    assert load_clean_corpus(path).ids == corpus.ids[:3]


# ---------------------------------------------------------------------------
# The classified columns against the per-tweet references
# ---------------------------------------------------------------------------

GHOST = ("zzzz", "qqqq")  # no token in the synthetic vocabulary
POSITIVE, NEGATIVE, NEUTRAL = range(3)  # indices into FINE_CLASSES


@st.composite
def _columns(draw):
    """A corpus of the synthetic world's tweets, some made wholly out of
    vocabulary, with UTC, naive and +08:30 timestamps; random three-class
    columns beside it, neutral with confidence 0.0 on its OOV rows; and a
    seed for a two-class model."""
    n = draw(st.integers(1, 24))
    oov = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    stamps = draw(st.lists(
        st.datetimes(
            min_value=datetime(2013, 10, 25), max_value=datetime(2014, 2, 5),
            timezones=st.sampled_from([None, timezone.utc, timezone(timedelta(hours=8, minutes=30))]),
        ),
        min_size=n, max_size=n,
    ))
    labels = np.array([NEUTRAL if o else draw(st.integers(0, 2)) for o in oov], dtype=np.int64)
    scores = st.floats(allow_nan=True, allow_infinity=True)
    confidences = np.array([0.0 if o else draw(scores) for o in oov])
    return stamps, labels, confidences, oov, draw(st.integers(0, 2**32 - 1)), draw(st.booleans())


@settings(max_examples=60, deadline=None)
@given(drawn=_columns())
def test_columns_equal_per_tweet_reference(tmp_path_factory, drawn):
    stamps, labels, confidences, oov, seed, binary_columns = drawn
    world, emb, _, _ = _model_world()
    world = tweets_of(world)
    corpus = table(
        Tweet(f"t{i}", stamp, GHOST if o else world[i % len(world)].tokens)
        for i, (stamp, o) in enumerate(zip(stamps, oov))
    )

    # a two-class model scores positive or negative, and neutral only where it cannot score
    cfg = ModelConfig(embedding_dim=emb.dim, hidden_size=4, num_classes=2)
    params = init_params(cfg, RngState(seed=seed))
    binary = classify_corpus(params, cfg, emb, corpus)
    binary_labels, binary_confidences, binary_oov = binary
    assert np.array_equal(binary_oov, oov)
    assert set(binary_labels[~oov].tolist()) <= {POSITIVE, NEGATIVE}
    assert (binary_labels[oov] == NEUTRAL).all() and (binary_confidences[oov] == 0.0).all()
    probabilities, _ = predict_many(params, cfg, emb, corpus)
    winners = probabilities.argmax(axis=1)
    assert binary_labels[~oov].tolist() == [(POSITIVE, NEGATIVE)[i] for i in winners[~oov]]

    if binary_columns:
        labels, confidences, oov = binary
    assert sentiment_distribution(labels) == oracle.sentiment_distribution(labels)
    for granularity in GRANULARITIES:
        assert temporal_buckets(corpus, labels, granularity) == oracle.temporal_buckets(corpus, labels, granularity)

    path = tmp_path_factory.mktemp("classified") / "classified.jsonl"
    save_classified(corpus, labels, confidences, oov, path)
    encode = json.JSONEncoder(sort_keys=True).encode
    expected = "".join(
        encode({
            "id": tweet.id,
            "timestamp": tweet.timestamp.isoformat(),
            "tokens": tweet.tokens,
            "label": FINE_CLASSES[label],
            "confidence": confidence,
            "oov": flagged,
        }) + "\n"
        for tweet, label, confidence, flagged in zip(tweets_of(corpus), labels.tolist(), confidences.tolist(), oov.tolist())
    )
    assert path.read_bytes() == expected.encode("ascii")
