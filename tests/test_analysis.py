import json
from datetime import date, datetime, timedelta, timezone

import numpy as np
import pytest

import synthdata
from rnnsent.analysis import (
    ClassifiedTweet,
    SentimentDistribution,
    classify_corpus,
    export_report,
    load_report,
    save_classified,
    sentiment_distribution,
    temporal_buckets,
)
from rnnsent.corpus import CleanTweet, load_clean_corpus
from rnnsent.model import ModelConfig, param_shapes


def _tweet(i, ts):
    return CleanTweet(id=f"t{i}", timestamp=ts, tokens=("tok",))


def _classified(spec):
    """spec: list of (label, iso timestamp)"""
    out = []
    for i, (label, ts) in enumerate(spec):
        stamp = datetime.fromisoformat(ts)
        if stamp.tzinfo is None:
            stamp = stamp.replace(tzinfo=timezone.utc)
        out.append(ClassifiedTweet(_tweet(i, stamp), label, 0.9))
    return out


# ---------------------------------------------------------------------------
# classify_corpus
# ---------------------------------------------------------------------------


def _model_world():
    examples = synthdata.synthetic_labeled(4, seed=80)
    corpus, vocab = synthdata.corpus_and_vocab(examples)
    emb = synthdata.separable_embeddings(vocab, seed=80)
    cfg = ModelConfig(embedding_dim=emb.dim, hidden_size=4)
    params = {n: np.zeros(s) for n, s in param_shapes(cfg).items()}
    return corpus, vocab, emb, cfg, params


def test_classify_corpus_covers_every_tweet():
    corpus, vocab, emb, cfg, params = _model_world()
    classified = classify_corpus(params, cfg, emb, vocab, corpus)
    assert len(classified) == len(corpus)
    assert [c.tweet.id for c in classified] == [t.id for t in corpus]
    # zero-weight model: uniform probabilities, class 0 by tie-break
    for c in classified:
        assert c.label == "positive"
        assert c.confidence == pytest.approx(1 / 3, abs=1e-12)
        assert not c.oov


def test_classify_corpus_flags_oov_as_neutral():
    corpus, vocab, emb, cfg, params = _model_world()
    ghost = CleanTweet(id="ghost", timestamp=corpus[0].timestamp, tokens=("zzzz", "qqqq"))
    classified = classify_corpus(params, cfg, emb, vocab, corpus + [ghost])
    flagged = classified[-1]
    assert flagged.label == "neutral"
    assert flagged.confidence == 0.0
    assert flagged.oov


def test_classify_corpus_deterministic():
    corpus, vocab, emb, cfg, _ = _model_world()
    from rnnsent.model import init_params
    from rnnsent.numeric import RngState

    params = init_params(cfg, RngState(seed=81))
    a = classify_corpus(params, cfg, emb, vocab, corpus)
    b = classify_corpus(params, cfg, emb, vocab, corpus)
    assert [(c.label, c.confidence) for c in a] == [(c.label, c.confidence) for c in b]


def test_classify_corpus_rejects_empty():
    _, vocab, emb, cfg, params = _model_world()
    with pytest.raises(ValueError, match="empty"):
        classify_corpus(params, cfg, emb, vocab, [])


# ---------------------------------------------------------------------------
# Distribution
# ---------------------------------------------------------------------------


def test_distribution_all_positive():
    d = sentiment_distribution(_classified([("positive", "2013-11-09")] * 10))
    assert d.counts == {"positive": 10, "negative": 0, "neutral": 0}
    assert d.percentages == {"positive": 100.0, "negative": 0.0, "neutral": 0.0}
    assert d.total == 10


def test_distribution_two_three_five():
    spec = [("positive", "2013-11-09")] * 2 + [("negative", "2013-11-09")] * 3 + [
        ("neutral", "2013-11-09")
    ] * 5
    d = sentiment_distribution(_classified(spec))
    assert d.counts == {"positive": 2, "negative": 3, "neutral": 5}
    assert d.percentages == {"positive": 20.0, "negative": 30.0, "neutral": 50.0}


def test_distribution_one_decimal_rounding():
    spec = [("positive", "2013-11-09")] * 1 + [("negative", "2013-11-09")] * 2
    d = sentiment_distribution(_classified(spec))
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
    buckets = temporal_buckets(_classified(NINE_TWEETS), "month")
    assert buckets.granularity == "month"
    assert [b.label for b in buckets.buckets] == ["2013-11", "2013-12", "2014-01"]
    assert [b.start for b in buckets.buckets] == [date(2013, 11, 1), date(2013, 12, 1), date(2014, 1, 1)]
    assert buckets.buckets[0].counts == {"positive": 2, "negative": 1, "neutral": 0}
    assert buckets.buckets[1].counts == {"positive": 0, "negative": 0, "neutral": 2}
    assert buckets.buckets[2].counts == {"positive": 1, "negative": 2, "neutral": 1}


def test_bucket_column_sums_equal_distribution():
    classified = _classified(NINE_TWEETS)
    d = sentiment_distribution(classified)
    buckets = temporal_buckets(classified, "month")
    for label in ("positive", "negative", "neutral"):
        assert sum(b.counts[label] for b in buckets.buckets) == d.counts[label]
    assert sum(sum(b.counts.values()) for b in buckets.buckets) == len(classified)


def test_buckets_single_month_matches_distribution():
    spec = [("positive", "2013-11-01"), ("neutral", "2013-11-30")]
    classified = _classified(spec)
    buckets = temporal_buckets(classified, "month")
    assert len(buckets.buckets) == 1
    assert buckets.buckets[0].counts == sentiment_distribution(classified).counts


def test_buckets_interior_gap_zero_filled():
    spec = [("positive", "2013-11-09"), ("negative", "2014-01-15")]
    buckets = temporal_buckets(_classified(spec), "month")
    assert [b.label for b in buckets.buckets] == ["2013-11", "2013-12", "2014-01"]
    assert buckets.buckets[1].counts == {"positive": 0, "negative": 0, "neutral": 0}


def test_buckets_use_utc_calendar():
    # 07:00+08:00 on Dec 1 is still Nov 30 in UTC
    classified = [
        ClassifiedTweet(
            _tweet(0, datetime(2013, 12, 1, 7, 0, tzinfo=timezone(timedelta(hours=8)))),
            "positive",
            0.9,
        )
    ]
    buckets = temporal_buckets(classified, "month")
    assert [b.label for b in buckets.buckets] == ["2013-11"]


def test_buckets_week_starts_monday():
    # Nov 13 2013 is a Wednesday; its ISO week starts Monday Nov 11
    spec = [("positive", "2013-11-13"), ("negative", "2013-11-25")]
    buckets = temporal_buckets(_classified(spec), "week")
    assert [b.label for b in buckets.buckets] == ["2013-11-11", "2013-11-18", "2013-11-25"]
    assert [b.start.weekday() for b in buckets.buckets] == [0, 0, 0]
    assert buckets.buckets[1].counts == {"positive": 0, "negative": 0, "neutral": 0}


def test_buckets_day_granularity():
    spec = [("positive", "2013-11-09"), ("negative", "2013-11-11")]
    buckets = temporal_buckets(_classified(spec), "day")
    assert [b.label for b in buckets.buckets] == ["2013-11-09", "2013-11-10", "2013-11-11"]


def test_buckets_errors():
    with pytest.raises(ValueError, match="granularity"):
        temporal_buckets(_classified([("positive", "2013-11-09")]), "fortnight")
    with pytest.raises(ValueError, match="empty"):
        temporal_buckets([], "month")


# ---------------------------------------------------------------------------
# Report export
# ---------------------------------------------------------------------------


def test_export_json_round_trip(tmp_path):
    classified = _classified(NINE_TWEETS)
    dist = sentiment_distribution(classified)
    buckets = temporal_buckets(classified, "month")
    path = tmp_path / "report.json"
    export_report(dist, buckets, path, format="json")
    got_dist, got_buckets = load_report(path)
    assert got_dist == dist
    assert got_buckets == buckets


def test_export_json_percentages_one_decimal(tmp_path):
    classified = _classified([("positive", "2013-11-09")] + [("negative", "2013-11-09")] * 2)
    path = tmp_path / "report.json"
    export_report(sentiment_distribution(classified), temporal_buckets(classified, "month"), path)
    payload = json.loads(path.read_text())
    assert payload["distribution"]["percentages"] == {
        "positive": 33.3,
        "negative": 66.7,
        "neutral": 0.0,
    }
    assert payload["buckets"][0]["period"] == "2013-11"


def test_export_csv_exact_rows(tmp_path):
    classified = _classified(NINE_TWEETS)
    path = tmp_path / "report.csv"
    export_report(sentiment_distribution(classified), temporal_buckets(classified, "month"), path, format="csv")
    lines = path.read_text().splitlines()
    assert lines == [
        "period,positive,negative,neutral",
        "2013-11,2,1,0",
        "2013-12,0,0,2",
        "2014-01,1,2,1",
    ]


def test_export_unknown_format(tmp_path):
    classified = _classified([("positive", "2013-11-09")])
    dist = sentiment_distribution(classified)
    buckets = temporal_buckets(classified, "month")
    with pytest.raises(ValueError, match="format"):
        export_report(dist, buckets, tmp_path / "x.xml", format="xml")


def test_save_classified_jsonl(tmp_path):
    corpus, vocab, emb, cfg, params = _model_world()
    classified = classify_corpus(params, cfg, emb, vocab, corpus[:3])
    path = tmp_path / "classified.jsonl"
    save_classified(classified, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    first = json.loads(lines[0])
    assert set(first) == {"id", "timestamp", "tokens", "label", "confidence", "oov"}
    assert first["label"] == "positive"
    # records stay loadable as a clean corpus (extra fields ignored)
    assert [t.id for t in load_clean_corpus(path)] == [c.tweet.id for c in classified]
