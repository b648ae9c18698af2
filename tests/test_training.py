import json
import math
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import synthdata
from synthdata import Tweet, table
from rnnsent.corpus import Corpus
from rnnsent.evaluation import FINE_CLASSES, evaluate
from rnnsent.model import ModelConfig, init_params
from rnnsent.numeric import RngState
from rnnsent.training import (
    GRID_COLUMNS,
    TASK_BINARY,
    TASK_FINE,
    DatasetSplit,
    GridResult,
    GridRow,
    TrainConfig,
    balance_classes,
    binary_subset,
    load_annotations,
    run_grid,
    save_grid,
    save_report,
    split,
    train,
)

TS = datetime(2013, 11, 9, tzinfo=timezone.utc)


def _tweet(i, tokens=("tok",)):
    return Tweet(id=f"t{i}", timestamp=TS, tokens=tuple(tokens))


def _many(counts):
    """(corpus, rows, labels) with counts[name] examples of each class, in dict
    order, as rows 0 to n - 1 of a corpus of n tweets."""
    labels = np.array([FINE_CLASSES.index(name) for name, n in counts.items() for _ in range(n)], dtype=np.int64)
    return _corpus(len(labels)), np.arange(len(labels)), labels


def _count(labels, name):
    return int(np.sum(labels == FINE_CLASSES.index(name)))


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


def test_dataset_split_validation():
    a, b = _tweet(0), _tweet(1)
    one, two = np.array([0]), np.array([1, 0])
    with pytest.raises(ValueError, match="nonempty"):
        DatasetSplit(train=table([]), train_labels=one[:0], test=table([a]), test_labels=one)
    with pytest.raises(ValueError, match="leakage"):
        DatasetSplit(train=table([a]), train_labels=one, test=table([a, b]), test_labels=two)
    with pytest.raises(ValueError, match="one label per tweet"):
        DatasetSplit(train=table([a]), train_labels=two, test=table([b]), test_labels=one)
    DatasetSplit(train=table([a]), train_labels=one, test=table([b]), test_labels=one)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=-1e-3)
    TrainConfig(learning_rate=0.0)  # explicitly allowed for fixpoint checks
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)


# ---------------------------------------------------------------------------
# Annotations
# ---------------------------------------------------------------------------


def _corpus(n=4):
    return table(_tweet(i) for i in range(n))


def test_load_annotations_joins_by_id(tmp_path):
    path = tmp_path / "ann.csv"
    path.write_text("id,label\nt0,positive\nt2,neutral\nt1,negative\n")
    rows, labels = load_annotations(path, _corpus())
    assert [(_corpus().ids[r], FINE_CLASSES[label]) for r, label in zip(rows, labels)] == [
        ("t0", "positive"),
        ("t2", "neutral"),
        ("t1", "negative"),
    ]
    assert labels.dtype == np.int64 and rows.dtype == np.int64


def test_load_annotations_unknown_label(tmp_path):
    path = tmp_path / "ann.csv"
    path.write_text("id,label\nt0,angry\n")
    with pytest.raises(ValueError, match="angry"):
        load_annotations(path, _corpus())


def test_load_annotations_dangling_id(tmp_path):
    path = tmp_path / "ann.csv"
    path.write_text("id,label\nt9,positive\n")
    with pytest.raises(ValueError, match="t9"):
        load_annotations(path, _corpus())


def test_load_annotations_duplicate_id(tmp_path):
    path = tmp_path / "ann.csv"
    path.write_text("id,label\nt0,positive\nt0,negative\n")
    with pytest.raises(ValueError, match="more than once"):
        load_annotations(path, _corpus())


def test_load_annotations_rejects_a_corpus_that_repeats_an_id(tmp_path):
    # only the clean corpus reader rejects repeated ids; a table built in the
    # package may hold one, and joining to its last row would drop the first
    path = tmp_path / "ann.csv"
    path.write_text("id,label\na,positive\nb,negative\n")
    corpus = Corpus.of(["a", "b", "a"], [0, 0, 0], ["storm", "rain", "wind"], [1, 1, 1])
    with pytest.raises(ValueError) as exc:
        load_annotations(path, corpus)
    assert str(exc.value) == "the corpus repeats the id 'a' in rows 0 and 2"


def test_load_annotations_tweet_without_tokens_names_file_and_line(tmp_path):
    path = tmp_path / "ann.csv"
    path.write_text("id,label\nt0,positive\nt9,negative\n")
    corpus = table([*(_tweet(i) for i in range(4)), Tweet(id="t9", timestamp=TS, tokens=())])
    with pytest.raises(ValueError) as exc:
        load_annotations(path, corpus)
    assert str(exc.value) == f"{path}:3: tweet 't9' has no tokens"


def test_load_annotations_requires_header(tmp_path):
    path = tmp_path / "ann.csv"
    path.write_text("tweet,sentiment\nt0,positive\n")
    with pytest.raises(ValueError, match="header"):
        load_annotations(path, _corpus())


def test_load_annotations_numbers_lines_after_a_multi_line_record(tmp_path):
    path = tmp_path / "ann2.csv"
    path.write_text('id,label\n"t1\nsecond line",positive\nt2,bogus\n')
    corpus = table([Tweet(id="t1\nsecond line", timestamp=TS, tokens=("tok",)), _tweet(2)])
    with pytest.raises(ValueError) as exc:
        load_annotations(path, corpus)
    assert str(exc.value) == f"{path}:4: unknown label 'bogus'; expected one of {list(FINE_CLASSES)}"


# each bad record starts on its own first line: after a record over lines 2-3, or after blank lines
@pytest.mark.parametrize(
    "lines, message",
    [
        (['t1,"bogus', 'label"'], f"2: unknown label 'bogus\\nlabel'; expected one of {list(FINE_CLASSES)}"),
        (["", "", "t1,bogus"], f"4: unknown label 'bogus'; expected one of {list(FINE_CLASSES)}"),
        (['"t9', 'x",positive', '"t9', 'x",negative'], "4: id 't9\\nx' is annotated more than once"),
        (
            ['"t9', 'x",positive', '"t0,positive'] + [f"t{i % 4},positive" for i in range(20000)],
            "4: the CSV record that starts here cannot be parsed: field larger than field limit (131072)",
        ),
    ],
)
def test_load_annotations_error_names_the_first_line_of_its_record(tmp_path, lines, message):
    path = tmp_path / "ann.csv"
    path.write_text("\n".join(["id,label", *lines]) + "\n")
    corpus = table([*(_tweet(i) for i in range(4)), Tweet(id="t9\nx", timestamp=TS, tokens=("tok",))])
    with pytest.raises(ValueError) as exc:
        load_annotations(path, corpus)
    assert str(exc.value) == f"{path}:{message}"


@pytest.mark.parametrize("before, line", [(0, 2), (2, 4), (None, 1)])
def test_load_annotations_record_the_csv_module_cannot_parse_names_its_first_line(tmp_path, before, line):
    # a quote that never closes swallows every later line, past the csv module's
    # field limit; before=None puts it in the header
    good = [f"t{i % 4},positive" for i in range(20000)]
    header = '"id,label' if before is None else "id,label"
    bad = [] if before is None else ['"t0,positive']
    path = tmp_path / "ann.csv"
    path.write_text("\n".join([header, *good[: before or 0], *bad, *good]) + "\n")
    with pytest.raises(ValueError) as exc:
        load_annotations(path, _corpus())
    assert str(exc.value).startswith(
        f"{path}:{line}: the CSV record that starts here cannot be parsed: field larger than field limit"
    )


# id,label CSV-ish bytes: header words, known ids and labels, quotes, line ends
# and bytes that are not UTF-8 drawn often
annotation_bytes = st.lists(
    st.one_of(
        st.sampled_from([b"id", b"label", b"id,label\n", b"t0", b"t1", b"positive", b"neutral", b",", b'"',
                         b"\n", b"\r", b"\r\n", b"\x00", b"\xff", b"\xe2\x80\xa8"]),
        st.binary(max_size=4),
    ),
    max_size=30,
).map(b"".join)


@settings(max_examples=200, deadline=None)
@given(content=annotation_bytes)
@example(content=b"id,label\nt0\n")
@example(content=b"id,label\nt0,positive,extra\n")
@example(content=b'id,label\n"t0\n')
def test_load_annotations_arbitrary_bytes_fail_typed_naming_the_file(tmp_path_factory, content):
    path = tmp_path_factory.mktemp("fuzz") / "annotations.csv"
    path.write_bytes(content)
    try:
        load_annotations(path, _corpus())
    except ValueError as exc:
        assert str(exc).startswith(f"{path}:")


# ---------------------------------------------------------------------------
# Balancing and binary subset
# ---------------------------------------------------------------------------


def test_balance_classes_exact_counts_and_order():
    tweets, rows, labels = _many({"positive": 5, "negative": 5, "neutral": 5})
    balanced, balanced_labels = balance_classes(rows, labels, 2, RngState(seed=40))
    assert len(balanced) == 6
    for label in ("positive", "negative", "neutral"):
        assert _count(balanced_labels, label) == 2
    ids = list(tweets.take(balanced).ids)
    assert ids == sorted(ids, key=lambda s: int(s[1:]))  # original corpus order
    assert set(ids) <= set(tweets.ids)


def test_balance_classes_deterministic():
    tweets, *data = _many({"positive": 30, "negative": 30, "neutral": 30})
    a, _ = balance_classes(*data, 10, RngState(seed=41))
    b, _ = balance_classes(*data, 10, RngState(seed=41))
    c, _ = balance_classes(*data, 10, RngState(seed=42))
    assert tweets.take(a).ids == tweets.take(b).ids
    assert tweets.take(a).ids != tweets.take(c).ids


def test_balance_classes_insufficient_names_class():
    _, *data = _many({"positive": 10, "negative": 4, "neutral": 10})
    with pytest.raises(ValueError, match="negative"):
        balance_classes(*data, 10, RngState(seed=43))


def test_balance_classes_binary_data():
    _, *data = _many({"positive": 6, "negative": 6})
    balanced, balanced_labels = balance_classes(*data, 3, RngState(seed=44))
    assert len(balanced) == 6
    assert all(FINE_CLASSES[label] in ("positive", "negative") for label in balanced_labels)


def test_binary_subset():
    _, *data = _many({"positive": 10, "negative": 10, "neutral": 10})
    sub, sub_labels = binary_subset(*data)
    assert len(sub) == 20
    assert _count(sub_labels, "neutral") == 0
    assert _count(sub_labels, "positive") == 10
    assert len(binary_subset(*_many({"neutral": 5})[1:])[0]) == 0


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------


def test_split_ten_at_eighty():
    data = _many({"positive": 10})
    ds = split(*data, ratio=0.8, rng=RngState(seed=50))
    assert len(ds.train) == 8 and len(ds.test) == 2


def test_split_paper_counts():
    data = _many({"positive": 1300, "negative": 1300, "neutral": 1300})
    ds = split(*data, ratio=0.8, rng=RngState(seed=51))
    assert len(ds.train) == 3120 and len(ds.test) == 780
    for label in ("positive", "negative", "neutral"):
        assert _count(ds.train_labels, label) == 1040
        assert _count(ds.test_labels, label) == 260
    assert set(ds.train.ids) & set(ds.test.ids) == set()


def test_split_stratified_formula_on_uneven_classes():
    gen = RngState(seed=52).generator()
    sizes = {label: int(gen.integers(5, 40)) for label in ("positive", "negative", "neutral")}
    data = _many(sizes)
    ds = split(*data, ratio=0.7, rng=RngState(seed=53))
    for label, n in sizes.items():
        want_train = math.floor(0.7 * n)
        assert _count(ds.train_labels, label) == want_train
        assert _count(ds.test_labels, label) == n - want_train


def test_split_deterministic_and_seed_sensitive():
    data = _many({"positive": 20, "negative": 20})
    a = split(*data, rng=RngState(seed=54))
    b = split(*data, rng=RngState(seed=54))
    c = split(*data, rng=RngState(seed=55))
    assert a.train.ids == b.train.ids
    assert a.train.ids != c.train.ids


def test_split_global_mode():
    data = _many({"positive": 7, "negative": 3})
    ds = split(*data, ratio=0.8, rng=RngState(seed=56), stratified=False)
    assert len(ds.train) == 8 and len(ds.test) == 2


def test_split_errors():
    tweets, rows, labels = _many({"positive": 10})
    with pytest.raises(ValueError, match="ratio"):
        split(tweets, rows, labels, ratio=1.0, rng=RngState(seed=57))
    with pytest.raises(ValueError, match="at least 2"):
        split(tweets, rows[:1], labels[:1], rng=RngState(seed=57))
    with pytest.raises(ValueError, match="degenerate"):
        split(*_many({"positive": 10, "negative": 1}), ratio=0.8, rng=RngState(seed=57))


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


def _training_world(n_per_class=3, seed=60, hidden=8):
    tweets, labels = synthdata.synthetic_labeled(n_per_class, seed=seed)
    vocab = synthdata.vocabulary_of(tweets)
    emb = synthdata.separable_embeddings(vocab, seed=seed)
    ds = split(tweets, np.arange(len(tweets)), labels, ratio=2 / 3, rng=RngState(seed=seed))
    model_cfg = ModelConfig(embedding_dim=emb.dim, hidden_size=hidden)
    return ds, emb, model_cfg


def test_train_zero_lr_is_a_fixpoint():
    ds, emb, model_cfg = _training_world()
    cfg = TrainConfig(learning_rate=0.0, epochs=3, seed=7, batch_size=4)
    params, report = train(ds, emb, model_cfg, cfg)
    init = init_params(model_cfg, RngState(seed=7).child(0))
    for name, arr in params.items():
        assert np.array_equal(arr, init[name])
    assert len(report.epoch_losses) == 3
    assert len(set(report.epoch_losses)) == 1  # nothing moves


def test_train_same_seed_reproduces_bitwise():
    ds, emb, model_cfg = _training_world()
    cfg = TrainConfig(learning_rate=0.05, epochs=4, seed=8, batch_size=4)
    p1, r1 = train(ds, emb, model_cfg, cfg)
    p2, r2 = train(ds, emb, model_cfg, cfg)
    for name, arr in p1.items():
        assert np.array_equal(arr, p2[name])
    assert r1.epoch_losses == r2.epoch_losses
    assert r1.epoch_accuracies == r2.epoch_accuracies
    assert r1.test_metrics == r2.test_metrics


def test_train_seed_changes_trajectory():
    ds, emb, model_cfg = _training_world()
    p1, _ = train(ds, emb, model_cfg, TrainConfig(learning_rate=0.05, epochs=2, seed=1))
    p2, _ = train(ds, emb, model_cfg, TrainConfig(learning_rate=0.05, epochs=2, seed=2))
    assert not np.array_equal(p1["w_hy"], p2["w_hy"])


def test_train_overfits_and_loss_drops():
    ds, emb, model_cfg = _training_world(hidden=12)
    cfg = TrainConfig(learning_rate=0.1, epochs=60, seed=9, batch_size=6)
    params, report = train(ds, emb, model_cfg, cfg)
    assert report.epoch_losses[-1] < report.epoch_losses[0]
    assert report.epoch_accuracies[-1] >= 0.99
    # report's test metrics equal a fresh evaluation of the returned params
    cm, metrics = evaluate(params, model_cfg, emb, ds.test, ds.test_labels)
    assert metrics == report.test_metrics
    assert cm == report.test_confusion


def test_train_with_dropout_and_truncation_runs():
    ds, emb, _ = _training_world()
    model_cfg = ModelConfig(
        embedding_dim=emb.dim, hidden_size=6, dropout_rate=0.5,
        bptt_mode="truncated", bptt_k=2,
    )
    cfg = TrainConfig(learning_rate=0.05, epochs=3, seed=10, batch_size=2)
    params, report = train(ds, emb, model_cfg, cfg)
    assert len(report.epoch_losses) == 3
    assert all(math.isfinite(x) for x in report.epoch_losses)


def test_train_config_mismatch_errors():
    ds, emb, _ = _training_world()
    bad_dim = ModelConfig(embedding_dim=emb.dim + 1, hidden_size=4)
    with pytest.raises(ValueError, match="config mismatch"):
        train(ds, emb, bad_dim, TrainConfig(epochs=1))


def test_train_binary_task_rejects_neutral_examples():
    ds, emb, _ = _training_world()
    model_cfg = ModelConfig(embedding_dim=emb.dim, hidden_size=4, num_classes=2)
    with pytest.raises(ValueError, match="config mismatch"):
        train(ds, emb, model_cfg, TrainConfig(epochs=1))
    # after dropping neutral it trains
    train_rows, train_labels = binary_subset(np.arange(len(ds.train)), ds.train_labels)
    test_rows, test_labels = binary_subset(np.arange(len(ds.test)), ds.test_labels)
    binary = DatasetSplit(ds.train.take(train_rows), train_labels, ds.test.take(test_rows), test_labels)
    params, report = train(binary, emb, model_cfg, TrainConfig(epochs=1))
    assert report.test_confusion.classes == ("positive", "negative")


def test_train_rejects_unembeddable_example():
    ds, emb, model_cfg = _training_world()
    ghost = Tweet(id="ghost", timestamp=TS, tokens=("zzzz",))
    bad = DatasetSplit(table([*synthdata.tweets_of(ds.train), ghost]), np.append(ds.train_labels, 0), ds.test, ds.test_labels)
    with pytest.raises(ValueError, match="ghost"):
        train(bad, emb, model_cfg, TrainConfig(epochs=1))


def test_train_single_batch_and_batch_of_one():
    ds, emb, model_cfg = _training_world()
    big = TrainConfig(learning_rate=0.05, epochs=2, seed=12, batch_size=1000)
    small = TrainConfig(learning_rate=0.05, epochs=2, seed=12, batch_size=1)
    p_big, _ = train(ds, emb, model_cfg, big)
    p_small, _ = train(ds, emb, model_cfg, small)
    # different batching -> different trajectories, both finite
    assert np.all(np.isfinite(p_big["w_hy"]))
    assert not np.array_equal(p_big["w_hy"], p_small["w_hy"])


def test_save_report(tmp_path):
    ds, emb, model_cfg = _training_world()
    _, report = train(ds, emb, model_cfg, TrainConfig(epochs=2, seed=13))
    path = tmp_path / "report.json"
    save_report(report, path)
    data = json.loads(path.read_text())
    assert "epochs_run" not in data
    assert len(data["epoch_losses"]) == 2
    assert data["train_config"]["seed"] == 13
    assert data["model_config"]["hidden_size"] == model_cfg.hidden_size
    assert "accuracy" in data["test_metrics"]


# ---------------------------------------------------------------------------
# Grid runner
# ---------------------------------------------------------------------------


def _grid_world():
    tweets, labels = synthdata.synthetic_labeled(6, seed=70)
    vocab = synthdata.vocabulary_of(tweets)
    emb = synthdata.separable_embeddings(vocab, seed=70)
    ds = split(tweets, np.arange(len(tweets)), labels, ratio=2 / 3, rng=RngState(seed=70))
    return ds, emb


def test_run_grid_fine_structure():
    ds, emb = _grid_world()
    base = TrainConfig(epochs=2, seed=71, learning_rate=1.8e-3)
    result = run_grid(ds, emb, TASK_FINE, base, hidden_size=4)
    assert result.task == TASK_FINE
    assert len(result.rows) == 8
    assert [r.model for r in result.rows] == ["Standard RNN"] * 4 + ["Bidirectional RNN"] * 4
    assert [r.batch_size for r in result.rows] == [64, 128, 64, 128] * 2
    assert [r.dropout for r in result.rows] == [None, None, 0.5, 0.5] * 2
    assert [r.bptt_type for r in result.rows] == ["tBPTT"] * 4 + ["Full"] * 4
    assert all(r.learning_rate == 1.8e-3 for r in result.rows)
    assert all(0.0 <= r.accuracy <= 1.0 and 0.0 <= r.f1 <= 1.0 for r in result.rows)


def test_run_grid_binary_drops_neutral():
    ds, emb = _grid_world()
    base = TrainConfig(epochs=1, seed=72)
    result = run_grid(ds, emb, TASK_BINARY, base, hidden_size=4)
    assert result.task == TASK_BINARY
    assert len(result.rows) == 8


def test_grid_table_formatting():
    rows = []
    for model, bptt in (("Standard RNN", "tBPTT"), ("Bidirectional RNN", "Full")):
        for dropout in (None, 0.5):
            for batch in (64, 128):
                rows.append(GridRow(model, batch, 1.8e-3, dropout, bptt, 0.8038, 0.788))
    table = GridResult(task=TASK_FINE, rows=tuple(rows)).format_table()
    lines = table.splitlines()
    assert len(lines) == 9
    assert table.endswith("\n")
    import re

    header = re.split(r"\s{2,}", lines[0].strip())
    assert header == list(GRID_COLUMNS)
    assert lines[1].startswith("Standard RNN")
    assert lines[2].startswith(" ")  # repeated model name suppressed
    assert lines[5].startswith("Bidirectional RNN")
    assert "1.80E-03" in lines[1]
    assert "-" in lines[1].split() and "0.5" in lines[3].split()
    assert "0.8038" in lines[1] and "0.7880" in lines[1]


def test_save_grid(tmp_path):
    rows = (GridRow("Standard RNN", 64, 1.8e-3, None, "tBPTT", 0.9, 0.89),)
    result = GridResult(task=TASK_FINE, rows=rows)
    jp, tp = tmp_path / "grid.json", tmp_path / "grid.txt"
    save_grid(result, jp, tp)
    data = json.loads(jp.read_text())
    assert data["columns"] == list(GRID_COLUMNS)
    assert data["rows"][0]["batch_size"] == 64
    assert data["rows"][0]["dropout"] is None
    assert tp.read_text().startswith("Model")
