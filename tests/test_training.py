import json
import math
from datetime import datetime, timezone

import numpy as np
import pytest

import synthdata
from rnnsent.corpus import CleanTweet
from rnnsent.evaluation import evaluate
from rnnsent.model import ModelConfig, init_params
from rnnsent.numeric import RngState
from rnnsent.training import (
    EARLY_STOP_PATIENCE,
    GRID_COLUMNS,
    TASK_BINARY,
    TASK_FINE,
    DatasetSplit,
    GridResult,
    GridRow,
    LabeledTweet,
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


def _lt(i, label, tokens=("tok",)):
    return LabeledTweet(CleanTweet(id=f"t{i}", timestamp=TS, tokens=tuple(tokens)), label)


def _many(counts):
    out = []
    i = 0
    for label, n in counts.items():
        for _ in range(n):
            out.append(_lt(i, label))
            i += 1
    return out


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


def test_labeled_tweet_validation():
    with pytest.raises(ValueError, match="unknown label"):
        _lt(0, "angry")
    with pytest.raises(ValueError, match="no tokens"):
        LabeledTweet(CleanTweet(id="t0", timestamp=TS, tokens=()), "positive")
    ex = _lt(1, "positive", ("aa", "bb"))
    assert ex.tokens == ("aa", "bb") and ex.id == "t1"


def test_dataset_split_validation():
    a, b = _lt(0, "positive"), _lt(1, "negative")
    with pytest.raises(ValueError, match="nonempty"):
        DatasetSplit(train=(), test=(a,))
    with pytest.raises(ValueError, match="leakage"):
        DatasetSplit(train=(a,), test=(a, b))
    DatasetSplit(train=(a,), test=(b,))


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=-1e-3)
    TrainConfig(learning_rate=0.0)  # explicitly allowed for fixpoint checks
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(task="ternary")
    with pytest.raises(ValueError):
        TrainConfig(clip_norm=0.0)
    with pytest.raises(ValueError):
        TrainConfig(balance_per_class=0)
    assert TrainConfig(task=TASK_FINE).num_classes == 3
    assert TrainConfig(task=TASK_BINARY).num_classes == 2


# ---------------------------------------------------------------------------
# Annotations
# ---------------------------------------------------------------------------


def _corpus(n=4):
    return [CleanTweet(id=f"t{i}", timestamp=TS, tokens=("tok",)) for i in range(n)]


def test_load_annotations_joins_by_id(tmp_path):
    path = tmp_path / "ann.csv"
    path.write_text("id,label\nt0,positive\nt2,neutral\nt1,negative\n")
    labeled = load_annotations(path, _corpus())
    assert [(x.id, x.label) for x in labeled] == [
        ("t0", "positive"),
        ("t2", "neutral"),
        ("t1", "negative"),
    ]


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


def test_load_annotations_requires_header(tmp_path):
    path = tmp_path / "ann.csv"
    path.write_text("tweet,sentiment\nt0,positive\n")
    with pytest.raises(ValueError, match="header"):
        load_annotations(path, _corpus())


# ---------------------------------------------------------------------------
# Balancing and binary subset
# ---------------------------------------------------------------------------


def test_balance_classes_exact_counts_and_order():
    data = _many({"positive": 5, "negative": 5, "neutral": 5})
    balanced = balance_classes(data, 2, RngState(seed=40))
    assert len(balanced) == 6
    for label in ("positive", "negative", "neutral"):
        assert sum(1 for x in balanced if x.label == label) == 2
    ids = [x.id for x in balanced]
    assert ids == sorted(ids, key=lambda s: int(s[1:]))  # original corpus order
    assert set(ids) <= {x.id for x in data}


def test_balance_classes_deterministic():
    data = _many({"positive": 30, "negative": 30, "neutral": 30})
    a = balance_classes(data, 10, RngState(seed=41))
    b = balance_classes(data, 10, RngState(seed=41))
    c = balance_classes(data, 10, RngState(seed=42))
    assert [x.id for x in a] == [x.id for x in b]
    assert [x.id for x in a] != [x.id for x in c]


def test_balance_classes_insufficient_names_class():
    data = _many({"positive": 10, "negative": 4, "neutral": 10})
    with pytest.raises(ValueError, match="negative"):
        balance_classes(data, 10, RngState(seed=43))


def test_balance_classes_binary_data():
    data = _many({"positive": 6, "negative": 6})
    balanced = balance_classes(data, 3, RngState(seed=44))
    assert len(balanced) == 6
    assert all(x.label in ("positive", "negative") for x in balanced)


def test_binary_subset():
    data = _many({"positive": 10, "negative": 10, "neutral": 10})
    sub = binary_subset(data)
    assert len(sub) == 20
    assert all(x.label != "neutral" for x in sub)
    assert sum(1 for x in sub if x.label == "positive") == 10
    assert binary_subset(_many({"neutral": 5})) == []


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------


def test_split_ten_at_eighty():
    data = _many({"positive": 10})
    ds = split(data, ratio=0.8, rng=RngState(seed=50))
    assert len(ds.train) == 8 and len(ds.test) == 2


def test_split_paper_counts():
    data = _many({"positive": 1300, "negative": 1300, "neutral": 1300})
    ds = split(data, ratio=0.8, rng=RngState(seed=51))
    assert len(ds.train) == 3120 and len(ds.test) == 780
    for label in ("positive", "negative", "neutral"):
        assert sum(1 for x in ds.train if x.label == label) == 1040
        assert sum(1 for x in ds.test if x.label == label) == 260
    assert {x.id for x in ds.train} & {x.id for x in ds.test} == set()


def test_split_stratified_formula_on_uneven_classes():
    gen = RngState(seed=52).generator()
    sizes = {label: int(gen.integers(5, 40)) for label in ("positive", "negative", "neutral")}
    data = _many(sizes)
    ds = split(data, ratio=0.7, rng=RngState(seed=53))
    for label, n in sizes.items():
        want_train = math.floor(0.7 * n)
        assert sum(1 for x in ds.train if x.label == label) == want_train
        assert sum(1 for x in ds.test if x.label == label) == n - want_train


def test_split_deterministic_and_seed_sensitive():
    data = _many({"positive": 20, "negative": 20})
    a = split(data, rng=RngState(seed=54))
    b = split(data, rng=RngState(seed=54))
    c = split(data, rng=RngState(seed=55))
    assert [x.id for x in a.train] == [x.id for x in b.train]
    assert [x.id for x in a.train] != [x.id for x in c.train]


def test_split_global_mode():
    data = _many({"positive": 7, "negative": 3})
    ds = split(data, ratio=0.8, rng=RngState(seed=56), stratified=False)
    assert len(ds.train) == 8 and len(ds.test) == 2


def test_split_errors():
    data = _many({"positive": 10})
    with pytest.raises(ValueError, match="ratio"):
        split(data, ratio=1.0)
    with pytest.raises(ValueError, match="at least 2"):
        split(data[:1])
    with pytest.raises(ValueError, match="degenerate"):
        split(_many({"positive": 10, "negative": 1}), ratio=0.8, rng=RngState(seed=57))


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


def _training_world(n_per_class=3, seed=60, hidden=8):
    examples = synthdata.synthetic_labeled(n_per_class, seed=seed)
    _, vocab = synthdata.corpus_and_vocab(examples)
    emb = synthdata.separable_embeddings(vocab, seed=seed)
    ds = split(examples, ratio=2 / 3, rng=RngState(seed=seed))
    model_cfg = ModelConfig(embedding_dim=emb.dim, hidden_size=hidden)
    return ds, emb, vocab, model_cfg


def test_train_zero_lr_is_a_fixpoint():
    ds, emb, vocab, model_cfg = _training_world()
    cfg = TrainConfig(learning_rate=0.0, epochs=3, seed=7, batch_size=4)
    params, report = train(ds, emb, vocab, model_cfg, cfg)
    init = init_params(model_cfg, RngState(seed=7).child(0))
    for name, arr in params.items():
        assert np.array_equal(arr, init[name])
    assert report.epochs_run == 3
    assert len(set(report.epoch_losses)) == 1  # nothing moves


def test_train_same_seed_reproduces_bitwise():
    ds, emb, vocab, model_cfg = _training_world()
    cfg = TrainConfig(learning_rate=0.05, epochs=4, seed=8, batch_size=4)
    p1, r1 = train(ds, emb, vocab, model_cfg, cfg)
    p2, r2 = train(ds, emb, vocab, model_cfg, cfg)
    for name, arr in p1.items():
        assert np.array_equal(arr, p2[name])
    assert r1.epoch_losses == r2.epoch_losses
    assert r1.epoch_accuracies == r2.epoch_accuracies
    assert r1.test_metrics == r2.test_metrics


def test_train_seed_changes_trajectory():
    ds, emb, vocab, model_cfg = _training_world()
    p1, _ = train(ds, emb, vocab, model_cfg, TrainConfig(learning_rate=0.05, epochs=2, seed=1))
    p2, _ = train(ds, emb, vocab, model_cfg, TrainConfig(learning_rate=0.05, epochs=2, seed=2))
    assert not np.array_equal(p1["w_hy"], p2["w_hy"])


def test_train_overfits_and_loss_drops():
    ds, emb, vocab, model_cfg = _training_world(hidden=12)
    cfg = TrainConfig(learning_rate=0.1, epochs=60, seed=9, batch_size=6)
    params, report = train(ds, emb, vocab, model_cfg, cfg)
    assert report.epoch_losses[-1] < report.epoch_losses[0]
    assert report.epoch_accuracies[-1] >= 0.99
    # report's test metrics equal a fresh evaluation of the returned params
    cm, metrics = evaluate(params, model_cfg, emb, vocab, ds.test)
    assert metrics == report.test_metrics
    assert cm == report.test_confusion


def test_train_with_dropout_and_truncation_runs():
    ds, emb, vocab, _ = _training_world()
    model_cfg = ModelConfig(
        embedding_dim=emb.dim, hidden_size=6, dropout_rate=0.5,
        bptt_mode="truncated", bptt_k=2,
    )
    cfg = TrainConfig(learning_rate=0.05, epochs=3, seed=10, batch_size=2)
    params, report = train(ds, emb, vocab, model_cfg, cfg)
    assert report.epochs_run == 3
    assert all(math.isfinite(x) for x in report.epoch_losses)


def test_train_early_stop_on_stalled_loss():
    ds, emb, vocab, model_cfg = _training_world()
    cfg = TrainConfig(learning_rate=0.0, epochs=30, seed=11, early_stop=True)
    _, report = train(ds, emb, vocab, model_cfg, cfg)
    assert report.epochs_run == 1 + EARLY_STOP_PATIENCE


def test_train_config_mismatch_errors():
    ds, emb, vocab, model_cfg = _training_world()
    with pytest.raises(ValueError, match="config mismatch"):
        train(ds, emb, vocab, model_cfg, TrainConfig(task=TASK_BINARY, epochs=1))
    bad_dim = ModelConfig(embedding_dim=emb.dim + 1, hidden_size=4)
    with pytest.raises(ValueError, match="config mismatch"):
        train(ds, emb, vocab, bad_dim, TrainConfig(epochs=1))
    from rnnsent.corpus import Vocabulary

    small_vocab = Vocabulary(vocab.tokens[:3])
    with pytest.raises(ValueError, match="config mismatch"):
        train(ds, emb, small_vocab, model_cfg, TrainConfig(epochs=1))


def test_train_binary_task_rejects_neutral_examples():
    ds, emb, vocab, _ = _training_world()
    model_cfg = ModelConfig(embedding_dim=emb.dim, hidden_size=4, num_classes=2)
    with pytest.raises(ValueError, match="config mismatch"):
        train(ds, emb, vocab, model_cfg, TrainConfig(task=TASK_BINARY, epochs=1))
    # after dropping neutral it trains
    binary = DatasetSplit(
        train=tuple(binary_subset(ds.train)),
        test=tuple(binary_subset(ds.test)),
    )
    params, report = train(binary, emb, vocab, model_cfg, TrainConfig(task=TASK_BINARY, epochs=1))
    assert report.test_confusion.classes == ("positive", "negative")


def test_train_rejects_unembeddable_example():
    ds, emb, vocab, model_cfg = _training_world()
    ghost = LabeledTweet(CleanTweet(id="ghost", timestamp=TS, tokens=("zzzz",)), "positive")
    bad = DatasetSplit(train=ds.train + (ghost,), test=ds.test)
    with pytest.raises(ValueError, match="ghost"):
        train(bad, emb, vocab, model_cfg, TrainConfig(epochs=1))


def test_train_single_batch_and_batch_of_one():
    ds, emb, vocab, model_cfg = _training_world()
    big = TrainConfig(learning_rate=0.05, epochs=2, seed=12, batch_size=1000)
    small = TrainConfig(learning_rate=0.05, epochs=2, seed=12, batch_size=1)
    p_big, _ = train(ds, emb, vocab, model_cfg, big)
    p_small, _ = train(ds, emb, vocab, model_cfg, small)
    # different batching -> different trajectories, both finite
    assert np.all(np.isfinite(p_big["w_hy"]))
    assert not np.array_equal(p_big["w_hy"], p_small["w_hy"])


def test_save_report(tmp_path):
    ds, emb, vocab, model_cfg = _training_world()
    _, report = train(ds, emb, vocab, model_cfg, TrainConfig(epochs=2, seed=13))
    path = tmp_path / "report.json"
    save_report(report, path)
    data = json.loads(path.read_text())
    assert data["epochs_run"] == 2
    assert len(data["epoch_losses"]) == 2
    assert data["train_config"]["seed"] == 13
    assert data["model_config"]["hidden_size"] == model_cfg.hidden_size
    assert "accuracy" in data["test_metrics"]


# ---------------------------------------------------------------------------
# Grid runner
# ---------------------------------------------------------------------------


def _grid_world():
    examples = synthdata.synthetic_labeled(6, seed=70)
    _, vocab = synthdata.corpus_and_vocab(examples)
    emb = synthdata.separable_embeddings(vocab, seed=70)
    ds = split(examples, ratio=2 / 3, rng=RngState(seed=70))
    return ds, emb, vocab


def test_run_grid_fine_structure():
    ds, emb, vocab = _grid_world()
    base = TrainConfig(epochs=2, seed=71, learning_rate=1.8e-3)
    result = run_grid(ds, emb, vocab, TASK_FINE, base, hidden_size=4)
    assert result.task == TASK_FINE
    assert len(result.rows) == 8
    assert [r.model for r in result.rows] == ["Standard RNN"] * 4 + ["Bidirectional RNN"] * 4
    assert [r.batch_size for r in result.rows] == [64, 128, 64, 128] * 2
    assert [r.dropout for r in result.rows] == [None, None, 0.5, 0.5] * 2
    assert [r.bptt_type for r in result.rows] == ["tBPTT"] * 4 + ["Full"] * 4
    assert all(r.learning_rate == 1.8e-3 for r in result.rows)
    assert all(0.0 <= r.accuracy <= 1.0 and 0.0 <= r.f1 <= 1.0 for r in result.rows)


def test_run_grid_binary_drops_neutral():
    ds, emb, vocab = _grid_world()
    base = TrainConfig(epochs=1, seed=72)
    result = run_grid(ds, emb, vocab, TASK_BINARY, base, hidden_size=4)
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
