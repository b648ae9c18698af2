import csv
import json
from datetime import datetime, timezone

import numpy as np
import pytest

import synthdata
from rnnsent.corpus import Vocabulary
from synthdata import Tweet, table, tweets_of
from rnnsent.embedding import EmbeddingMatrix
from rnnsent.evaluation import (
    BINARY_CLASSES,
    FINE_CLASSES,
    ClassScores,
    ConfusionMatrix,
    classes_for,
    confusion_matrix,
    evaluate,
    metrics_from_confusion,
    save_confusion,
    save_metrics,
)
from rnnsent.model import ModelConfig, param_shapes
from rnnsent.numeric import RngState

POS_NEG = ("positive", "negative")
POS, NEG, NEU = range(3)  # label indices into FINE_CLASSES


def _cm(counts, classes=POS_NEG):
    return ConfusionMatrix(tuple(classes), tuple(tuple(row) for row in counts))


def _f1s(metrics):
    """The per-class F1 scores of `metrics`, in class order."""
    return [s.f1 for s in metrics.per_class.values()]


# ---------------------------------------------------------------------------
# Matrix construction
# ---------------------------------------------------------------------------


def test_classes_for():
    assert classes_for(3) == FINE_CLASSES == ("positive", "negative", "neutral")
    assert classes_for(2) == BINARY_CLASSES == ("positive", "negative")
    with pytest.raises(ValueError):
        classes_for(4)


def test_confusion_matrix_diagonal_and_antidiagonal():
    golds = [POS, NEG]
    assert confusion_matrix(golds, golds, POS_NEG).counts == ((1, 0), (0, 1))
    assert confusion_matrix(golds, golds[::-1], POS_NEG).counts == ((0, 1), (1, 0))


def test_confusion_matrix_hand_tally():
    pairs = [
        (POS, POS),
        (POS, NEG),
        (NEG, NEG),
        (NEG, NEG),
        (NEU, POS),
        (NEU, NEU),
    ]
    cm = confusion_matrix([g for g, _ in pairs], [p for _, p in pairs], FINE_CLASSES)
    assert cm.counts == ((1, 1, 0), (0, 2, 0), (1, 0, 1))
    assert cm.total == 6


def test_confusion_matrix_errors():
    with pytest.raises(ValueError, match="length mismatch"):
        confusion_matrix([POS], [], POS_NEG)
    with pytest.raises(ValueError, match="unknown gold"):
        confusion_matrix([NEU], [POS], POS_NEG)
    with pytest.raises(ValueError, match="unknown gold"):
        confusion_matrix([-1], [POS], POS_NEG)
    with pytest.raises(ValueError, match="unknown predicted"):
        confusion_matrix([POS], [NEU], POS_NEG)


def test_confusion_matrix_type_validation():
    with pytest.raises(ValueError):
        _cm([[1, 0]])
    with pytest.raises(ValueError):
        _cm([[1, -1], [0, 1]])
    with pytest.raises(ValueError):
        ConfusionMatrix(("a", "a"), ((0, 0), (0, 0)))


# ---------------------------------------------------------------------------
# Accuracy and F1
# ---------------------------------------------------------------------------


def test_accuracy_hand_values():
    assert metrics_from_confusion(_cm([[40, 10], [5, 45]])).accuracy == 0.85
    assert metrics_from_confusion(_cm([[7, 0], [0, 3]])).accuracy == 1.0


def test_accuracy_empty_matrix_rejected():
    with pytest.raises(ValueError, match="empty"):
        metrics_from_confusion(_cm([[0, 0], [0, 0]]))
    with pytest.raises(ValueError, match="empty"):
        metrics_from_confusion(_cm([[0, 0, 0], [0, 0, 0], [0, 0, 0]], FINE_CLASSES))


def test_accuracy_random_coin_flip_near_half():
    gen = RngState(seed=21).generator()
    golds = [POS] * 5000 + [NEG] * 5000
    preds = gen.integers(2, size=10000).tolist()
    acc = metrics_from_confusion(confusion_matrix(golds, preds, POS_NEG)).accuracy
    assert 0.48 <= acc <= 0.52


def test_f1_hand_values():
    metrics = metrics_from_confusion(_cm([[40, 10], [5, 45]]))
    per, macro, scores = _f1s(metrics), metrics.f1_macro, metrics.per_class
    assert scores["positive"].precision == pytest.approx(40 / 45, abs=1e-15)
    assert scores["positive"].recall == pytest.approx(40 / 50, abs=1e-15)
    assert per[0] == pytest.approx(16 / 19, abs=1e-12)
    assert scores["negative"].precision == pytest.approx(45 / 55, abs=1e-15)
    assert scores["negative"].recall == pytest.approx(45 / 50, abs=1e-15)
    assert per[1] == pytest.approx(6 / 7, abs=1e-12)
    assert macro == pytest.approx((16 / 19 + 6 / 7) / 2, abs=1e-12)


def test_f1_perfect_predictions():
    metrics = metrics_from_confusion(_cm([[4, 0, 0], [0, 9, 0], [0, 0, 2]], FINE_CLASSES))
    per, macro = _f1s(metrics), metrics.f1_macro
    assert per == [1.0, 1.0, 1.0]
    assert macro == 1.0


def test_f1_absent_class_is_zero_by_convention():
    metrics = metrics_from_confusion(_cm([[5, 1, 0], [2, 4, 0], [0, 0, 0]], FINE_CLASSES))
    per, macro = _f1s(metrics), metrics.f1_macro
    assert per[2] == 0.0
    scores = metrics.per_class
    assert scores["neutral"] == ClassScores(0.0, 0.0, 0.0)
    assert macro == pytest.approx((per[0] + per[1]) / 3, abs=1e-15)


# ---------------------------------------------------------------------------
# Brute-force recount: exact agreement on random instances
# ---------------------------------------------------------------------------


def _recount(golds, preds, classes):
    n = len(golds)
    acc = sum(g == p for g, p in zip(golds, preds)) / n
    f1s = []
    for c in range(len(classes)):
        tp = sum(g == c and p == c for g, p in zip(golds, preds))
        pred_c = sum(p == c for p in preds)
        gold_c = sum(g == c for g in golds)
        p = tp / pred_c if pred_c else 0.0
        r = tp / gold_c if gold_c else 0.0
        f1s.append(2.0 * p * r / (p + r) if p + r > 0 else 0.0)
    return acc, f1s, sum(f1s) / len(f1s)


def test_metrics_match_brute_force_recount_exactly():
    gen = RngState(seed=22).generator()
    for _ in range(100):
        classes = FINE_CLASSES if gen.integers(2) else POS_NEG
        n = int(gen.integers(1, 50))
        golds = gen.integers(len(classes), size=n).tolist()
        preds = gen.integers(len(classes), size=n).tolist()
        cm = confusion_matrix(golds, preds, classes)
        want_acc, want_f1s, want_macro = _recount(golds, preds, classes)
        metrics = metrics_from_confusion(cm)
        got_f1s, got_macro = _f1s(metrics), metrics.f1_macro
        assert metrics.accuracy == want_acc
        assert got_f1s == want_f1s
        assert got_macro == want_macro


def test_precision_recall_and_negative_share_match_brute_force_recount_exactly():
    gen = RngState(seed=26).generator()
    for _ in range(100):
        classes = FINE_CLASSES if gen.integers(2) else POS_NEG
        # golds and predictions each drawn from a random subset of the classes,
        # so a class is often absent from one side or from both
        gold_from = gen.choice(len(classes), size=int(gen.integers(1, len(classes) + 1)), replace=False)
        pred_from = gen.choice(len(classes), size=int(gen.integers(1, len(classes) + 1)), replace=False)
        n = int(gen.integers(1, 50))
        golds = gen.choice(gold_from, size=n).tolist()
        preds = gen.choice(pred_from, size=n).tolist()
        metrics = metrics_from_confusion(confusion_matrix(golds, preds, classes))
        for c, name in enumerate(classes):
            tp = sum(g == c and p == c for g, p in zip(golds, preds))
            pred_c = sum(p == c for p in preds)
            gold_c = sum(g == c for g in golds)
            assert metrics.per_class[name].precision == (tp / pred_c if pred_c else 0.0)
            assert metrics.per_class[name].recall == (tp / gold_c if gold_c else 0.0)
        neg = classes.index("negative")
        assert metrics.false_negative_share == sum(p == neg and g != neg for g, p in zip(golds, preds)) / n


def test_macro_f1_invariant_under_class_permutation():
    gen = RngState(seed=23).generator()
    for _ in range(20):
        counts = gen.integers(0, 20, size=(3, 3))
        counts[0, 0] += 1  # nonempty
        cm = _cm(counts.tolist(), FINE_CLASSES)
        perm = gen.permutation(3)
        permuted = _cm(counts[np.ix_(perm, perm)].tolist(), tuple(FINE_CLASSES[i] for i in perm))
        metrics_a, metrics_b = metrics_from_confusion(cm), metrics_from_confusion(permuted)
        per_a, macro_a = _f1s(metrics_a), metrics_a.f1_macro
        per_b, macro_b = _f1s(metrics_b), metrics_b.f1_macro
        assert [per_a[i] for i in perm] == per_b
        assert macro_a == pytest.approx(macro_b, abs=1e-12)


# ---------------------------------------------------------------------------
# False-negative share
# ---------------------------------------------------------------------------


def test_false_negative_share_hand_values():
    assert metrics_from_confusion(_cm([[8, 2], [0, 10]])).false_negative_share == 0.10
    assert metrics_from_confusion(_cm([[8, 0], [0, 10]])).false_negative_share == 0.0


def test_false_negative_share_needs_a_negative_class():
    assert metrics_from_confusion(_cm([[1, 3], [2, 1]], ("yes", "no"))).false_negative_share == 0.0


def test_false_negative_share_bounded_by_error_rate():
    gen = RngState(seed=24).generator()
    for _ in range(50):
        counts = gen.integers(0, 15, size=(3, 3))
        counts[1, 1] += 1
        cm = _cm(counts.tolist(), FINE_CLASSES)
        metrics = metrics_from_confusion(cm)
        share = metrics.false_negative_share
        assert 0.0 <= share <= 1.0 - metrics.accuracy + 1e-15


def test_matrix_total_is_example_count():
    gen = RngState(seed=25).generator()
    n = 37
    golds = gen.integers(3, size=n).tolist()
    preds = gen.integers(3, size=n).tolist()
    assert confusion_matrix(golds, preds, FINE_CLASSES).total == n


# ---------------------------------------------------------------------------
# evaluate()
# ---------------------------------------------------------------------------


def _world(num_classes=3, hidden=8, seed=30):
    tweets, golds = synthdata.synthetic_labeled(6, seed=seed)
    vocab = synthdata.vocabulary_of(tweets)
    emb = synthdata.separable_embeddings(vocab, seed=seed)
    cfg = ModelConfig(embedding_dim=emb.dim, hidden_size=hidden, num_classes=num_classes)
    return (tweets, golds), emb, cfg


def _zero_params(cfg):
    return {n: np.zeros(s) for n, s in param_shapes(cfg).items()}


def test_evaluate_zero_weight_model_predicts_class_zero():
    (tweets, golds), emb, cfg = _world()
    cm, metrics = evaluate(_zero_params(cfg), cfg, emb, tweets, golds)
    # every prediction lands in column 0 ("positive") by tie-break
    arr = cm.as_array()
    assert arr[:, 0].sum() == len(tweets)
    share_class0 = sum(1 for g in golds if g == POS) / len(tweets)
    assert metrics.accuracy == share_class0 == 1 / 3


def test_evaluate_overfit_training_set():
    from rnnsent.corpus import token_ids
    from rnnsent.model import backward_full, forward, init_params
    from rnnsent.numeric import sgd_step

    (tweets, golds), emb, cfg = _world(hidden=12)
    params = init_params(cfg, RngState(seed=31))
    ids, starts, lengths = token_ids(emb.vocab, tweets)
    seqs = [list(emb.input_vectors[ids[s : s + n]]) for s, n in zip(starts, lengths)]
    targets = golds.tolist()
    for _ in range(150):
        for seq, y in zip(seqs, targets):
            trace = forward(params, cfg, seq)
            grads = backward_full(params, cfg, trace, seq, y)
            params = sgd_step(params, grads, 0.1)
    _, metrics = evaluate(params, cfg, emb, tweets, golds)
    assert metrics.accuracy >= 0.99
    assert metrics.oov_examples == 0


def test_evaluate_metrics_are_function_of_matrix():
    (tweets, golds), emb, cfg = _world()
    cm, metrics = evaluate(_zero_params(cfg), cfg, emb, tweets, golds)
    assert metrics_from_confusion(cm, oov_examples=metrics.oov_examples) == metrics


def _tweet(i, *tokens):
    return Tweet(id=f"x{i}", timestamp=datetime(2013, 11, 9, tzinfo=timezone.utc), tokens=tokens)


def test_evaluate_oov_examples_counted_as_errors():
    for num_classes in (3, 2):
        (tweets, golds), emb, cfg = _world(num_classes=num_classes)
        keep = golds < num_classes
        tweets, golds = tweets.take(np.flatnonzero(keep)), golds[keep]
        # zero weights predict class 0 for every in-vocabulary tweet
        scored = confusion_matrix(golds, [POS] * len(golds), classes_for(num_classes)).as_array()
        ghosts = [POS, NEG, NEU][:num_classes]
        with_oov = table([*tweets_of(tweets), *(_tweet(i, "unseenzzz", "ghostqqq") for i in range(len(ghosts)))])
        cm, metrics = evaluate(_zero_params(cfg), cfg, emb, with_oov, [*golds, *ghosts])
        assert metrics.oov_examples == len(ghosts)
        assert cm.total == len(with_oov)
        arr = cm.as_array()
        # an OOV example is charged to the first non-gold class: gold positive to the
        # negative column, gold negative and gold neutral to the positive column
        charged = np.zeros_like(arr)
        charged[POS, NEG] = 1
        charged[NEG, POS] = 1
        if num_classes == 3:
            charged[NEU, POS] = 1
        assert np.array_equal(arr - scored, charged), num_classes
        # accuracy still matches the matrix
        assert metrics.accuracy == np.trace(arr) / arr.sum()


def test_evaluate_scores_hand_built_tweets():
    _, emb, cfg = _world()
    tweets = table([_tweet(0, "salamat", "masaya"), _tweet(1, "wasak")])
    cm, metrics = evaluate(_zero_params(cfg), cfg, emb, tweets, [POS, NEG])
    assert cm.total == 2


def test_evaluate_rejects_empty_and_unknown_gold():
    _, emb, cfg = _world()
    with pytest.raises(ValueError, match="empty"):
        evaluate(_zero_params(cfg), cfg, emb, table([]), [])
    with pytest.raises(ValueError, match="gold label"):
        evaluate(_zero_params(cfg), cfg, emb, table([_tweet(0, "salamat")]), [3])
    with pytest.raises(ValueError, match="length mismatch"):
        evaluate(_zero_params(cfg), cfg, emb, table([_tweet(0, "salamat")]), [POS, NEG])


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_save_metrics_json(tmp_path):
    cm = _cm([[40, 10], [5, 45]])
    metrics = metrics_from_confusion(cm)
    path = tmp_path / "metrics.json"
    save_metrics(metrics, path)
    data = json.loads(path.read_text())
    assert data["accuracy"] == 0.85
    assert data["total"] == 100
    assert set(data["per_class"]) == {"positive", "negative"}
    assert data["per_class"]["negative"]["recall"] == 0.9


def test_confusion_csv_round_trip(tmp_path):
    cm = _cm([[1, 2, 3], [4, 5, 6], [7, 8, 9]], FINE_CLASSES)
    path = tmp_path / "confusion.csv"
    save_confusion(cm, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "gold,positive,negative,neutral"
    assert lines[1] == "positive,1,2,3"
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0][1:]) == cm.classes
    assert [row[0] for row in rows[1:]] == list(cm.classes)
    assert tuple(tuple(int(c) for c in row[1:]) for row in rows[1:]) == cm.counts
