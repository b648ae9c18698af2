import json

import numpy as np
import pytest

import synthdata
from rnnsent.corpus import Vocabulary
from rnnsent.embedding import EmbeddingMatrix
from rnnsent.evaluation import (
    BINARY_CLASSES,
    FINE_CLASSES,
    ClassScores,
    ConfusionMatrix,
    accuracy,
    classes_for,
    confusion_matrix,
    evaluate,
    f1_scores,
    false_negative_share,
    load_confusion,
    metrics_from_confusion,
    per_class_scores,
    save_confusion,
    save_metrics,
)
from rnnsent.model import ModelConfig, param_shapes
from rnnsent.numeric import RngState

POS_NEG = ("positive", "negative")


def _cm(counts, classes=POS_NEG):
    return ConfusionMatrix(tuple(classes), tuple(tuple(row) for row in counts))


# ---------------------------------------------------------------------------
# Matrix construction
# ---------------------------------------------------------------------------


def test_classes_for():
    assert classes_for(3) == FINE_CLASSES == ("positive", "negative", "neutral")
    assert classes_for(2) == BINARY_CLASSES == ("positive", "negative")
    with pytest.raises(ValueError):
        classes_for(4)


def test_confusion_matrix_diagonal_and_antidiagonal():
    golds = ["positive", "negative"]
    assert confusion_matrix(golds, golds, POS_NEG).counts == ((1, 0), (0, 1))
    assert confusion_matrix(golds, golds[::-1], POS_NEG).counts == ((0, 1), (1, 0))


def test_confusion_matrix_hand_tally():
    pairs = [
        ("positive", "positive"),
        ("positive", "negative"),
        ("negative", "negative"),
        ("negative", "negative"),
        ("neutral", "positive"),
        ("neutral", "neutral"),
    ]
    cm = confusion_matrix([g for g, _ in pairs], [p for _, p in pairs], FINE_CLASSES)
    assert cm.counts == ((1, 1, 0), (0, 2, 0), (1, 0, 1))
    assert cm.total == 6


def test_confusion_matrix_errors():
    with pytest.raises(ValueError, match="length mismatch"):
        confusion_matrix(["positive"], [], POS_NEG)
    with pytest.raises(ValueError, match="unknown gold"):
        confusion_matrix(["meh"], ["positive"], POS_NEG)
    with pytest.raises(ValueError, match="unknown predicted"):
        confusion_matrix(["positive"], ["meh"], POS_NEG)


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
    assert accuracy(_cm([[40, 10], [5, 45]])) == 0.85
    assert accuracy(_cm([[7, 0], [0, 3]])) == 1.0


def test_accuracy_empty_matrix_rejected():
    with pytest.raises(ValueError, match="empty"):
        accuracy(_cm([[0, 0], [0, 0]]))
    with pytest.raises(ValueError, match="empty"):
        f1_scores(_cm([[0, 0], [0, 0]]))


def test_accuracy_random_coin_flip_near_half():
    gen = RngState(seed=21).generator()
    golds = ["positive"] * 5000 + ["negative"] * 5000
    preds = [POS_NEG[i] for i in gen.integers(2, size=10000)]
    acc = accuracy(confusion_matrix(golds, preds, POS_NEG))
    assert 0.48 <= acc <= 0.52


def test_f1_hand_values():
    per, macro = f1_scores(_cm([[40, 10], [5, 45]]))
    scores = per_class_scores(_cm([[40, 10], [5, 45]]))
    assert scores["positive"].precision == pytest.approx(40 / 45, abs=1e-15)
    assert scores["positive"].recall == pytest.approx(40 / 50, abs=1e-15)
    assert per[0] == pytest.approx(16 / 19, abs=1e-12)
    assert scores["negative"].precision == pytest.approx(45 / 55, abs=1e-15)
    assert scores["negative"].recall == pytest.approx(45 / 50, abs=1e-15)
    assert per[1] == pytest.approx(6 / 7, abs=1e-12)
    assert macro == pytest.approx((16 / 19 + 6 / 7) / 2, abs=1e-12)


def test_f1_perfect_predictions():
    per, macro = f1_scores(_cm([[4, 0, 0], [0, 9, 0], [0, 0, 2]], FINE_CLASSES))
    assert per == [1.0, 1.0, 1.0]
    assert macro == 1.0


def test_f1_absent_class_is_zero_by_convention():
    per, macro = f1_scores(_cm([[5, 1, 0], [2, 4, 0], [0, 0, 0]], FINE_CLASSES))
    assert per[2] == 0.0
    scores = per_class_scores(_cm([[5, 1, 0], [2, 4, 0], [0, 0, 0]], FINE_CLASSES))
    assert scores["neutral"] == ClassScores(0.0, 0.0, 0.0)
    assert macro == pytest.approx((per[0] + per[1]) / 3, abs=1e-15)


# ---------------------------------------------------------------------------
# Brute-force recount: exact agreement on random instances
# ---------------------------------------------------------------------------


def _recount(golds, preds, classes):
    n = len(golds)
    acc = sum(g == p for g, p in zip(golds, preds)) / n
    f1s = []
    for c in classes:
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
        golds = [classes[i] for i in gen.integers(len(classes), size=n)]
        preds = [classes[i] for i in gen.integers(len(classes), size=n)]
        cm = confusion_matrix(golds, preds, classes)
        want_acc, want_f1s, want_macro = _recount(golds, preds, classes)
        got_f1s, got_macro = f1_scores(cm)
        assert accuracy(cm) == want_acc
        assert got_f1s == want_f1s
        assert got_macro == want_macro


def test_macro_f1_invariant_under_class_permutation():
    gen = RngState(seed=23).generator()
    for _ in range(20):
        counts = gen.integers(0, 20, size=(3, 3))
        counts[0, 0] += 1  # nonempty
        cm = _cm(counts.tolist(), FINE_CLASSES)
        perm = gen.permutation(3)
        permuted = _cm(counts[np.ix_(perm, perm)].tolist(), tuple(FINE_CLASSES[i] for i in perm))
        per_a, macro_a = f1_scores(cm)
        per_b, macro_b = f1_scores(permuted)
        assert [per_a[i] for i in perm] == per_b
        assert macro_a == pytest.approx(macro_b, abs=1e-12)


# ---------------------------------------------------------------------------
# False-negative share
# ---------------------------------------------------------------------------


def test_false_negative_share_hand_values():
    assert false_negative_share(_cm([[8, 2], [0, 10]])) == 0.10
    assert false_negative_share(_cm([[8, 0], [0, 10]])) == 0.0


def test_false_negative_share_unknown_label():
    with pytest.raises(ValueError, match="unknown label"):
        false_negative_share(_cm([[1, 0], [0, 1]]), negative_label="meh")


def test_false_negative_share_bounded_by_error_rate():
    gen = RngState(seed=24).generator()
    for _ in range(50):
        counts = gen.integers(0, 15, size=(3, 3))
        counts[1, 1] += 1
        cm = _cm(counts.tolist(), FINE_CLASSES)
        share = false_negative_share(cm)
        assert 0.0 <= share <= 1.0 - accuracy(cm) + 1e-15


def test_matrix_total_is_example_count():
    gen = RngState(seed=25).generator()
    n = 37
    golds = [FINE_CLASSES[i] for i in gen.integers(3, size=n)]
    preds = [FINE_CLASSES[i] for i in gen.integers(3, size=n)]
    assert confusion_matrix(golds, preds, FINE_CLASSES).total == n


# ---------------------------------------------------------------------------
# evaluate()
# ---------------------------------------------------------------------------


def _world(num_classes=3, hidden=8, seed=30):
    examples = synthdata.synthetic_labeled(6, seed=seed)
    corpus, vocab = synthdata.corpus_and_vocab(examples)
    emb = synthdata.separable_embeddings(vocab, seed=seed)
    cfg = ModelConfig(embedding_dim=emb.dim, hidden_size=hidden, num_classes=num_classes)
    return examples, vocab, emb, cfg


def _zero_params(cfg):
    return {n: np.zeros(s) for n, s in param_shapes(cfg).items()}


def test_evaluate_zero_weight_model_predicts_class_zero():
    examples, vocab, emb, cfg = _world()
    cm, metrics = evaluate(_zero_params(cfg), cfg, emb, vocab, examples)
    # every prediction lands in column 0 ("positive") by tie-break
    arr = cm.as_array()
    assert arr[:, 0].sum() == len(examples)
    share_class0 = sum(1 for e in examples if e.label == "positive") / len(examples)
    assert metrics.accuracy == share_class0 == 1 / 3


def test_evaluate_overfit_training_set():
    from rnnsent.model import backward_full, forward, init_params, token_rows
    from rnnsent.numeric import sgd_step

    examples, vocab, emb, cfg = _world(hidden=12)
    params = init_params(cfg, RngState(seed=31))
    seqs = [list(emb.input_vectors[token_rows(vocab, e.tokens)]) for e in examples]
    targets = [FINE_CLASSES.index(e.label) for e in examples]
    for _ in range(150):
        for seq, y in zip(seqs, targets):
            trace = forward(params, cfg, seq)
            grads = backward_full(params, cfg, trace, seq, y)
            params = sgd_step(params, grads, 0.1)
    _, metrics = evaluate(params, cfg, emb, vocab, examples)
    assert metrics.accuracy >= 0.99
    assert metrics.oov_examples == 0


def test_evaluate_metrics_are_function_of_matrix():
    examples, vocab, emb, cfg = _world()
    cm, metrics = evaluate(_zero_params(cfg), cfg, emb, vocab, examples)
    assert metrics_from_confusion(cm, oov_examples=metrics.oov_examples) == metrics


def test_evaluate_oov_examples_counted_as_errors():
    examples, vocab, emb, cfg = _world()
    with_oov = list(examples) + [(("unseenzzz",), "positive"), (("ghostqqq",), "negative")]
    cm, metrics = evaluate(_zero_params(cfg), cfg, emb, vocab, with_oov)
    assert metrics.oov_examples == 2
    assert cm.total == len(with_oov)
    arr = cm.as_array()
    # the OOV positive example is charged to the first non-gold class
    assert arr[0, 1] >= 1
    # accuracy still matches the matrix
    assert metrics.accuracy == np.trace(arr) / arr.sum()


def test_evaluate_accepts_token_label_pairs():
    _, vocab, emb, cfg = _world()
    pairs = [(("salamat", "masaya"), "positive"), (("wasak",), "negative")]
    cm, metrics = evaluate(_zero_params(cfg), cfg, emb, vocab, pairs)
    assert cm.total == 2


def test_evaluate_rejects_empty_and_unknown_gold():
    _, vocab, emb, cfg = _world()
    with pytest.raises(ValueError, match="empty"):
        evaluate(_zero_params(cfg), cfg, emb, vocab, [])
    with pytest.raises(ValueError, match="gold label"):
        evaluate(_zero_params(cfg), cfg, emb, vocab, [(("salamat",), "meh")])


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
    assert load_confusion(path) == cm


def test_load_confusion_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        load_confusion(path)
