"""Acceptance suite: one test per release criterion, each printing a single
PASS/FAIL verdict line. Thresholds, sizes, and time bounds are pinned here and
must not be loosened; synthetic data and free parameters (corpus seeds, epoch
budgets where unpinned) were tuned separately so changes to them never touch
an asserted bound.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import json
import re
import time
from datetime import datetime, timezone
from decimal import Decimal

import numpy as np
import pytest

import synthdata
from rnnsent.cli import main
from rnnsent.corpus import (
    PreprocessConfig,
    Vocabulary,
    default_stopwords,
    load_tweets,
    preprocess_corpus,
)
from rnnsent.embedding import (
    EmbeddingMatrix,
    EmbeddingParams,
    cosine_similarity,
    nearest_neighbors,
    train_embeddings,
)
from rnnsent.evaluation import (
    BINARY_CLASSES,
    FINE_CLASSES,
    ConfusionMatrix,
    confusion_matrix,
    metrics_from_confusion,
)
from rnnsent.gradcheck import run_gradcheck
from rnnsent.model import (
    BIDIRECTIONAL,
    BPTT_FULL,
    STANDARD,
    ModelConfig,
    backward_full,
    backward_truncated,
    forward,
    init_params,
)
from rnnsent.numeric import RngState
from rnnsent.training import (
    GRID_COLUMNS,
    TASK_BINARY,
    TASK_FINE,
    TrainConfig,
    binary_subset,
    run_grid,
    split,
    train,
)
from rnnsent.analysis import sentiment_distribution, temporal_buckets
from synthdata import Tweet, table, tweets_of


def _check(failures, ok, message):
    if not ok:
        failures.append(message)


def _verdict(label, failures):
    print(f"\n[{label}] {'PASS' if not failures else 'FAIL'}")
    assert not failures, f"{label}: " + "; ".join(failures)


@pytest.fixture(scope="module")
def separable_world():
    """3,900 class-indicative tweets (1,300 per class), planted embeddings,
    80/20 stratified split. Shared by the generalization and grid criteria."""
    tweets, labels = synthdata.synthetic_labeled(1300, seed=41)
    vocab = synthdata.vocabulary_of(tweets)
    emb = synthdata.separable_embeddings(vocab, seed=41)
    data = split(tweets, np.arange(len(tweets)), labels, ratio=0.8, rng=RngState(seed=41).child(11))
    return (tweets, labels), emb, data


# ---------------------------------------------------------------------------
# 1. Gradient fidelity
# ---------------------------------------------------------------------------


def test_criterion_01_gradient_fidelity():
    failures = []
    started = time.perf_counter()
    report = run_gradcheck(trials=25, max_hidden=8, max_seq_len=12, seed=0)
    rc = main(["gradcheck", "--trials", "25", "--hidden", "8", "--seq-len", "12", "--seed", "0"])
    elapsed = time.perf_counter() - started
    _check(failures, report.trials == 25, "expected 25 trials")
    _check(failures, report.max_error < 1e-4, f"max relative error {report.max_error:.3e} >= 1e-4")
    # both architectures must have been exercised
    _check(failures, "w_xh" in report.per_group_max, "no standard-architecture trials")
    _check(failures, "fwd.w_xh" in report.per_group_max, "no bidirectional trials")
    _check(failures, rc == 0, f"gradcheck subcommand exited {rc}")
    _check(failures, elapsed < 30.0, f"took {elapsed:.1f}s, bound 30s")
    _verdict("criterion 1: gradient fidelity", failures)


# ---------------------------------------------------------------------------
# 2. Truncation equivalence
# ---------------------------------------------------------------------------


def test_criterion_02_truncation_equivalence():
    failures = []
    started = time.perf_counter()
    root = RngState(seed=2)
    for trial in range(20):
        gen = root.child(trial).generator()
        hidden = int(gen.integers(2, 7))
        emb_dim = int(gen.integers(2, 6))
        seq_len = int(gen.integers(1, 13))
        k = seq_len + int(gen.integers(0, 9))
        config = ModelConfig(
            embedding_dim=emb_dim,
            hidden_size=hidden,
            num_classes=3 if trial % 2 else 2,
            direction=STANDARD if trial % 4 < 2 else BIDIRECTIONAL,
        )
        params = init_params(config, root.child(100, trial))
        sequence = [gen.normal(size=emb_dim) for _ in range(seq_len)]
        target = int(gen.integers(config.num_classes))
        trace = forward(params, config, sequence, train=False)
        full = backward_full(params, config, trace, sequence, target)
        trunc = backward_truncated(params, config, trace, sequence, target, k=k)
        worst = max(float(np.max(np.abs(full[n] - trunc[n]))) for n in full)
        _check(failures, worst <= 1e-12, f"trial {trial} (k={k}, T={seq_len}): max diff {worst:.3e}")
    elapsed = time.perf_counter() - started
    _check(failures, elapsed < 10.0, f"took {elapsed:.1f}s, bound 10s")
    _verdict("criterion 2: truncation equivalence", failures)


# ---------------------------------------------------------------------------
# 3. Overfit oracle
# ---------------------------------------------------------------------------


def test_criterion_03_overfit_oracle():
    failures = []
    started = time.perf_counter()
    tweets, labels = synthdata.synthetic_labeled(12, seed=40)
    vocab = synthdata.vocabulary_of(tweets)
    emb = synthdata.separable_embeddings(vocab, seed=40)
    data = split(tweets, np.arange(len(tweets)), labels, ratio=5 / 6, rng=RngState(seed=40).child(11))
    _check(failures, len(data.train) == 30, f"expected 30 training examples, got {len(data.train)}")

    model_cfg = ModelConfig(embedding_dim=emb.dim, hidden_size=16)
    train_cfg = TrainConfig(epochs=500, seed=0)
    _, report = train(data, emb, model_cfg, train_cfg)
    elapsed = time.perf_counter() - started

    _check(failures, len(report.epoch_losses) == 500, "expected 500 epochs")
    best = max(report.epoch_accuracies)
    _check(failures, best >= 0.99, f"best training accuracy {best:.4f} < 0.99")
    _check(
        failures,
        report.epoch_losses[-1] < report.epoch_losses[0],
        f"loss did not decrease: {report.epoch_losses[0]:.4f} -> {report.epoch_losses[-1]:.4f}",
    )
    _check(failures, elapsed < 60.0, f"took {elapsed:.1f}s, bound 60s")
    _verdict("criterion 3: overfit oracle", failures)


# ---------------------------------------------------------------------------
# 4. Separable-corpus generalization
# ---------------------------------------------------------------------------


def test_criterion_04_separable_generalization(separable_world):
    failures = []
    started = time.perf_counter()
    (tweets, labels), emb, data = separable_world

    for j, cls in enumerate(FINE_CLASSES):
        n = int(np.sum(labels == j))
        _check(failures, n == 1300, f"{cls}: {n} examples, expected 1300")
    _check(failures, (len(data.train), len(data.test)) == (3120, 780), "80/20 split sizes wrong")
    for j, cls in enumerate(FINE_CLASSES):
        n = int(np.sum(data.train_labels == j))
        _check(failures, n == 1040, f"stratified split broke balance for {cls}: {n}")

    fine_cfg = ModelConfig(embedding_dim=emb.dim, hidden_size=64, dropout_rate=0.5)
    fine_train = TrainConfig(batch_size=64, learning_rate=1.8e-3, epochs=30, seed=0)
    _, fine_report = train(data, emb, fine_cfg, fine_train)
    acc = fine_report.test_metrics.accuracy
    _check(failures, acc >= 0.95, f"fine-grained test accuracy {acc:.4f} < 0.95")

    bin_data = split(tweets, *binary_subset(np.arange(len(tweets)), labels), ratio=0.8, rng=RngState(seed=41).child(12))
    bin_cfg = ModelConfig(
        embedding_dim=emb.dim,
        hidden_size=64,
        num_classes=2,
        dropout_rate=0.5,
        direction=BIDIRECTIONAL,
        bptt_mode=BPTT_FULL,
    )
    bin_train = TrainConfig(batch_size=64, learning_rate=1.8e-3, epochs=30, seed=0)
    _, bin_report = train(bin_data, emb, bin_cfg, bin_train)
    bacc = bin_report.test_metrics.accuracy
    _check(failures, bacc >= 0.95, f"binary test accuracy {bacc:.4f} < 0.95")

    elapsed = time.perf_counter() - started
    _check(failures, elapsed < 600.0, f"took {elapsed:.1f}s, bound 600s")
    _verdict("criterion 4: separable-corpus generalization", failures)


# ---------------------------------------------------------------------------
# 5. Grid structural reproduction
# ---------------------------------------------------------------------------


def test_criterion_05_grid_structure(separable_world):
    failures = []
    _, emb, data = separable_world
    _check(
        failures,
        GRID_COLUMNS == ("Model", "Batch Size", "Learning Rate", "Drop Out", "BPTT Type", "ACC", "F1 Score"),
        f"unexpected column set {GRID_COLUMNS}",
    )
    base = TrainConfig(epochs=3, seed=0)
    for task in (TASK_FINE, TASK_BINARY):
        result = run_grid(data, emb, task, base, hidden_size=64)
        rows = result.rows
        _check(failures, len(rows) == 8, f"{task}: {len(rows)} rows, expected 8")
        _check(
            failures,
            [r.model for r in rows] == ["Standard RNN"] * 4 + ["Bidirectional RNN"] * 4,
            f"{task}: model block order wrong",
        )
        _check(failures, [r.batch_size for r in rows] == [64, 128, 64, 128] * 2, f"{task}: batch order wrong")
        _check(failures, [r.dropout for r in rows] == [None, None, 0.5, 0.5] * 2, f"{task}: dropout order wrong")
        _check(
            failures,
            [r.bptt_type for r in rows] == ["tBPTT"] * 4 + ["Full"] * 4,
            f"{task}: BPTT column wrong",
        )
        _check(failures, all(r.learning_rate == 1.8e-3 for r in rows), f"{task}: learning rate wrong")
        for r in rows:
            _check(
                failures,
                r.accuracy >= 0.80,
                f"{task} {r.model}/batch {r.batch_size}/dropout {r.dropout}: accuracy {r.accuracy:.4f} < 0.80",
            )
        header = result.format_table().splitlines()[0]
        _check(failures, re.split(r"\s{2,}", header.strip()) == list(GRID_COLUMNS), f"{task}: header wrong")
    _verdict("criterion 5: grid structural reproduction", failures)


# ---------------------------------------------------------------------------
# 6. Metric oracles
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


def test_criterion_06_metric_oracles():
    failures = []
    gen = RngState(seed=6).generator()
    for trial in range(100):
        classes = FINE_CLASSES if gen.integers(2) else BINARY_CLASSES
        n = int(gen.integers(1, 50))
        golds = gen.integers(len(classes), size=n).tolist()
        preds = gen.integers(len(classes), size=n).tolist()
        cm = confusion_matrix(golds, preds, classes)
        want_acc, want_f1s, want_macro = _recount(golds, preds, classes)
        metrics = metrics_from_confusion(cm)
        got_f1s, got_macro = [metrics.per_class[c].f1 for c in classes], metrics.f1_macro
        _check(failures, metrics.accuracy == want_acc, f"trial {trial}: accuracy mismatch")
        _check(failures, got_f1s == want_f1s, f"trial {trial}: per-class F1 mismatch")
        _check(failures, got_macro == want_macro, f"trial {trial}: macro F1 mismatch")

    fixture = ConfusionMatrix(BINARY_CLASSES, ((40, 10), (5, 45)))
    fixture_accuracy = metrics_from_confusion(fixture).accuracy
    _check(failures, fixture_accuracy == 0.85, f"fixture accuracy {fixture_accuracy} != 0.85")
    _verdict("criterion 6: metric oracles", failures)


# ---------------------------------------------------------------------------
# 7. Preprocessing correctness
# ---------------------------------------------------------------------------


def _write_jsonl(path, rows):
    with path.open("w", encoding="utf-8") as fh:
        for tid, ts, text in rows:
            fh.write(json.dumps({"id": tid, "timestamp": ts, "text": text}) + "\n")


def test_criterion_07_preprocessing(tmp_path):
    failures = []
    raw_path = tmp_path / "trace.jsonl"
    _write_jsonl(raw_path, synthdata.HAND_TRACE_RAW)
    clean, vocab, stats = preprocess_corpus(load_tweets(raw_path), PreprocessConfig(stopwords=default_stopwords()))
    clean = tweets_of(clean)

    _check(
        failures,
        tuple(t.id for t in clean) == synthdata.HAND_TRACE_EXPECTED_ORDER,
        f"tweet order {[t.id for t in clean]}",
    )
    for t in clean:
        want = synthdata.HAND_TRACE_EXPECTED_TOKENS[t.id]
        _check(failures, t.tokens == want, f"{t.id}: {t.tokens} != {want}")
    got_vocab = tuple((tok, vocab.index(tok), vocab.counts[vocab.index(tok)]) for tok in vocab.tokens)
    _check(failures, got_vocab == synthdata.HAND_TRACE_EXPECTED_VOCAB, f"vocab {got_vocab}")
    got_stats = {
        "raw_count": stats.raw_count,
        "deduplicated_count": stats.deduplicated_count,
        "final_count": stats.final_count,
        "vocab_size": stats.vocab_size,
    }
    _check(failures, got_stats == synthdata.HAND_TRACE_EXPECTED_STATS, f"stats {got_stats}")

    # idempotence: cleaning already-clean text changes nothing
    again_path = tmp_path / "again.jsonl"
    _write_jsonl(
        again_path,
        [(t.id, t.timestamp.isoformat(), " ".join(t.tokens)) for t in clean],
    )
    again, _, _ = preprocess_corpus(load_tweets(again_path), PreprocessConfig(stopwords=default_stopwords()))
    again = tweets_of(again)
    _check(
        failures,
        [(t.id, t.tokens) for t in again] == [(t.id, t.tokens) for t in clean],
        "pipeline is not idempotent",
    )

    # frequency-5 and length-3 boundaries on a constructed counterexample:
    # "fourtimes" (4 occurrences) and "xy" (frequent but 2 chars) must vanish,
    # "fivetimes" (5) and "xyz" stay; the c{i} suffix defeats deduplication
    boundary_path = tmp_path / "boundary.jsonl"
    rows = []
    for i in range(9):
        word = "fivetimes" if i < 5 else "fourtimes"
        rows.append((f"b{i}", "2013-11-09T08:00:00Z", f"{word} anchor xyz xy c{i}"))
    _write_jsonl(boundary_path, rows)
    bclean, bvocab, _ = preprocess_corpus(load_tweets(boundary_path), PreprocessConfig(stopwords=default_stopwords()))
    bclean = tweets_of(bclean)
    _check(failures, tuple(bvocab.tokens) == ("anchor", "xyz", "fivetimes"), f"vocab {bvocab.tokens}")
    _check(failures, bvocab.counts[bvocab.index("fivetimes")] == 5, "five-occurrence token miscounted")
    _check(failures, "fourtimes" not in bvocab, "four-occurrence token survived the frequency rule")
    _check(failures, "xy" not in bvocab, "two-character token survived the length rule")
    _check(failures, bclean[0].tokens == ("fivetimes", "anchor", "xyz"), f"tokens {bclean[0].tokens}")
    _check(failures, bclean[8].tokens == ("anchor", "xyz"), f"tokens {bclean[8].tokens}")
    _verdict("criterion 7: preprocessing correctness", failures)


# ---------------------------------------------------------------------------
# 8. Embedding sanity
# ---------------------------------------------------------------------------


def test_criterion_08_embedding_sanity():
    failures = []
    tweets, vocab = synthdata.two_cluster_corpus()
    params = EmbeddingParams(dim=10, window=3, negative_samples=4, epochs=6, subsample_threshold=0.0)
    emb = train_embeddings(tweets, vocab, params, RngState(seed=13))
    for word in vocab.tokens:
        top, _ = nearest_neighbors(emb, word, 1)[0]
        _check(failures, top[:3] == word[:3], f"{word}: top neighbor {top} is cross-cluster")

    # ranked neighbors equal a brute-force scan on a 1,000-word vocabulary
    gen = RngState(seed=14).generator()
    big_vocab = Vocabulary([f"w{i:04d}" for i in range(1000)])
    big = EmbeddingMatrix(big_vocab, gen.normal(size=(1000, 8)))
    for word in ("w0000", "w0421", "w0999"):
        for k in (1, 10, 999):
            got = nearest_neighbors(big, word, k)
            query = big.input_vectors[big_vocab.index(word)]
            scored = [
                (tok, cosine_similarity(query, big.input_vectors[i]), i)
                for i, tok in enumerate(big_vocab.tokens)
                if tok != word
            ]
            scored.sort(key=lambda x: (-x[1], x[2]))
            _check(
                failures,
                [t for t, _ in got] == [t for t, _, _ in scored[:k]],
                f"{word} k={k}: ranking differs from brute force",
            )
    _verdict("criterion 8: embedding sanity", failures)


# ---------------------------------------------------------------------------
# 9. Determinism end-to-end
# ---------------------------------------------------------------------------


def _run_pipeline(root, raw, ann):
    pre = root / "pre"
    assert main(["preprocess", "--input", str(raw), "--output-dir", str(pre)]) == 0
    emb = root / "emb.txt"
    assert main([
        "embed", "--corpus", str(pre / "corpus.jsonl"), "--vocab", str(pre / "vocab.tsv"),
        "--dim", "6", "--window", "3", "--negatives", "2", "--epochs", "2",
        "--subsample", "0", "--seed", "5", "--output", str(emb),
    ]) == 0
    fit = root / "fit"
    assert main([
        "train", "--corpus", str(pre / "corpus.jsonl"), "--annotations", str(ann),
        "--embeddings", str(emb), "--hidden", "6", "--epochs", "5", "--lr", "0.05",
        "--batch", "8", "--seed", "3", "--output", str(fit),
    ]) == 0
    scores = root / "scores"
    assert main([
        "eval", "--model", str(fit / "model.txt"), "--corpus", str(pre / "corpus.jsonl"),
        "--annotations", str(ann), "--embeddings", str(emb), "--output", str(scores),
    ]) == 0
    mood = root / "mood"
    assert main([
        "analyze", "--model", str(fit / "model.txt"), "--corpus", str(pre / "corpus.jsonl"),
        "--embeddings", str(emb), "--granularity", "month", "--output", str(mood),
    ]) == 0
    return {
        "corpus": pre / "corpus.jsonl",
        "vocab": pre / "vocab.tsv",
        "stats": pre / "stats.json",
        "embeddings": emb,
        "model": fit / "model.txt",
        "metrics": scores / "metrics.json",
        "confusion": scores / "confusion.csv",
        "classified": mood / "classified.jsonl",
        "report_json": mood / "report.json",
        "report_csv": mood / "report.csv",
    }


def test_criterion_09_end_to_end_determinism(tmp_path):
    failures = []
    raw, ann = synthdata.write_raw_corpus(tmp_path, 12, 90)
    first = _run_pipeline(tmp_path / "run1", raw, ann)
    second = _run_pipeline(tmp_path / "run2", raw, ann)
    for name in first:
        same = first[name].read_bytes() == second[name].read_bytes()
        _check(failures, same, f"{name} differs between same-seed runs")
    _verdict("criterion 9: end-to-end determinism", failures)


# ---------------------------------------------------------------------------
# 10. Analysis consistency
# ---------------------------------------------------------------------------


def test_criterion_10_analysis_consistency():
    failures = []
    spec = [
        ("positive", "2013-11-05"), ("positive", "2013-11-20"), ("negative", "2013-11-28"),
        ("neutral", "2013-12-03"), ("neutral", "2013-12-25"),
        ("positive", "2014-01-02"), ("negative", "2014-01-10"), ("negative", "2014-01-15"),
        ("neutral", "2014-01-30"),
    ]
    corpus = table(
        Tweet(id=f"t{i}", timestamp=datetime.fromisoformat(ts).replace(tzinfo=timezone.utc), tokens=("tok",))
        for i, (_, ts) in enumerate(spec)
    )
    labels = np.array([FINE_CLASSES.index(label) for label, _ in spec])
    dist = sentiment_distribution(labels)
    buckets = temporal_buckets(corpus, labels, "month")
    _check(failures, len(buckets.buckets) == 3, f"{len(buckets.buckets)} buckets, expected 3")
    for label in FINE_CLASSES:
        total = sum(b.counts[label] for b in buckets.buckets)
        _check(failures, total == dist.counts[label], f"{label}: buckets sum {total} != {dist.counts[label]}")
    # percentages are one-decimal quantities; sum them as exact decimals so
    # binary-float representation error cannot leak into the bound
    pct_sum = sum(Decimal(str(p)) for p in dist.percentages.values())
    _check(failures, abs(pct_sum - 100) <= Decimal("0.1"), f"percentages sum {pct_sum}")
    _verdict("criterion 10: analysis consistency", failures)
