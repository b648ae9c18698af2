import json
import re

import pytest

import synthdata
from rnnsent.cli import main
from rnnsent.corpus import load_clean_corpus


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full CLI pipeline run shared by the read-only tests below."""
    root = tmp_path_factory.mktemp("cli")
    raw, ann = synthdata.write_raw_corpus(root, 12, 90)
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
        "--embeddings", str(emb), "--hidden", "6", "--epochs", "3", "--lr", "0.05",
        "--batch", "8", "--dropout", "0", "--seed", "3", "--output", str(fit),
    ]) == 0

    return {"root": root, "raw": raw, "ann": ann, "pre": pre, "emb": emb, "fit": fit}


# ---------------------------------------------------------------------------
# preprocess
# ---------------------------------------------------------------------------


def test_preprocess_outputs_and_manifest(pipeline):
    pre = pipeline["pre"]
    for name in ("corpus.jsonl", "vocab.tsv", "stats.json", "manifest.json"):
        assert (pre / name).exists()
    manifest = json.loads((pre / "manifest.json").read_text())
    assert manifest["subcommand"] == "preprocess"
    assert manifest["config"]["min_freq"] == 5
    assert manifest["config"]["min_len"] == 3
    assert str(pipeline["raw"]) in manifest["inputs"]
    assert any(p.endswith("corpus.jsonl") for p in manifest["outputs"])
    assert manifest["duration_seconds"] >= 0
    assert "version" in manifest


def test_preprocess_cleans_planted_noise(pipeline):
    clean = load_clean_corpus(pipeline["pre"] / "corpus.jsonl")
    examples = synthdata.synthetic_labeled(12, 90)
    assert [t.id for t in clean] == [ex.tweet.id for ex in examples]
    assert [t.tokens for t in clean] == [ex.tweet.tokens for ex in examples]


def test_preprocess_rejects_min_freq_zero(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["preprocess", "--input", "x.jsonl", "--output-dir", str(tmp_path), "--min-freq", "0"])
    assert exc.value.code == 2
    assert "must be >= 1" in capsys.readouterr().err


def test_preprocess_missing_input_names_path(tmp_path, capsys):
    rc = main(["preprocess", "--input", str(tmp_path / "absent.jsonl"), "--output-dir", str(tmp_path / "o")])
    assert rc == 2
    assert "absent.jsonl" in capsys.readouterr().err


def test_preprocess_date_window(tmp_path, capsys):
    raw, _ = synthdata.write_raw_corpus(tmp_path, 4, 91)
    rc = main([
        "preprocess", "--input", str(raw), "--output-dir", str(tmp_path / "o"),
        "--min-freq", "1", "--from", "2013-12-01", "--to", "2013-12-31",
    ])
    assert rc == 0
    clean = load_clean_corpus(tmp_path / "o" / "corpus.jsonl")
    assert clean
    assert all(t.timestamp.month == 12 for t in clean)
    with pytest.raises(SystemExit) as exc:
        main(["preprocess", "--input", str(raw), "--output-dir", str(tmp_path / "o"), "--from", "2013-13-01"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# embed / neighbors
# ---------------------------------------------------------------------------


def test_embed_rejects_dim_zero(pipeline, capsys):
    with pytest.raises(SystemExit) as exc:
        main([
            "embed", "--corpus", str(pipeline["pre"] / "corpus.jsonl"),
            "--vocab", str(pipeline["pre"] / "vocab.tsv"), "--dim", "0", "--output", "e.txt",
        ])
    assert exc.value.code == 2


def test_embed_same_seed_byte_identical(pipeline, tmp_path):
    pre = pipeline["pre"]
    base = [
        "embed", "--corpus", str(pre / "corpus.jsonl"), "--vocab", str(pre / "vocab.tsv"),
        "--dim", "4", "--window", "2", "--negatives", "2", "--epochs", "1", "--subsample", "0",
    ]
    for name, seed in (("a.txt", "5"), ("b.txt", "5"), ("c.txt", "6")):
        assert main(base + ["--seed", seed, "--output", str(tmp_path / name)]) == 0
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()
    assert (tmp_path / "a.txt").read_bytes() != (tmp_path / "c.txt").read_bytes()
    manifest = json.loads((tmp_path / "a.txt.manifest.json").read_text())
    assert manifest["seed"] == 5


def test_embed_manifest_records_full_precision_losses(pipeline, tmp_path, capsys):
    pre = pipeline["pre"]
    out = tmp_path / "e.txt"
    assert main([
        "embed", "--corpus", str(pre / "corpus.jsonl"), "--vocab", str(pre / "vocab.tsv"),
        "--dim", "4", "--window", "2", "--negatives", "2", "--epochs", "3", "--subsample", "0",
        "--seed", "5", "--output", str(out),
    ]) == 0
    printed = capsys.readouterr().out.rsplit("epoch losses: ", 1)[1].strip().split(", ")
    recorded = json.loads((tmp_path / "e.txt.manifest.json").read_text())["results"]["epoch_losses"]
    assert len(recorded) == len(printed) == 3
    assert [f"{loss:.4f}" for loss in recorded] == printed
    assert any(loss != float(text) for loss, text in zip(recorded, printed))  # more digits than stdout


def test_neighbors_prints_ranked_pairs(pipeline, capsys):
    rc = main([
        "neighbors", "--embeddings", str(pipeline["emb"]), "--vocab",
        str(pipeline["pre"] / "vocab.tsv"), "--word", "bagyo", "--k", "3",
    ])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    for line in lines:
        token, sim = line.split("\t")
        assert token != "bagyo"
        assert -1.0 <= float(sim) <= 1.0


def test_neighbors_unknown_word_is_usage_error(pipeline, capsys):
    rc = main([
        "neighbors", "--embeddings", str(pipeline["emb"]), "--vocab",
        str(pipeline["pre"] / "vocab.tsv"), "--word", "zzzz",
    ])
    assert rc == 2
    assert "zzzz" in capsys.readouterr().err


def test_neighbors_vocab_mismatch(pipeline, tmp_path, capsys):
    other = tmp_path / "other.tsv"
    other.write_text("alpha\t0\t9\nbeta\t1\t8\n")
    rc = main([
        "neighbors", "--embeddings", str(pipeline["emb"]), "--vocab", str(other), "--word", "alpha",
    ])
    assert rc == 2
    assert "different tokens" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# train / eval
# ---------------------------------------------------------------------------


def test_train_outputs(pipeline):
    fit = pipeline["fit"]
    for name in ("model.txt", "report.json", "manifest.json"):
        assert (fit / name).exists()
    report = json.loads((fit / "report.json").read_text())
    assert len(report["epoch_losses"]) == 3
    assert report["train_config"]["seed"] == 3
    manifest = json.loads((fit / "manifest.json").read_text())
    assert manifest["subcommand"] == "train"
    assert manifest["seed"] == 3


def test_train_same_seed_reproduces_artifacts(pipeline, tmp_path):
    pre, ann, emb = pipeline["pre"], pipeline["ann"], pipeline["emb"]
    base = [
        "train", "--corpus", str(pre / "corpus.jsonl"), "--annotations", str(ann),
        "--embeddings", str(emb), "--hidden", "6", "--epochs", "3", "--lr", "0.05",
        "--batch", "8", "--dropout", "0", "--seed", "3",
    ]
    assert main(base + ["--output", str(tmp_path / "r1")]) == 0
    assert main(base + ["--output", str(tmp_path / "r2")]) == 0
    assert (tmp_path / "r1" / "model.txt").read_bytes() == (tmp_path / "r2" / "model.txt").read_bytes()
    r1 = json.loads((tmp_path / "r1" / "report.json").read_text())
    r2 = json.loads((tmp_path / "r2" / "report.json").read_text())
    del r1["wall_seconds"], r2["wall_seconds"]
    assert r1 == r2
    # the shared-fixture run used the same seed, so its model matches too
    assert (tmp_path / "r1" / "model.txt").read_bytes() == (pipeline["fit"] / "model.txt").read_bytes()


def test_train_warns_off_grid_and_zero_lr(pipeline, tmp_path, capsys):
    pre, ann, emb = pipeline["pre"], pipeline["ann"], pipeline["emb"]
    rc = main([
        "train", "--corpus", str(pre / "corpus.jsonl"), "--annotations", str(ann),
        "--embeddings", str(emb), "--hidden", "4", "--epochs", "1", "--lr", "0",
        "--batch", "8", "--dropout", "0", "--seed", "1", "--model", "standard",
        "--bptt", "full", "--output", str(tmp_path / "o"),
    ])
    assert rc == 0
    err = capsys.readouterr().err
    assert "off-grid" in err
    assert "learning rate 0" in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_divergence_is_internal_failure(pipeline, tmp_path, capsys):
    pre, ann, emb = pipeline["pre"], pipeline["ann"], pipeline["emb"]
    rc = main([
        "train", "--corpus", str(pre / "corpus.jsonl"), "--annotations", str(ann),
        "--embeddings", str(emb), "--hidden", "4", "--epochs", "2", "--lr", "inf",
        "--batch", "8", "--seed", "1", "--output", str(tmp_path / "o"),
    ])
    assert rc == 1
    assert re.search(r"^error: training diverged: epoch 1, batch \d+ has ", capsys.readouterr().err, re.M)
    assert not (tmp_path / "o" / "model.txt").exists()


def test_eval_outputs_metrics(pipeline, tmp_path, capsys):
    out = tmp_path / "scores"
    rc = main([
        "eval", "--model", str(pipeline["fit"] / "model.txt"),
        "--corpus", str(pipeline["pre"] / "corpus.jsonl"), "--annotations", str(pipeline["ann"]),
        "--embeddings", str(pipeline["emb"]), "--output", str(out),
    ])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "accuracy" in stdout and "macro F1" in stdout
    metrics = json.loads((out / "metrics.json").read_text())
    assert 0.0 <= metrics["accuracy"] <= 1.0
    assert (out / "confusion.csv").read_text().startswith("gold,positive,negative,neutral")
    # re-running the same evaluation writes byte-identical metrics
    rc = main([
        "eval", "--model", str(pipeline["fit"] / "model.txt"),
        "--corpus", str(pipeline["pre"] / "corpus.jsonl"), "--annotations", str(pipeline["ann"]),
        "--embeddings", str(pipeline["emb"]), "--output", str(tmp_path / "scores2"),
    ])
    assert rc == 0
    assert (out / "metrics.json").read_bytes() == (tmp_path / "scores2" / "metrics.json").read_bytes()
    assert (out / "confusion.csv").read_bytes() == (tmp_path / "scores2" / "confusion.csv").read_bytes()


def test_eval_dimension_mismatch_is_usage_error(pipeline, tmp_path, capsys):
    pre = pipeline["pre"]
    other = tmp_path / "dim4.txt"
    assert main([
        "embed", "--corpus", str(pre / "corpus.jsonl"), "--vocab", str(pre / "vocab.tsv"),
        "--dim", "4", "--window", "2", "--negatives", "2", "--epochs", "1",
        "--subsample", "0", "--seed", "5", "--output", str(other),
    ]) == 0
    rc = main([
        "eval", "--model", str(pipeline["fit"] / "model.txt"), "--corpus", str(pre / "corpus.jsonl"),
        "--annotations", str(pipeline["ann"]), "--embeddings", str(other),
        "--output", str(tmp_path / "o"),
    ])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# grid / analyze / gradcheck
# ---------------------------------------------------------------------------


def test_grid_writes_eight_rows(pipeline, tmp_path, capsys):
    out = tmp_path / "grid"
    rc = main([
        "grid", "--corpus", str(pipeline["pre"] / "corpus.jsonl"), "--annotations", str(pipeline["ann"]),
        "--embeddings", str(pipeline["emb"]), "--hidden", "4", "--epochs", "2",
        "--lr", "0.05", "--seed", "2", "--output", str(out),
    ])
    assert rc == 0
    payload = json.loads((out / "grid.json").read_text())
    assert len(payload["rows"]) == 8
    table = (out / "grid.txt").read_text()
    assert table.startswith("Model")
    assert "Standard RNN" in table and "Bidirectional RNN" in table
    assert capsys.readouterr().out == table


def test_analyze_outputs_and_determinism(pipeline, tmp_path, capsys):
    args = [
        "analyze", "--model", str(pipeline["fit"] / "model.txt"),
        "--corpus", str(pipeline["pre"] / "corpus.jsonl"), "--embeddings", str(pipeline["emb"]),
        "--granularity", "month",
    ]
    assert main(args + ["--output", str(tmp_path / "a1")]) == 0
    stdout = capsys.readouterr().out
    assert stdout.count("%") == 3
    payload = json.loads((tmp_path / "a1" / "report.json").read_text())
    assert payload["granularity"] == "month"
    assert [b["period"] for b in payload["buckets"]] == ["2013-11", "2013-12", "2014-01"]
    assert sum(payload["distribution"]["counts"].values()) == 36

    assert main(args + ["--output", str(tmp_path / "a2")]) == 0
    for name in ("classified.jsonl", "report.json", "report.csv"):
        assert (tmp_path / "a1" / name).read_bytes() == (tmp_path / "a2" / name).read_bytes()


def test_gradcheck_pass_and_corrupt_fail(capsys):
    rc = main(["gradcheck", "--trials", "3", "--hidden", "3", "--seq-len", "4", "--seed", "0"])
    assert rc == 0
    assert capsys.readouterr().out.strip().endswith("PASS")

    rc = main(["gradcheck", "--trials", "2", "--hidden", "3", "--seq-len", "4", "--corrupt"])
    assert rc == 1
    assert capsys.readouterr().out.strip().endswith("FAIL")


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("rnnsent ")
