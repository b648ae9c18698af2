"""Every artifact writer replaces its target only once the new file is whole."""

import argparse
import time
from pathlib import Path

import pytest

import synthdata
from rnnsent.analysis import classify_corpus, export_report, save_classified, sentiment_distribution, temporal_buckets
from rnnsent.cli import _write_manifest
from rnnsent.corpus import CorpusStats, save_clean_corpus, save_stats, save_vocabulary
from rnnsent.evaluation import evaluate, save_confusion, save_metrics
from rnnsent.model import ModelConfig, init_params
from rnnsent.numeric import RngState
from rnnsent.training import GridResult, GridRow, TrainConfig, TrainReport, save_grid, save_report

PREVIOUS = "previous contents\n"


@pytest.fixture(scope="module")
def world():
    corpus, golds = synthdata.synthetic_labeled(2, seed=7)
    vocab = synthdata.vocabulary_of(corpus)
    emb = synthdata.separable_embeddings(vocab, seed=7)
    cfg = ModelConfig(embedding_dim=emb.dim, hidden_size=3)
    params = init_params(cfg, RngState(seed=7))
    cm, metrics = evaluate(params, cfg, emb, corpus, golds)
    labels, confidences, oov = classify_corpus(params, cfg, emb, corpus)
    return {
        "corpus": corpus,
        "vocab": vocab,
        "cm": cm,
        "metrics": metrics,
        "labels": labels,
        "confidences": confidences,
        "oov": oov,
        "report": TrainReport([0.5], [0.5], metrics, cm, cfg, TrainConfig()),
        "grid": GridResult("fine_grained", (GridRow("Standard RNN", 64, 1.8e-3, None, "tBPTT", 0.5, 0.5),)),
    }


def _export(w, d):
    distribution, buckets = sentiment_distribution(w["labels"]), temporal_buckets(w["corpus"], w["labels"])
    export_report(distribution, buckets, d / "report.json", d / "report.csv")


def _manifest(path):
    args = argparse.Namespace(
        subcommand="train", corpus=None, annotations=None, embeddings=None, seed=1, output=path.parent
    )
    _write_manifest(args, time.perf_counter())


# case -> (the file that the interrupted write targets, a call that writes it into a directory)
WRITERS = {
    "save_clean_corpus": ("corpus.jsonl", lambda w, d: save_clean_corpus(w["corpus"], d / "corpus.jsonl")),
    "save_vocabulary": ("vocab.tsv", lambda w, d: save_vocabulary(w["vocab"], d / "vocab.tsv")),
    "save_stats": ("stats.json", lambda w, d: save_stats(CorpusStats(3, 2, 1, 4), d / "stats.json")),
    "save_report": ("report.json", lambda w, d: save_report(w["report"], d / "report.json")),
    "save_grid-json": ("grid.json", lambda w, d: save_grid(w["grid"], d / "grid.json", d / "grid.txt")),
    "save_grid-table": ("grid.txt", lambda w, d: save_grid(w["grid"], d / "grid.json", d / "grid.txt")),
    "save_metrics": ("metrics.json", lambda w, d: save_metrics(w["metrics"], d / "metrics.json")),
    "save_confusion": ("confusion.csv", lambda w, d: save_confusion(w["cm"], d / "confusion.csv")),
    "export_report-json": ("report.json", _export),
    "export_report-csv": ("report.csv", _export),
    "save_classified": (
        "classified.jsonl",
        lambda w, d: save_classified(w["corpus"], w["labels"], w["confidences"], w["oov"], d / "classified.jsonl"),
    ),
    "manifest": ("manifest.json", lambda w, d: _manifest(d / "manifest.json")),
}


def _interrupt_writes_to(monkeypatch, target):
    """Every write to a temp file beside `target` writes half its text, then raises."""
    real_open = Path.open

    def interrupted_open(self, mode="r", *args, **kwargs):
        fh = real_open(self, mode, *args, **kwargs)
        if self.name.startswith(f".{target}.") and self.name.endswith(".tmp"):
            real_write = fh.write

            def write(text):
                real_write(text[: len(text) // 2])
                raise RuntimeError("write interrupted")

            fh.write = write
        return fh

    monkeypatch.setattr(Path, "open", interrupted_open)


@pytest.mark.parametrize("case", list(WRITERS))
def test_failed_write_keeps_previous_file(world, tmp_path, monkeypatch, case):
    target, write = WRITERS[case]
    path = tmp_path / target
    path.write_text(PREVIOUS)
    _interrupt_writes_to(monkeypatch, target)
    with pytest.raises(RuntimeError, match="write interrupted"):
        write(world, tmp_path)
    assert path.read_text() == PREVIOUS
    assert [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")] == []
    # uninterrupted, the same call does replace the file
    monkeypatch.undo()
    write(world, tmp_path)
    assert path.read_text() != PREVIOUS
    assert [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")] == []
