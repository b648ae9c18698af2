"""Command-line entry point exposing the pipeline as subcommands.

Every artifact-writing subcommand drops a RunManifest next to its outputs with
the resolved configuration, tool version, seed, and wall-clock duration, so a
run can be reproduced exactly from its manifest.

Exit codes: 0 success, 2 usage or input errors (bad flags, unreadable or
malformed files, config mismatches), 1 internal failures (diverged training,
failed gradient check, unexpected exceptions).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from datetime import date, datetime, timezone
from pathlib import Path

from . import __version__
from .analysis import (
    GRANULARITIES,
    classify_corpus,
    export_report,
    save_classified,
    sentiment_distribution,
    temporal_buckets,
)
from .corpus import (
    PreprocessConfig,
    Vocabulary,
    atomic_writer,
    filter_by_collection_window,
    load_clean_corpus,
    load_stopwords,
    load_tweets,
    load_vocabulary,
    preprocess_corpus,
    save_clean_corpus,
    save_stats,
    save_vocabulary,
)
from .embedding import (
    EmbeddingParams,
    load_embeddings_with_tokens,
    nearest_neighbors,
    save_embeddings,
    train_embeddings,
)
from .evaluation import classes_for, evaluate, save_confusion, save_metrics
from .gradcheck import run_gradcheck
from .model import (
    BIDIRECTIONAL,
    BPTT_FULL,
    BPTT_TRUNCATED,
    STANDARD,
    ModelConfig,
    load_model,
    save_model,
)
from .numeric import RngState
from .training import (
    TASK_BINARY,
    TASK_FINE,
    TrainConfig,
    TrainingDivergedError,
    balance_classes,
    binary_subset,
    load_annotations,
    run_grid,
    save_grid,
    save_report,
    split,
    train,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2

CORPUS_FILENAME = "corpus.jsonl"
VOCAB_FILENAME = "vocab.tsv"
STATS_FILENAME = "stats.json"
MODEL_FILENAME = "model.txt"
TRAIN_REPORT_FILENAME = "report.json"
METRICS_FILENAME = "metrics.json"
CONFUSION_FILENAME = "confusion.csv"
GRID_JSON_FILENAME = "grid.json"
GRID_TABLE_FILENAME = "grid.txt"
CLASSIFIED_FILENAME = "classified.jsonl"
REPORT_JSON_FILENAME = "report.json"
REPORT_CSV_FILENAME = "report.csv"
MANIFEST_FILENAME = "manifest.json"

_TASKS = {"fine": TASK_FINE, "binary": TASK_BINARY}
_MODELS = {"standard": STANDARD, "bi": BIDIRECTIONAL}


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _positive_int(value: str) -> int:
    try:
        n = int(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{value!r} is not an integer") from exc
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _nonnegative_float(value: str) -> float:
    try:
        x = float(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{value!r} is not a number") from exc
    if x < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {x}")
    return x


def _dropout_rate(value: str) -> float:
    x = _nonnegative_float(value)
    if x >= 1.0:
        raise argparse.ArgumentTypeError(f"dropout rate must be in [0, 1), got {x}")
    return x


def _ratio(value: str) -> float:
    x = _nonnegative_float(value)
    if not 0.0 < x < 1.0:
        raise argparse.ArgumentTypeError(f"ratio must be in (0, 1), got {x}")
    return x


def _date_arg(value: str) -> datetime:
    try:
        d = date.fromisoformat(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{value!r} is not a YYYY-MM-DD date") from exc
    return datetime(d.year, d.month, d.day, tzinfo=timezone.utc)


def _manifest_value(value):
    if isinstance(value, Path):
        return str(value)
    if isinstance(value, datetime):
        return value.isoformat()
    return value


def _write_manifest(
    path: Path,
    subcommand: str,
    args: argparse.Namespace,
    inputs: list,
    outputs: list,
    seed: int | None,
    started: float,
    results: dict | None = None,
) -> None:
    """Write the run's manifest; `results` (optional) records figures of the
    run itself, such as the embed epoch losses at full precision."""
    config = {
        key: _manifest_value(val) for key, val in sorted(vars(args).items()) if key != "func"
    }
    manifest = {
        "subcommand": subcommand,
        "version": __version__,
        "config": config,
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "seed": seed,
        "duration_seconds": time.perf_counter() - started,
    }
    if results is not None:
        manifest["results"] = results
    with atomic_writer(path) as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _outdir(args: argparse.Namespace) -> Path:
    directory = Path(args.output)
    directory.mkdir(parents=True, exist_ok=True)
    return directory


def _load_embedding_bundle(path: Path):
    """Embedding matrix plus the Vocabulary implied by its token order."""
    emb, tokens = load_embeddings_with_tokens(path)
    return emb, Vocabulary(tokens=tokens)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_preprocess(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    raw = load_tweets(args.input)
    keywords = [k.strip() for k in args.keywords.split(",") if k.strip()] if args.keywords else []
    window_start = args.from_date
    window_end = args.to_date
    if window_end is not None:
        window_end = window_end.replace(hour=23, minute=59, second=59, microsecond=999999)
    if keywords or window_start is not None or window_end is not None:
        raw = filter_by_collection_window(
            raw,
            keywords=keywords,
            start=window_start or datetime.min.replace(tzinfo=timezone.utc),
            end=window_end or datetime.max.replace(tzinfo=timezone.utc),
        )
    stopwords = load_stopwords(args.stopwords) if args.stopwords else None
    config = PreprocessConfig.default(
        min_token_length=args.min_len,
        min_global_frequency=args.min_freq,
        **({"stopwords": stopwords} if stopwords is not None else {}),
    )
    clean, vocab, stats = preprocess_corpus(raw, config)

    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    save_clean_corpus(clean, outdir / CORPUS_FILENAME)
    save_vocabulary(vocab, outdir / VOCAB_FILENAME)
    save_stats(stats, outdir / STATS_FILENAME)
    _write_manifest(
        outdir / MANIFEST_FILENAME,
        "preprocess",
        args,
        inputs=[args.input] + ([args.stopwords] if args.stopwords else []),
        outputs=[outdir / CORPUS_FILENAME, outdir / VOCAB_FILENAME, outdir / STATS_FILENAME],
        seed=None,
        started=started,
    )
    print(
        f"raw {stats.raw_count} -> deduplicated {stats.deduplicated_count} -> "
        f"final {stats.final_count} tweets; vocabulary {stats.vocab_size} words"
    )
    return EXIT_OK


def cmd_embed(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    clean = load_clean_corpus(args.corpus)
    vocab = load_vocabulary(args.vocab)
    params = EmbeddingParams(
        dim=args.dim,
        window=args.window,
        negative_samples=args.negatives,
        epochs=args.epochs,
        subsample_threshold=args.subsample,
    )
    emb = train_embeddings(clean, vocab, params, RngState(seed=args.seed))
    output = Path(args.output)
    output.parent.mkdir(parents=True, exist_ok=True)
    save_embeddings(emb, vocab, output)
    _write_manifest(
        Path(str(output) + ".manifest.json"),
        "embed",
        args,
        inputs=[args.corpus, args.vocab],
        outputs=[output],
        seed=args.seed,
        started=started,
        results={"epoch_losses": emb.epoch_losses},
    )
    losses = ", ".join(f"{loss:.4f}" for loss in emb.epoch_losses)
    print(f"trained {emb.vocab_size} x {emb.dim} embeddings; epoch losses: {losses}")
    return EXIT_OK


def _prepare_dataset(args: argparse.Namespace, task: str):
    """Shared by train and grid: load, join, optionally balance, then split."""
    clean = load_clean_corpus(args.corpus)
    emb, vocab = _load_embedding_bundle(args.embeddings)
    labeled = load_annotations(args.annotations, clean)
    if task == TASK_BINARY:
        labeled = binary_subset(labeled)
    root = RngState(seed=args.seed)
    if args.balance_per_class is not None:
        labeled = balance_classes(labeled, args.balance_per_class, root.child(10))
    data = split(labeled, ratio=args.split_ratio, rng=root.child(11), stratified=args.split == "stratified")
    return clean, emb, vocab, data


def cmd_train(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    task = _TASKS[args.task]
    _, emb, vocab, data = _prepare_dataset(args, task)
    direction = _MODELS[args.model]
    if (direction, args.bptt) not in ((STANDARD, BPTT_TRUNCATED), (BIDIRECTIONAL, BPTT_FULL)):
        _warn(
            f"off-grid configuration: {args.model} with {args.bptt} BPTT is allowed "
            "but was not part of the reported grid"
        )
    if args.lr == 0:
        _warn("learning rate 0: parameters will not change during training")
    model_cfg = ModelConfig(
        embedding_dim=emb.dim,
        hidden_size=args.hidden,
        num_classes=2 if task == TASK_BINARY else 3,
        dropout_rate=args.dropout,
        direction=direction,
        bptt_mode=args.bptt,
        bptt_k=args.k,
    )
    train_cfg = TrainConfig(
        batch_size=args.batch,
        learning_rate=args.lr,
        epochs=args.epochs,
        seed=args.seed,
        task=task,
        balance_per_class=args.balance_per_class,
    )
    params, report = train(data, emb, vocab, model_cfg, train_cfg)

    outdir = _outdir(args)
    save_model(params, model_cfg, outdir / MODEL_FILENAME)
    save_report(report, outdir / TRAIN_REPORT_FILENAME)
    _write_manifest(
        outdir / MANIFEST_FILENAME,
        "train",
        args,
        inputs=[args.corpus, args.annotations, args.embeddings],
        outputs=[outdir / MODEL_FILENAME, outdir / TRAIN_REPORT_FILENAME],
        seed=args.seed,
        started=started,
    )
    print(
        f"trained {args.model} model for {report.epochs_run} epochs; "
        f"test accuracy {report.test_metrics.accuracy:.4f}, macro F1 {report.test_metrics.f1_macro:.4f}"
    )
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    params, model_cfg = load_model(args.model)
    clean = load_clean_corpus(args.corpus)
    emb, vocab = _load_embedding_bundle(args.embeddings)
    labeled = load_annotations(args.annotations, clean)
    classes = classes_for(model_cfg.num_classes)
    kept = [ex for ex in labeled if ex.label in classes]
    if len(kept) < len(labeled):
        _warn(f"dropping {len(labeled) - len(kept)} examples with labels outside {list(classes)}")
    if not kept:
        raise ValueError("no evaluable examples: every annotation is outside the model's classes")
    cm, metrics = evaluate(params, model_cfg, emb, vocab, kept, classes=classes)

    outdir = _outdir(args)
    save_metrics(metrics, outdir / METRICS_FILENAME)
    save_confusion(cm, outdir / CONFUSION_FILENAME)
    _write_manifest(
        outdir / MANIFEST_FILENAME,
        "eval",
        args,
        inputs=[args.model, args.corpus, args.annotations, args.embeddings],
        outputs=[outdir / METRICS_FILENAME, outdir / CONFUSION_FILENAME],
        seed=None,
        started=started,
    )
    print(f"accuracy {metrics.accuracy:.4f}")
    print(f"macro F1 {metrics.f1_macro:.4f}")
    return EXIT_OK


def cmd_grid(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    task = _TASKS[args.task]
    _, emb, vocab, data = _prepare_dataset(args, task)
    base_cfg = TrainConfig(
        learning_rate=args.lr,
        epochs=args.epochs,
        seed=args.seed,
        task=task,
        balance_per_class=args.balance_per_class,
    )
    result = run_grid(data, emb, vocab, task, base_cfg, hidden_size=args.hidden)

    outdir = _outdir(args)
    save_grid(result, outdir / GRID_JSON_FILENAME, outdir / GRID_TABLE_FILENAME)
    _write_manifest(
        outdir / MANIFEST_FILENAME,
        "grid",
        args,
        inputs=[args.corpus, args.annotations, args.embeddings],
        outputs=[outdir / GRID_JSON_FILENAME, outdir / GRID_TABLE_FILENAME],
        seed=args.seed,
        started=started,
    )
    print(result.format_table(), end="")
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    params, model_cfg = load_model(args.model)
    clean = load_clean_corpus(args.corpus)
    emb, vocab = _load_embedding_bundle(args.embeddings)
    classified = classify_corpus(params, model_cfg, emb, vocab, clean)
    distribution = sentiment_distribution(classified)
    buckets = temporal_buckets(classified, args.granularity)

    outdir = _outdir(args)
    save_classified(classified, outdir / CLASSIFIED_FILENAME)
    export_report(distribution, buckets, outdir / REPORT_JSON_FILENAME, format="json")
    export_report(distribution, buckets, outdir / REPORT_CSV_FILENAME, format="csv")
    _write_manifest(
        outdir / MANIFEST_FILENAME,
        "analyze",
        args,
        inputs=[args.model, args.corpus, args.embeddings],
        outputs=[outdir / CLASSIFIED_FILENAME, outdir / REPORT_JSON_FILENAME, outdir / REPORT_CSV_FILENAME],
        seed=None,
        started=started,
    )
    for label in ("positive", "negative", "neutral"):
        print(f"{label} {distribution.counts[label]} ({distribution.percentages[label]}%)")
    return EXIT_OK


def cmd_neighbors(args: argparse.Namespace) -> int:
    emb, tokens = load_embeddings_with_tokens(args.embeddings)
    vocab = load_vocabulary(args.vocab)
    if tokens != vocab.tokens:
        raise ValueError("embedding file and vocabulary list different tokens or a different order")
    for token, similarity in nearest_neighbors(emb, vocab, args.word, args.k):
        print(f"{token}\t{similarity:.6f}")
    return EXIT_OK


def cmd_gradcheck(args: argparse.Namespace) -> int:
    report = run_gradcheck(
        trials=args.trials,
        max_hidden=args.hidden,
        max_seq_len=args.seq_len,
        seed=args.seed,
        corrupt=args.corrupt,
    )
    for line in report.format_lines():
        print(line)
    return EXIT_OK if report.passed else EXIT_INTERNAL


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rnnsent",
        description="Tweet sentiment classification with from-scratch recurrent networks.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("preprocess", help="clean a raw tweet corpus and build the vocabulary")
    p.add_argument("--input", type=Path, required=True, help="raw corpus (JSONL or CSV with id,timestamp,text)")
    p.add_argument("--output-dir", type=Path, required=True)
    p.add_argument("--stopwords", type=Path, default=None, help="stopword list (default: packaged list)")
    p.add_argument("--min-freq", type=_positive_int, default=5, help="minimum corpus frequency (default 5)")
    p.add_argument("--min-len", type=_positive_int, default=3, help="minimum token length (default 3)")
    p.add_argument("--keywords", default="", help="comma-separated keyword filter (default: keep all)")
    p.add_argument("--from", dest="from_date", type=_date_arg, default=None, metavar="YYYY-MM-DD")
    p.add_argument("--to", dest="to_date", type=_date_arg, default=None, metavar="YYYY-MM-DD")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("embed", help="train skip-gram negative-sampling word embeddings")
    p.add_argument("--corpus", type=Path, required=True, help="clean corpus JSONL")
    p.add_argument("--vocab", type=Path, required=True, help="vocabulary TSV")
    p.add_argument("--dim", type=_positive_int, default=100)
    p.add_argument("--window", type=_positive_int, default=5)
    p.add_argument("--negatives", type=_positive_int, default=5)
    p.add_argument("--epochs", type=_positive_int, default=5)
    p.add_argument("--subsample", type=_nonnegative_float, default=1e-3, help="frequency threshold; 0 disables")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", type=Path, required=True, help="embedding file to write")
    p.set_defaults(func=cmd_embed)

    def add_dataset_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--corpus", type=Path, required=True, help="clean corpus JSONL")
        p.add_argument("--annotations", type=Path, required=True, help="id,label CSV")
        p.add_argument("--embeddings", type=Path, required=True)
        p.add_argument("--task", choices=sorted(_TASKS), default="fine")
        p.add_argument("--balance-per-class", type=_positive_int, default=None)
        p.add_argument("--split-ratio", type=_ratio, default=0.8)
        p.add_argument("--split", choices=("stratified", "global"), default="stratified")
        p.add_argument("--hidden", type=_positive_int, default=64)
        p.add_argument("--epochs", type=_positive_int, default=30)
        p.add_argument("--lr", type=_nonnegative_float, default=1.8e-3)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--output", type=Path, required=True, help="output directory")

    p = sub.add_parser("train", help="train a sentiment classifier")
    add_dataset_flags(p)
    p.add_argument("--model", choices=sorted(_MODELS), default="standard")
    p.add_argument("--batch", type=_positive_int, default=64)
    p.add_argument("--dropout", type=_dropout_rate, default=0.5)
    p.add_argument("--bptt", choices=(BPTT_FULL, BPTT_TRUNCATED), default=BPTT_TRUNCATED)
    p.add_argument("--k", type=_positive_int, default=50, help="truncated-BPTT window")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a trained model against annotations")
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--corpus", type=Path, required=True)
    p.add_argument("--annotations", type=Path, required=True)
    p.add_argument("--embeddings", type=Path, required=True)
    p.add_argument("--output", type=Path, required=True, help="output directory")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("grid", help="run the 8-cell hyperparameter grid")
    add_dataset_flags(p)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("analyze", help="classify the full corpus and bucket over time")
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--corpus", type=Path, required=True)
    p.add_argument("--embeddings", type=Path, required=True)
    p.add_argument("--granularity", choices=GRANULARITIES, default="month")
    p.add_argument("--output", type=Path, required=True, help="output directory")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("neighbors", help="nearest neighbors of a word by cosine similarity")
    p.add_argument("--embeddings", type=Path, required=True)
    p.add_argument("--vocab", type=Path, required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--k", type=_positive_int, default=5)
    p.set_defaults(func=cmd_neighbors)

    p = sub.add_parser("gradcheck", help="finite-difference check of the BPTT gradients")
    p.add_argument("--hidden", type=_positive_int, default=4, help="largest hidden size to draw")
    p.add_argument("--seq-len", type=_positive_int, default=8, help="longest sequence to draw")
    p.add_argument("--trials", type=_positive_int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--corrupt",
        action="store_true",
        help="perturb one analytic gradient per trial; a healthy checker must then fail",
    )
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TrainingDivergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - the CLI boundary maps everything to an exit code
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
