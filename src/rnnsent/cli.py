"""Command-line entry point exposing the pipeline as subcommands.

Every artifact-writing subcommand declares its input flags, its output flag
and its output names once, in SUBCOMMANDS. After such a subcommand succeeds,
`main` writes a manifest next to its outputs with the resolved configuration,
tool version, inputs, outputs, seed, and wall-clock duration, so a run can be
reproduced exactly from its manifest.

Exit codes: 0 success, 2 usage or input errors (bad flags, unreadable or
malformed files, config mismatches), 1 internal failures (diverged training,
failed gradient check, unexpected exceptions).
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import contextmanager
from datetime import date, datetime, timezone
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Sequence

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
    Corpus,
    PreprocessConfig,
    default_stopwords,
    filter_by_collection_window,
    load_clean_corpus,
    load_stopwords,
    load_tweets,
    load_vocabulary,
    preprocess_corpus,
    save_clean_corpus,
    save_stats,
    save_vocabulary,
    vocabulary_columns,
    write_json,
)
from .embedding import (
    EmbeddingParams,
    embedding_twin,
    load_embeddings,
    nearest_neighbors,
    save_embeddings,
    train_embeddings,
)
from .evaluation import BINARY_CLASSES, FINE_CLASSES, evaluate, save_confusion, save_metrics
from .gradcheck import run_gradcheck
from .model import (
    BIDIRECTIONAL,
    BPTT_FULL,
    BPTT_TRUNCATED,
    STANDARD,
    ModelConfig,
    check_embedding_dim,
    load_model,
    save_model,
)
from .numeric import RngState
from .training import (
    GRID_MODELS,
    NUM_CLASSES,
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

MANIFEST_FILENAME = "manifest.json"


class Spec(NamedTuple):
    """What an artifact-writing subcommand reads and writes.

    `inputs` are the flags naming its input files, in manifest order. With
    `names`, the `output` flag is a directory that receives those files and
    the manifest; without, it names the output file, and the manifest goes
    beside it as `<output>.manifest.json`. `twin`, if given, names the file
    that the writer of that output file writes beside it.
    """

    inputs: tuple[str, ...]
    output: str = "output"
    names: tuple[str, ...] = ()
    twin: Callable[[Path], Path] | None = None


SUBCOMMANDS = {
    "preprocess": Spec(("input", "stopwords"), "output_dir", ("corpus.jsonl", "vocab.tsv", "stats.json")),
    "embed": Spec(("corpus", "vocab"), twin=embedding_twin),
    "train": Spec(("corpus", "annotations", "embeddings"), names=("model.txt", "report.json")),
    "grid": Spec(("corpus", "annotations", "embeddings"), names=("grid.json", "grid.txt")),
    "eval": Spec(("model", "corpus", "annotations", "embeddings"), names=("metrics.json", "confusion.csv")),
    "analyze": Spec(("model", "corpus", "embeddings"), names=("classified.jsonl", "report.json", "report.csv")),
}

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


@contextmanager
def _naming(path: Path) -> Iterator[None]:
    """Put `path` in front of the message of an input error raised inside; a diverged run passes as it is."""
    try:
        yield
    except TrainingDivergedError:
        raise
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _manifest_value(value):
    if isinstance(value, Path):
        return str(value)
    if isinstance(value, datetime):
        return value.isoformat()
    return value


def _outputs(args: argparse.Namespace) -> list[Path]:
    """The files the subcommand writes, as its Spec names them; creates their directory."""
    spec = SUBCOMMANDS[args.subcommand]
    target = getattr(args, spec.output)
    paths = [target / name for name in spec.names] if spec.names else [target]
    if spec.twin is not None:
        paths.append(spec.twin(target))
    paths[0].parent.mkdir(parents=True, exist_ok=True)
    return paths


def _write_manifest(args: argparse.Namespace, started: float, results: dict | None = None) -> None:
    """Write the manifest of a successful run of an artifact-writing subcommand.

    The inputs, outputs and manifest path come from the subcommand's Spec, the
    seed from its --seed flag if it has one; `results` (optional) records
    figures of the run itself, such as the embed epoch losses at full precision.
    """
    spec = SUBCOMMANDS[args.subcommand]
    target = getattr(args, spec.output)
    inputs = [getattr(args, flag) for flag in spec.inputs]
    config = {
        key: _manifest_value(val) for key, val in sorted(vars(args).items()) if key != "func"
    }
    manifest = {
        "subcommand": args.subcommand,
        "version": __version__,
        "config": config,
        "inputs": [str(p) for p in inputs if p is not None],
        "outputs": [str(p) for p in _outputs(args)],
        "seed": getattr(args, "seed", None),
        "duration_seconds": time.perf_counter() - started,
    }
    if results is not None:
        manifest["results"] = results
    path = target / MANIFEST_FILENAME if spec.names else Path(f"{target}.manifest.json")
    write_json(path, manifest)


# ---------------------------------------------------------------------------
# Subcommands. One listed in SUBCOMMANDS returns the figures that its manifest
# records under "results", or None; it raises on failure.
# ---------------------------------------------------------------------------


def cmd_preprocess(args: argparse.Namespace) -> None:
    raw = load_tweets(args.input)
    keywords = [k.strip() for k in args.keywords.split(",") if k.strip()]
    if keywords or args.from_date or args.to_date:
        first, last = datetime.min.replace(tzinfo=timezone.utc), datetime.max.replace(tzinfo=timezone.utc)
        if args.to_date:  # the last day kept
            last = args.to_date.replace(hour=23, minute=59, second=59, microsecond=999999)
        raw = filter_by_collection_window(raw, keywords, args.from_date or first, last)
    config = PreprocessConfig(
        stopwords=load_stopwords(args.stopwords) if args.stopwords else default_stopwords(),
        min_token_length=args.min_len,
        min_global_frequency=args.min_freq,
    )
    clean, vocab, stats = preprocess_corpus(raw, config)

    corpus_path, vocab_path, stats_path = _outputs(args)
    save_clean_corpus(clean, corpus_path)
    save_vocabulary(vocab, vocab_path)
    save_stats(stats, stats_path)
    print(
        f"raw {stats.raw_count} -> deduplicated {stats.deduplicated_count} -> "
        f"final {stats.final_count} tweets; vocabulary {stats.vocab_size} words"
    )


def cmd_embed(args: argparse.Namespace) -> dict:
    clean = load_clean_corpus(args.corpus)
    vocab = load_vocabulary(args.vocab)
    params = EmbeddingParams(
        dim=args.dim,
        window=args.window,
        negative_samples=args.negatives,
        epochs=args.epochs,
        subsample_threshold=args.subsample,
    )
    with _naming(args.vocab):  # the vocabulary does not cover the corpus, or holds no words or counts
        emb = train_embeddings(clean, vocab, params, RngState(seed=args.seed))
    output, _ = _outputs(args)
    save_embeddings(emb, output)
    losses = ", ".join(f"{loss:.4f}" for loss in emb.epoch_losses)
    print(f"trained {len(emb.vocab)} x {emb.dim} embeddings; epoch losses: {losses}")
    return {"epoch_losses": emb.epoch_losses}


def _class_annotations(path: Path, corpus: Corpus, num_classes: int):
    """Shared by train, grid and eval: the rows and labels of `path` among a model's classes,
    FINE_CLASSES[:num_classes], with a warning if any are dropped; an input error if none is left."""
    rows, labels = load_annotations(path, corpus)
    total = len(labels)
    if not total:
        raise ValueError(f"{path}: holds no annotations")
    if num_classes == len(BINARY_CLASSES):
        rows, labels = binary_subset(rows, labels)
    if len(labels) < total:
        _warn(f"dropping {total - len(labels)} examples with labels outside {list(FINE_CLASSES[:num_classes])}")
    if not len(labels):
        raise ValueError(f"{path}: no evaluable examples: every annotation is outside the model's classes")
    return rows, labels


def _prepare_dataset(args: argparse.Namespace, task: str):
    """Shared by train and grid: load, join, keep the task's classes, optionally balance, then split."""
    clean = load_clean_corpus(args.corpus)
    emb = load_embeddings(args.embeddings)
    rows, labels = _class_annotations(args.annotations, clean, NUM_CLASSES[task])
    root = RngState(seed=args.seed)
    with _naming(args.annotations):  # too few annotated tweets, in all or in a class, to sample or split
        if args.balance_per_class is not None:
            rows, labels = balance_classes(rows, labels, args.balance_per_class, root.child(10))
        data = split(clean, rows, labels, ratio=args.split_ratio, rng=root.child(11), stratified=args.split == "stratified")
    return emb, data


def _load_classifier(args: argparse.Namespace):
    """Shared by eval and analyze: the model, and the embeddings it is run on,
    whose dimension must be the model's input size."""
    params, model_cfg = load_model(args.model)
    emb = load_embeddings(args.embeddings)
    try:
        check_embedding_dim(emb, model_cfg)
    except ValueError as exc:
        raise ValueError(f"{args.embeddings} does not fit the model {args.model}: {exc}") from exc
    return params, model_cfg, emb


def cmd_train(args: argparse.Namespace) -> None:
    task = _TASKS[args.task]
    emb, data = _prepare_dataset(args, task)
    direction = _MODELS[args.model]
    if (direction, args.bptt) not in GRID_MODELS:
        _warn(
            f"off-grid configuration: {args.model} with {args.bptt} BPTT is allowed "
            "but was not part of the reported grid"
        )
    if args.lr == 0:
        _warn("learning rate 0: parameters will not change during training")
    model_cfg = ModelConfig(
        embedding_dim=emb.dim,
        hidden_size=args.hidden,
        num_classes=NUM_CLASSES[task],
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
    )
    with _naming(args.embeddings):  # a training tweet has no token in the embeddings' vocabulary
        params, report = train(data, emb, model_cfg, train_cfg)

    model_path, report_path = _outputs(args)
    save_model(params, model_cfg, model_path)
    save_report(report, report_path)
    print(
        f"trained {args.model} model for {len(report.epoch_losses)} epochs; "
        f"test accuracy {report.test_metrics.accuracy:.4f}, macro F1 {report.test_metrics.f1_macro:.4f}"
    )


def cmd_eval(args: argparse.Namespace) -> None:
    params, model_cfg, emb = _load_classifier(args)
    clean = load_clean_corpus(args.corpus)
    rows, labels = _class_annotations(args.annotations, clean, model_cfg.num_classes)
    cm, metrics = evaluate(params, model_cfg, emb, clean.take(rows), labels)

    metrics_path, confusion_path = _outputs(args)
    save_metrics(metrics, metrics_path)
    save_confusion(cm, confusion_path)
    print(f"accuracy {metrics.accuracy:.4f}")
    print(f"macro F1 {metrics.f1_macro:.4f}")


def cmd_grid(args: argparse.Namespace) -> None:
    task = _TASKS[args.task]
    emb, data = _prepare_dataset(args, task)
    base_cfg = TrainConfig(learning_rate=args.lr, epochs=args.epochs, seed=args.seed)
    with _naming(args.embeddings):  # a training tweet has no token in the embeddings' vocabulary
        result = run_grid(data, emb, task, base_cfg, hidden_size=args.hidden)

    save_grid(result, *_outputs(args))
    print(result.format_table(), end="")


def cmd_analyze(args: argparse.Namespace) -> None:
    params, model_cfg, emb = _load_classifier(args)
    clean = load_clean_corpus(args.corpus)
    with _naming(args.corpus):  # the corpus is empty
        labels, confidences, oov = classify_corpus(params, model_cfg, emb, clean)
    distribution = sentiment_distribution(labels)
    buckets = temporal_buckets(clean, labels, args.granularity)

    classified_path, json_path, csv_path = _outputs(args)
    save_classified(clean, labels, confidences, oov, classified_path)
    export_report(distribution, buckets, json_path, csv_path)
    for label in FINE_CLASSES:
        print(f"{label} {distribution.counts[label]} ({distribution.percentages[label]}%)")


def cmd_neighbors(args: argparse.Namespace) -> int:
    emb = load_embeddings(args.embeddings)
    emb_tokens = emb.vocab.tokens
    # the counts of vocab.tsv are checked but not used, so no Vocabulary is built
    vocab_tokens, _ = vocabulary_columns(args.vocab)
    if list(emb_tokens) != vocab_tokens:
        row = next((r for r, (a, b) in enumerate(zip(emb_tokens, vocab_tokens)) if a != b), None)
        where = (
            f"{args.embeddings} holds {len(emb_tokens)} tokens, {args.vocab} {len(vocab_tokens)}" if row is None
            else f"index {row} is {emb_tokens[row]!r} in {args.embeddings} and {vocab_tokens[row]!r} in {args.vocab}"
        )
        raise ValueError(f"embedding file and vocabulary list different tokens or a different order: {where}")
    # every query is answered before anything prints, so a bad word leaves no partial output
    answers = [(word, nearest_neighbors(emb, word, args.k)) for word in args.word]
    for number, (word, neighbors) in enumerate(answers):
        if len(answers) > 1:
            print(f"# {word}" if number == 0 else f"\n# {word}")
        for token, similarity in neighbors:
            print(f"{token}\t{similarity:.6f}")
    return EXIT_OK


def cmd_gradcheck(args: argparse.Namespace) -> int:
    if args.hidden < 2:  # each trial draws its hidden size from [2, --hidden]
        raise ValueError(f"--hidden must be >= 2, got {args.hidden}")
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


def _preprocess_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", type=Path, required=True, help="raw corpus (JSONL or CSV with id,timestamp,text)")
    p.add_argument("--output-dir", type=Path, required=True)
    p.add_argument("--stopwords", type=Path, default=None, help="stopword list (default: packaged list)")
    p.add_argument("--min-freq", type=_positive_int, default=5, help="minimum corpus frequency (default 5)")
    p.add_argument("--min-len", type=_positive_int, default=3, help="minimum token length (default 3)")
    p.add_argument("--keywords", default="", help="comma-separated keyword filter (default: keep all)")
    p.add_argument("--from", dest="from_date", type=_date_arg, default=None, metavar="YYYY-MM-DD")
    p.add_argument("--to", dest="to_date", type=_date_arg, default=None, metavar="YYYY-MM-DD")


def _embed_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--corpus", type=Path, required=True, help="clean corpus JSONL")
    p.add_argument("--vocab", type=Path, required=True, help="vocabulary TSV")
    p.add_argument("--dim", type=_positive_int, default=100)
    p.add_argument("--window", type=_positive_int, default=5)
    p.add_argument("--negatives", type=_positive_int, default=5)
    p.add_argument("--epochs", type=_positive_int, default=5)
    p.add_argument("--subsample", type=_nonnegative_float, default=1e-3, help="frequency threshold; 0 disables")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", type=Path, required=True, help="embedding file to write")


def _dataset_arguments(p: argparse.ArgumentParser) -> None:
    """The flags of grid, which train shares."""
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


def _train_arguments(p: argparse.ArgumentParser) -> None:
    _dataset_arguments(p)
    p.add_argument("--model", choices=sorted(_MODELS), default="standard")
    p.add_argument("--batch", type=_positive_int, default=64)
    p.add_argument("--dropout", type=_dropout_rate, default=0.5)
    p.add_argument("--bptt", choices=(BPTT_FULL, BPTT_TRUNCATED), default=BPTT_TRUNCATED)
    p.add_argument("--k", type=_positive_int, default=50, help="truncated-BPTT window")


def _eval_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--corpus", type=Path, required=True)
    p.add_argument("--annotations", type=Path, required=True)
    p.add_argument("--embeddings", type=Path, required=True)
    p.add_argument("--output", type=Path, required=True, help="output directory")


def _analyze_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--corpus", type=Path, required=True)
    p.add_argument("--embeddings", type=Path, required=True)
    p.add_argument("--granularity", choices=GRANULARITIES, default="month")
    p.add_argument("--output", type=Path, required=True, help="output directory")


def _neighbors_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--embeddings", type=Path, required=True)
    p.add_argument("--vocab", type=Path, required=True)
    p.add_argument(
        "--word", required=True, action="extend", nargs="+",
        help="query word; give several to answer them all from one load, one block per word",
    )
    p.add_argument("--k", type=_positive_int, default=5)


def _gradcheck_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--hidden", type=_positive_int, default=4, help="largest hidden size to draw, >= 2")
    p.add_argument("--seq-len", type=_positive_int, default=8, help="longest sequence to draw")
    p.add_argument("--trials", type=_positive_int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--corrupt",
        action="store_true",
        help="perturb one analytic gradient per trial; a healthy checker must then fail",
    )


def build_parser(argv: Sequence[str] = ()) -> argparse.ArgumentParser:
    """The parser of the rnnsent command line, for parsing `argv`.

    Every subcommand is listed, with its help. When the first word of `argv`
    names one, only that one gets its arguments, since no other subcommand's
    parser reads any of `argv`: a process parses once, and this spares it
    building the other seven. Otherwise, as for no argument, --help,
    --version or an unknown subcommand, all of them get theirs.
    """
    parser = argparse.ArgumentParser(
        prog="rnnsent",
        description="Tweet sentiment classification with from-scratch recurrent networks.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    # name -> (help, the function that adds its arguments, the function that runs it),
    # in help order; built per call, so a cmd_ function rebound since import is the one run
    commands = {
        "preprocess": ("clean a raw tweet corpus and build the vocabulary", _preprocess_arguments, cmd_preprocess),
        "embed": ("train skip-gram negative-sampling word embeddings", _embed_arguments, cmd_embed),
        "train": ("train a sentiment classifier", _train_arguments, cmd_train),
        "eval": ("score a trained model against annotations", _eval_arguments, cmd_eval),
        "grid": ("run the 8-cell hyperparameter grid", _dataset_arguments, cmd_grid),
        "analyze": ("classify the full corpus and bucket over time", _analyze_arguments, cmd_analyze),
        "neighbors": ("nearest neighbors of a word by cosine similarity", _neighbors_arguments, cmd_neighbors),
        "gradcheck": ("finite-difference check of the BPTT gradients", _gradcheck_arguments, cmd_gradcheck),
    }
    named = argv[0] if argv and argv[0] in commands else None
    for name, (help_text, add_arguments, run) in commands.items():
        built = named in (None, name)
        # -h is an argument too, which a parser that reads nothing need not have
        p = sub.add_parser(name, help=help_text, add_help=built)
        if built:
            add_arguments(p)
            p.set_defaults(func=run)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    started = time.perf_counter()
    try:
        if args.subcommand not in SUBCOMMANDS:
            return args.func(args)
        _write_manifest(args, started, results=args.func(args))
        return EXIT_OK
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
