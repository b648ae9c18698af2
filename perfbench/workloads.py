"""The three workloads: their inputs, one round of subcommands, and the checks.

A workload object is built once per run. `setup` writes the inputs and sets
`work`, what one round does in each stage; `round` runs the subcommands once,
in order, and returns each stage's calls as (start, end) times; `check`
compares the outputs of the last round with the benchmark's own reference
and with the properties planted in the inputs. Every check is also fed a
deliberately wrong answer and must reject it.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import time
from collections import Counter
from pathlib import Path

import numpy as np

import gen
import reference as ref

EMBED_NEGATIVES = 5  # the embed defaults: dim 100, window 5, 5 negatives
EMBED_EPOCHS = 2  # not the default 5, so that one round fits in one run
NEIGHBORS_K = 5
PREPROCESS_REPEATS = 5
QUERIES_PER_TOPIC = 3


class Ledger:
    """Operations attempted and failed; a failed check also makes the run incorrect."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}")
        return ok

    def verify(self, ok: bool, what: str) -> None:
        if not self.op(ok, what):
            self.correct = False

    def check(self, name: str, verdict, wrong_verdict) -> None:
        """`verdict` judges the real output, `wrong_verdict` a deliberately wrong one."""
        self.verify(verdict[0], f"check {name}: {verdict[1]}")
        self.verify(not wrong_verdict[0], f"control {name}: a wrong answer passed ({wrong_verdict[1]})")


def run_cli(argv: list[str]) -> tuple[int, tuple[float, float], str]:
    """One subcommand in process: (exit code, (start, end), stdout)."""
    import rnnsent.cli

    out = io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = rnnsent.cli.main(argv)
    return code, (started, time.perf_counter()), out.getvalue()


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def digests(paths, base: Path) -> dict[str, str]:
    """Relative path -> sha256 of each file."""
    return {str(p.relative_to(base)): sha256(p) for p in paths}


def check_identical(ledger, name: str, records: list[dict]) -> None:
    """Every digest record must equal the first; the control alters one digest."""
    def verdict(recs):
        return all(r == recs[0] for r in recs), f"{sum(r != recs[0] for r in recs)} of {len(recs)} differ"

    first = records[0]
    ledger.check(name, verdict(records), verdict(records + [{**first, next(iter(first)): "0" * 64}]))


def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text(encoding="utf-8").splitlines() if line.strip()]


def _close(a: float, b: float, tol: float = 1e-12) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# train-tweets and train-long
# ---------------------------------------------------------------------------


class ClassifierWorkload:
    """train (standard, truncated BPTT) -> train (bidirectional, full BPTT)
    -> eval (standard) -> analyze (standard) -> analyze (bidirectional)."""

    stage_names = ("train_std_ex_per_s", "train_bi_ex_per_s", "classify_tweets_per_s")
    stage_units = ("examples/s", "examples/s", "tweets/s")
    loss_names = ("train_std_loss", "train_bi_loss")

    def __init__(self, generator, n_per_class, n_stream, epochs, batch, lr, work: Path, seed: int):
        self.generator = generator
        self.n_per_class, self.n_stream = n_per_class, n_stream
        self.epochs, self.batch, self.lr = epochs, batch, lr
        self.inputs, self.out, self.seed = work / "inputs", work / "out", seed

    def setup(self) -> None:
        self.planted = self.generator(self.inputs, self.seed, self.n_per_class, self.n_stream)
        # the stratified 80/20 split keeps floor(0.8 n) of each label for training
        per_label = Counter(self.planted["labels"].values())
        self.n_train = sum(math.floor(0.8 * n) for n in per_label.values())
        self.work = {"stage1": self.n_train * self.epochs, "stage2": self.n_train * self.epochs,
                     "stage3": 2 * self.planted["n_stream"]}

    def _train(self, tag: str, model: str, bptt: str) -> tuple[int, tuple[float, float], str]:
        i = self.inputs
        return run_cli([
            "train", "--corpus", str(i / "labeled.jsonl"), "--annotations", str(i / "annotations.csv"),
            "--embeddings", str(i / "embeddings.txt"), "--model", model, "--bptt", bptt, "--k", "50",
            "--hidden", "64", "--dropout", "0.5", "--batch", str(self.batch), "--lr", str(self.lr),
            "--epochs", str(self.epochs), "--seed", str(self.seed), "--output", str(self.out / tag),
        ])

    def _analyze(self, tag: str) -> tuple[int, tuple[float, float], str]:
        return run_cli([
            "analyze", "--model", str(self.out / tag / "model.txt"), "--corpus", str(self.inputs / "stream.jsonl"),
            "--embeddings", str(self.inputs / "embeddings.txt"), "--output", str(self.out / f"analyze-{tag}"),
        ])

    def round(self, ledger: Ledger) -> dict[str, list[tuple[float, float]]]:
        i = self.inputs
        windows: dict[str, list[tuple[float, float]]] = {"stage1": [], "stage2": [], "stage3": [], "other": []}
        for stage, label, call in (
            ("stage1", "std", lambda: self._train("std", "standard", "truncated")),
            ("stage2", "bi", lambda: self._train("bi", "bi", "full")),
            ("other", "eval", lambda: run_cli([
                "eval", "--model", str(self.out / "std" / "model.txt"), "--corpus", str(i / "labeled.jsonl"),
                "--annotations", str(i / "annotations.csv"), "--embeddings", str(i / "embeddings.txt"),
                "--output", str(self.out / "eval"),
            ])),
            ("stage3", "analyze-std", lambda: self._analyze("std")),
            ("stage3", "analyze-bi", lambda: self._analyze("bi")),
        ):
            code, window, _ = call()
            ledger.op(code == 0, f"{label} exited with {code}")
            windows[stage].append(window)
        return windows

    def artifacts(self) -> list[Path]:
        return [self.out / "std" / "model.txt", self.out / "bi" / "model.txt",
                self.out / "analyze-std" / "classified.jsonl", self.out / "analyze-bi" / "classified.jsonl"]

    def losses(self) -> tuple[float, float]:
        return tuple(self._report(tag)["epoch_losses"][-1] for tag in ("std", "bi"))

    def _report(self, tag: str) -> dict:
        return json.loads((self.out / tag / "report.json").read_text(encoding="utf-8"))

    # -- checks -------------------------------------------------------------

    def check(self, ledger: Ledger) -> None:
        tokens, matrix = ref.read_embeddings(self.inputs / "embeddings.txt")
        index = {t: j for j, t in enumerate(tokens)}
        embed = lambda toks: np.array([matrix[index[t]] for t in toks if t in index]).reshape(-1, matrix.shape[1])
        labeled = read_jsonl(self.inputs / "labeled.jsonl")
        stream = read_jsonl(self.inputs / "stream.jsonl")
        models = {tag: ref.read_model(self.out / tag / "model.txt")[1] for tag in ("std", "bi")}

        for tag in ("std", "bi"):
            report = self._report(tag)
            losses, acc = report["epoch_losses"], report["test_metrics"]["accuracy"]
            ledger.check(f"{tag} training loss falls", _loss_falls(losses), _loss_falls(losses[::-1]))
            ledger.check(f"{tag} held-out accuracy above chance", _above_chance(acc), _above_chance(1 / 3))
            n_test = self.planted["n_labeled"] - self.n_train
            held_out = report["test_metrics"]["total"]
            ledger.check(f"{tag} split sizes", _held_out(held_out, n_test), _held_out(held_out, n_test + 1))

            classified = read_jsonl(self.out / f"analyze-{tag}" / "classified.jsonl")
            params = models[tag]
            ledger.check(
                f"analyze-{tag} matches the reference",
                _classified_match(params, embed, stream, classified),
                _classified_match(_perturbed(params), embed, stream[:200], classified[:200]),
            )
            oov = self.planted["n_stream_oov"]
            ledger.check(f"analyze-{tag} out-of-vocabulary tweets", _oov_count(classified, oov), _oov_count(classified, oov + 1))
            dist = json.loads((self.out / f"analyze-{tag}" / "report.json").read_text(encoding="utf-8"))
            csv_rows = list(csv.DictReader((self.out / f"analyze-{tag}" / "report.csv").open(encoding="utf-8")))
            wrong = json.loads(json.dumps(dist))
            wrong["distribution"]["counts"]["neutral"] += 1
            ledger.check(f"analyze-{tag} report sums", _report_sums(dist, csv_rows, classified), _report_sums(wrong, csv_rows, classified))

        seqs = [embed(t["tokens"]) for t in labeled]
        golds = [self.planted["labels"][t["id"]] for t in labeled]
        preds = [ref.CLASSES[j] for j in ref.probabilities(models["std"], seqs).argmax(axis=1)]
        metrics = json.loads((self.out / "eval" / "metrics.json").read_text(encoding="utf-8"))
        confusion = list(csv.reader((self.out / "eval" / "confusion.csv").open(encoding="utf-8")))
        flipped = list(preds)
        flipped[0] = next(c for c in ref.CLASSES if c != preds[0])
        ledger.check("eval recount", _eval_recount(golds, preds, metrics, confusion), _eval_recount(golds, flipped, metrics, confusion))

        self._check_gradients(ledger, models, seqs, golds)

    def _check_gradients(self, ledger: Ledger, models, seqs, golds) -> None:
        from rnnsent.model import backward_full, backward_truncated, forward, load_model

        gen_ = gen.rng_for(self.seed, 7)
        picks = gen_.choice(len(seqs), size=2, replace=False)
        long_pick = next((j for j in gen_.permutation(len(seqs)) if len(seqs[j]) > 50), None)
        for tag in ("std", "bi"):
            params, config = load_model(self.out / tag / "model.txt")
            for j in picks:
                seq, target = seqs[j], ref.CLASSES.index(golds[j])
                trace = forward(params, config, list(seq), train=False)
                analytic = backward_full(params, config, trace, list(seq), target)
                numeric = _central_differences(models[tag], seq, target, gen_)
                ledger.check(
                    f"{tag} gradient vs central differences (T={len(seq)})",
                    _gradients_agree(analytic, numeric, 1e-4),
                    _gradients_agree(_perturbed_grads(analytic, numeric), numeric, 1e-4),
                )
            # truncated BPTT against the reference truncation: on train-long the
            # window cuts; on train-tweets it never does and equals full BPTT
            j = long_pick if long_pick is not None else picks[0]
            seq, target = seqs[j], ref.CLASSES.index(golds[j])
            trace = forward(params, config, list(seq), train=False)
            program = backward_truncated(params, config, trace, list(seq), target, k=50)
            exact, short = (
                {name: (g, None) for name, g in ref.gradients(models[tag], seq, target, k=k).items()}
                for k in (50, min(len(seq), 50) - 1)
            )
            ledger.check(
                f"{tag} truncated gradient vs reference (T={len(seq)}, k=50)",
                _gradients_agree(program, exact, 1e-9),
                _gradients_agree(program, short, 1e-9),
            )


def _loss_falls(losses):
    return losses[-1] < losses[0], f"epoch losses {losses}"


def _held_out(count, planted):
    return count == planted, f"{count} held-out examples, {planted} by the planted labels"


def _above_chance(acc):
    return acc >= 0.55, f"held-out accuracy {acc:.4f} (chance 1/3, floor 0.55)"


def _perturbed(params: dict) -> dict:
    out = {k: v.copy() for k, v in params.items()}
    out["w_hy"][0, 0] += 1e-6
    return out


def _classified_match(params, embed, stream, classified, tol=1e-9):
    if [c["id"] for c in classified] != [t["id"] for t in stream]:
        return False, "classified ids differ from the corpus"
    seqs = [embed(t["tokens"]) for t in stream]
    live = [j for j, s in enumerate(seqs) if len(s)]
    probs = ref.probabilities(params, [seqs[j] for j in live])
    expect = {j: (ref.CLASSES[int(p.argmax())], float(p.max()), False) for j, p in zip(live, probs)}
    worst = 0.0
    for j, c in enumerate(classified):
        label, conf, oov = expect.get(j, ("neutral", 0.0, True))
        if c["label"] != label or c["oov"] != oov:
            return False, f"tweet {c['id']}: {c['label']}/{c['oov']}, reference {label}/{oov}"
        worst = max(worst, abs(c["confidence"] - conf))
    return worst <= tol, f"largest confidence difference {worst:.3e} (tolerance {tol:g})"


def _oov_count(classified, planted: int):
    oov = [c for c in classified if c["oov"]]
    ok = len(oov) == planted and all(c["label"] == "neutral" and c["confidence"] == 0.0 for c in oov)
    return ok, f"{len(oov)} tweets flagged oov, {planted} planted"


def _report_sums(report, csv_rows, classified):
    dist = report["distribution"]
    tallies = {c: sum(r["label"] == c for r in classified) for c in ref.CLASSES}
    columns = {c: sum(b[c] for b in report["buckets"]) for c in ref.CLASSES}
    csv_columns = {c: sum(int(r[c]) for r in csv_rows) for c in ref.CLASSES}
    ok = (
        sum(dist["counts"].values()) == dist["total"] == len(classified)
        and dist["counts"] == tallies == columns == csv_columns
    )
    return ok, f"distribution {dist['counts']} total {dist['total']}, labels {tallies}, buckets {columns}"


def _eval_recount(golds, preds, metrics, confusion_rows):
    counts = [[sum(g == a and p == b for g, p in zip(golds, preds)) for b in ref.CLASSES] for a in ref.CLASSES]
    n = len(golds)
    accuracy = sum(counts[i][i] for i in range(3)) / n
    f1 = []
    for i in range(3):
        col, row = sum(counts[r][i] for r in range(3)), sum(counts[i])
        p = counts[i][i] / col if col else 0.0
        r = counts[i][i] / row if row else 0.0
        f1.append(2 * p * r / (p + r) if p + r else 0.0)
    file_counts = [[int(x) for x in row[1:]] for row in confusion_rows[1:]]
    ok = (
        file_counts == counts
        and _close(metrics["accuracy"], accuracy)
        and _close(metrics["f1_macro"], sum(f1) / 3)
        and metrics["total"] == n
    )
    return ok, f"recount accuracy {accuracy:.6f} macro F1 {sum(f1) / 3:.6f}, eval says {metrics['accuracy']:.6f} {metrics['f1_macro']:.6f}"


COORDS_PER_ARRAY = 8


def _central_differences(params, seq, target, gen_, eps=1e-5) -> dict:
    """name -> (values, flat indices) at a few sampled entries of each array."""
    out = {}
    for name, arr in params.items():
        picks = gen_.choice(arr.size, size=min(COORDS_PER_ARRAY, arr.size), replace=False)
        values = []
        for j in picks:
            flat = arr.reshape(-1)
            original = flat[j]
            flat[j] = original + eps
            plus = ref.loss(params, seq, target)
            flat[j] = original - eps
            minus = ref.loss(params, seq, target)
            flat[j] = original
            values.append((plus - minus) / (2 * eps))
        out[name] = (np.array(values), picks)
    return out


def _gradients_agree(analytic: dict, expected: dict, tol: float):
    """Largest |a - e| / max(|a| + |e|, 1e-4) over the expected entries
    (all entries where no indices are given)."""
    if set(analytic) != set(expected):
        return False, f"parameter names differ: {sorted(analytic)} vs {sorted(expected)}"
    worst, where = 0.0, ""
    for name, (values, picks) in expected.items():
        a = np.asarray(analytic[name]).reshape(-1)
        a = a if picks is None else a[picks]
        e = np.asarray(values).reshape(-1)
        err = float(np.max(np.abs(a - e) / np.maximum(np.abs(a) + np.abs(e), 1e-4)))
        if err > worst:
            worst, where = err, name
    return worst <= tol, f"largest relative error {worst:.3e} in {where or '-'} (tolerance {tol:g})"


def _perturbed_grads(analytic: dict, numeric: dict) -> dict:
    out = {k: np.array(v, copy=True) for k, v in analytic.items()}
    name = max(numeric, key=lambda n: float(np.max(np.abs(numeric[n][0]))))
    values, picks = numeric[name]
    j = int(picks[int(np.argmax(np.abs(values)))])
    out[name].reshape(-1)[j] *= 1.01
    return out


# ---------------------------------------------------------------------------
# text-embed
# ---------------------------------------------------------------------------


class EmbedWorkload:
    """preprocess (PREPROCESS_REPEATS times) -> embed (paper defaults, for
    EMBED_EPOCHS epochs) -> neighbors of QUERIES_PER_TOPIC words of each topic.

    A cleaning pass takes a fraction of a second against the seconds of
    embed, so it is repeated to be timed over a longer span.
    """

    stage_names = ("preprocess_tweets_per_s", "embed_tokens_per_s", "neighbors_queries_per_s")
    stage_units = ("raw tweets/s", "tokens/s", "queries/s")
    loss_names = ("embed_loss", "embed_loss_epoch1")

    def __init__(self, n_tweets: int, work: Path, seed: int):
        self.n_tweets = n_tweets
        self.inputs, self.out, self.seed = work / "inputs", work / "out", seed

    def setup(self) -> None:
        self.planted = gen.raw_collection(self.inputs, self.seed, self.n_tweets)
        self.queries = [w for topic in self.planted["topics"] for w in topic[: QUERIES_PER_TOPIC]]
        self.work = {"stage1": PREPROCESS_REPEATS * self.planted["stats"]["raw_count"],
                     "stage2": self.planted["clean_tokens"] * EMBED_EPOCHS, "stage3": len(self.queries)}

    def round(self, ledger: Ledger) -> dict[str, list[tuple[float, float]]]:
        pre, emb = self.out / "pre", self.out / "embeddings.txt"
        windows: dict[str, list[tuple[float, float]]] = {"stage1": [], "stage2": [], "stage3": []}
        for _ in range(PREPROCESS_REPEATS):
            code, window, _ = run_cli(["preprocess", "--input", str(self.inputs / "raw.jsonl"), "--output-dir", str(pre)])
            ledger.op(code == 0, f"preprocess exited with {code}")
            windows["stage1"].append(window)
        code, window, out = run_cli([
            "embed", "--corpus", str(pre / "corpus.jsonl"), "--vocab", str(pre / "vocab.tsv"),
            "--epochs", str(EMBED_EPOCHS), "--seed", str(self.seed), "--output", str(emb),
        ])
        ledger.op(code == 0, f"embed exited with {code}")
        windows["stage2"].append(window)
        self.embed_stdout = out
        self.neighbors = {}
        for word in self.queries:
            code, window, out = run_cli([
                "neighbors", "--embeddings", str(emb), "--vocab", str(pre / "vocab.tsv"), "--word", word, "--k", str(NEIGHBORS_K),
            ])
            ledger.op(code == 0, f"neighbors {word} exited with {code}")
            windows["stage3"].append(window)
            self.neighbors[word] = [(tok, float(sim)) for tok, sim in (line.split("\t") for line in out.splitlines())]
        return windows

    def artifacts(self) -> list[Path]:
        pre = self.out / "pre"
        return [pre / "corpus.jsonl", pre / "vocab.tsv", self.out / "embeddings.txt"]

    def epoch_losses(self) -> list[float]:
        return [float(x) for x in self.embed_stdout.rsplit("epoch losses:", 1)[1].split(",")]

    def losses(self) -> tuple[float, float]:
        losses = self.epoch_losses()
        return losses[-1], losses[0]

    def check(self, ledger: Ledger) -> None:
        planted, pre = self.planted, self.out / "pre"
        clean = [(r["id"], r["timestamp"], r["tokens"]) for r in read_jsonl(pre / "corpus.jsonl")]
        ledger.check("clean corpus equals the planted one", _equal(clean, planted["clean"], "clean tweets"),
                     _equal(clean, planted["clean"][1:], "clean tweets"))
        vocab = [(tok, int(count)) for tok, _, count in
                 (line.split("\t") for line in (pre / "vocab.tsv").read_text(encoding="utf-8").splitlines())]
        wrong_vocab = list(planted["vocab"])
        wrong_vocab[-1] = (wrong_vocab[-1][0], wrong_vocab[-1][1] + 1)
        ledger.check("vocabulary equals the planted one", _equal(vocab, planted["vocab"], "vocabulary entries"),
                     _equal(vocab, wrong_vocab, "vocabulary entries"))
        stats = json.loads((pre / "stats.json").read_text(encoding="utf-8"))
        dups = stats["raw_count"] - stats["deduplicated_count"]
        ledger.check("statistics and duplicate count", _stats(stats, dups, planted), _stats(stats, dups + 1, planted))

        ceiling = (1 + EMBED_NEGATIVES) * math.log(2)
        losses = self.epoch_losses()
        ledger.check("embed loss below its value at initialization", _below(losses[-1], ceiling),
                     _below(ceiling + 0.01, ceiling))

        tokens, vectors = ref.read_embeddings(self.out / "embeddings.txt")
        ledger.check("embedding rows follow the vocabulary", _rows(tokens, vectors, planted["vocab"]),
                     _rows(tokens[::-1], vectors, planted["vocab"]))
        ledger.check("neighbors match a cosine recount", _neighbors_recount(self.neighbors, tokens, vectors, NEIGHBORS_K),
                     _neighbors_recount({w: nb[::-1] for w, nb in self.neighbors.items()}, tokens, vectors, NEIGHBORS_K))
        words = list(self.neighbors)
        shift = QUERIES_PER_TOPIC  # hand each query the next topic's lists
        swapped = {w: self.neighbors[words[(j + shift) % len(words)]] for j, w in enumerate(words)}
        ledger.check("neighbors stay in their topic", _purity(self.neighbors, planted["topics"]),
                     _purity(swapped, planted["topics"]))


def _equal(actual, expected, what):
    return actual == expected, f"{len(actual)} {what}, {len(expected)} planted"


def _stats(stats, dups, planted):
    ok = stats == planted["stats"] and dups == planted["duplicates"]
    return ok, f"stats {stats}, {dups} duplicates; planted {planted['stats']}, {planted['duplicates']} duplicates"


def _rows(tokens, vectors, vocab):
    ok = tokens == [t for t, _ in vocab] and vectors.shape[1] == 100 and bool(np.isfinite(vectors).all())
    return ok, f"{len(tokens)} rows of dim {vectors.shape[1]} for {len(vocab)} words"


def _below(value, ceiling):
    return value < ceiling, f"last-epoch loss {value:.4f}, initial loss {ceiling:.4f}"


def _neighbors_recount(neighbors, tokens, vectors, k):
    norms = np.linalg.norm(vectors, axis=1)
    worst = 0.0
    for word, got in neighbors.items():
        q = tokens.index(word)
        sims = vectors @ vectors[q] / (norms * norms[q])
        sims[q] = -np.inf
        order = np.lexsort((np.arange(len(sims)), -sims))[:k]
        if [tokens[j] for j in order] != [tok for tok, _ in got]:
            return False, f"neighbors of {word}: {[t for t, _ in got]}, recount {[tokens[j] for j in order]}"
        worst = max(worst, max(abs(sims[j] - s) for j, (_, s) in zip(order, got)))
    return worst <= 1e-6, f"largest similarity difference {worst:.2e}"


def _purity(neighbors, topics):
    topic_of = {w: t for t, words in enumerate(topics) for w in words}
    hits = sum(topic_of.get(tok) == topic_of.get(word) for word, got in neighbors.items() for tok, _ in got)
    total = sum(len(got) for got in neighbors.values())
    return hits >= 0.6 * total, f"{hits} of {total} neighbors share the query's topic (floor 60%)"
