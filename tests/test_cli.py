import contextlib
import io
import json
import re
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import synthdata
from rnnsent import cli, corpus
from rnnsent.cli import build_parser, main
from rnnsent.corpus import Vocabulary, load_clean_corpus
from rnnsent.embedding import EmbeddingMatrix, save_embeddings


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


def test_preprocess_stopwords_file_replaces_default_list(pipeline, tmp_path):
    stopwords = tmp_path / "stop.txt"
    stopwords.write_text("bagyo\n", encoding="utf-8")
    out = tmp_path / "pre"
    rc = main([
        "preprocess", "--input", str(pipeline["raw"]), "--stopwords", str(stopwords),
        "--min-freq", "1", "--output-dir", str(out),
    ])
    assert rc == 0
    def tokens(pre):
        return {line.split("\t")[0] for line in (pre / "vocab.tsv").read_text().splitlines()}

    assert "bagyo" in tokens(pipeline["pre"]) and "bagyo" not in tokens(out)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["inputs"] == [str(pipeline["raw"]), str(stopwords)]


def test_preprocess_cleans_planted_noise(pipeline):
    clean = synthdata.tweets_of(load_clean_corpus(pipeline["pre"] / "corpus.jsonl"))
    tweets = synthdata.tweets_of(synthdata.synthetic_labeled(12, 90)[0])
    assert [t.id for t in clean] == [t.id for t in tweets]
    assert [t.tokens for t in clean] == [t.tokens for t in tweets]


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
    clean = synthdata.tweets_of(load_clean_corpus(tmp_path / "o" / "corpus.jsonl"))
    assert clean
    assert all(t.timestamp.month == 12 for t in clean)
    with pytest.raises(SystemExit) as exc:
        main(["preprocess", "--input", str(raw), "--output-dir", str(tmp_path / "o"), "--from", "2013-13-01"])
    assert exc.value.code == 2


@pytest.mark.parametrize("name", ["raw.jsonl", "raw.csv", "annotations.csv"])
def test_input_that_is_not_utf8_is_usage_error_naming_the_file(pipeline, tmp_path, capsys, name):
    path = tmp_path / name
    if name == "annotations.csv":  # one good row from the shared run, then a bad byte
        good = "".join(pipeline["ann"].read_text(encoding="utf-8").splitlines(keepends=True)[:2])
        argv = [
            "train", "--corpus", str(pipeline["pre"] / "corpus.jsonl"), "--annotations", str(path),
            "--embeddings", str(pipeline["emb"]), "--epochs", "1", "--output", str(tmp_path / "fit"),
        ]
    else:
        good = {
            "raw.jsonl": '{"id": "t1", "timestamp": "2013-11-09T08:00:00Z", "text": "bagyo"}\n',
            "raw.csv": "id,timestamp,text\nt1,2013-11-09T08:00:00Z,bagyo\n",
        }[name]
        argv = ["preprocess", "--input", str(path), "--output-dir", str(tmp_path / "pre")]
    path.write_bytes(good.encode() + b"t2,b\xffgyo\n")
    assert main(argv) == 2
    assert f"error: {path}: corrupt file: not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["raw.csv", "annotations.csv"])
def test_csv_record_the_csv_module_cannot_parse_is_usage_error_naming_its_line(pipeline, tmp_path, capsys, name):
    # line 2 opens a quote that never closes, and the lines after it pass the csv module's field limit
    path = tmp_path / name
    if name == "annotations.csv":
        header, good = "id,label", pipeline["ann"].read_text(encoding="utf-8").splitlines()[1]
        argv = [
            "train", "--corpus", str(pipeline["pre"] / "corpus.jsonl"), "--annotations", str(path),
            "--embeddings", str(pipeline["emb"]), "--epochs", "1", "--output", str(tmp_path / "fit"),
        ]
        where = f"{path}:2: "
    else:
        header, good = "id,timestamp,text", "t1,2013-11-09T08:00:00Z,bagyo"
        argv = ["preprocess", "--input", str(path), "--output-dir", str(tmp_path / "pre")]
        where = f"{path}: line 2: "
    path.write_text("\n".join([header, '"' + good, *[good] * 20000]) + "\n", encoding="utf-8")
    assert main(argv) == 2
    assert f"error: {where}the CSV record that starts here cannot be parsed" in capsys.readouterr().err


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


@pytest.mark.parametrize("count, message", [("-3", "line 1: negative count -3"), ("0", "not all 0")])
def test_embed_rejects_vocabulary_counts_without_noise_distribution(pipeline, tmp_path, capsys, count, message):
    # every count set to `count`: a negative one fails reading, all zeros fail before any draw
    lines = (pipeline["pre"] / "vocab.tsv").read_text().splitlines()
    vocab = tmp_path / "vocab.tsv"
    vocab.write_text("".join(line.rsplit("\t", 1)[0] + f"\t{count}\n" for line in lines))
    out = tmp_path / "e.txt"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning on the way to the error
        rc = main(["embed", "--corpus", str(pipeline["pre"] / "corpus.jsonl"), "--vocab", str(vocab),
                   "--dim", "4", "--epochs", "1", "--output", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"error: {vocab}: " in err and message in err
    assert not out.exists()


def test_embed_of_an_empty_preprocess_output_says_the_vocabulary_holds_no_words(tmp_path, capsys):
    # no word of two tweets reaches --min-freq 9: preprocess writes an empty corpus and vocabulary
    raw = tmp_path / "raw.jsonl"
    raw.write_text(
        '{"id": "t1", "timestamp": "2013-11-09T08:00:00+00:00", "text": "bagyo tacloban"}\n'
        '{"id": "t2", "timestamp": "2013-11-10T08:00:00+00:00", "text": "bagyo leyte"}\n'
    )
    pre = tmp_path / "pre"
    assert main(["preprocess", "--min-freq", "9", "--input", str(raw), "--output-dir", str(pre)]) == 0
    assert (pre / "vocab.tsv").read_text() == ""
    capsys.readouterr()
    out = tmp_path / "e.txt"
    rc = main(["embed", "--corpus", str(pre / "corpus.jsonl"), "--vocab", str(pre / "vocab.tsv"),
               "--dim", "4", "--epochs", "1", "--output", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {pre / 'vocab.tsv'}: the vocabulary holds no words\n"
    assert not out.exists()


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


def test_neighbors_never_lists_the_query_and_ranks_zero_vectors_last(tmp_path, capsys):
    # aa (1, 0), bb (0, 0), cc (1, 1): cc has cosine 0.707 to aa, and bb no direction at all
    emb, vocab = tmp_path / "emb.txt", tmp_path / "vocab.tsv"
    save_embeddings(EmbeddingMatrix(Vocabulary(["aa", "bb", "cc"]), [[1.0, 0.0], [0.0, 0.0], [1.0, 1.0]]), emb)
    vocab.write_text("aa\t0\t1\nbb\t1\t1\ncc\t2\t1\n")
    assert main(["neighbors", "--embeddings", str(emb), "--vocab", str(vocab), "--word", "aa", "--k", "2"]) == 0
    assert capsys.readouterr().out == "cc\t0.707107\nbb\t-inf\n"


def test_neighbors_one_word_vocabulary_says_there_is_no_other_word(tmp_path, capsys):
    emb, vocab = tmp_path / "emb.txt", tmp_path / "vocab.tsv"
    emb.write_text("SGNS-EMB v1 1 4\nbagyo 1 0 0.5 0\n")
    vocab.write_text("bagyo\t0\t3\n")
    assert main(["neighbors", "--embeddings", str(emb), "--vocab", str(vocab), "--word", "bagyo", "--k", "1"]) == 2
    assert capsys.readouterr() == ("", "error: the vocabulary holds no word besides 'bagyo'\n")


def _neighbors(pipeline, *word_args):
    return main(["neighbors", "--embeddings", str(pipeline["emb"]), "--vocab", str(pipeline["pre"] / "vocab.tsv"),
                 "--k", "3", *word_args])


def test_neighbors_several_words_one_block_each(pipeline, capsys):
    words = ["tubig", "bagyo", "tubig"]
    singles = []
    for word in words:
        assert _neighbors(pipeline, "--word", word) == 0
        singles.append(capsys.readouterr().out)
    expected = "\n".join(f"# {w}\n{out}" for w, out in zip(words, singles))
    # --word repeated, and one --word taking several values
    for word_args in (["--word", "tubig", "--word", "bagyo", "--word", "tubig"], ["--word", *words]):
        assert _neighbors(pipeline, *word_args) == 0
        assert capsys.readouterr().out == expected


def test_neighbors_unknown_word_among_several_prints_nothing(pipeline, capsys):
    assert _neighbors(pipeline, "--word", "bagyo", "zzzz", "tubig") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'zzzz'" in captured.err


def test_neighbors_vocab_mismatch(pipeline, tmp_path, capsys):
    other = tmp_path / "other.tsv"
    other.write_text("alpha\t0\t9\nbeta\t1\t8\n")
    rc = main([
        "neighbors", "--embeddings", str(pipeline["emb"]), "--vocab", str(other), "--word", "alpha",
    ])
    assert rc == 2
    assert "different tokens" in capsys.readouterr().err


def test_neighbors_reordered_vocab_is_usage_error(pipeline, tmp_path, capsys):
    # the first two tokens swapped, each line keeping its index and count
    rows = [line.split("\t") for line in (pipeline["pre"] / "vocab.tsv").read_text().splitlines(keepends=True)]
    rows[0][0], rows[1][0] = rows[1][0], rows[0][0]
    (tmp_path / "vocab.tsv").write_text("".join(map("\t".join, rows)))
    rc = main([
        "neighbors", "--embeddings", str(pipeline["emb"]), "--vocab", str(tmp_path / "vocab.tsv"), "--word", "bagyo",
    ])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "different tokens or a different order" in captured.err


def test_neighbors_token_mismatch_names_both_files_and_where(pipeline, tmp_path, capsys):
    emb, vocab = pipeline["emb"], tmp_path / "vocab.tsv"
    rows = [line.split("\t") for line in (pipeline["pre"] / "vocab.tsv").read_text().splitlines(keepends=True)]
    tokens = [row[0] for row in rows]
    phrase = "error: embedding file and vocabulary list different tokens or a different order"
    # other counts are no mismatch: neighbors reads only the tokens
    vocab.write_text("".join(f"{t}\t{i}\t{i + 11}\n" for i, t in enumerate(tokens)))
    assert _neighbors(pipeline, "--word", "bagyo") == 0
    counted = capsys.readouterr().out
    assert (pipeline["pre"] / "vocab.tsv").read_text() != vocab.read_text()
    assert _neighbors(pipeline, "--word", "bagyo") == 0 and capsys.readouterr().out == counted
    cases = [
        (tokens[:3] + [tokens[4], tokens[3]] + tokens[5:], f"index 3 is {tokens[3]!r} in {emb} and {tokens[4]!r} in {vocab}"),
        (tokens[:-1], f"{emb} holds {len(tokens)} tokens, {vocab} {len(tokens) - 1}"),
        (tokens + ["zzzz"], f"{emb} holds {len(tokens)} tokens, {vocab} {len(tokens) + 1}"),
    ]
    for listed, where in cases:
        vocab.write_text("".join(f"{t}\t{i}\t1\n" for i, t in enumerate(listed)))
        rc = main(["neighbors", "--embeddings", str(emb), "--vocab", str(vocab), "--word", "bagyo"])
        assert rc == 2
        assert capsys.readouterr() == ("", f"{phrase}: {where}\n")


def _run(argv):
    """(exit code, stdout, stderr) of main(argv), where an exit code argparse
    raises as SystemExit counts as returned."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


NEAR_TOKENS = ("storm", "water", "bagyo", "baha")


@st.composite
def near_vocab(draw):
    """vocab.tsv bytes for an embedding file of NEAR_TOKENS, mostly the same
    tokens in the same order with plain indices and counts, but at times with
    reordered, repeated or whitespace-holding tokens, indices out of order,
    counts of other spellings, blank lines, CRLF line ends and a byte-order mark."""
    lines = []
    for i in range(draw(st.sampled_from([4] * 6 + [3, 5]))):
        token = draw(st.sampled_from([NEAR_TOKENS[i % 4]] * 16 + [*NEAR_TOKENS, "two words", "", "baha\u00a0", "\ufeffstorm"]))
        index = draw(st.sampled_from([str(i)] * 16 + [f"+{i}", f"0{i}", f" {i}", f"{i}_0", str(i + 1), str(i - 1), "x"]))
        count = draw(st.sampled_from([str(3 * i)] * 16 + ["+5", "05", "1_0", "\u0665", "-3", "-0", " 5", "", "9" * 4400]))
        lines.append("\t".join([token, index, count]))
        if draw(st.integers(0, 15)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
    end = draw(st.sampled_from(["\n"] * 3 + ["\r\n"]))
    bom = draw(st.sampled_from([""] * 5 + ["\ufeff"]))
    return (bom + end.join(lines) + end).encode("utf-8")


@settings(max_examples=150, deadline=None)
@given(content=near_vocab())
@example(content=b"storm\t0\t0\nwater\t1\t3\nbagyo\t2\t6\nbaha\t3\t9\n")
@example(content=b"storm\t0\t0\r\nwater\t+1\t05\r\nbagyo\t02\t1_0\r\nbaha\t3\t\xd9\xa5\r\n")
@example(content=b"storm\t0\t0\nwater\t1\t3\n\nbagyo\t2\t6\nbaha\t3\t9\n")
@example(content=b"storm\t0\t0\nwater\t1\t3\nstorm\t2\t6\nbaha\t3\t9\n")
@example(content=b"storm\t0\t0\nbagyo\t1\t3\nwater\t2\t6\nbaha\t3\t9\n")
@example(content=b"storm\t0\t0\nwater\t1\t-3\nbagyo\t2\t6\nbaha\t3\t9\n")
@example(content=b"storm\t0\t0\nwater\t1\t" + b"9" * 4400 + b"\nbagyo\t2\t6\nbaha\t3\t9\n")
@example(content=b"\xef\xbb\xbfstorm\t0\t0\nwater\t1\t3\nbagyo\t2\t6\nbaha\t3\t9\n")
def test_neighbors_accepts_the_vocabularies_the_line_reader_accepts(tmp_path_factory, content):
    # the line reader, which names a bad line, is the reference: neighbors checks
    # its vocab.tsv in one pass as if it had read it line by line
    root = tmp_path_factory.mktemp("near")
    emb, vocab = root / "emb.txt", root / "vocab.tsv"
    save_embeddings(EmbeddingMatrix(Vocabulary(NEAR_TOKENS), [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 1.0]]), emb)
    vocab.write_bytes(content)
    argv = ["neighbors", "--embeddings", str(emb), "--vocab", str(vocab), "--word", "storm", "bagyo", "--k", "2"]
    with mock.patch.object(cli, "vocabulary_columns", side_effect=lambda path: corpus._vocabulary_lines(Path(path))):
        expected = _run(argv)
    assert _run(argv) == expected
    assert expected[0] in (0, 2)


# every subcommand, and the arguments of a run of it
SUBCOMMAND_ARGS = {
    "preprocess": ["--input", "raw.csv", "--output-dir", "pre", "--min-freq", "2", "--keywords", "bagyo", "--from", "2013-11-08"],
    "embed": ["--corpus", "c.jsonl", "--vocab", "v.tsv", "--dim", "8", "--subsample", "0", "--output", "e.txt"],
    "train": ["--corpus", "c", "--annotations", "a", "--embeddings", "e", "--model", "bi", "--bptt", "full", "--output", "o"],
    "eval": ["--model", "m", "--corpus", "c", "--annotations", "a", "--embeddings", "e", "--output", "o"],
    "grid": ["--corpus", "c", "--annotations", "a", "--embeddings", "e", "--task", "binary", "--split-ratio", "0.5", "--output", "o"],
    "analyze": ["--model", "m", "--corpus", "c", "--embeddings", "e", "--granularity", "day", "--output", "o"],
    "neighbors": ["--embeddings", "e", "--vocab", "v", "--word", "a", "b", "--word", "c", "--k", "3"],
    "gradcheck": ["--trials", "3", "--seq-len", "5", "--corrupt"],
}


def _parsed(parser, argv):
    """(the parsed arguments, or argparse's exit code, stdout, stderr) of parsing argv."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parser.parse_args(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", SUBCOMMAND_ARGS)
def test_parser_for_one_subcommand_parses_as_the_full_parser(name):
    args = SUBCOMMAND_ARGS[name]
    cases = [
        [name, "-h"], [name, *args], [name], [name, *args, "--bogus"], [name, *args[:-1]],
        [name, *args, "--output", "o", "--k", "0", "--trials", "x", "--split", "none", "--from", "13/11/2013"],
        [name, *args, "--version"], ["--", name, *args],
    ]
    for argv in cases:
        parsed = _parsed(build_parser(argv), argv)
        assert parsed == _parsed(build_parser(), argv), argv
    assert parsed[0] == 2
    assert _parsed(build_parser([name]), [name, "-h"])[1].startswith(f"usage: rnnsent {name} [-h]")
    assert isinstance(_parsed(build_parser([name]), [name, *args])[0], dict)
    # the parser built for another subcommand gave this one no arguments
    other = next(n for n in SUBCOMMAND_ARGS if n != name)
    assert _parsed(build_parser([other]), [name, *args])[0] == 2


def test_main_without_a_subcommand_prints_and_exits_as_the_full_parser():
    outcomes = {}
    for argv in ([], ["-h"], ["--help"], ["--version"], ["nosuch"], ["nosuch", "-h"], ["-h", "neighbors"]):
        outcomes[argv[0] if argv else ""] = outcome = _run(argv)
        assert outcome == _parsed(build_parser(), argv), argv
    rc, out, _ = outcomes["-h"]
    assert rc == 0
    assert all(re.search(rf"^    {name} ", out, re.M) for name in SUBCOMMAND_ARGS)
    assert outcomes[""][0] == 2 and "the following arguments are required: subcommand" in outcomes[""][2]
    assert outcomes["--version"][:2] == (0, f"rnnsent {cli.__version__}\n")
    assert outcomes["nosuch"][0] == 2 and "invalid choice: 'nosuch'" in outcomes["nosuch"][2]


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


def test_train_report_records_the_train_flags_only(pipeline, tmp_path):
    pre, ann, emb = pipeline["pre"], pipeline["ann"], pipeline["emb"]
    out = tmp_path / "binary"
    assert main([
        "train", "--corpus", str(pre / "corpus.jsonl"), "--annotations", str(ann),
        "--embeddings", str(emb), "--hidden", "4", "--batch", "5", "--lr", "0.03",
        "--epochs", "2", "--seed", "9", "--task", "binary", "--balance-per-class", "10",
        "--output", str(out),
    ]) == 0
    report = json.loads((out / "report.json").read_text())
    # the task and the balancing are recorded by the manifest and the model's classes
    assert report["train_config"] == {"batch_size": 5, "epochs": 2, "learning_rate": 0.03, "seed": 9}
    assert report["model_config"]["num_classes"] == 2


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
    assert (tmp_path / "r1" / "report.json").read_bytes() == (tmp_path / "r2" / "report.json").read_bytes()
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


def test_train_divergence_prints_no_numpy_warning(pipeline, tmp_path, capsys):
    pre, ann, emb = pipeline["pre"], pipeline["ann"], pipeline["emb"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would surface as an internal error
        rc = main([
            "train", "--corpus", str(pre / "corpus.jsonl"), "--annotations", str(ann),
            "--embeddings", str(emb), "--hidden", "4", "--epochs", "2", "--lr", "inf",
            "--batch", "8", "--seed", "1", "--output", str(tmp_path / "o"),
        ])
    assert rc == 1
    assert capsys.readouterr().err == "error: training diverged: epoch 1, batch 2 has mean loss nan\n"


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


@pytest.mark.parametrize("subcommand", ["eval", "analyze"])
def test_embeddings_of_another_dimension_name_both_files(pipeline, tmp_path, capsys, subcommand):
    pre, model = pipeline["pre"], pipeline["fit"] / "model.txt"
    other = tmp_path / "emb4.txt"
    assert main([
        "embed", "--corpus", str(pre / "corpus.jsonl"), "--vocab", str(pre / "vocab.tsv"),
        "--dim", "4", "--epochs", "1", "--output", str(other),
    ]) == 0
    capsys.readouterr()
    annotations = ["--annotations", str(pipeline["ann"])] if subcommand == "eval" else []
    rc = main([
        subcommand, "--model", str(model), "--corpus", str(pre / "corpus.jsonl"), *annotations,
        "--embeddings", str(other), "--output", str(tmp_path / "out"),
    ])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: {other} does not fit the model {model}: config mismatch: embeddings have dim 4, model expects 6\n"
    )
    assert not (tmp_path / "out").exists()


def test_eval_binary_model_drops_neutral_annotations(pipeline, tmp_path, capsys):
    pre, ann, emb = pipeline["pre"], pipeline["ann"], pipeline["emb"]
    assert main([
        "train", "--corpus", str(pre / "corpus.jsonl"), "--annotations", str(ann),
        "--embeddings", str(emb), "--hidden", "4", "--epochs", "1", "--seed", "4",
        "--task", "binary", "--output", str(tmp_path / "fit"),
    ]) == 0
    capsys.readouterr()
    out = tmp_path / "scores"
    assert main([
        "eval", "--model", str(tmp_path / "fit" / "model.txt"), "--corpus", str(pre / "corpus.jsonl"),
        "--annotations", str(ann), "--embeddings", str(emb), "--output", str(out),
    ]) == 0
    assert "warning: dropping 12 examples with labels outside ['positive', 'negative']" in capsys.readouterr().err
    assert json.loads((out / "metrics.json").read_text())["total"] == 24
    assert (out / "confusion.csv").read_text().splitlines()[0] == "gold,positive,negative"


def test_train_annotated_tweet_without_tokens_is_usage_error_naming_the_line(pipeline, tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    empty = '{"id": "t9", "timestamp": "2013-11-09T08:00:00+00:00", "tokens": []}\n'
    corpus.write_text((pipeline["pre"] / "corpus.jsonl").read_text(encoding="utf-8") + empty, encoding="utf-8")
    ann = tmp_path / "annotations.csv"
    head = "".join(pipeline["ann"].read_text(encoding="utf-8").splitlines(keepends=True)[:3])
    ann.write_text(head + "t9,negative\n", encoding="utf-8")
    rc = main([
        "train", "--corpus", str(corpus), "--annotations", str(ann), "--embeddings", str(pipeline["emb"]),
        "--epochs", "1", "--output", str(tmp_path / "fit"),
    ])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {ann}:4: tweet 't9' has no tokens\n"


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


def test_eval_annotations_with_only_a_header_name_the_file(pipeline, tmp_path, capsys):
    ann = tmp_path / "annotations.csv"
    ann.write_text("id,label\n")
    rc = main([
        "eval", "--model", str(pipeline["fit"] / "model.txt"), "--corpus", str(pipeline["pre"] / "corpus.jsonl"),
        "--annotations", str(ann), "--embeddings", str(pipeline["emb"]), "--output", str(tmp_path / "o"),
    ])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {ann}: holds no annotations\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("subcommand", ["train", "grid"])
def test_one_annotated_tweet_names_the_annotations_file(pipeline, tmp_path, capsys, subcommand):
    ann = tmp_path / "annotations.csv"
    header, first = pipeline["ann"].read_text(encoding="utf-8").splitlines(keepends=True)[:2]
    assert header == "id,label\n"
    ann.write_text(header + first, encoding="utf-8")
    rc = main([
        subcommand, "--corpus", str(pipeline["pre"] / "corpus.jsonl"), "--annotations", str(ann),
        "--embeddings", str(pipeline["emb"]), "--epochs", "1", "--output", str(tmp_path / "o"),
    ])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {ann}: need at least 2 examples to split\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("subcommand", ["train", "grid"])
def test_balancing_above_a_class_count_names_the_annotations_file(pipeline, tmp_path, capsys, subcommand):
    ann = pipeline["ann"]
    rc = main([
        subcommand, "--corpus", str(pipeline["pre"] / "corpus.jsonl"), "--annotations", str(ann),
        "--embeddings", str(pipeline["emb"]), "--balance-per-class", "13", "--epochs", "1",
        "--output", str(tmp_path / "o"),
    ])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {ann}: class 'positive' has only 12 examples, cannot sample 13\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("subcommand", ["train", "grid"])
def test_training_tweet_outside_the_embeddings_vocabulary_names_the_embeddings_file(
    pipeline, tmp_path, capsys, subcommand
):
    emb = tmp_path / "emb.txt"  # three rows, none of them a word of the corpus
    emb.write_text("SGNS-EMB v1 3 2\nzzzz 1 0\nqqqq 0 1\nxxxx 1 1\n", encoding="utf-8")
    rc = main([
        subcommand, "--corpus", str(pipeline["pre"] / "corpus.jsonl"), "--annotations", str(pipeline["ann"]),
        "--embeddings", str(emb), "--epochs", "1", "--output", str(tmp_path / "o"),
    ])
    assert rc == 2
    message = r"train example '\w+' has no in-vocabulary tokens and cannot be embedded"
    assert re.fullmatch(rf"error: {re.escape(str(emb))}: {message}\n", capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


def test_eval_with_no_annotation_in_the_models_classes_names_the_annotations_file(pipeline, tmp_path, capsys):
    pre, emb = pipeline["pre"], pipeline["emb"]
    assert main([
        "train", "--corpus", str(pre / "corpus.jsonl"), "--annotations", str(pipeline["ann"]),
        "--embeddings", str(emb), "--hidden", "4", "--epochs", "1", "--seed", "4",
        "--task", "binary", "--output", str(tmp_path / "fit"),
    ]) == 0
    ann = tmp_path / "neutral.csv"
    rows = pipeline["ann"].read_text(encoding="utf-8").splitlines(keepends=True)
    ann.write_text(rows[0] + "".join(row for row in rows[1:] if row.endswith(",neutral\n")), encoding="utf-8")
    capsys.readouterr()
    rc = main([
        "eval", "--model", str(tmp_path / "fit" / "model.txt"), "--corpus", str(pre / "corpus.jsonl"),
        "--annotations", str(ann), "--embeddings", str(emb), "--output", str(tmp_path / "o"),
    ])
    assert rc == 2
    assert capsys.readouterr().err == (
        "warning: dropping 12 examples with labels outside ['positive', 'negative']\n"
        f"error: {ann}: no evaluable examples: every annotation is outside the model's classes\n"
    )
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("subcommand", ["train", "grid"])
def test_binary_task_on_only_neutral_annotations_names_the_annotations_file(pipeline, tmp_path, capsys, subcommand):
    ann = tmp_path / "neutral.csv"
    rows = pipeline["ann"].read_text(encoding="utf-8").splitlines(keepends=True)
    ann.write_text(rows[0] + "".join(row for row in rows[1:] if row.endswith(",neutral\n")), encoding="utf-8")
    rc = main([
        subcommand, "--corpus", str(pipeline["pre"] / "corpus.jsonl"), "--annotations", str(ann),
        "--embeddings", str(pipeline["emb"]), "--task", "binary", "--epochs", "1", "--output", str(tmp_path / "o"),
    ])
    assert rc == 2
    # the same warning and error as eval of a binary model on these annotations
    assert capsys.readouterr().err == (
        "warning: dropping 12 examples with labels outside ['positive', 'negative']\n"
        f"error: {ann}: no evaluable examples: every annotation is outside the model's classes\n"
    )
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("subcommand", ["train", "grid"])
def test_annotations_with_only_a_header_name_the_file_in_train_and_grid(pipeline, tmp_path, capsys, subcommand):
    ann = tmp_path / "annotations.csv"
    ann.write_text("id,label\n")
    rc = main([
        subcommand, "--corpus", str(pipeline["pre"] / "corpus.jsonl"), "--annotations", str(ann),
        "--embeddings", str(pipeline["emb"]), "--epochs", "1", "--output", str(tmp_path / "o"),
    ])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {ann}: holds no annotations\n"
    assert not (tmp_path / "o").exists()


def test_train_binary_warns_of_the_neutral_annotations_it_drops(pipeline, tmp_path, capsys):
    pre, ann, emb = pipeline["pre"], pipeline["ann"], pipeline["emb"]
    capsys.readouterr()
    assert main([
        "train", "--corpus", str(pre / "corpus.jsonl"), "--annotations", str(ann),
        "--embeddings", str(emb), "--hidden", "4", "--epochs", "1", "--seed", "4",
        "--task", "binary", "--output", str(tmp_path / "fit"),
    ]) == 0
    assert capsys.readouterr().err == "warning: dropping 12 examples with labels outside ['positive', 'negative']\n"
    assert json.loads((tmp_path / "fit" / "report.json").read_text())["model_config"]["num_classes"] == 2


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


def test_analyze_empty_corpus_names_the_file(pipeline, tmp_path, capsys):
    empty = tmp_path / "corpus.jsonl"
    empty.write_text("")
    rc = main([
        "analyze", "--model", str(pipeline["fit"] / "model.txt"), "--corpus", str(empty),
        "--embeddings", str(pipeline["emb"]), "--output", str(tmp_path / "o"),
    ])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {empty}: cannot classify an empty corpus\n"
    assert not (tmp_path / "o").exists()


def test_gradcheck_pass_and_corrupt_fail(capsys):
    rc = main(["gradcheck", "--trials", "3", "--hidden", "3", "--seq-len", "4", "--seed", "0"])
    assert rc == 0
    assert capsys.readouterr().out.strip().endswith("PASS")

    rc = main(["gradcheck", "--trials", "2", "--hidden", "3", "--seq-len", "4", "--corrupt"])
    assert rc == 1
    assert capsys.readouterr().out.strip().endswith("FAIL")


@pytest.mark.parametrize("hidden", ["1", "2"])
def test_gradcheck_hidden_below_two_is_usage_error_before_any_trial(capsys, hidden):
    # each trial draws its hidden size from [2, --hidden], so 1 leaves nothing to draw
    with mock.patch.object(cli, "run_gradcheck", wraps=cli.run_gradcheck) as run:
        rc = main(["gradcheck", "--trials", "2", "--hidden", hidden, "--seq-len", "3"])
    captured = capsys.readouterr()
    if hidden == "1":
        assert (rc, run.call_count) == (2, 0)
        assert captured == ("", "error: --hidden must be >= 2, got 1\n")
    else:
        assert (rc, run.call_count) == (0, 1)
        assert captured.out.strip().endswith("PASS")


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("rnnsent ")


# ---------------------------------------------------------------------------
# manifests: what each artifact-writing subcommand reads and writes
# ---------------------------------------------------------------------------


def _manifest_case(case, p, out):
    """(argv, inputs, output names under `out`, manifest name, seed) of one run."""
    corpus, vocab, model = p["pre"] / "corpus.jsonl", p["pre"] / "vocab.tsv", p["fit"] / "model.txt"
    dataset = ["--corpus", corpus, "--annotations", p["ann"], "--embeddings", p["emb"]]
    net = ["--hidden", "4", "--epochs", "2", "--lr", "0.05", "--seed", "3"]
    return {
        "preprocess": (
            ["preprocess", "--input", p["raw"], "--output-dir", out],
            [p["raw"]], ["corpus.jsonl", "vocab.tsv", "stats.json"], "manifest.json", None,
        ),
        "embed": (
            ["embed", "--corpus", corpus, "--vocab", vocab, "--dim", "4", "--epochs", "1",
             "--seed", "5", "--output", out / "e.txt"],
            # the embedding file and its binary twin
            [corpus, vocab], ["e.txt", "e.txt.f64"], "e.txt.manifest.json", 5,
        ),
        "train": (
            ["train", *dataset, *net, "--batch", "8", "--output", out],
            [corpus, p["ann"], p["emb"]], ["model.txt", "report.json"], "manifest.json", 3,
        ),
        "grid": (
            ["grid", *dataset, *net, "--output", out],
            [corpus, p["ann"], p["emb"]], ["grid.json", "grid.txt"], "manifest.json", 3,
        ),
        "eval": (
            ["eval", "--model", model, *dataset, "--output", out],
            [model, corpus, p["ann"], p["emb"]], ["metrics.json", "confusion.csv"], "manifest.json", None,
        ),
        "analyze": (
            ["analyze", "--model", model, "--corpus", corpus, "--embeddings", p["emb"], "--output", out],
            [model, corpus, p["emb"]], ["classified.jsonl", "report.json", "report.csv"], "manifest.json", None,
        ),
    }[case]


@pytest.mark.parametrize("case", ["preprocess", "embed", "train", "grid", "eval", "analyze"])
def test_manifest_lists_inputs_outputs_and_seed(pipeline, tmp_path, case):
    out = tmp_path / "out"
    argv, inputs, outputs, manifest_name, seed = _manifest_case(case, pipeline, out)
    assert main([str(a) for a in argv]) == 0
    manifest = json.loads((out / manifest_name).read_text())
    assert manifest["subcommand"] == argv[0]
    assert manifest["inputs"] == [str(path) for path in inputs]
    assert manifest["outputs"] == [str(out / name) for name in outputs]
    assert manifest["seed"] == seed
    assert sorted(path.name for path in out.iterdir()) == sorted(outputs + [manifest_name])


# the JSON files each run writes besides stats.json
JSON_WRITTEN = {
    "preprocess": ["manifest.json"],
    "embed": ["e.txt.manifest.json"],
    "train": ["manifest.json", "report.json"],
    "grid": ["grid.json", "manifest.json"],
    "eval": ["manifest.json", "metrics.json"],
    "analyze": ["manifest.json", "report.json"],
}


@pytest.mark.parametrize("case", list(JSON_WRITTEN))
def test_json_reports_and_manifests_are_indented_with_sorted_keys(pipeline, tmp_path, case):
    out = tmp_path / "out"
    argv, *_ = _manifest_case(case, pipeline, out)
    assert main([str(a) for a in argv]) == 0
    names = JSON_WRITTEN[case]
    assert sorted(path.name for path in out.glob("*.json") if path.name != "stats.json") == names
    for name in names:
        text = (out / name).read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", name


def test_stats_json_keeps_its_field_order(pipeline):
    text = (pipeline["pre"] / "stats.json").read_text(encoding="utf-8")
    stats = json.loads(text)
    assert list(stats) == ["raw_count", "deduplicated_count", "final_count", "vocab_size"]
    assert text == json.dumps(stats, indent=2) + "\n"


def test_failed_run_leaves_no_output_directory(pipeline, tmp_path, capsys):
    ann = tmp_path / "annotations.csv"
    ann.write_text("id,label\nnot-a-tweet,positive\n", encoding="utf-8")
    out = tmp_path / "fit"
    rc = main([
        "train", "--corpus", str(pipeline["pre"] / "corpus.jsonl"), "--annotations", str(ann),
        "--embeddings", str(pipeline["emb"]), "--epochs", "1", "--output", str(out),
    ])
    assert rc == 2
    assert "does not exist in the corpus" in capsys.readouterr().err
    assert not out.exists()
