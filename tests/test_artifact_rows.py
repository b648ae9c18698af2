"""The numeric row reader shared by the embedding and model files: round
trips, the embedding file's binary twin, single-byte corruption, and the
errors the command line reports."""

import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rnnsent import embedding
from rnnsent.cli import main
from rnnsent.corpus import Vocabulary
from rnnsent.embedding import EmbeddingFileError, EmbeddingMatrix, embedding_twin, load_embeddings, save_embeddings
from rnnsent.model import (
    BIDIRECTIONAL,
    STANDARD,
    ModelConfig,
    ModelFileError,
    init_params,
    load_model,
    param_shapes,
    save_model,
)
from rnnsent.numeric import RngState

finite = st.floats(allow_nan=False, allow_infinity=False)
# tokens hold no whitespace: every character str.split splits on is in a Z or C category
tokens = st.text(st.characters(blacklist_categories=("Z", "C")), min_size=1, max_size=6)


def _save_embeddings(matrix, words, path):
    save_embeddings(EmbeddingMatrix(Vocabulary(words), matrix), path)


def _neighbors_exit(path):
    return main(["neighbors", "--embeddings", str(path), "--vocab", str(path), "--word", "aa", "--k", "1"])


def _eval_exit(path, tmp_path):
    missing = tmp_path / "missing"
    return main(["eval", "--model", str(path), "--corpus", str(missing), "--annotations", str(missing),
                 "--embeddings", str(missing), "--output", str(tmp_path / "out")])


# ---------------------------------------------------------------------------
# Round trips
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(data=st.data(), rows=st.integers(0, 6), dim=st.integers(1, 5))
def test_embedding_round_trip_matches_float_of_written_text(tmp_path_factory, data, rows, dim):
    matrix = np.array(data.draw(st.lists(st.lists(finite, min_size=dim, max_size=dim), min_size=rows, max_size=rows)))
    matrix = matrix.reshape(rows, dim)
    words = data.draw(st.lists(tokens, min_size=rows, max_size=rows, unique=True))
    path = tmp_path_factory.mktemp("emb") / "emb.txt"
    _save_embeddings(matrix, words, path)

    emb = load_embeddings(path)
    # 9 significant digits are written; the reader parses them as float() does, bit for bit
    expected = np.array([[float(f"{x:.9g}") for x in row] for row in matrix]).reshape(rows, dim)
    assert emb.input_vectors.tobytes() == expected.tobytes()
    assert emb.vocab.tokens == tuple(words)
    # the written text is a fixed point: saving what was loaded gives the same bytes
    again = path.with_name("again.txt")
    save_embeddings(emb, again)
    assert again.read_bytes() == path.read_bytes()


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    direction=st.sampled_from([STANDARD, BIDIRECTIONAL]),
    hidden=st.integers(1, 4),
    emb=st.integers(1, 4),
    classes=st.sampled_from([2, 3]),
)
def test_model_round_trip_is_bit_exact(tmp_path_factory, data, direction, hidden, emb, classes):
    config = ModelConfig(embedding_dim=emb, hidden_size=hidden, num_classes=classes, direction=direction)
    params = {
        name: np.array(data.draw(st.lists(finite, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))).reshape(shape)
        for name, shape in param_shapes(config).items()
    }
    path = tmp_path_factory.mktemp("model") / "model.txt"
    save_model(params, config, path)

    loaded, loaded_config = load_model(path)
    assert loaded_config == config
    assert list(loaded) == list(params)
    for name, arr in params.items():
        assert loaded[name].shape == arr.shape
        assert loaded[name].tobytes() == arr.tobytes(), name


# ---------------------------------------------------------------------------
# The embedding file's binary twin: a cache of the text reader's result
# ---------------------------------------------------------------------------


def _load_from_twin(path):
    """load_embeddings(path), failing if it parses any decimal text."""
    with mock.patch.object(embedding, "read_rows", side_effect=AssertionError("the text was parsed")):
        return load_embeddings(path)


def _load_parsing_text(path):
    """load_embeddings(path), failing unless it parses the text."""
    with mock.patch.object(embedding, "read_rows", wraps=embedding.read_rows) as parse:
        emb = load_embeddings(path)
    assert parse.called
    return emb


def _load_text_only(path):
    """What the text reader returns for path's bytes, with no twin beside them."""
    copy = path.with_name("text-only.txt")
    copy.write_bytes(path.read_bytes())
    return load_embeddings(copy)


def _same(a, b):
    return a.input_vectors.shape == b.input_vectors.shape and a.input_vectors.tobytes() == b.input_vectors.tobytes() and a.vocab.tokens == b.vocab.tokens


# values that %.9g prints in e-notation, signed zeros, a subnormal and the ends of the float range
e_notation = st.sampled_from([1e-300, -2.5e-7, 1.23456789e20, 6.02214076e23, 1e16, -0.0, 0.0, 5e-324, -1.7976931348623157e308])


@settings(max_examples=80, deadline=None)
@given(
    shape=st.tuples(st.integers(0, 5), st.integers(1, 4)),
    flat=st.lists(st.one_of(finite, e_notation), min_size=20, max_size=20),
    words=st.lists(tokens, min_size=5, max_size=5, unique=True),
)
@example(shape=(1, 4), flat=[-0.0, 1e-300, 1.23456789e20, 5e-324] * 5, words=["aa", "bb", "cc", "dd", "ee"])
@example(shape=(5, 1), flat=[-2.5e-7, -0.0, 6.02214076e23, 1e16, 0.1] * 4, words=["aa", "bb", "cc", "dd", "ee"])
@example(shape=(1, 1), flat=[-0.0] * 20, words=["aa", "bb", "cc", "dd", "ee"])
def test_twin_holds_what_the_text_reader_returns(tmp_path_factory, shape, flat, words):
    rows, dim = shape
    path = tmp_path_factory.mktemp("twin") / "emb.txt"
    _save_embeddings(np.array(flat[: rows * dim]).reshape(rows, dim), words[:rows], path)
    via_twin = _load_from_twin(path)
    # tobytes tells -0.0 from 0.0
    assert _same(via_twin, _load_text_only(path))
    assert via_twin.vocab.tokens == tuple(words[:rows])


def test_twin_of_other_text_is_ignored(tmp_path):
    path, other = tmp_path / "emb.txt", tmp_path / "other.txt"
    _save_embeddings(np.array([[0.5, -1.25], [3e-7, 12345.0], [-0.0, 7.75e12]]), ["aa", "bb", "cc"], path)
    text = path.read_bytes()
    # one byte edited: the text's values, not the twin's
    path.write_bytes(text.replace(b"12345", b"12346"))
    emb = _load_parsing_text(path)
    assert emb.input_vectors[1, 1] == 12346.0
    assert _same(emb, _load_text_only(path))
    # another embedding's whole text
    _save_embeddings(np.array([[1.0], [2.0]]), ["xx", "yy"], other)
    path.write_bytes(other.read_bytes())
    assert _same(_load_parsing_text(path), _load_text_only(other))
    # a text of the bytes the twin was written for is read from the twin again
    path.write_bytes(text)
    assert _same(_load_from_twin(path), _load_text_only(path))


def _flip(data: bytes, position: int) -> bytes:
    return data[:position] + bytes([data[position] ^ 1]) + data[position + 1:]


# the twin's header: 16 bytes of magic, the text's and the payload's sha256, then rows and columns
# as little-endian uint64 at 80 and 88; the payload, which starts at 96, holds a 3 x 2 matrix
TWIN_DAMAGE = {
    "truncated": lambda twin: twin[:-1],
    "truncated to part of its header": lambda twin: twin[:50],
    "empty": lambda twin: b"",
    "longer": lambda twin: twin + b"\n",
    "bad magic": lambda twin: b"X" + twin[1:],
    "rows and columns swapped": lambda twin: twin[:80] + struct.pack("<QQ", 2, 3) + twin[96:],
    "one column": lambda twin: twin[:80] + struct.pack("<QQ", 3, 1) + twin[96:],
    "no columns": lambda twin: twin[:80] + struct.pack("<QQ", 0, 0) + twin[96:],
    "text digest flipped": lambda twin: _flip(twin, 16),
    "payload digest flipped": lambda twin: _flip(twin, 48),
    "vector byte flipped": lambda twin: _flip(twin, 100),
    "token byte flipped": lambda twin: _flip(twin, len(twin) - 2),
}


@pytest.mark.parametrize("damage", list(TWIN_DAMAGE))
def test_damaged_twin_falls_back_to_the_text(tmp_path, damage):
    path = tmp_path / "emb.txt"
    _save_embeddings(np.array([[0.5, -1.25], [3e-7, 12345.0], [-0.0, 7.75e12]]), ["aa", "bb", "cc"], path)
    twin = embedding_twin(path)
    twin.write_bytes(TWIN_DAMAGE[damage](twin.read_bytes()))
    assert _same(_load_parsing_text(path), _load_text_only(path))


# ---------------------------------------------------------------------------
# Single-byte corruption: a typed error, or at most the one edited value
# ---------------------------------------------------------------------------


def _corrupt(data: bytes, edit: str, position: int, byte: int) -> bytes:
    position %= len(data) + (edit == "insert")
    if edit == "insert":
        return data[:position] + bytes([byte]) + data[position:]
    if edit == "delete":
        return data[:position] + data[position + 1:]
    return data[:position] + bytes([byte]) + data[position + 1:]


# any byte, with the separators and the bytes of a number drawn more often
edit_bytes = st.one_of(st.sampled_from(list(b"\n\r\t -+.e09")), st.integers(0, 255))
edits = st.tuples(st.sampled_from(["insert", "delete", "replace"]), st.integers(0, 10**6), edit_bytes)


@settings(max_examples=400, deadline=None)
@given(edit=edits)
def test_corrupted_embedding_file_fails_typed_or_changes_one_value(tmp_path_factory, edit):
    path = tmp_path_factory.mktemp("fuzz") / "emb.txt"
    matrix = np.array([[0.5, -1.25], [3e-7, 12345.0], [-0.0, 7.75e12]])
    _save_embeddings(matrix, ["aa", "bb", "cc"], path)
    path.write_bytes(_corrupt(path.read_bytes(), *edit))
    try:
        emb = load_embeddings(path)
    except EmbeddingFileError:
        return
    # a byte edit that parses changes one value or one token; it never shifts rows
    assert emb.input_vectors.shape == matrix.shape
    assert np.count_nonzero(emb.input_vectors != matrix) + sum(a != b for a, b in zip(emb.vocab.tokens, ["aa", "bb", "cc"])) <= 1


@settings(max_examples=400, deadline=None)
@given(edit=edits)
def test_corrupted_model_file_fails_typed_or_changes_one_value(tmp_path_factory, edit):
    path = tmp_path_factory.mktemp("fuzz") / "model.txt"
    config = ModelConfig(embedding_dim=2, hidden_size=2, num_classes=2, direction=BIDIRECTIONAL)
    params = init_params(config, RngState(seed=77))
    params = {name: arr + 0.25 for name, arr in params.items()}  # no zero biases: every value has digits to edit
    save_model(params, config, path)
    path.write_bytes(_corrupt(path.read_bytes(), *edit))
    try:
        loaded, loaded_config = load_model(path)
    except ModelFileError:
        return
    assert loaded_config.direction == config.direction and loaded_config.hidden_size == config.hidden_size
    assert list(loaded) == list(params)
    assert all(loaded[name].shape == arr.shape for name, arr in params.items())
    assert sum(np.count_nonzero(loaded[name] != arr) for name, arr in params.items()) <= 1


# ---------------------------------------------------------------------------
# Malformed rows through the command line: exit 2, the file and row named
# ---------------------------------------------------------------------------

EMBEDDING_TEXT = "SGNS-EMB v1 3 2\naa 1 2\nbb 3 4\ncc 5 6\n"


def _model_lines(tmp_path):
    config = ModelConfig(embedding_dim=2, hidden_size=3, num_classes=2)
    path = tmp_path / "model.txt"
    save_model(init_params(config, RngState(seed=5)), config, path)
    return path, path.read_text().splitlines()


@pytest.mark.usefixtures("stale_twin")
def test_separators_tabs_and_runs_of_spaces_are_accepted(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("SGNS-EMB v1 3 2\naa\t1\t2\nbb   3  4  \n  cc \t 5\t\t6\n")
    emb = load_embeddings(path)
    assert emb.vocab.tokens == ("aa", "bb", "cc")
    assert emb.input_vectors.tolist() == [[1, 2], [3, 4], [5, 6]]

    path, lines = _model_lines(tmp_path)
    expected, _ = load_model(path)
    path.write_text("\n".join(line.replace(" ", "\t  ") for line in lines) + "\n")
    loaded, _ = load_model(path)
    assert all(np.array_equal(loaded[name], expected[name]) for name in expected)


@pytest.mark.usefixtures("stale_twin")
@pytest.mark.parametrize(
    "row, message",
    [
        ("", "row 1 has 0 values, expected 2"),  # a blank line inside the rows
        ("bb 3", "row 1 has 1 values, expected 2"),
        ("bb 3 4 5", "row 1 has 3 values, expected 2"),
        ("bb 3 x4", "row 1 has a non-numeric value"),
        ("bb 3 1_0", "row 1 has a non-numeric value"),  # float() would read 10.0
        ("bb nan 4", "row 1 has a non-finite value"),
        ("bb 3 -inf", "row 1 has a non-finite value"),
    ],
)
def test_malformed_embedding_row_names_file_and_row(tmp_path, capsys, row, message):
    path = tmp_path / "emb.txt"
    lines = EMBEDDING_TEXT.splitlines()
    lines[2] = row
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(EmbeddingFileError, match=f"{path}: corrupt file: {message}"):
        load_embeddings(path)
    assert _neighbors_exit(path) == 2
    assert f"{path}: corrupt file: {message}" in capsys.readouterr().err


@pytest.mark.usefixtures("stale_twin")
def test_malformed_first_embedding_row_is_named(tmp_path):
    # loadtxt takes the row length from the first row, so that row is checked on its own
    path = tmp_path / "emb.txt"
    path.write_text("SGNS-EMB v1 3 2\naa 1 2 7\nbb 3 4\ncc 5 6\n")
    with pytest.raises(EmbeddingFileError, match=f"{path}: corrupt file: row 0 has 3 values, expected 2"):
        load_embeddings(path)


@pytest.mark.usefixtures("stale_twin")
def test_repeated_embedding_token_names_file_and_rows(tmp_path, capsys):
    # each token names one row, so a second row for a token is a corrupt file, not a vocabulary error
    path = tmp_path / "emb.txt"
    path.write_text("SGNS-EMB v1 3 2\naa 1 2\nbb 3 4\naa 5 6\n")
    message = f"{path}: corrupt file: row 2 repeats the token 'aa' of row 0"
    with pytest.raises(EmbeddingFileError, match=message):
        load_embeddings(path)
    assert _neighbors_exit(path) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda values: [""], "row 1 of 'w_hh' has 0 values, expected 3"),  # a blank line inside the rows
        (lambda values: values[:-1], "row 1 of 'w_hh' has 2 values, expected 3"),
        (lambda values: values + ["0.5"], "row 1 of 'w_hh' has 4 values, expected 3"),
        (lambda values: values[:-1] + ["oops"], "row 1 of 'w_hh' has a non-numeric value"),
        (lambda values: values[:-1] + ["nan"], "row 1 of 'w_hh' has a non-finite value"),
        (lambda values: values[:-1] + ["inf"], "row 1 of 'w_hh' has a non-finite value"),
    ],
)
def test_malformed_model_row_names_file_parameter_and_row(tmp_path, capsys, edit, message):
    path, lines = _model_lines(tmp_path)
    row = lines.index("param w_hh 3 3") + 2
    lines[row] = " ".join(edit(lines[row].split()))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ModelFileError, match=f"{path}: corrupt file: {message}"):
        load_model(path)
    assert _eval_exit(path, tmp_path) == 2
    assert f"{path}: corrupt file: {message}" in capsys.readouterr().err


@pytest.mark.usefixtures("stale_twin")
def test_missing_rows_are_counted(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("SGNS-EMB v1 3 2\naa 1 2\n")
    with pytest.raises(EmbeddingFileError, match=f"{path}: corrupt file: expected 3 rows, found 1"):
        load_embeddings(path)
    path, lines = _model_lines(tmp_path)
    path.write_text("\n".join(lines[: lines.index("param w_hh 3 3") + 2]) + "\n")
    with pytest.raises(ModelFileError, match=f"{path}: corrupt file: expected 3 rows of 'w_hh', found 1"):
        load_model(path)


@pytest.mark.usefixtures("stale_twin")
@pytest.mark.parametrize("counts", ["-1 2", "3 0", "3 x"])
def test_embedding_header_counts_are_checked(tmp_path, counts):
    path = tmp_path / "emb.txt"
    path.write_text(f"SGNS-EMB v1 {counts}\n")
    with pytest.raises(EmbeddingFileError, match=f"{path}: malformed header counts"):
        load_embeddings(path)


@pytest.mark.usefixtures("stale_twin")
def test_bytes_that_are_not_utf8_name_the_file(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_bytes(EMBEDDING_TEXT.encode().replace(b"bb", b"b\xff"))
    with pytest.raises(EmbeddingFileError, match=f"{path}: corrupt file: not UTF-8 text"):
        load_embeddings(path)
    path, lines = _model_lines(tmp_path)
    path.write_bytes(path.read_bytes().replace(b"param w_hh", b"param w_h\xc3"))
    with pytest.raises(ModelFileError, match=f"{path}: corrupt file: not UTF-8 text"):
        load_model(path)


def test_non_integer_param_shape_is_a_model_file_error(tmp_path):
    path, lines = _model_lines(tmp_path)
    lines[lines.index("param w_hh 3 3")] = "param w_hh 3 x"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ModelFileError, match=f"{path}: corrupt file: expected 'param w_hh' block"):
        load_model(path)
