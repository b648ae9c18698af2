"""Fixtures shared by the test modules."""

import pytest
from hypothesis import settings

from rnnsent.corpus import Vocabulary
from rnnsent.embedding import EmbeddingMatrix, save_embeddings

# CI runs the tests with --hypothesis-profile=ci: a failing draw then prints
# the @reproduce_failure blob that replays it
settings.register_profile("ci", print_blob=True)


@pytest.fixture
def stale_twin(tmp_path):
    """tmp_path/emb.txt saved with its binary twin. A test that then writes
    its own text to emb.txt reads that text beside a twin of other bytes,
    which the reader must ignore."""
    save_embeddings(EmbeddingMatrix(Vocabulary(["aa", "bb", "cc"]), [[1, 2], [3, 4], [5, 6]]), tmp_path / "emb.txt")
