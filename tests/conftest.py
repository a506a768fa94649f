import os

# One BLAS thread per test process: with more threads than free cores, small
# matmuls slow down by orders of magnitude. A caller's own setting wins. This
# must run before numpy is first imported.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np
import pytest

from controkit.embeddings import EmbeddingTable
from controkit.textprep import Vocabulary


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_vocab():
    return Vocabulary.from_tokens(["alpha", "beta", "gamma", "delta", "epsilon"], {})


@pytest.fixture
def small_embedding(small_vocab, rng):
    return EmbeddingTable.random(small_vocab, 4, rng)
