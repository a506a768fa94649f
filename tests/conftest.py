import os
import socket

# One BLAS thread per test process: with more threads than free cores, small
# matmuls slow down by orders of magnitude. A caller's own setting wins. This
# must run before numpy is first imported.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np
import pytest

from controkit.embeddings import EmbeddingTable
from controkit.textprep import Vocabulary


@pytest.fixture(autouse=True)
def no_network(monkeypatch):
    """Every test runs offline: resolving any host but this machine's
    loopback names fails, so a request that would leave the machine raises
    instead of reaching the network."""
    resolve = socket.getaddrinfo

    def loopback_only(host, *args, **kwargs):
        if host not in ("127.0.0.1", "localhost", "::1"):
            raise socket.gaierror(socket.EAI_NONAME,
                                  f"tests resolve no host but loopback: {host!r}")
        return resolve(host, *args, **kwargs)

    monkeypatch.setattr(socket, "getaddrinfo", loopback_only)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_vocab():
    return Vocabulary.from_tokens(["alpha", "beta", "gamma", "delta", "epsilon"], {})


@pytest.fixture
def small_embedding(small_vocab, rng):
    return EmbeddingTable.random(small_vocab, 4, rng)
