import os

# Keep BLAS single-threaded: the matrices are small, and worker processes in
# sweep tests should not oversubscribe the two-core budget.
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import numpy as np
import pytest

from aqc_shield import verify


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def registry_margin():
    """The margin of a ``verify.ALL_CHECKS`` check by name, run once per session.

    The checks share one reports dict, as in one ``verify.verify`` call.
    """
    checks = dict(verify.ALL_CHECKS)
    reports: dict = {}
    margins: dict[str, float] = {}

    def margin(name: str) -> float:
        if name not in margins:
            margins[name] = verify.run_check(checks[name], reports)
        return margins[name]

    return margin


def random_hermitian(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (m + m.conj().T) / 2


def random_density(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho)


def random_state_vector(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)
