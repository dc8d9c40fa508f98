import os

# one BLAS thread: on a few cores the default thread pool makes the
# LAPACK-heavy tests slower and their timings noisy; set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from restalg.corpus import default_corpus, restricted_of  # noqa: E402

SEED = 20260808


def pytest_report_header(config):
    return f"restalg random seed: {SEED}"


@pytest.fixture(scope="session")
def seed():
    return SEED


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(SEED)


@pytest.fixture(scope="session")
def corpus():
    """Base corpus members as (label, semigroup) pairs."""
    return default_corpus(include_restricted=False)


@pytest.fixture(scope="session")
def full_corpus():
    """Base members plus their zero-adjoined variants."""
    return default_corpus(include_restricted=True)


@pytest.fixture(scope="session")
def corpus_restricted():
    """(label, RestrictedSemigroup) for every base member."""
    return [(label, restricted_of(label)) for label, _ in default_corpus(False)]
