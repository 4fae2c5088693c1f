"""Shared fixtures. Eigendecompositions dominate the suite's runtime, so they
are computed once per session and persisted through the on-disk cache; set
ETHBATH_TEST_CACHE to a directory to reuse them across pytest invocations.
"""

import functools
import os

import numpy as np
import pytest

from ethbath.cli import BathModel
from ethbath.hamiltonian import CouplingSpec, SpinChainParams, SystemParams

OMEGA0 = 1.525
KAPPA = 0.15


@pytest.fixture(scope="session")
def cache_dir(tmp_path_factory):
    env = os.environ.get("ETHBATH_TEST_CACHE")
    if env:
        os.makedirs(env, exist_ok=True)
        return env
    return str(tmp_path_factory.mktemp("eigcache"))


@pytest.fixture(scope="session")
def model(cache_dir):
    """Factory: (L, preset) -> BathModel of the qubit with the standard sigma^x
    coupling to bath site 1; its eigensystems are memoized on the model."""

    @functools.lru_cache(maxsize=None)
    def make(L: int, preset: str) -> BathModel:
        maker = SpinChainParams.chaotic if preset == "chaotic" else SpinChainParams.integrable
        return BathModel(SystemParams(OMEGA0), maker(L), CouplingSpec(kappa=KAPPA), cache_dir)

    return make


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260826)
