import numpy as np
import pytest

from gammakde import ReferenceDensity, maxwell_reference, mise_integrals


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


def quadrature_only(ref: ReferenceDensity) -> ReferenceDensity:
    """The same density without params: its selector integrals run by quadrature."""
    return ReferenceDensity(ref.label, ref.derivs)


@pytest.fixture(scope="session")
def maxwell():
    return maxwell_reference()


@pytest.fixture(scope="session")
def maxwell_integrals(maxwell):
    # Shared across tests: the three global integrals are pure functions of
    # the reference density.
    return mise_integrals(maxwell)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260815)
