import os
from pathlib import Path

import pytest

from snskit import ExperimentalParams, SecurityBudget, SourceParams, simulate


def pytest_configure(config):
    # pyproject's pythonpath covers this process; the CLI tests start child
    # interpreters (python -m snskit), which find the package the same way.
    src = str(Path(__file__).resolve().parent.parent / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))


def table1_exp(L_total: float, N: float = 1e12, **overrides) -> ExperimentalParams:
    """Default hardware at a symmetric total distance."""
    kwargs = dict(
        p_d=1e-8, e_d=0.03, eta_d=0.30, f=1.1, alpha_f=0.2,
        N=N, L_A=L_total / 2, L_B=L_total / 2,
    )
    kwargs.update(overrides)
    return ExperimentalParams(**kwargs)


# Fixed source vector used by every golden-value test (rounded from a 300 km
# optimization; the exact numbers only matter in that they are frozen).
GOLDEN_SRC = dict(p_z=0.92, eps=0.28, p0=0.025, p1=0.927, mu1=0.046, mu2=0.274, mu_z=0.504)


@pytest.fixture(scope="session")
def golden_src() -> SourceParams:
    return SourceParams.symmetric(**GOLDEN_SRC)


@pytest.fixture(scope="session")
def golden_exp() -> ExperimentalParams:
    return table1_exp(300.0)


@pytest.fixture(scope="session")
def golden_obs(golden_exp, golden_src):
    return simulate(golden_exp, golden_src)


@pytest.fixture(scope="session")
def default_budget():
    return SecurityBudget()


@pytest.fixture(scope="session")
def free_budget():
    """Fluctuation-free switch: every Chernoff use bypassed."""
    return SecurityBudget(xi_default=1.0, xi_e1=1.0)
