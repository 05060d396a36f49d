import numpy as np
import pytest

from transduction_mir import ReceptorSpec, Transition, TruncatedGaussianSpec, chr2_skeleton


@pytest.fixture
def canonical_dist():
    """The workhorse input: parent N(1, 0.5^2) truncated to [1e-5, 2]."""
    return TruncatedGaussianSpec(mu_bar=1.0, sigma_bar=0.5, a=1e-5, b=2.0)


@pytest.fixture
def unit_chr2():
    """Three-state skeleton with unit placeholder rates."""
    return chr2_skeleton()


def random_valid_dist(rng: np.random.Generator) -> TruncatedGaussianSpec:
    """Draw a valid spec from the regime the package targets.

    Truncations follow the intensity-window geometry of the shipped sweeps
    (lower cut near zero, upper cut near 2).
    """
    mu_bar = rng.uniform(0.05, 2.0)
    sigma_bar = rng.uniform(0.05, 1.0)
    a = rng.uniform(0.0, 0.1)
    b = rng.uniform(1.8, 2.2)
    return TruncatedGaussianSpec(mu_bar, sigma_bar, a, b)


def five_state_receptor():
    """Branching five-state receptor; rows 0-3 each hold a sensitive rate."""
    return ReceptorSpec(
        name="branching",
        states=("A", "B", "C", "D", "E"),
        transitions=(
            Transition(0, 1, 2.0, True),
            Transition(0, 3, 1.0, True),
            Transition(1, 2, 1.5, True),
            Transition(1, 0, 0.7, False),
            Transition(2, 4, 1.0, False),
            Transition(2, 1, 0.8, True),
            Transition(3, 4, 1.2, True),
            Transition(3, 0, 0.5, False),
            Transition(4, 0, 1.3, False),
            Transition(4, 2, 0.6, False),
        ),
    )
