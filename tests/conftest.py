import numpy as np
import pytest

from transduction_mir import TruncatedGaussianSpec, chr2_skeleton


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
    (lower cut near zero, upper cut near 2); the moment recursion is
    documented as fragile outside it, where the standardized window sits
    strictly inside the parent bulk.
    """
    mu_bar = rng.uniform(0.05, 2.0)
    sigma_bar = rng.uniform(0.05, 1.0)
    a = rng.uniform(0.0, 0.1)
    b = rng.uniform(1.8, 2.2)
    return TruncatedGaussianSpec(mu_bar, sigma_bar, a, b)
