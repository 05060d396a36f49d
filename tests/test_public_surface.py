"""The package's public names are frozen, and the README's library example runs."""

import types
from pathlib import Path

import transduction_mir

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC_NAMES = [
    "BoundPair", "ConfigError", "DegenerateArgument", "DomainError", "EmptySweep",
    "GridAxis", "InsufficientData", "McEstimate", "MirError", "MirResult",
    "MomentTable", "NoConvergence", "NotIrreducible", "OrderTooHigh",
    "OutOfConvergenceRegion", "ReceptorSpec", "StepTooLarge", "SweepConfig",
    "SweepRow", "SweepTable", "Trajectory", "Transition", "TruncatedGaussianSpec",
    "ValidationError", "audit_rows", "chr2_skeleton", "dump_trajectory",
    "estimate_mir", "expectation", "find_capacity", "h_s", "jensen_gap",
    "jensen_gap_bounds", "load_receptor", "mir_bounds", "mir_discrete",
    "mir_quadrature", "mir_series", "plogp", "raw_moments", "rows_from_csv",
    "rows_from_json", "rows_to_csv", "rows_to_json", "run_sweep", "sample",
    "sensitive_gain", "shifted_moment_vector", "simulate",
    "stationary_distribution", "write_rows", "xlnx",
]

#: Names that only the tests used; they now live in tests/oracles.py.
REMOVED_NAMES = [
    "RateMatrix", "TransitionMatrix", "SteadyState", "build_rate_matrix",
    "transition_matrix", "steady_state", "density", "scale", "moments_about",
    "mc_gap", "empirical_occupancy", "bigram_counts", "h_s_limit", "sensitive_pairs",
]


def public_names():
    """Public attributes other than submodules (which appear once imported)."""
    return sorted(
        name
        for name, value in vars(transduction_mir).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )


def test_public_names_frozen():
    assert public_names() == sorted(PUBLIC_NAMES)


def test_removed_names_absent():
    for name in REMOVED_NAMES:
        assert not hasattr(transduction_mir, name), name


def test_readme_library_block_runs():
    # run the example as written, so the docs cannot name a removed function
    text = README.read_text()
    block = text.split("## Library", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert namespace["lo"] <= namespace["exact"].value <= namespace["hi"]
    assert abs(namespace["approx"].value - namespace["exact"].value) <= namespace["approx"].gain / 40
    assert namespace["est"].n == 1_000_000
