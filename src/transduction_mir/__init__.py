"""Information rates of intensity-driven signal-transduction channels.

Receptors are finite-state Markov chains whose sensitive transition rates
scale linearly with an IID truncated-Gaussian input intensity.  The package
computes the mutual information rate of that channel exactly (quadrature of
the Jensen gap of x ln x), approximately (truncated series), with closed-form
lower/upper bounds, and empirically (Monte Carlo), and sweeps the input
parameters to locate capacity-achieving settings.
"""

from .bounds import BoundPair, h_s, jensen_gap_bounds, mir_bounds
from .errors import (
    ConfigError,
    DegenerateArgument,
    DomainError,
    EmptySweep,
    InsufficientData,
    MirError,
    NoConvergence,
    NotIrreducible,
    OrderTooHigh,
    OutOfConvergenceRegion,
    StepTooLarge,
    ValidationError,
)
from .mcsim import (
    McEstimate,
    Trajectory,
    dump_trajectory,
    estimate_mir,
    simulate,
)
from .mir import (
    MirResult,
    jensen_gap,
    mir_discrete,
    mir_quadrature,
    mir_series,
    plogp,
    xlnx,
)
from .receptor import (
    ReceptorSpec,
    Transition,
    chr2_skeleton,
    load_receptor,
    sensitive_gain,
    stationary_distribution,
)
from .sweep import (
    GridAxis,
    SweepConfig,
    SweepRow,
    SweepTable,
    audit_rows,
    find_capacity,
    rows_from_csv,
    rows_from_json,
    rows_to_csv,
    rows_to_json,
    run_sweep,
    write_rows,
)
from .truncgauss import (
    MomentTable,
    TruncatedGaussianSpec,
    expectation,
    raw_moments,
    sample,
    shifted_moment_vector,
)

__version__ = "0.1.0"
