"""Clearing payment vectors for financial liability networks.

Given a matrix of interbank debts and a vector of cash holdings, this
package computes the simultaneous settlement outcome by three independent
algorithms (a continuous-time flow, the fictitious-defaults iteration, and
plain fixed-point iteration), characterizes the full set of clearing
vectors when it is not a single point, and computes the minimal cash
injections that end all defaults. Arithmetic is exact rational by default.
"""

from . import errors
from .flow import (
    ClearingResult,
    FDTrace,
    FlowEvent,
    IntervalRates,
    SystemState,
    Transition,
    balance_rates,
    big_bang_partition,
    equilibrium_rates,
    run_flow,
    step,
    trace_line,
)
from .generate import generate_network
from .markov import (
    InvariantDistribution,
    SubMatrix,
    SwampDecomposition,
    active_set,
    closed_classes,
    decompose_nonactive,
    fundamental_solve,
    invariant_distribution,
    is_transient,
    restrict,
    swamp_solution,
)
from .network import (
    FinancialNetwork,
    Partition,
    Status,
    build_network,
    classify_status,
    convert_network,
    initial_partition,
    parse_network,
    parse_network_csv,
    serialize_network,
    serialize_network_csv,
)
from .scalars import FLOAT, RATIONAL, Scalar, to_scalar
from .solvers import (
    BailoutPlan,
    SolutionFamily,
    SwampSolution,
    bailout_vector,
    fictitious_defaults,
    phi,
    picard_iterate,
    solution_family,
    verify_clearing,
)

__version__ = "0.1.0"

__all__ = [
    "BailoutPlan",
    "ClearingResult",
    "FDTrace",
    "FLOAT",
    "FinancialNetwork",
    "FlowEvent",
    "IntervalRates",
    "InvariantDistribution",
    "Partition",
    "RATIONAL",
    "Scalar",
    "SolutionFamily",
    "Status",
    "SubMatrix",
    "SwampDecomposition",
    "SwampSolution",
    "SystemState",
    "Transition",
    "active_set",
    "bailout_vector",
    "balance_rates",
    "big_bang_partition",
    "build_network",
    "classify_status",
    "closed_classes",
    "convert_network",
    "decompose_nonactive",
    "equilibrium_rates",
    "errors",
    "fictitious_defaults",
    "fundamental_solve",
    "generate_network",
    "initial_partition",
    "invariant_distribution",
    "is_transient",
    "parse_network",
    "parse_network_csv",
    "phi",
    "picard_iterate",
    "restrict",
    "run_flow",
    "serialize_network",
    "serialize_network_csv",
    "solution_family",
    "step",
    "swamp_solution",
    "to_scalar",
    "trace_line",
    "verify_clearing",
]
