"""Randomized rounding for half-integral metric TSP instances.

The library samples spanning connectors from a hierarchy of near-minimum
cuts, builds fractional parity-correction vectors whose expected value beats
the naive 1/2-per-edge bound on every verified cut, and ships exhaustive
enumeration oracles that certify each probability bound exactly.
"""

from importlib import metadata

from .cuts import CutHierarchy, InternalHierarchyError, MinCut, build_hierarchy
from .degreecut import (
    DegreeCutError,
    decompose_matching,
    degree_cut_witness,
    run_degree_cut,
)
from .instance import (
    GADGET_BUILDERS,
    GENERATOR_FAMILIES,
    HalfIntegralInstance,
    InstanceError,
    build_support_graph,
    generate_instance,
    make_instance,
    parse_instance,
    serialize_instance,
)
from .maxent import FitConvergenceError, fit_lambda
from .ojoin import (
    ChargingParams,
    JoinCalculator,
    PlanError,
    PreparedInstance,
    build_join_vector,
    check_feasible,
    prepare_instance,
    run_sample,
    sample_hierarchical_tree,
    sample_rng,
)
from .oracle import (
    LemmaCheck,
    ResourceCapError,
    exact_pipeline_expectations,
    hoeffding_extremal,
    run_lemma_battery,
)

try:
    __version__ = metadata.version("hitsp")
except metadata.PackageNotFoundError:  # running from a source tree
    __version__ = "1.0.0"

__all__ = [
    "ChargingParams",
    "CutHierarchy",
    "DegreeCutError",
    "FitConvergenceError",
    "GADGET_BUILDERS",
    "GENERATOR_FAMILIES",
    "HalfIntegralInstance",
    "InstanceError",
    "InternalHierarchyError",
    "JoinCalculator",
    "LemmaCheck",
    "MinCut",
    "PlanError",
    "PreparedInstance",
    "ResourceCapError",
    "build_hierarchy",
    "build_join_vector",
    "build_support_graph",
    "check_feasible",
    "decompose_matching",
    "degree_cut_witness",
    "exact_pipeline_expectations",
    "fit_lambda",
    "generate_instance",
    "hoeffding_extremal",
    "make_instance",
    "parse_instance",
    "prepare_instance",
    "run_degree_cut",
    "run_lemma_battery",
    "run_sample",
    "sample_hierarchical_tree",
    "sample_rng",
    "serialize_instance",
]
