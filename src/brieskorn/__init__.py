"""Cylindrical contact homology of Brieskorn 3-manifolds of hyperbolic type.

The package splits into an exact combinatorial pipeline (validated
exponents -> Seifert invariants -> graded orbit complexes -> rational
homology -> closed-form cross-check) and a numerical laboratory that
verifies the hyperbolic-geometric and dynamical inputs behind it
(invariant contact form and frame, polygon reflection groups and their
lifted relations, linearized return-map rotation).
"""

from .closedform import (
    ClosedFormAnswer,
    ComparisonReport,
    PeriodicDims,
    chain_homology,
    closed_form_answer,
    closed_form_homology,
    compare_graded,
)
from .errors import (
    BrieskornError,
    ConfigError,
    ConstructionFailure,
    DegenerateInput,
    InconsistentComplex,
    InvalidExponent,
    NondegeneracyFailure,
    NotHyperbolic,
)
from .dynamics import (
    LinearizedReturn,
    LocalModel,
    integrate_monodromy,
    linearized_return_map,
)
from .halfplane import LiftedIsometry, MobiusElement
from .homology import (
    GradedDims,
    PoincareSeries,
    RationalMatrix,
    graded_homology,
    poincare_series,
)
from .invariants import BrieskornParams, SeifertData, seifert_data, validate_params
from .orbits import (
    GradedComplex,
    OrbitGenerator,
    build_complex,
    conley_zehnder,
    enumerate_generators,
)
from .polygon import (
    PolygonGroup,
    build_polygon_group,
    check_relations,
    expected_area,
    measured_area,
    measured_interior_angles,
)

__version__ = "0.1.0"

__all__ = [
    "BrieskornError",
    "BrieskornParams",
    "ClosedFormAnswer",
    "ComparisonReport",
    "ConfigError",
    "ConstructionFailure",
    "DegenerateInput",
    "GradedComplex",
    "GradedDims",
    "InconsistentComplex",
    "InvalidExponent",
    "LiftedIsometry",
    "LinearizedReturn",
    "LocalModel",
    "MobiusElement",
    "NondegeneracyFailure",
    "NotHyperbolic",
    "OrbitGenerator",
    "PeriodicDims",
    "PoincareSeries",
    "PolygonGroup",
    "RationalMatrix",
    "SeifertData",
    "build_complex",
    "build_polygon_group",
    "chain_homology",
    "check_relations",
    "closed_form_answer",
    "closed_form_homology",
    "compare_graded",
    "conley_zehnder",
    "enumerate_generators",
    "expected_area",
    "graded_homology",
    "integrate_monodromy",
    "linearized_return_map",
    "measured_area",
    "measured_interior_angles",
    "poincare_series",
    "seifert_data",
    "validate_params",
]
