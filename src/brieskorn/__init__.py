"""Cylindrical contact homology of Brieskorn 3-manifolds of hyperbolic type.

The package splits into an exact combinatorial pipeline (validated
exponents -> Seifert invariants -> graded orbit complexes -> rational
homology -> closed-form cross-check) and a numerical laboratory that
verifies the hyperbolic-geometric and dynamical inputs behind it
(invariant contact form and frame, polygon reflection groups and their
lifted relations, linearized return-map rotation).

Each public name is loaded from its module on first use, so the exact
pipeline runs without the laboratory's modules or numpy.
"""

import importlib

__version__ = "0.1.0"

# each public name and the module that defines it
_HOMES = {
    "BrieskornError": "errors",
    "BrieskornParams": "invariants",
    "ClosedFormAnswer": "closedform",
    "ComparisonReport": "closedform",
    "ConfigError": "errors",
    "ConstructionFailure": "errors",
    "DegenerateInput": "errors",
    "GradedComplex": "orbits",
    "GradedDims": "homology",
    "InconsistentComplex": "errors",
    "InvalidExponent": "errors",
    "LiftedIsometry": "halfplane",
    "LinearizedReturn": "dynamics",
    "LocalModel": "dynamics",
    "MobiusElement": "halfplane",
    "NondegeneracyFailure": "errors",
    "NotHyperbolic": "errors",
    "OrbitGenerator": "orbits",
    "PeriodicDims": "closedform",
    "PoincareSeries": "homology",
    "PolygonGroup": "polygon",
    "RationalMatrix": "homology",
    "SeifertData": "invariants",
    "build_complex": "orbits",
    "build_polygon_group": "polygon",
    "chain_homology": "closedform",
    "check_relations": "polygon",
    "closed_form_answer": "closedform",
    "closed_form_homology": "closedform",
    "compare_graded": "closedform",
    "conley_zehnder": "orbits",
    "enumerate_generators": "orbits",
    "expected_area": "polygon",
    "graded_homology": "homology",
    "integrate_monodromy": "dynamics",
    "linearized_return_map": "dynamics",
    "measured_area": "polygon",
    "measured_interior_angles": "polygon",
    "poincare_series": "homology",
    "seifert_data": "invariants",
    "validate_params": "invariants",
}
__all__ = list(_HOMES)


def __getattr__(name: str):
    """Load a public name from its module on first use (PEP 562)."""
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_HOMES[name]}", __name__)
    value = globals()[name] = getattr(module, name)
    return value
