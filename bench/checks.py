"""Checks of every report the benchmark gets from the program.

Each check returns the names of the checks that failed. An operation fails
when its exit code is not 0 or when any check fails. Expected values come
from ``oracle``; the program's numbers are compared against them, or, where
the report carries a residual the oracle cannot recompute, against the
tolerance the program declares for it.
"""

from __future__ import annotations

import json
import math

import oracle
from workloads import Op

# Checks that fail because of a fault the benchmark keeps in its workloads,
# each with the fault's name. An exit code of 3 is explained by a failure
# among the checks of the same call that a known fault explains.
KNOWN_FAULTS = {
    "dynamics.determinant": "determinant drift",
    "geometry.rotation_order": "polygon powers",
    "geometry.lift_order": "polygon powers",
}

LAB_EPSILONS = (1e-2, 1e-3)  # verify-dynamics defaults
LAB_ITERATES = 2
LAB_SAMPLES = 1000


class Expected:
    """Oracle values for one operation, computed once before timing."""

    def __init__(self, op: Op):
        self.op = op
        self.data = oracle.seifert(op.exponents)
        self.dims = oracle.closed_form(self.data, op.floor) if op.floor is not None else None

    def check(self, outputs: list[tuple[int, str]]) -> list[str]:
        """Names of the failed checks of one operation's (exit code, JSON text) pairs."""
        try:
            if self.dims is not None:
                return self._compare(*outputs[0])
            return self._lab(outputs)
        except (KeyError, TypeError, ValueError, IndexError):
            return ["report.malformed"]

    def _compare(self, code: int, text: str) -> list[str]:
        report = json.loads(text)
        failed = []
        if code != 0:
            failed.append("compare.exit")
        if oracle.seifert_payload_errors(self.data, report.get("seifert", {})):
            failed.append("compare.seifert")
        if _int_keys(report.get("homology", {}).get("dims")) != self.dims:
            failed.append("compare.homology")
        if _int_keys(report.get("oracle")) != self.dims:
            failed.append("compare.oracle")
        comparison = report.get("comparison", {})
        if comparison.get("equal") is not True or comparison.get("floor") != self.op.floor:
            failed.append("compare.equal")
        return failed

    def _lab(self, outputs: list[tuple[int, str]]) -> list[str]:
        (geo_code, geo_text), (dyn_code, dyn_text) = outputs
        geometry = json.loads(geo_text)
        failed = []
        if geo_code != 0:
            failed.append("geometry.exit")
        if oracle.seifert_payload_errors(self.data, geometry.get("seifert", {})):
            failed.append("geometry.seifert")
        verification = geometry.get("verification", {})
        vertices = [complex(x, y) for x, y in verification.get("vertices", [])]
        failed += self._geometry(vertices, verification)
        dynamics = json.loads(dyn_text)
        if dyn_code != 0:
            failed.append("dynamics.exit")
        if oracle.seifert_payload_errors(self.data, dynamics.get("seifert", {})):
            failed.append("dynamics.seifert")
        failed += self._dynamics(vertices, dynamics.get("verification", {}))
        return failed

    def _geometry(self, vertices: list[complex], verification: dict) -> list[str]:
        exponents = self.data.exponents
        if len(vertices) != len(exponents) or any(v.imag <= 0 for v in vertices):
            return ["geometry.vertices"]
        failed = []
        if abs(vertices[-1] - 1j) > 1e-15:
            failed.append("geometry.apex")
        angles = oracle.interior_angles(vertices)
        if any(abs(got - math.pi / a) > oracle.ANGLE_TOL for got, a in zip(angles, exponents)):
            failed.append("geometry.angles")
        target = math.pi * float(self.data.gap)
        recomputed = (len(angles) - 2) * math.pi - sum(angles)
        measured = verification.get("area", {}).get("measured", math.nan)
        errors = (abs(measured - target), abs(recomputed - target))
        if not all(error <= oracle.AREA_TOL for error in errors):
            failed.append("geometry.area")
        for name, value in verification.get("relations", {}).items():
            tol = oracle.INVARIANCE_TOL if name.startswith("lift") else oracle.MATRIX_RELATION_TOL
            if not value <= tol:
                failed.append("geometry." + name.split("[")[0])
        if not verification.get("relations"):
            failed.append("geometry.relations")
        return sorted(set(failed))

    def _dynamics(self, vertices: list[complex], verification: dict) -> list[str]:
        failed = set()
        invariance = verification.get("invariance", {})
        if invariance.get("samples") != LAB_SAMPLES or not (
            invariance.get("max_form_residual", math.inf) < oracle.INVARIANCE_TOL
            and invariance.get("max_frame_residual", math.inf) < oracle.INVARIANCE_TOL
        ):
            failed.add("dynamics.invariance")
        rows = verification.get("rotation_table", [])
        expected_keys = [
            (j, n, eps)
            for j in range(1, len(self.data.counts) + 1)
            for n in range(1, LAB_ITERATES + 1)
            for eps in LAB_EPSILONS
        ]
        if len(rows) != len(expected_keys) or len(vertices) != len(self.data.counts):
            return sorted(failed | {"dynamics.rows"})
        for row, (j, n, requested) in zip(rows, expected_keys):
            ratio = oracle.rotation_ratio(self.data, j, n)
            if (row.get("vertex"), row.get("iterate")) != (j, n) or "error" in row:
                failed.add("dynamics.rows")
                continue
            epsilon = row["epsilon"]
            if not 0.0 < epsilon <= requested:
                failed.add("dynamics.epsilon")
            if row["period_2pi"] != str(ratio):
                failed.add("dynamics.period")
            if row["cz"] != -2 * math.floor(ratio) - 1:
                failed.add("dynamics.cz")
            height = vertices[j - 1].imag
            analytic = -2.0 * epsilon * height**2 * 2.0 * math.pi * float(ratio)
            if not abs(row["ode_angle"] - analytic) <= oracle.ODE_VS_ANALYTIC_TOL * abs(analytic):
                failed.add("dynamics.ode_angle")
            if not row["determinant_error"] <= oracle.DETERMINANT_TOL:
                failed.add("dynamics.determinant")
        return sorted(failed)


def _int_keys(dims) -> dict[int, int] | None:
    if not isinstance(dims, dict):
        return None
    return {int(k): v for k, v in dims.items()}


def unexplained(failed: list[str]) -> list[str]:
    """Failed checks that no fault named in KNOWN_FAULTS explains."""
    known = [name for name in failed if name in KNOWN_FAULTS]
    out = []
    for name in failed:
        if name in KNOWN_FAULTS:
            continue
        layer, _, check = name.partition(".")
        if check == "exit" and any(k.startswith(layer + ".") for k in known):
            continue
        out.append(name)
    return out

