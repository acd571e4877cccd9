"""Command-line front end.

Subcommands:

  invariants        exponent validation and the Seifert invariant table
  generators        orbit generators under a grading floor or action bound
  complex           chain groups and differential matrices per fiber class
  homology          graded homology assembled from the chain complexes
  compare           chain-level homology against the closed form
  verify-geometry   polygon construction, area, and group relations
  verify-dynamics   invariance residuals and return-map rotation table

Exit codes: 0 success, 1 refused input, 2 comparison mismatch, 3 failed
computation or numerical tolerance. ``run`` is the one place that turns
errors into exit codes; each class in ``brieskorn.errors`` declares its
own. Reports are deterministic for a fixed configuration and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from dataclasses import dataclass, field, replace
from fractions import Fraction

from . import tolerances as tol_mod
from .closedform import chain_homology, closed_form_homology, compare_graded
from .dynamics import LocalModel, linearized_return_map
from .errors import BrieskornError, ConfigError, NondegeneracyFailure, RelationFailure
from .halfplane import LiftedIsometry, invariance_residuals, random_mobius, random_point
from .homology import poincare_series
from .invariants import seifert_data, validate_params
from .orbits import EXCEPTIONAL, build_complex, conley_zehnder, enumerate_generators
from .polygon import (
    build_polygon_group,
    check_relations,
    expected_area,
    measured_area,
    measured_interior_angles,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_MISMATCH = 2
EXIT_TOLERANCE = 3


@dataclass
class RunConfig:
    exponents: list[int]
    mode: str
    grading_floor: int = -10
    action_bound: Fraction | None = None
    classes: int | None = None
    format: str = "json"
    tolerances: dict[str, float] = field(default_factory=dict)
    rng_seed: int = 0
    samples: int = 1000
    epsilons: tuple[float, ...] = (1e-2, 1e-3)
    iterates: int = 2


def _dims_payload(dims) -> dict[str, int]:
    return {str(k): v for k, v in sorted(dims.items(), reverse=True)}


def _seifert_payload(data) -> dict:
    payload = {
        "d": data.d,
        "m": data.m,
        "fiber_winding": data.fiber_winding,
        "orbifold_counts": [list(pair) for pair in data.orbifold_counts],
        "genus": data.genus,
        "minima_count": data.minima_count,
    }
    if data.s is not None:
        payload["s"] = str(data.s)
    return payload


def _generator_payload(gen) -> dict:
    return {
        "label": gen.label,
        "kind": gen.kind,
        "j": gen.j,
        "point": gen.point,
        "saddle": gen.saddle,
        "iterate": gen.iterate,
        "cz": gen.cz,
        "grading": gen.grading,
        "action_2pi": str(gen.action),
        "fiber_class": gen.fiber_class,
    }


def _run_generators(config: RunConfig, data, report: dict) -> int:
    if config.action_bound is not None:
        gens = enumerate_generators(data, action_bound=config.action_bound)
    else:
        gens = enumerate_generators(data, grading_floor=config.grading_floor)
    report["generators"] = [_generator_payload(g) for g in gens]
    return EXIT_OK


def _run_complex(config: RunConfig, data, report: dict) -> int:
    classes = config.classes if config.classes is not None else 1
    payload = []
    for n in range(1, classes + 1):
        complex_ = build_complex(data, n)
        entry = {
            "class": complex_.class_label,
            "generators": {
                str(k): [g.label for g in gens]
                for k, gens in sorted(complex_.generators_by_grading.items(), reverse=True)
            },
            "matrices": {
                str(k): [[int(x) for x in row] for row in mat.entries]
                for k, mat in sorted(complex_.differential.items(), reverse=True)
            },
        }
        payload.append(entry)
    report["differentials"] = payload
    return EXIT_OK


def _run_homology(config: RunConfig, data, report: dict) -> int:
    dims = chain_homology(data, config.grading_floor, config.classes)
    series = poincare_series(dims, config.grading_floor)
    report["homology"] = {"dims": _dims_payload(dims), "series": series.text}
    return EXIT_OK


def _run_compare(config: RunConfig, data, report: dict) -> int:
    floor = config.grading_floor
    chain = chain_homology(data, floor, config.classes)
    oracle = closed_form_homology(data, floor)
    comparison = compare_graded(chain, oracle, floor)
    report["homology"] = {"dims": _dims_payload(chain)}
    report["oracle"] = _dims_payload(oracle)
    payload = {"equal": comparison.equal, "floor": floor}
    if comparison.first_mismatch is not None:
        grading, chain_dim, oracle_dim = comparison.first_mismatch
        payload["first_mismatch"] = {
            "grading": grading,
            "chain": chain_dim,
            "oracle": oracle_dim,
        }
    report["comparison"] = payload
    return EXIT_OK if comparison.equal else EXIT_MISMATCH


def _run_verify_geometry(config: RunConfig, data, report: dict) -> int:
    tols = config.tolerances
    group = build_polygon_group(data.params, tolerances=tols)
    area = measured_area(group)
    target = expected_area(data.params)
    angles = measured_interior_angles(group)
    # build_polygon_group has already held these against tols["angle"]
    angle_errors = [
        abs(got - math.pi / a) for got, a in zip(angles, data.params.exponents)
    ]
    verification = {
        "area": {
            "measured": area,
            "expected": target,
            "error": abs(area - target),
            "tolerance": tols["area"],
        },
        "angle_errors": angle_errors,
        "vertices": [[v.real, v.imag] for v in group.vertices],
    }
    code = EXIT_TOLERANCE if tol_mod.exceeds(abs(area - target), tols["area"]) else EXIT_OK
    try:
        residuals = check_relations(
            group, samples=min(config.samples, 50) or 20, seed=config.rng_seed,
            tolerances=tols,
        ).residuals
    except RelationFailure as exc:
        residuals = exc.report.residuals
        code = EXIT_TOLERANCE
    verification["relations"] = dict(sorted(residuals.items()))
    report["verification"] = verification
    return code


def _run_verify_dynamics(config: RunConfig, data, report: dict) -> int:
    tols = config.tolerances
    rng = random.Random(config.rng_seed)
    elements, points = [], []
    for _ in range(config.samples):
        elements.append(LiftedIsometry.canonical(random_mobius(rng)))
        points.append(random_point(rng))
    # an array maximum carries a NaN through, where Python's max would drop it
    worst_form, worst_frame = (
        float(r.max(initial=0.0)) for r in invariance_residuals(elements, points)
    )
    invariance_ok = not any(
        tol_mod.exceeds(worst, tols["invariance"]) for worst in (worst_form, worst_frame)
    )

    group = build_polygon_group(data.params, tolerances=tols)
    table = []
    rotations_ok = True
    for j, (_, t_j) in enumerate(data.orbifold_counts, start=1):
        vertex = group.vertices[j - 1]
        ratio_simple = Fraction(data.d, data.m * t_j)
        for n in range(1, config.iterates + 1):
            ratio = ratio_simple * n
            period = 2.0 * math.pi * float(ratio)
            cz_formula = conley_zehnder(data, EXCEPTIONAL, n, j)
            # requested epsilons that clamp to one window limit share one integration
            outcomes = {}
            for requested in config.epsilons:
                model = LocalModel.in_window(vertex, ratio, requested)
                row = {
                    "vertex": j,
                    "iterate": n,
                    "epsilon": model.epsilon,
                    "period_2pi": str(ratio),
                }
                if model.epsilon not in outcomes:
                    try:
                        outcomes[model.epsilon] = linearized_return_map(
                            model, period, period_ratio=ratio, tolerances=tols
                        )
                    except NondegeneracyFailure as exc:
                        outcomes[model.epsilon] = exc
                result = outcomes[model.epsilon]
                if isinstance(result, NondegeneracyFailure):
                    row["error"] = str(result)
                    rotations_ok = False
                    table.append(row)
                    continue
                row.update(
                    {
                        "analytic_angle": result.analytic_angle,
                        "ode_angle": result.rotation_angle,
                        "relative_error": result.relative_error,
                        "determinant_error": abs(result.determinant - 1.0),
                        "cz": result.cz_index,
                        "cz_formula": cz_formula,
                    }
                )
                if (
                    tol_mod.exceeds(result.relative_error, tols["ode_vs_analytic"])
                    or tol_mod.exceeds(abs(result.determinant - 1.0), tols["determinant"])
                    or result.cz_index != cz_formula
                ):
                    rotations_ok = False
                table.append(row)

    report["verification"] = {
        "invariance": {
            "samples": config.samples,
            "max_form_residual": worst_form,
            "max_frame_residual": worst_frame,
            "tolerance": tols["invariance"],
        },
        "rotation_table": table,
    }
    return EXIT_OK if invariance_ok and rotations_ok else EXIT_TOLERANCE


_RUNNERS = {
    "invariants": lambda config, data, report: EXIT_OK,  # the invariant table only
    "generators": _run_generators,
    "complex": _run_complex,
    "homology": _run_homology,
    "compare": _run_compare,
    "verify-geometry": _run_verify_geometry,
    "verify-dynamics": _run_verify_dynamics,
}


def run(config: RunConfig) -> tuple[int, dict]:
    """Execute one mode, returning (exit code, report payload).

    The only place that maps errors to exit codes: a BrieskornError becomes
    the report's ``errors`` entry, and its class declares the exit code.
    """
    report: dict = {
        "params": {"exponents": list(config.exponents)},
        "mode": config.mode,
        "seed": config.rng_seed,
    }
    try:
        config = replace(config, tolerances=tol_mod.resolve(config.tolerances))
        for name in ("samples", "iterates"):
            if getattr(config, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(config, name)}")
        data = seifert_data(validate_params(config.exponents))
        report["seifert"] = _seifert_payload(data)
        code = _RUNNERS[config.mode](config, data, report)
    except BrieskornError as exc:
        report["errors"] = [exc.payload()]
        return exc.exit_code, report
    return code, report


def _render_text(report: dict) -> str:
    lines = []
    if "params" in report:  # absent when an argument was refused before the run
        lines.append(f"exponents: {tuple(report['params']['exponents'])}")
    if "errors" in report:
        for err in report["errors"]:
            lines.append(f"error[{err['type']}]: {err['message']}")
        return "\n".join(lines)
    seifert = report["seifert"]
    lines.append(
        "invariants: d={d} m={m} fiber_winding={fiber_winding} genus={genus} "
        "minima={minima_count}".format(**seifert)
    )
    lines.append(f"orbifold points (count, multiplicity): {seifert['orbifold_counts']}")
    if "generators" in report:
        lines.append(f"{len(report['generators'])} generators:")
        for g in report["generators"]:
            lines.append(
                f"  {g['label']:>12}  kind={g['kind']:<11} cz={g['cz']:>5} "
                f"grading={g['grading']:>5} action={g['action_2pi']}*2pi "
                f"class={g['fiber_class']}"
            )
    if "homology" in report:
        lines.append("homology dims:")
        for k, v in report["homology"]["dims"].items():
            lines.append(f"  {k}: {v}")
        if "series" in report["homology"]:
            lines.append(f"series: {report['homology']['series']}")
    if "comparison" in report:
        comp = report["comparison"]
        lines.append(f"comparison equal={comp['equal']} floor={comp['floor']}")
        if "first_mismatch" in comp:
            lines.append(f"  first mismatch: {comp['first_mismatch']}")
    if "differentials" in report:
        for entry in report["differentials"]:
            lines.append(f"class {entry['class']}:")
            for k in entry["generators"]:
                lines.append(f"  grading {k}: {', '.join(entry['generators'][k])}")
            for k, mat in entry["matrices"].items():
                if mat and mat[0]:
                    lines.append(f"  d[{k}] = {mat}")
    if "verification" in report:
        lines.append(json.dumps(report["verification"], indent=2, sort_keys=True))
    return "\n".join(lines)


def _render_tsv(report: dict) -> str:
    rows: list[tuple] = []
    if "errors" in report:
        for err in report["errors"]:
            rows.append(("error", err["type"], err["message"]))
    if "homology" in report:
        for k, v in report["homology"]["dims"].items():
            rows.append(("grading", k, v))
    if "oracle" in report:
        for k, v in report["oracle"].items():
            rows.append(("oracle", k, v))
    if "comparison" in report:
        rows.append(("equal", report["comparison"]["equal"], report["comparison"]["floor"]))
    if "generators" in report:
        for g in report["generators"]:
            rows.append(
                ("generator", g["label"], g["kind"], g["iterate"], g["cz"],
                 g["grading"], g["action_2pi"], g["fiber_class"])
            )
    if not rows and "seifert" in report:
        for key in ("d", "m", "fiber_winding", "genus", "minima_count"):
            rows.append((key, report["seifert"][key]))
    return "\n".join("\t".join(str(x) for x in row) for row in rows)


def render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True)
    if fmt == "tsv":
        return _render_tsv(report)
    return _render_text(report)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brieskorn",
        description="Graded Reeb-orbit homology of Brieskorn 3-manifolds of "
        "hyperbolic type, with numerical verification of the geometry behind it.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)

    def common(p):
        p.add_argument("--exponents", required=True,
                       help="comma separated exponents, e.g. 2,3,7")
        p.add_argument("--format", choices=("json", "tsv", "text"), default="json")
        p.add_argument("--seed", type=int, default=0, dest="rng_seed")
        p.add_argument("--tol", action="append", default=[], metavar="NAME=VALUE",
                       help="tolerance override; repeatable "
                            f"(also via ${tol_mod.ENV_VAR})")

    p = sub.add_parser("invariants", help="validate exponents, print the invariant table")
    common(p)

    p = sub.add_parser("generators", help="enumerate orbit generators")
    common(p)
    p.add_argument("--grading-floor", type=int, dest="grading_floor", default=None)
    p.add_argument("--action-bound", dest="action_bound", default=None,
                   help="rational multiple of 2*pi, e.g. 2 or 5/2")

    p = sub.add_parser("complex", help="chain groups and differentials per fiber class")
    common(p)
    p.add_argument("--classes", type=int, default=1)

    for p in (
        sub.add_parser("homology", aliases=["compute-homology"],
                       help="graded homology from the chain complexes"),
        sub.add_parser("compare", help="chain homology against the closed form"),
    ):
        common(p)
        p.add_argument("--grading-floor", type=int, dest="grading_floor", default=-10)
        p.add_argument("--classes", type=int, default=None)

    p = sub.add_parser("verify-geometry", help="polygon area, angles, group relations")
    common(p)
    p.add_argument("--samples", type=int, default=20)

    p = sub.add_parser("verify-dynamics", help="invariance residuals, rotation table")
    common(p)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--epsilon", action="append", type=float, default=None,
                   dest="epsilons", help="perturbation size; repeatable")
    p.add_argument("--iterates", type=int, default=2)

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    exponents = [int(x) for x in str(args.exponents).split(",") if x.strip()]
    mode = args.mode if args.mode != "compute-homology" else "homology"
    action_bound = getattr(args, "action_bound", None)
    if action_bound is not None:
        action_bound = Fraction(action_bound)
    grading_floor = getattr(args, "grading_floor", None)
    if action_bound is not None and grading_floor is not None:
        raise ConfigError("--grading-floor and --action-bound are mutually exclusive")
    epsilons = getattr(args, "epsilons", None)
    return RunConfig(
        exponents=exponents,
        mode=mode,
        grading_floor=-10 if grading_floor is None else grading_floor,
        action_bound=action_bound,
        classes=getattr(args, "classes", None),
        format=args.format,
        tolerances=tol_mod.parse_pairs(args.tol),
        rng_seed=args.rng_seed,
        samples=getattr(args, "samples", 1000),
        epsilons=tuple(epsilons) if epsilons else (1e-2, 1e-3),
        iterates=getattr(args, "iterates", 2),
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
    except (ValueError, ZeroDivisionError) as exc:
        report = {"errors": [{"type": "ConfigError", "message": str(exc)}]}
        # a refused argument prints one compact JSON line; other formats are rendered
        print(json.dumps(report) if args.format == "json" else render(report, args.format))
        return EXIT_VALIDATION
    code, report = run(config)
    print(render(report, config.format))
    return code


if __name__ == "__main__":
    sys.exit(main())
