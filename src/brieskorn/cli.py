"""Command-line front end.

Subcommands:

  invariants        exponent validation and the Seifert invariant table
  generators        orbit generators under a grading floor or action bound
  complex           chain groups and differential matrices per fiber class
  homology          graded homology assembled from the chain complexes
  compare           chain-level homology against the closed form
  verify-geometry   polygon construction, area, and group relations
  verify-dynamics   invariance residuals and return-map rotation table

Each mode's runner fills the report and returns its failures: a missed
tolerance is a ``CheckFailed`` naming the check, its measured value and
the tolerance, a rotation row that cannot be graded a
``NondegeneracyFailure`` naming the same three, a chain homology that
differs from the closed form a ``ComparisonMismatch``, and a raised
``BrieskornError`` ends the run as its only failure. The lab modules only
measure, and this module decides: ``_checked_polygon`` the spin of each
rotation and then the polygon's angles, for both lab modes, ``_hold`` each
value, every group relation of ``verify-geometry`` included, and
``_ungradable`` the degenerate and window checks of each return map of
``verify-dynamics``. The tolerances are resolved once per ``run``. The lab
modules, and numpy with them, are imported only when a lab mode runs.
``run`` is the one place that turns failures into the report's ``errors``
and an exit code: 0 success, 1 refused input, 2 comparison mismatch, 3
failed computation or numerical tolerance, as each class in
``brieskorn.errors`` declares.
Reports are deterministic for a fixed configuration and seed.

JSON prints the report with sorted keys, byte for byte as
``json.dumps(report, indent=2, sort_keys=True)`` would. Text and TSV print
one line per leaf of the report, in its own key order: the leaf's path
(``seifert.d``, ``generators[0].cz``), then `` = `` for text or a tab for
TSV, then the value as compact JSON. Dicts and lists that hold a dict are
walked; any other value, an empty container included, is one leaf, so a
matrix stays on one line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from typing import NoReturn

from . import tolerances as tol_mod
from .closedform import chain_homology, closed_form_homology, compare_graded
from .errors import (
    BrieskornError,
    CheckFailed,
    ComparisonMismatch,
    ConfigError,
    ConstructionFailure,
    NondegeneracyFailure,
)
from .homology import poincare_series
from .invariants import seifert_data, validate_params
from .orbits import EXCEPTIONAL, build_complex, conley_zehnder, enumerate_generators

EXIT_OK = 0
EXIT_VALIDATION = ConfigError.exit_code
EXIT_MISMATCH = ComparisonMismatch.exit_code
EXIT_TOLERANCE = CheckFailed.exit_code

# the sample count of each lab mode when neither the command line nor the
# RunConfig gives one
DEFAULT_SAMPLES = {"verify-geometry": 20, "verify-dynamics": 1000}


@dataclass
class RunConfig:
    exponents: list[int]
    mode: str
    grading_floor: int = -10
    action_bound: Fraction | None = None
    classes: int = 1  # read by the complex mode only
    format: str = "json"
    tolerances: dict[str, float] = field(default_factory=dict)
    rng_seed: int = 0
    samples: int | None = None  # None: the mode's DEFAULT_SAMPLES
    epsilons: tuple[float, ...] = (1e-2, 1e-3)
    iterates: int = 2


def _dims_payload(dims) -> dict[str, int]:
    """The report's dims of a dict already in descending grading order."""
    return dict(zip(map(str, dims), dims.values()))


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


def _hold(failures: list, check: str, value, tolerance) -> None:
    """Record a ``CheckFailed`` unless value <= tolerance; a NaN fails."""
    if tol_mod.exceeds(value, tolerance):
        failures.append(CheckFailed(check, value, tolerance))


# how far, in radians, a rotation generator's spin at its vertex may miss 2*pi/a_j
_SPIN_TOL = 1e-6


def _checked_polygon(params, tols: dict[str, float]) -> tuple:
    """The polygon group of params and its interior-angle errors, once each
    rotation's spin (vertex 1 first) and then the worst angle error have held;
    the first miss, a NaN included, raises ConstructionFailure. An exponent
    past float range, which has no float angle pi/a, is refused before the
    build with ConfigError."""
    from .polygon import build_polygon_group

    for a in params.exponents:
        if a > sys.float_info.max:
            raise ConfigError(f"exponent {a} is past float range; the lab modes need pi/a")
    group = build_polygon_group(params)
    angles = [math.pi / a for a in params.exponents]
    for j, (spin, angle) in enumerate(zip(group.rotation_spins, angles), start=1):
        expected = 2.0 * angle
        wrapped = (spin - expected + math.pi) % (2.0 * math.pi) - math.pi
        if tol_mod.exceeds(abs(wrapped), _SPIN_TOL):
            raise ConstructionFailure(
                f"rotation at vertex {j} spins by {spin:.6f}, expected {expected:.6f}",
                check=f"rotation_spin[{j}]", value=wrapped, tolerance=_SPIN_TOL,
            )
    angle_errors = [abs(got - want) for got, want in zip(group.interior_angles, angles)]
    worst, tolerance = tol_mod.worst(angle_errors), tols["angle"]
    if tol_mod.exceeds(worst, tolerance):
        raise ConstructionFailure(
            f"constructed polygon misses its angles by {worst:.3e}",
            check="angle_error", value=worst, tolerance=tolerance,
        )
    return group, angle_errors


def _ungradable(result, tolerance: float, check: str) -> NondegeneracyFailure | None:
    """The failure of a rotation row whose return map cannot be graded, or None.

    First a rotation within ``tolerance`` of a multiple of 2*pi fails (a NaN
    distance passes), then a correction outside (0, window) (a NaN fails).
    """
    if result.wrapped_rotation <= tolerance:
        return NondegeneracyFailure(
            f"perturbed rotation {result.rotation_angle:.3e} is a multiple of 2*pi; "
            "perturb epsilon",
            check=check, value=result.wrapped_rotation, tolerance=tolerance,
        )
    if not 0.0 < result.correction < result.window:
        return NondegeneracyFailure(
            f"rotation correction {result.correction:.3e} leaves the window "
            f"(0, {result.window:.3e}); shrink epsilon",
            check=check, value=result.correction, tolerance=result.window,
        )
    return None


def _run_generators(config: RunConfig, data, report: dict) -> list:
    if config.action_bound is not None:
        gens = enumerate_generators(data, action_bound=config.action_bound)
    else:
        gens = enumerate_generators(data, grading_floor=config.grading_floor)
    report["generators"] = [_generator_payload(g) for g in gens]
    return []


def _run_complex(config: RunConfig, data, report: dict) -> list:
    payload = []
    for n in range(1, config.classes + 1):
        complex_ = build_complex(data, n)
        entry = {
            "class": complex_.class_label,
            "generators": {
                str(k): [g.label for g in gens]
                for k, gens in sorted(complex_.generators_by_grading.items(), reverse=True)
            },
            "matrices": {
                str(k): [list(row) for row in mat.entries]
                for k, mat in sorted(complex_.differential.items(), reverse=True)
            },
        }
        payload.append(entry)
    report["differentials"] = payload
    return []


def _run_homology(config: RunConfig, data, report: dict) -> list:
    dims = chain_homology(data, config.grading_floor).tiled()
    series = poincare_series(dims, config.grading_floor)
    report["homology"] = {"dims": _dims_payload(dims), "series": series.text}
    return []


def _run_compare(config: RunConfig, data, report: dict) -> list:
    chain = chain_homology(data, config.grading_floor)
    oracle = closed_form_homology(data, config.grading_floor)
    comparison = compare_graded(chain, oracle)
    dims = _dims_payload(chain.tiled())
    report["homology"] = {"dims": dims}
    # sides that agree have equal payloads: the report holds one dict twice,
    # render encodes it once, and the oracle is tiled only on a mismatch
    report["oracle"] = dims if comparison.equal else _dims_payload(oracle.tiled())
    report["comparison"] = {"equal": comparison.equal, "floor": comparison.floor}
    if comparison.equal:
        return []
    grading, chain_dim, oracle_dim = comparison.first_mismatch
    report["comparison"]["first_mismatch"] = {
        "grading": grading,
        "chain": chain_dim,
        "oracle": oracle_dim,
    }
    return [ComparisonMismatch(
        f"at grading {grading} the chain homology has dimension {chain_dim}, "
        f"the closed form {oracle_dim}"
    )]


def _run_verify_geometry(config: RunConfig, data, report: dict) -> list:
    from .polygon import check_relations, expected_area, measured_area

    tols = config.tolerances
    group, angle_errors = _checked_polygon(data.params, tols)
    area = measured_area(group)
    target = expected_area(data.params)
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
    failures = []
    _hold(failures, "verification.area.error", abs(area - target), tols["area"])
    residuals = check_relations(
        group, samples=min(config.samples, 50) or 20, seed=config.rng_seed)
    for name, value in residuals.items():
        _hold(failures, f"verification.relations.{name}", value,
              tols["invariance" if name.startswith("lift") else "matrix_relation"])
    verification["relations"] = dict(sorted(residuals.items()))
    report["verification"] = verification
    return failures


def _run_verify_dynamics(config: RunConfig, data, report: dict) -> list:
    from .dynamics import LocalModel, linearized_return_map
    from .halfplane import invariance_residuals, random_samples

    tols = config.tolerances
    matrices, points = random_samples(config.rng_seed, config.samples)
    # an array maximum carries a NaN through, where Python's max would drop it
    worst_form, worst_frame = (
        float(r.max(initial=0.0)) for r in invariance_residuals(matrices, points)
    )
    failures = []
    _hold(failures, "verification.invariance.max_form_residual", worst_form, tols["invariance"])
    _hold(failures, "verification.invariance.max_frame_residual", worst_frame, tols["invariance"])

    group, _ = _checked_polygon(data.params, tols)
    table = []
    for j, (_, t_j) in enumerate(data.orbifold_counts, start=1):
        vertex = group.vertices[j - 1]
        ratio_simple = Fraction(data.d, data.m * t_j)
        for n in range(1, config.iterates + 1):
            ratio = ratio_simple * n
            cz_formula = conley_zehnder(data, EXCEPTIONAL, n, j)
            # requested epsilons that clamp to one window limit share one integration
            outcomes = {}
            for requested in config.epsilons:
                model = LocalModel.in_window(vertex, ratio, requested)
                if model.epsilon not in outcomes:
                    outcomes[model.epsilon] = linearized_return_map(model, ratio)
                result = outcomes[model.epsilon]
                path = f"verification.rotation_table[{len(table)}]"
                row = {
                    "vertex": j,
                    "iterate": n,
                    "epsilon": model.epsilon,
                    "period_2pi": str(ratio),
                    "steps": result.steps,
                }
                table.append(row)
                failure = _ungradable(result, tols["degenerate_rotation"], f"{path}.ode_angle")
                if failure is not None:
                    row["error"] = str(failure)
                    failures.append(failure)
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
                _hold(failures, f"{path}.relative_error", result.relative_error,
                      tols["ode_vs_analytic"])
                _hold(failures, f"{path}.determinant_error", row["determinant_error"],
                      tols["determinant"])
                _hold(failures, f"{path}.cz - cz_formula", abs(result.cz_index - cz_formula), 0)

    report["verification"] = {
        "invariance": {
            "samples": config.samples,
            "max_form_residual": worst_form,
            "max_frame_residual": worst_frame,
            "tolerance": tols["invariance"],
        },
        "rotation_table": table,
    }
    return failures


_RUNNERS = {
    "invariants": lambda config, data, report: [],  # the invariant table only
    "generators": _run_generators,
    "complex": _run_complex,
    "homology": _run_homology,
    "compare": _run_compare,
    "verify-geometry": _run_verify_geometry,
    "verify-dynamics": _run_verify_dynamics,
}


def run(config: RunConfig) -> tuple[int, dict]:
    """Execute one mode, returning (exit code, report payload).

    The only place that maps failures to exit codes: every failure a runner
    returns, or the BrieskornError that ends it, becomes an entry of the
    report's ``errors``, and the first one's class declares the exit code.
    """
    report: dict = {
        "params": {"exponents": list(config.exponents)},
        "mode": config.mode,
        "seed": config.rng_seed,
    }
    try:
        config = replace(config, tolerances=tol_mod.resolve(config.tolerances))
        if config.samples is None:
            config = replace(config, samples=DEFAULT_SAMPLES.get(config.mode, 0))
        for name in ("samples", "iterates"):
            if getattr(config, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(config, name)}")
        if config.classes < 1:
            raise ConfigError(f"classes must be >= 1, got {config.classes}")
        if config.mode not in _RUNNERS:
            raise ConfigError(
                f"unknown mode {config.mode!r}; expected one of {', '.join(_RUNNERS)}")
        data = seifert_data(validate_params(config.exponents))
        report["seifert"] = _seifert_payload(data)
        failures = _RUNNERS[config.mode](config, data, report)
    except BrieskornError as exc:
        failures = [exc]
    if not failures:
        return EXIT_OK, report
    report["errors"] = [failure.payload() for failure in failures]
    return failures[0].exit_code, report


_COMPACT = json.JSONEncoder(separators=(",", ":"))
_SCALARS = frozenset((str, int, float, bool, type(None)))
_RECORD = "\x1e"  # json escapes every control character inside a string
_RECORD_ENCODER = json.JSONEncoder(separators=(_RECORD, ":"))


def _leaf_lines(node, path: str, separator: str, out: list, texts: dict) -> None:
    """Append ``path``, separator, compact JSON for every leaf of node to out.

    A dict of scalars is encoded in one C encoder call over its values,
    joined by a record separator that no encoded scalar contains, and
    split back into one value per key. Its ``key``, separator, value lines
    are kept in texts by ``id``, with the dict so that no other object takes
    that id, and a dict met again under another path reuses them; they go
    to out as one string, ``"\n"``-joined as render joins out.
    """
    if isinstance(node, dict) and node:
        prefix = f"{path}." if path else ""
        cached = texts.get(id(node))
        if cached is None and _SCALARS.issuperset(map(type, node.values())):
            values = _RECORD_ENCODER.encode(list(node.values()))[1:-1].split(_RECORD)
            cached = texts[id(node)] = (
                node, [f"{key}{separator}{value}" for key, value in zip(node, values)])
        if cached is not None:
            out.append(prefix + f"\n{prefix}".join(cached[1]))
        else:
            for key, child in node.items():
                _leaf_lines(child, f"{prefix}{key}", separator, out, texts)
    elif isinstance(node, list) and any(isinstance(child, dict) for child in node):
        for i, child in enumerate(node):
            _leaf_lines(child, f"{path}[{i}]", separator, out, texts)
    else:
        out.append(f"{path}{separator}{_COMPACT.encode(node)}")


_INDENT = "  "
_FLAT_ENCODERS: dict[int, json.JSONEncoder] = {}  # by depth; each is C-encoded


def _flat_encoder(depth: int) -> json.JSONEncoder:
    """An encoder whose item separator starts a line at ``depth`` indents.

    Without ``indent`` json runs its C encoder, and on a container that holds
    only scalars this separator makes it write the lines that ``indent=2``
    writes between the container's first and last line.
    """
    encoder = _FLAT_ENCODERS.get(depth)
    if encoder is None:
        encoder = _FLAT_ENCODERS[depth] = json.JSONEncoder(
            sort_keys=True, separators=(",\n" + _INDENT * depth, ": ")
        )
    return encoder


def _indented(node, depth: int, out: list, walking: set, texts: dict) -> None:
    """Append ``json.dumps(node, indent=2, sort_keys=True)`` at ``depth`` to out.

    Containers are walked in Python down to the first one that holds only
    scalars (or nothing), which the C encoder writes whole; every other value
    is a leaf that the C encoder writes or refuses as json would. Keys are
    sorted first and converted after, and a container met again inside
    itself is refused, as json does.

    The text of each container written whole is kept in texts by ``id``,
    with the container so that no other object takes that id, and a
    container met again reuses it: at another depth after one replace of
    every ``"\n"`` and its indent, since json escapes every newline inside a
    string and a raw one only starts a line.
    """
    if isinstance(node, dict):
        values, brackets = node.values(), "{}"
    elif isinstance(node, (list, tuple)):
        values, brackets = node, "[]"
    else:
        out.append(_COMPACT.encode(node))
        return
    cached = texts.get(id(node))
    if cached is not None:
        _, at, text = cached
        if at != depth:
            text = text.replace("\n" + _INDENT * at, "\n" + _INDENT * depth)
        out.append(text)
        return
    inner = _INDENT * (depth + 1)
    if _SCALARS.issuperset(map(type, values)):
        text = _flat_encoder(depth + 1).encode(node)
        if node:
            text = f"{brackets[0]}\n{inner}{text[1:-1]}\n{_INDENT * depth}{brackets[1]}"
        texts[id(node)] = (node, depth, text)
        out.append(text)
        return
    if id(node) in walking:
        raise ValueError("Circular reference detected")
    walking.add(id(node))
    out.append(brackets[0])
    separator = "\n" + inner
    if brackets == "{}":
        for key, value in sorted(node.items()):
            if isinstance(key, (int, float)) or key is None:
                key = _COMPACT.encode(key)
            elif not isinstance(key, str):
                raise TypeError("keys must be str, int, float, bool or None, "
                                f"not {key.__class__.__name__}")
            out.append(f"{separator}{_COMPACT.encode(key)}: ")
            _indented(value, depth + 1, out, walking, texts)
            separator = ",\n" + inner
    else:
        for value in node:
            out.append(separator)
            _indented(value, depth + 1, out, walking, texts)
            separator = ",\n" + inner
    walking.discard(id(node))
    out.append(f"\n{_INDENT * depth}{brackets[1]}")


def render(report: dict, fmt: str) -> str:
    if fmt == "json":
        out: list[str] = []
        _indented(report, 0, out, set(), {})
        return "".join(out)
    lines: list[str] = []
    _leaf_lines(report, "", "\t" if fmt == "tsv" else " = ", lines, {})
    return "\n".join(lines)


class _Parser(argparse.ArgumentParser):
    """Refuses a bad argument with ``ConfigError``, as do its subparsers (same class)."""

    def error(self, message: str) -> NoReturn:
        raise ConfigError(message)


FORMATS = ("json", "tsv", "text")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="brieskorn",
        description="Graded Reeb-orbit homology of Brieskorn 3-manifolds of "
        "hyperbolic type, with numerical verification of the geometry behind it.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)

    def common(p):
        p.add_argument("--exponents", required=True,
                       help="comma separated exponents, e.g. 2,3,7")
        p.add_argument("--format", choices=FORMATS)
        p.add_argument("--seed", type=int, dest="rng_seed")
        p.add_argument("--tol", action="append", default=[], metavar="NAME=VALUE",
                       help="tolerance override; repeatable "
                            f"(also via ${tol_mod.ENV_VAR})")

    p = sub.add_parser("invariants", help="validate exponents, print the invariant table")
    common(p)

    p = sub.add_parser("generators", help="enumerate orbit generators")
    common(p)
    p.add_argument("--grading-floor", type=int, dest="grading_floor")
    p.add_argument("--action-bound", dest="action_bound",
                   help="rational multiple of 2*pi, e.g. 2 or 5/2")

    p = sub.add_parser("complex", help="chain groups and differentials per fiber class")
    common(p)
    p.add_argument("--classes", type=int)

    for p in (
        sub.add_parser("homology", aliases=["compute-homology"],
                       help="graded homology from the chain complexes"),
        sub.add_parser("compare", help="chain homology against the closed form"),
    ):
        common(p)
        p.add_argument("--grading-floor", type=int, dest="grading_floor")

    p = sub.add_parser("verify-geometry", help="polygon area, angles, group relations")
    common(p)
    p.add_argument("--samples", type=int)

    p = sub.add_parser("verify-dynamics", help="invariance residuals, rotation table")
    common(p)
    p.add_argument("--samples", type=int)
    p.add_argument("--epsilon", action="append", type=float,
                   dest="epsilons", help="perturbation size; repeatable")
    p.add_argument("--iterates", type=int)

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """The RunConfig of parsed arguments; an option left out keeps the
    RunConfig default, which the parser does not repeat."""
    given = {f.name: getattr(args, f.name) for f in fields(RunConfig)
             if getattr(args, f.name, None) is not None}
    given["exponents"] = [int(x) for x in str(args.exponents).split(",") if x.strip()]
    if given["mode"] == "compute-homology":
        given["mode"] = "homology"
    if "action_bound" in given:
        given["action_bound"] = Fraction(given["action_bound"])
        if "grading_floor" in given:
            raise ConfigError("--grading-floor and --action-bound are mutually exclusive")
    if "epsilons" in given:
        given["epsilons"] = tuple(given["epsilons"])
    return RunConfig(tolerances=tol_mod.parse_pairs(args.tol), **given)


def _requested_format(argv) -> str:
    """The ``--format`` an argv asks for, or json when none can be read."""
    probe = _Parser(add_help=False)
    probe.add_argument("--format", choices=FORMATS, default="json")
    try:
        return probe.parse_known_args(argv)[0].format
    except ConfigError:
        return "json"


def main(argv=None) -> int:
    try:
        config = config_from_args(build_parser().parse_args(argv))
    except (ValueError, ZeroDivisionError) as exc:  # ConfigError is a ValueError
        refused = ConfigError(str(exc))
        code = refused.exit_code
        text = render({"errors": [refused.payload()]}, _requested_format(argv))
    else:
        code, report = run(config)
        text = render(report, config.format)
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader closed the pipe: point stdout at devnull, as the Python
        # docs advise, so that the flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
