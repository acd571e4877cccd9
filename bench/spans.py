"""Per-layer spans and counters, installed on ``brieskorn`` from outside.

The layers are the modules of the package. Each wrapper replaces a public
function where it is looked up (``from .x import f`` copies the binding into
the importing module, so every module holding the same object is patched) or
a method on its class. A span records its name, its parent, its duration and
the time its child spans cover; spans are folded on close into per-operation
aggregates keyed by (name, parent), because exact-deep opens about 10^5
spans per operation. The time a wrapper spends on its own counters is charged
to no span. Nothing is installed unless the benchmark runs with ``--trace 1``.
"""

from __future__ import annotations

import importlib
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

PACKAGE = "brieskorn"
LAYERS = ("cli", "invariants", "orbits", "homology", "closedform", "polygon", "halfplane",
          "dynamics")


@dataclass(frozen=True)
class Target:
    """A function or method to wrap. ``sites`` limits the modules patched."""

    span: str  # "<layer>.<name>"; the layer is also the defining module
    attr: str  # "function" or "Class.method"
    sites: tuple[str, ...] | None = None
    before: Callable | None = None
    after: Callable | None = None
    span_recorded: bool = True  # False: count calls only

    @property
    def module(self) -> str:
        return f"{PACKAGE}.{self.span.split('.')[0]}"


class Tracer:
    """Open spans, and per-operation span aggregates and counters."""

    def __init__(self):
        self.stack: list[list] = []  # open spans: [name, ns covered by children]
        self.spans: dict[tuple[str, str | None], list[int]] = {}
        self.counts: dict[str, float] = defaultdict(float)
        self.keys: dict[str, set] = defaultdict(set)
        self.floor: int | None = None
        self.ops: list[dict] = []
        self.missing: set[str] = set()

    def close(self, name: str, parent: list | None, duration: int, covered: int) -> None:
        key = (name, parent[0] if parent else None)
        agg = self.spans.get(key)
        if agg is None:
            agg = self.spans[key] = [0, 0, 0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - covered

    def end_op(self, label: str, op_ns: int) -> None:
        self.ops.append({
            "label": label,
            "op_ns": op_ns,
            "spans": dict(self.spans),
            "counts": dict(self.counts),
            "distinct": {k: len(v) for k, v in self.keys.items()},
        })
        self.spans.clear()
        self.counts.clear()
        self.keys.clear()


def _span_wrapper(tracer: Tracer, target: Target, fn):
    name, before, after = target.span, target.before, target.after
    stack, clock = tracer.stack, time.perf_counter_ns

    def wrapper(*args, **kwargs):
        entered = clock()
        if before is not None:
            before(tracer, args, kwargs)
        frame = [name, 0]
        stack.append(frame)
        ok = False
        start = clock()
        try:
            result = fn(*args, **kwargs)
            ok = True
        finally:
            end = clock()
            stack.pop()
            parent = stack[-1] if stack else None
            tracer.close(name, parent, end - start, frame[1])
            if ok and after is not None:
                after(tracer, args, kwargs, result)
            if parent is not None:
                parent[1] += clock() - entered
        return result

    return wrapper


def _count_wrapper(tracer: Tracer, target: Target, fn):
    counts, name = tracer.counts, target.span

    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


class Patches:
    """Installed replacements, undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, target: Target, make: Callable) -> bool:
        """Wrap one target with ``make(fn)``; False when the target is gone."""
        try:
            module = importlib.import_module(target.module)
        except ImportError:
            return False
        owner_name, _, method = target.attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            raw = vars(owner).get(method) if isinstance(owner, type) else None
            if raw is None:
                return False
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(make(raw.__func__))
            else:
                new = make(raw)
            self._set(owner, method, new)
            return True
        original = getattr(module, method, None)
        if original is None:
            return False
        new = make(original)
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        if target.sites is not None:
            modules = [m for m in modules if m.__name__.rpartition(".")[2] in target.sites]
        patched = False
        for mod in modules:
            if vars(mod).get(method) is original:
                self._set(mod, method, new)
                patched = True
        return patched

    def _set(self, owner, name, value):
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def undo(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


# --- counters recorded at the layer boundaries --------------------------------

def _add(name: str, amount: float = 1):
    def hook(tracer, args, kwargs, result):
        tracer.counts[name] += amount
    return hook


def _render(tracer, args, kwargs, result):
    tracer.counts["cli.report_bytes"] += len(result)


def _chain_floor(tracer, args, kwargs):
    tracer.floor = args[1] if len(args) > 1 else kwargs["grading_floor"]


def _complex(tracer, args, kwargs, result):
    counts = tracer.counts
    counts["orbits.complexes"] += 1
    if isinstance(args[1], tuple):
        counts["orbits.singleton_complexes"] += 1
    elif tracer.stack and tracer.stack[-1][0] == "closedform.chain_homology":
        counts["closedform.fiber_classes"] += 1
        if tracer.floor is not None and max(result.generators_by_grading) >= tracer.floor:
            counts["closedform.useful_classes"] += 1


def _rank(tracer, args, kwargs, result):
    matrix = args[0]
    if matrix.rows and matrix.cols:
        tracer.counts["homology.eliminations"] += 1
        tracer.counts["homology.entries_eliminated"] += matrix.rows * matrix.cols
        content = tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in matrix.entries)
        tracer.keys["homology.matrices"].add((matrix.rows, matrix.cols, content))


def _return_map(tracer, args, kwargs, result):
    model, period = args[0], args[1]
    tracer.counts["dynamics.rows"] += 1
    tracer.keys["dynamics.rows"].add((model.v, model.epsilon, period))


def _steps(tracer, args, kwargs, result):
    tracer.counts["dynamics.steps"] += result.steps


_INVARIANCE = _add("halfplane.invariance_calls")
_COMPOSE = _add("halfplane.compositions")
_LOOP = ("cli",)  # the invariance loop of verify-dynamics lives in cli

TARGETS = (
    Target("cli.run", "run"),
    Target("cli.render", "render", after=_render),
    Target("invariants.validate_params", "validate_params"),
    Target("invariants.seifert_data", "seifert_data"),
    Target("orbits.build_complex", "build_complex", after=_complex),
    Target("homology.graded_homology", "graded_homology"),
    Target("homology.rank", "RationalMatrix.rank", after=_rank),
    Target("homology.multiply", "RationalMatrix.multiply"),
    Target("homology.is_zero", "RationalMatrix.is_zero"),
    Target("closedform.chain_homology", "chain_homology", before=_chain_floor),
    Target("closedform.closed_form_homology", "closed_form_homology"),
    Target("closedform.compare_graded", "compare_graded"),
    Target("polygon.build_polygon_group", "build_polygon_group"),
    Target("polygon.check_relations", "check_relations"),
    Target("polygon.measured_area", "measured_area"),
    Target("polygon.measured_interior_angles", "measured_interior_angles"),
    Target("halfplane.random_mobius", "random_mobius", sites=_LOOP, after=_INVARIANCE),
    Target("halfplane.random_point", "random_point", sites=_LOOP, after=_INVARIANCE),
    Target("halfplane.canonical", "LiftedIsometry.canonical", after=_INVARIANCE),
    Target("halfplane.contact_invariance_residual", "contact_invariance_residual",
           sites=_LOOP, after=_INVARIANCE),
    Target("halfplane.frame_invariance_residual", "frame_invariance_residual",
           sites=_LOOP, after=_INVARIANCE),
    Target("halfplane.mobius_compose", "MobiusElement.compose", after=_COMPOSE),
    Target("halfplane.lifted_compose", "LiftedIsometry.compose", after=_COMPOSE),
    Target("dynamics.linearized_return_map", "linearized_return_map", after=_return_map),
    Target("dynamics.integrate_monodromy", "integrate_monodromy", after=_steps),
    Target("dynamics.rhs_evals", "hamiltonian_field", span_recorded=False),
)

INVARIANCE_SPANS = tuple(t.span for t in TARGETS if t.after is _INVARIANCE)


def install(tracer: Tracer, patches: Patches) -> None:
    for target in TARGETS:
        make = _span_wrapper if target.span_recorded else _count_wrapper
        if not patches.replace(target, lambda fn, t=target, m=make: m(tracer, t, fn)):
            tracer.missing.add(target.span)


def peak_alloc_bytes(tracer: Tracer, run: Callable[[], None]) -> float | None:
    """Largest allocation peak of one ``graded_homology`` call during ``run()``.

    ``tracemalloc`` slows Python several-fold, so this runs apart from the
    timed and the traced rounds. None when the target is gone.
    """
    peaks: list[int] = []

    def make(fn):
        def wrapper(*args, **kwargs):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
        return wrapper

    patches = Patches()
    if not patches.replace(Target("homology.graded_homology", "graded_homology"), make):
        tracer.missing.add("homology.peak_alloc")
        return None
    tracemalloc.start()
    try:
        run()
    finally:
        tracemalloc.stop()
        patches.undo()
    return float(max(peaks, default=0))


# --- per-layer metrics --------------------------------------------------------

def _per_op(ops: list[dict]):
    """Sums over the traced operations: totals and self times by span, counts."""
    total: dict[str, int] = defaultdict(int)
    own: dict[str, int] = defaultdict(int)
    counts: dict[str, float] = defaultdict(float)
    distinct: dict[str, int] = defaultdict(int)
    for op in ops:
        for (name, _parent), (_n, tot, slf) in op["spans"].items():
            total[name] += tot
            own[name] += slf
        for k, v in op["counts"].items():
            counts[k] += v
        for k, v in op["distinct"].items():
            distinct[k] += v
    return total, own, counts, distinct


def layer_metrics(tracer: Tracer, peak_alloc: float | None):
    """(name, value, unit, note) for every per-layer metric; values per operation.

    The note is "missing" when a wrapper's target is gone and "n/a" when the
    workload does no work in that layer (the value is then 0).
    """
    ops = tracer.ops
    n = max(1, len(ops))
    total, own, counts, distinct = _per_op(ops)
    op_ns = sum(op["op_ns"] for op in ops) or 1

    def ms(*names, self_time=False):
        source = own if self_time else total
        return sum(source[x] for x in names) / n / 1e6

    def per_op(name):
        return counts[name] / n

    def ratio(num, den):
        return num / den if den else None

    rows = [
        ("cli.run_self_ms", ms("cli.run", self_time=True), "ms", ["cli.run"]),
        ("cli.render_ms", ms("cli.render"), "ms", ["cli.render"]),
        ("cli.report_kb", per_op("cli.report_bytes") / 1024, "KB", ["cli.render"]),
        ("invariants.ms", ms("invariants.validate_params", "invariants.seifert_data"), "ms",
         ["invariants.validate_params", "invariants.seifert_data"]),
        ("orbits.build_complex_ms", ms("orbits.build_complex"), "ms", ["orbits.build_complex"]),
        ("orbits.complexes", per_op("orbits.complexes"), "count", ["orbits.build_complex"]),
        ("orbits.singleton_complexes", per_op("orbits.singleton_complexes"), "count",
         ["orbits.build_complex"]),
        ("homology.graded_homology_self_ms", ms("homology.graded_homology", self_time=True), "ms",
         ["homology.graded_homology"]),
        ("homology.rank_ms", ms("homology.rank"), "ms", ["homology.rank"]),
        ("homology.eliminations", per_op("homology.eliminations"), "count", ["homology.rank"]),
        ("homology.entries_eliminated", per_op("homology.entries_eliminated"), "count",
         ["homology.rank"]),
        ("homology.distinct_matrix_ratio",
         ratio(distinct["homology.matrices"], counts["homology.eliminations"]), "ratio",
         ["homology.rank"]),
        ("homology.compose_check_ms", ms("homology.multiply", "homology.is_zero"), "ms",
         ["homology.multiply", "homology.is_zero"]),
        ("homology.peak_alloc_mb", None if peak_alloc is None else peak_alloc / 2**20, "MB",
         ["homology.peak_alloc"]),
        ("closedform.chain_self_ms", ms("closedform.chain_homology", self_time=True), "ms",
         ["closedform.chain_homology"]),
        ("closedform.fiber_classes", per_op("closedform.fiber_classes"), "count",
         ["closedform.chain_homology", "orbits.build_complex"]),
        ("closedform.useful_class_ratio",
         ratio(counts["closedform.useful_classes"], counts["closedform.fiber_classes"]), "ratio",
         ["closedform.chain_homology", "orbits.build_complex"]),
        ("closedform.oracle_ms", ms("closedform.closed_form_homology"), "ms",
         ["closedform.closed_form_homology"]),
        ("closedform.compare_ms", ms("closedform.compare_graded"), "ms",
         ["closedform.compare_graded"]),
        ("polygon.build_ms", ms("polygon.build_polygon_group"), "ms",
         ["polygon.build_polygon_group"]),
        ("polygon.relations_ms", ms("polygon.check_relations"), "ms", ["polygon.check_relations"]),
        ("halfplane.invariance_ms", ms(*INVARIANCE_SPANS), "ms", list(INVARIANCE_SPANS)),
        ("halfplane.invariance_calls", per_op("halfplane.invariance_calls"), "count",
         list(INVARIANCE_SPANS)),
        ("halfplane.compositions", per_op("halfplane.compositions"), "count",
         ["halfplane.mobius_compose", "halfplane.lifted_compose"]),
        ("dynamics.return_map_self_ms", ms("dynamics.linearized_return_map", self_time=True), "ms",
         ["dynamics.linearized_return_map"]),
        ("dynamics.integrate_ms", ms("dynamics.integrate_monodromy"), "ms",
         ["dynamics.integrate_monodromy"]),
        ("dynamics.steps", per_op("dynamics.steps"), "count", ["dynamics.integrate_monodromy"]),
        ("dynamics.rhs_evals", per_op("dynamics.rhs_evals"), "count", ["dynamics.rhs_evals"]),
        ("dynamics.step_acceptance",
         ratio(counts["dynamics.steps"], counts["dynamics.rhs_evals"] / 6), "ratio",
         ["dynamics.integrate_monodromy", "dynamics.rhs_evals"]),
        ("dynamics.distinct_row_ratio",
         ratio(distinct["dynamics.rows"], counts["dynamics.rows"]), "ratio",
         ["dynamics.linearized_return_map"]),
    ]
    for layer in LAYERS:
        layer_ns = sum(v for k, v in own.items() if k.split(".")[0] == layer)
        rows.append((f"{layer}.self_share", layer_ns / op_ns, "ratio", []))

    out = []
    for name, value, unit, needs in rows:
        if any(x in tracer.missing for x in needs):
            out.append((name, 0.0, unit, "missing"))
        elif value is None or (value == 0 and unit != "ratio"):
            out.append((name, 0.0, unit, "n/a"))
        else:
            out.append((name, value, unit, ""))
    return out
