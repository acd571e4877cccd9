"""Benchmark of the ``brieskorn`` command line, driven in process.

    python3 bench/run.py --workload {exact-wide,exact-deep,lab} --seed N \\
        --seconds S --trace {0,1}

One client in a closed loop runs ``cli.run(config)`` and then
``cli.render(report, "json")`` for each call of an operation; an exact
operation is one ``compare`` call, a lab operation is ``verify-geometry``
followed by ``verify-dynamics`` for one tuple. A run repeats whole rounds of
the same operations, in one seeded order, while more than half a round of
``--seconds`` is left and until the tail percentile has at least ten
operations beyond it. Every report
is checked against ``oracle`` outside the timed region.

The machine's speed drifts by half and more over seconds to minutes, so
every time metric is scaled to a fixed machine speed: a fixed pure-Python
reference loop is timed before and after each operation (and each set-up
process), and the operation's latency is multiplied by ``REFERENCE_MS``
over the mean of those two times. The unscaled figures are printed and
written out as well.

With ``--trace 0`` the last line of output holds the end-to-end metrics;
with ``--trace 1`` each operation runs untraced and then traced, and it
holds the per-layer metrics of ``spans`` together with the tracing
overhead. Results and span aggregates are also written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import checks
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

TAIL_PERCENT = 90  # op_tail_ms, nearest rank; rounds are added until ten ops lie beyond it
SETUP_SAMPLES = 7
SETUP_CHILD = "import brieskorn.cli, numpy; print('ready', flush=True)"

# Scaled times describe a machine on which reference_loop() takes this long;
# on the shared 2-core x86-64 machine of the README's reference figures its
# fastest runs took 0.97 ms and its median 1.4-1.8 ms.
REFERENCE_MS = 1.0


def reference_loop() -> None:
    """A fixed pure-Python load: integer, float, dict and Fraction arithmetic."""
    acc, total, table, frac = 0, 0.0, {}, Fraction(0)
    for i in range(1, 3000):
        acc = (acc * 31 + i) % 1000003
        total += (i * 0.5) ** 0.5
        table[i & 255] = table.get(i & 255, 0) + i
        if i % 50 == 0:
            frac += Fraction(i, i + 7)


def reference_s() -> float:
    start = time.perf_counter_ns()
    reference_loop()
    return (time.perf_counter_ns() - start) / 1e9


def scaled(elapsed: float, before: float, after: float) -> float:
    """``elapsed`` at the speed on which the reference loop takes REFERENCE_MS."""
    return elapsed * REFERENCE_MS * 2e-3 / (before + after)


def measure_setup() -> tuple[float, float]:
    """Median time from starting a Python process to having imported the
    program, scaled and unscaled.

    An extra first child fills the bytecode cache and is not counted.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, raw = [], []
    for sample in range(SETUP_SAMPLES + 1):
        before = reference_s()
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_CHILD], cwd=ROOT, env=env,
                                stdout=subprocess.PIPE)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
        finally:
            proc.stdout.close()
            proc.wait()
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up process exited with {proc.returncode}")
        if sample:
            times.append(scaled(elapsed, before, reference_s()))
            raw.append(elapsed)
    return statistics.median(times), statistics.median(raw)


class Loop:
    """The closed loop over one workload's operations, with its checks."""

    def __init__(self, cli, ops, expected):
        parser = cli.build_parser()
        self.cli = cli
        self.ops = ops
        self.expected = expected
        self.configs = [[cli.config_from_args(parser.parse_args(list(argv))) for argv in op.argvs]
                        for op in ops]
        self.attempted = 0
        self.failed = 0
        self.failed_checks: Counter[str] = Counter()
        self.unexplained: Counter[str] = Counter()
        self.raw: list[float] = []  # unscaled latencies of the operations run by round()
        self.reference = None  # the reference loop timed after the last operation

    def run(self, index: int, tracer=None) -> float:
        """Run and check one operation; return its latency in seconds."""
        outputs = []
        start = time.perf_counter_ns()
        for config in self.configs[index]:
            code, report = self.cli.run(config)
            outputs.append((code, self.cli.render(report, "json")))
        elapsed = time.perf_counter_ns() - start
        if tracer is not None:
            tracer.end_op(self.ops[index].label, elapsed)
        self._check(self.expected[index], outputs)
        return elapsed / 1e9

    def round(self) -> list[float]:
        """One run of every operation; returns their scaled latencies in seconds."""
        latencies = []
        for index in range(len(self.ops)):
            before = self.reference or reference_s()
            elapsed = self.run(index)
            self.reference = reference_s()
            self.raw.append(elapsed)
            latencies.append(scaled(elapsed, before, self.reference))
        return latencies

    def _check(self, expected, outputs) -> None:
        self.attempted += 1
        failed = expected.check(outputs)
        if failed:
            self.failed += 1
            self.failed_checks.update(failed)
            self.unexplained.update(checks.unexplained(failed))


def min_rounds(ops_per_round: int) -> int:
    return -(-10 * 100 // ((100 - TAIL_PERCENT) * ops_per_round))


def more_time(start: float, rounds_done: int, seconds: float) -> bool:
    """True while more than half a round of the run's time is left, so runs
    last ``seconds`` on average instead of overshooting by a whole round."""
    elapsed = time.perf_counter() - start
    return not rounds_done or elapsed + 0.5 * elapsed / rounds_done < seconds


def end_to_end(loop: Loop, seconds: float) -> tuple[dict, dict, list[list[float]]]:
    setup_s, setup_raw = measure_setup()
    rounds: list[list[float]] = []
    start = time.perf_counter()
    while len(rounds) < min_rounds(len(loop.ops)) or more_time(start, len(rounds), seconds):
        rounds.append(loop.round())
    latencies = sorted(x for r in rounds for x in r)
    tail_index = -(-TAIL_PERCENT * len(latencies) // 100) - 1
    raw = sorted(loop.raw)
    unscaled = {"setup_s": setup_raw, "ops_per_s": len(raw) / sum(raw),
                "op_p50_ms": statistics.median(raw) * 1e3, "op_tail_ms": raw[tail_index] * 1e3}
    print("unscaled: " + ", ".join(f"{name} {value:.4g}" for name, value in unscaled.items()))
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "ops/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (latencies[tail_index] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }, {"rounds": len(rounds), "operations": len(latencies),
        "tail_percentile": TAIL_PERCENT, "beyond_tail": len(latencies) - tail_index - 1,
        "unscaled": unscaled}, rounds


def per_layer(loop: Loop, seconds: float, spans_path: Path) -> tuple[dict, dict, None]:
    """Each operation runs untraced and then traced, back to back, so the
    overhead compares the same work at the same machine speed."""
    tracer = spans.Tracer()
    plain: list[float] = []
    traced: list[float] = []
    start = time.perf_counter()
    while not traced or more_time(start, len(traced) // len(loop.ops), seconds):
        for index in range(len(loop.ops)):
            plain.append(loop.run(index))
            patches = spans.Patches()
            spans.install(tracer, patches)
            try:
                traced.append(loop.run(index, tracer))
            finally:
                patches.undo()

    peak = None
    if any(k[0] == "homology.graded_homology" for op in tracer.ops for k in op["spans"]):
        heaviest = max(range(len(loop.ops)), key=lambda i: loop.ops[i].work)

        def run_heaviest():
            for config in loop.configs[heaviest]:
                loop.cli.render(loop.cli.run(config)[1], "json")

        peak = spans.peak_alloc_bytes(tracer, run_heaviest)

    rows = spans.layer_metrics(tracer, peak)
    overhead = statistics.median(t / p for t, p in zip(traced, plain))
    rows.append(("trace.overhead_ratio", overhead, "ratio", ""))
    width = max(len(name) for name, *_ in rows)
    for name, value, unit, note in rows:
        print(f"{name:<{width}}  {value:>14.6g} {unit:<6} {note}")
    print(f"tracing overhead: traced op_p50 {statistics.median(traced) * 1e3:.2f} ms, "
          f"untraced {statistics.median(plain) * 1e3:.2f} ms over {len(traced)} operations; "
          f"median traced/untraced ratio per operation {overhead:.3f}")
    if tracer.missing:
        print("missing wrapper targets: " + ", ".join(sorted(tracer.missing)))

    spans_path.write_text(json.dumps([
        {"label": op["label"], "op_ms": op["op_ns"] / 1e6, "counts": op["counts"],
         "distinct": op["distinct"],
         "spans": [{"name": name, "parent": parent, "count": c, "total_ms": tot / 1e6,
                    "self_ms": slf / 1e6} for (name, parent), (c, tot, slf) in op["spans"].items()]}
        for op in tracer.ops
    ], indent=1))
    return ({name: (value, unit) for name, value, unit, _ in rows},
            {"traced_ops": len(traced), "untraced_ops": len(plain)}, None)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "brieskorn" / "__init__.py").is_file():
        print(f"bench: the program is not at {SRC / 'brieskorn'}", file=sys.stderr)
        return 2
    ops = workloads.build(args.workload, args.seed)
    expected = [checks.Expected(op) for op in ops]
    sys.path.insert(0, str(SRC))
    from brieskorn import cli

    loop = Loop(cli, ops, expected)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, shape, rounds = per_layer(loop, args.seconds, OUT / f"{stem}-spans.json")
    else:
        metrics, shape, rounds = end_to_end(loop, args.seconds)

    correct = not loop.unexplained
    print(f"{args.workload} seed {args.seed}: {len(ops)} operations per round, {shape}")
    print(f"attempted {loop.attempted}, failed {loop.failed}; "
          f"failed checks {dict(sorted(loop.failed_checks.items()))}")
    if loop.unexplained:
        print(f"failures no known fault explains: {dict(loop.unexplained)}")
    result = {
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    line = json.dumps(result)
    (OUT / f"{stem}.json").write_text(json.dumps(
        dict(result, shape=shape, failed_checks=loop.failed_checks, latencies_s=rounds,
             operations=[op.label for op in ops]), indent=1) + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
