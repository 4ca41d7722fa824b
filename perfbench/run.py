"""logfol benchmark: three CLI workloads, end to end or traced per layer.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload verify_ladder --seed 1 --seconds 30 --trace 0

Each solve is one in-process call of ``logfol.cli.main`` on a problem
file written before its timer starts (one client, closed loop).  The
problems come from ``workloads.problem(workload, seed, i)``; the answers
are checked against values the benchmark derives itself.

Times are taken on a shared machine whose speed drifts by up to about
1.6x over seconds to minutes, so each one is scaled by how long a fixed
reference task took right before and right after it:
``t * REF_NOMINAL_S / mean(ref_before, ref_after)``.  The reported
seconds are thus seconds on a machine where the reference task takes
``REF_NOMINAL_S``; the raw wall-clock figures are printed alongside.

``--trace 0`` solves whole cycles of the workload until ``--seconds``
have passed and at least ``MIN_SOLVES`` solves are done, then prints the
end-to-end metrics.  ``--trace 1`` solves the first cycle under
`layertrace.Tracer`, then the same files untraced, and prints the
per-layer metrics; its counters repeat exactly for a given seed.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import workloads
from layertrace import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_SOLVES = 100    # so that at least ten samples lie beyond p90
HARD_STOP_S = 140   # stop solving even below MIN_SOLVES, to exit within 180 s
SETUP_PER_CYCLE = 3  # fresh interpreters timed for setup_s after each cycle
REF_NOMINAL_S = 0.001  # seconds the reference task is scaled to

_REF_POLY = {e: i % 11 - 5 for i, e in enumerate(workloads.monomials(3, 4))}
_REF_MATRIX = [[Fraction((3 * i + 5 * j) % 17 - 8, 1 + (i * j) % 5) for j in range(7)]
               for i in range(7)]


def reference() -> float:
    """Best of three timings of a fixed pure-Python task: the current speed."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        workloads.pmul(_REF_POLY, _REF_POLY)
        workloads.det(_REF_MATRIX)
        best = min(best, perf_counter() - start)
    return best


def load_cli():
    if not (SRC / "logfol" / "cli.py").is_file():
        sys.exit(f"error: {SRC / 'logfol'} not found; run from a logfol checkout")
    sys.path.insert(0, str(SRC))
    from logfol import cli
    if Path(cli.__file__).resolve().parent != SRC / "logfol":
        sys.exit(f"error: imported logfol from {cli.__file__}, not {SRC}")
    return cli


def time_import() -> tuple[float, float]:
    """One fresh interpreter importing logfol.cli: (scaled, wall) seconds."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    before = reference()
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import logfol.cli"], env=env, cwd=ROOT,
                   check=True, timeout=60)
    elapsed = perf_counter() - start
    return elapsed * REF_NOMINAL_S / ((before + reference()) / 2), elapsed


class Runner:
    """Writes each problem to a file and times one CLI call on it."""

    def __init__(self, cli, workload: str, seed: int, workdir: str):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.cycle = len(workloads.WORKLOADS[workload][0])
        self.last_ref = reference()
        self.seen = set()

    def prepare(self, index: int):
        for attempt in range(100):
            prob = workloads.problem(self.workload, self.seed, index, attempt)
            if (prob.text(), tuple(prob.args)) not in self.seen:
                break
        else:
            raise RuntimeError(f"no new problem at index {index}")
        self.seen.add((prob.text(), tuple(prob.args)))
        path = os.path.join(self.workdir, f"p{index}.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(prob.text())
        return prob, prob.argv(path)

    def solve(self, prob, argv) -> tuple[float, float, bool]:
        """(scaled seconds, wall seconds, answer correct) for one CLI call."""
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code
        elapsed = perf_counter() - start
        after = reference()
        scaled = elapsed * REF_NOMINAL_S / ((self.last_ref + after) / 2)
        self.last_ref = after
        return scaled, elapsed, workloads.check(prob, code, out.getvalue(), err.getvalue())

    def solve_batch(self, batch: list, deadline: float = float("inf")) -> list:
        results = []
        for prob, argv in batch:
            if perf_counter() > deadline:
                break
            results.append((prob.shape,) + self.solve(prob, argv))
        return results

    def solve_cycle(self, first: int, deadline: float = float("inf")) -> list:
        batch = [self.prepare(i) for i in range(first, first + self.cycle)]
        return self.solve_batch(batch, deadline)


def run_timed(runner: Runner, seconds: float) -> tuple[list, dict]:
    time_import()  # writes the bytecode cache
    runner.solve(*runner.prepare(-1))  # warm-up on a problem outside the run
    results, imports, start, first = [], [], perf_counter(), 0
    while True:
        results += runner.solve_cycle(first, start + HARD_STOP_S)
        first += runner.cycle
        # spread over the run, the import timings see the machine in many states
        imports += [time_import() for _ in range(SETUP_PER_CYCLE)]
        runner.last_ref = reference()
        elapsed = perf_counter() - start
        if (elapsed >= seconds and len(results) >= MIN_SOLVES) or elapsed >= HARD_STOP_S:
            break
    setup = statistics.median(t for t, _ in imports)
    setup_raw = statistics.median(t for _, t in imports)
    times = [t for _, t, _, _ in results]
    wall = [t for _, _, t, _ in results]
    good = sum(ok for *_, ok in results)
    cuts = statistics.quantiles(times, n=10)
    wall_cuts = statistics.quantiles(wall, n=10)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"wall clock, unscaled: {good / sum(wall):.4f} solves/s, p50 {wall_cuts[4]:.4f} s, "
          f"p90 {wall_cuts[8]:.4f} s, setup {setup_raw:.4f} s")
    metrics = {
        "solves_per_s": (good / sum(times), "1/s"),
        "solve_s.p50": (cuts[4], "s"),
        "solve_s.p90": (cuts[8], "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mib": (peak, "MiB"),
    }
    return results, metrics


def run_traced(runner: Runner) -> tuple[list, dict]:
    """Cycle 0 under the tracer, then the same files untraced for the overhead.

    The traced pass comes first so that its counters see cold work even if
    a later logfol keeps state between calls; the untraced pass would then
    overstate the overhead.
    """
    runner.solve(*runner.prepare(-1))
    batch = [runner.prepare(i) for i in range(runner.cycle)]
    with Tracer() as tracer:
        traced = runner.solve_batch(batch)
    plain = runner.solve_batch(batch)
    plain_rate = len(plain) / sum(t for _, t, _, _ in plain)
    traced_rate = len(traced) / sum(t for _, t, _, _ in traced)
    return traced + plain, layer_metrics(tracer, len(traced), plain_rate, traced_rate)


def layer_metrics(tracer: Tracer, solves: int, plain_rate: float,
                  traced_rate: float) -> dict:
    counts = tracer.count_metrics()
    s, incl = tracer.self_s, tracer.incl_s

    def share(part, whole):
        return counts[part] / counts[whole] if counts[whole] else 0.0

    metrics = {"solves": (solves, "count"),
               "trace.untraced_solves_per_s": (plain_rate, "1/s"),
               "trace.solves_per_s": (traced_rate, "1/s"),
               "trace.overhead": (plain_rate / traced_rate, "ratio")}
    for layer, value in tracer.layer_self_s().items():
        metrics[f"layer.{layer}.self_s"] = (value, "s")
    metrics.update({name: (value, "count") for name, value in counts.items()})
    metrics.update({
        "cli.parse_spec.s": (s["cli.parse_spec"], "s"),
        "cli.parse_spec.incl_s": (incl["cli.parse_spec"], "s"),
        "cli.render.s": (s["cli.render"], "s"),
        "polynomials.parse_polynomial.s": (s["polynomials.parse_polynomial"], "s"),
        "linalg.self_s": (s["linalg"], "s"),
        "groebner.buchberger.self_s": (s["groebner.buchberger"], "s"),
        "groebner.buchberger.incl_s": (incl["groebner.buchberger"], "s"),
        "groebner.spairs_useful.share":
            (share("groebner.spairs_useful", "groebner.spairs"), "ratio"),
        "groebner.saturate.s": (s["groebner.saturate"], "s"),
        "groebner.saturate.incl_s": (incl["groebner.saturate"], "s"),
        "groebner.divide.s": (s["groebner.divide"], "s"),
        "groebner.buchberger.distinct_share":
            (share("groebner.buchberger.distinct", "groebner.buchberger.calls"), "ratio"),
        "foliations.Foliation.init.distinct_share":
            (share("foliations.Foliation.init.distinct",
                   "foliations.Foliation.init.calls"), "ratio"),
        "foliations.Foliation.init.incl_s": (incl["foliations.Foliation.init"], "s"),
        "foliations.restrict_to_stratum.distinct_share":
            (share("foliations.restrict_to_stratum.distinct",
                   "foliations.restrict_to_stratum.calls"), "ratio"),
        "foliations.restrict_to_stratum.s": (s["foliations.restrict_to_stratum"], "s"),
        "foliations.restrict_to_stratum.incl_s":
            (incl["foliations.restrict_to_stratum"], "s"),
        "indices.total_milnor.s": (s["indices.total_milnor"], "s"),
        "indices.total_milnor.incl_s": (incl["indices.total_milnor"], "s"),
        "indices.stratum_breakdown.s": (s["indices.stratum_breakdown"], "s"),
        "indices.stratum_breakdown.incl_s": (incl["indices.stratum_breakdown"], "s"),
        "indices.complement_milnor_sum.s": (s["indices.complement_milnor_sum"], "s"),
        "indices.complement_milnor_sum.incl_s":
            (incl["indices.complement_milnor_sum"], "s"),
        "indices.point_record.s": (s["indices.point_record"], "s"),
        "indices.point_record.incl_s": (incl["indices.point_record"], "s"),
        "indices.milnor_at_point.s": (s["indices.milnor_at_point"], "s"),
        "indices.milnor_at_point.incl_s": (incl["indices.milnor_at_point"], "s"),
        "indices.log_index_at_point.s": (s["indices.log_index_at_point"], "s"),
        "chern.lhs_integral.s": (s["chern.lhs_integral"], "s"),
        "chern.closed_form_sigma.s": (s["chern.closed_form_sigma"], "s"),
    })
    return metrics


def report(workload: str, results: list, metrics: dict) -> None:
    failed = sum(not ok for *_, ok in results)
    by_shape: dict = {}
    for shape, t, _, _ in results:
        by_shape.setdefault(shape, []).append(t)
    print(f"workload {workload}: {len(results)} solves, {failed} failed "
          f"(fail_frac {failed / len(results):.4f})")
    for shape, times in sorted(by_shape.items()):
        print(f"  {shape:28s} n={len(times):3d} median {statistics.median(times):.4f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_cli()
    workroot = ROOT / ".perfbench"
    workroot.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=workroot)
    try:
        runner = Runner(cli, args.workload, args.seed, workdir)
        if args.trace:
            results, metrics = run_traced(runner)
        else:
            results, metrics = run_timed(runner, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            workroot.rmdir()
    report(args.workload, results, metrics)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
