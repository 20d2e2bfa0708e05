"""The opstat benchmark.

Drives the user's entry point, ``opstat.cli.main([..., "--json"])``, in this
one process with ``--jobs 1``, checks every report it returns (see
``checks.py``) and prints, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

    python3 bench/run.py --workload em_enum --seed 1 --seconds 25 --trace 0

A pass runs every check of the workload once, in an order drawn from the
seed; the set of checks is fixed.  A run makes passes for ``--seconds`` and
reports medians over them.  Times are gated in units of a reference loop
timed between the CLI calls, because the shared machine's speed drifts;
the same figures in seconds are in the diagnostics line.  With ``--trace 0``
a run reports the end-to-end metrics, timed with no instrumentation.  With
``--trace 1`` it first times untraced passes, then installs the wrappers of
``tracing.py`` and reports per-layer metrics of traced passes.  See
README.md in this directory for the metrics and why each workload exists.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from math import factorial
from pathlib import Path

from checks import Invocation, Tally, check_output, load_goldens, stirling2
from tracing import PER_LAYER_UNITS, Tracer, layer_metrics

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPANS_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 9
CALIB_SLICE = 25_000  # reference-loop iterations between two CLI calls, about 8 ms

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_calib": "Mloop",
    "cpu_calib": "Mloop",
    "objects_per_calib": "1/Mloop",
    "terms_per_calib": "1/Mloop",
    "peak_rss_mib": "MiB",
}


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _verify(theorem: str, n: int, k: int | str, expected: int, *extra: str) -> Invocation:
    argv = ("verify", theorem, "--n", str(n), "--k", str(k), *extra, "--jobs", "1", "--json")
    return Invocation(argv, expected)


def em_enum(n: int) -> list[Invocation]:
    """thm3.2 and thm3.4 at every k: the most enumeration, the fused
    six-statistic kernel, no transport."""
    return [_verify(t, n, k, 1) for t in ("thm3.2", "thm3.4") for k in range(1, n + 1)]


def transport(n: int, sigma_k: int) -> list[Invocation]:
    """thm3.3 (upsilon), thm3.1 for k <= sigma_k and every sigma (xi), and
    thm3.5 on every standard form (beta_inv, hence psi_inv): the pointwise
    bijections."""
    return (
        [_verify("thm3.3", n, k, 1) for k in range(1, n + 1)]
        + [_verify("thm3.1", n, k, factorial(k), "--sigma", "all") for k in range(1, sigma_k + 1)]
        + [_verify("thm3.5", n, k, stirling2(n, k)) for k in range(1, n + 1)]
    )


def named_stats(n_eq23: int, n_t: int) -> list[Invocation]:
    """eq2.3 over set partitions, eq5.8 and eq9.2 over ordered ones: the
    generic stat/aggregate_profile route, not six_composites."""
    return (
        [_verify("eq2.3", n_eq23, k, 1) for k in range(1, n_eq23 + 1)]
        + [_verify(t, n_t, k, 1) for t in ("eq5.8", "eq9.2") for k in range(1, n_t + 1)]
    )


def closed_forms(n_zezh: int, n_table: int) -> list[Invocation]:
    """zezh at every (n, k) up to n_zezh and the S_{p,q} table: the only
    workload where polynomial arithmetic is the cost."""
    return (
        [_verify("zezh", n, "all", n) for n in range(1, n_zezh + 1)]
        + [Invocation(("table", "stirling-pq", "--n", str(n_table), "--json"), 1 + n_table * (n_table + 1) // 2)]
    )


# (full size, tiny size for the smoke test)
WORKLOADS = {
    "em_enum": (lambda: em_enum(7), lambda: em_enum(4)),
    "transport": (lambda: transport(6, 4), lambda: transport(4, 3)),
    "named_stats": (lambda: named_stats(9, 6), lambda: named_stats(5, 4)),
    "closed_forms": (lambda: closed_forms(22, 20), lambda: closed_forms(6, 5)),
}


def invocations(workload: str, tiny: bool = False) -> list[Invocation]:
    full, small = WORKLOADS[workload]
    return small() if tiny else full()


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------

def import_cli():
    """Import ``opstat.cli`` from this checkout's sources, never from an
    installed copy."""
    if not (SRC / "opstat" / "cli.py").is_file():
        raise SystemExit(f"error: no opstat sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("opstat.cli")
    if SRC not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"error: opstat.cli imported from {cli.__file__}, not {SRC}")
    return cli


def clear_caches() -> None:
    """Empty every ``functools.cache`` of the package (the qpoly recursions
    and ``families.stirling2``), because each CLI process starts without
    them.  Tracing wrappers are looked through to the cache they wrap."""
    for name, module in list(sys.modules.items()):
        if name == "opstat" or name.startswith("opstat."):
            for obj in vars(module).values():
                while not hasattr(obj, "cache_clear") and hasattr(obj, "__wrapped__"):
                    obj = obj.__wrapped__
                if callable(getattr(obj, "cache_clear", None)) and (getattr(obj, "__module__", None) or "").startswith("opstat"):
                    obj.cache_clear()


def measure_setup() -> list[float]:
    """Seconds from starting a fresh interpreter until ``opstat.cli`` is
    imported, once untimed to write the bytecode cache, then repeatedly."""
    argv = [sys.executable, "-I", "-c", "import sys; sys.path.insert(0, sys.argv[1]); import opstat.cli", str(SRC)]
    times = []
    for attempt in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, timeout=120)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise SystemExit(f"error: importing opstat.cli failed: {proc.stderr.decode()[-500:]}")
        if attempt:
            times.append(elapsed)
    return times


def _pair(a: int, b: int) -> tuple[int, int]:
    return a, b


def reference_loop(iterations: int) -> tuple[float, float]:
    """(wall, CPU) seconds of a fixed pure-Python loop: the machine's speed
    at that moment, independent of the code under test.  Contention from
    other tenants slows integer arithmetic less than calls, tuples and dict
    updates, and the program does both, so the body mixes them in about
    equal shares of time."""
    c0, t0 = time.process_time(), time.perf_counter()
    acc = 0
    counts: dict[tuple[int, int], int] = {}
    for i in range(iterations):
        acc += i * i % 7
        acc += i * 3 % 5
        acc += i * i % 11
        acc ^= i
        if i & 3 == 0:
            key = _pair(i & 63, acc & 7)
            counts[key] = counts.get(key, 0) + 1
    return time.perf_counter() - t0, time.process_time() - c0


def calibrate() -> float:
    """Milliseconds per million iterations of the reference loop (median of
    three), recorded at the start and end of a run."""
    return statistics.median(reference_loop(100_000)[0] for _ in range(3)) * 1e4


@dataclass
class Pass:
    wall: float        # seconds in cli.main calls
    cpu: float
    wall_calib: float  # the same, each call in units of the reference loop's speed around it
    cpu_calib: float
    loop_ms: float     # mean milliseconds per million reference-loop iterations in the pass
    tally: Tally


def _in_mloops(spent: list[float], loops: list[float]) -> float:
    """Each call's time divided by the mean time of the reference-loop
    slices just before and just after it, summed, in units of a million
    iterations of the loop.  Drift in the machine's speed cancels."""
    per_slice = sum(t / ((loops[i] + loops[i + 1]) / 2) for i, t in enumerate(spent))
    return per_slice * CALIB_SLICE / 1e6


def run_pass(cli, invs: list[Invocation], rng: random.Random, goldens: dict, tracer: Tracer | None = None) -> Pass:
    """One pass over the workload's checks in a seed-drawn order.  Only the
    CLI calls are timed; checking their output is not.  A slice of the
    reference loop runs before each call and after the last, so that the
    pass also measures the machine's speed while it ran."""
    clear_caches()
    gc.collect()
    tally = Tally()
    walls, cpus = [], []
    loops = [reference_loop(CALIB_SLICE)]
    for inv in rng.sample(invs, len(invs)):
        buf = io.StringIO()
        raised = None
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                rc = tracer.call("cli.main", cli.main, list(inv.argv)) if tracer else cli.main(list(inv.argv))
            except Exception as exc:  # a raise is a failed check, not a crash of the benchmark
                raised = exc
            t1, c1 = time.perf_counter(), time.process_time()
        walls.append(t1 - t0)
        cpus.append(c1 - c0)
        loops.append(reference_loop(CALIB_SLICE))
        if raised is None:
            check_output(inv, rc, buf.getvalue(), goldens, tally)
        else:
            tally.attempted += inv.expected
            tally.fail(inv.expected, f"{inv.label()}: raised {raised!r}")
    loop_walls = [w for w, _ in loops]
    return Pass(
        sum(walls), sum(cpus),
        _in_mloops(walls, loop_walls), _in_mloops(cpus, [c for _, c in loops]),
        statistics.fmean(loop_walls) / CALIB_SLICE * 1e9, tally,
    )


def _passes_until(deadline: float, step) -> list:
    """At least one pass, then more while another one is expected to end
    before the deadline."""
    results, took = [], []
    while not results or time.perf_counter() + statistics.median(took) <= deadline:
        start = time.perf_counter()
        results.append(step())
        took.append(time.perf_counter() - start)
    return results


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False, goldens: dict | None = None) -> tuple[dict, dict]:
    """Returns (result line, diagnostics)."""
    cli = import_cli()
    calib_start = calibrate()
    setup = [] if trace else measure_setup()
    goldens = load_goldens() if goldens is None else goldens
    invs = invocations(workload, tiny)
    rng = random.Random(seed)
    started = time.perf_counter()
    tallies: list[Tally] = []

    def untraced() -> Pass:
        p = run_pass(cli, invs, rng, goldens)
        tallies.append(p.tally)
        return p

    plain = _passes_until(started + seconds * (1 / 3 if trace else 1.0), untraced)
    wall_calib = statistics.median(p.wall_calib for p in plain)
    first = plain[0].tally
    wall_s = statistics.median(p.wall for p in plain)
    diagnostics = {
        "workload": workload,
        "seed": seed,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "commit": git_commit(),
            "calib_ms": {"start": calib_start},
        },
        "params": [inv.label() for inv in invs],
        "setup_runs_s": setup,
        "pass_wall_s": [p.wall for p in plain],
        "pass_cpu_s": [p.cpu for p in plain],
        "pass_wall_calib": [p.wall_calib for p in plain],
        "pass_loop_ms_per_mloop": [p.loop_ms for p in plain],
        # the same figures in seconds, which drift with the machine's speed
        "raw": {
            "wall_s": wall_s,
            "cpu_s": statistics.median(p.cpu for p in plain),
            "objects_per_s": first.objects / wall_s,
            "terms_per_s": first.terms / wall_s,
        },
    }

    if not trace:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_calib": wall_calib,
            "cpu_calib": statistics.median(p.cpu_calib for p in plain),
            "objects_per_calib": first.objects / wall_calib,
            "terms_per_calib": first.terms / wall_calib,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
    else:
        tracer = Tracer()

        def traced() -> dict:
            tracer.reset()
            p = run_pass(cli, invs, rng, goldens, tracer)
            tallies.append(p.tally)
            m = layer_metrics(tracer, p.wall_calib / wall_calib - 1.0)
            for name, want in (("families.objects", p.tally.enumerated), ("verify.checks", p.tally.verify_checks)):
                if m[name] != want:
                    p.tally.fail(1, f"traced {name} = {m[name]}, untraced count = {want}")
            return m

        tracer.install()
        try:
            layered = _passes_until(started + seconds, traced)
        finally:
            tracer.uninstall()
        tracer.write(SPANS_DIR / f"spans-{workload}.tsv")
        metrics = {}
        for name, unit in PER_LAYER_UNITS.items():
            values = [m[name] for m in layered]
            if unit == "count":
                if len(set(values)) > 1:
                    tallies[-1].fail(1, f"count {name} differs between traced passes: {values}")
                metrics[name] = values[0]
            else:
                metrics[name] = statistics.median(values)
        units = PER_LAYER_UNITS
        diagnostics["trace_passes"] = len(layered)

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    diagnostics.update({
        "passes": len(tallies),
        "objects_per_pass": first.objects,
        "enumerated_per_pass": first.enumerated,
        "terms_per_pass": first.terms,
        "fail_frac": failed / attempted if attempted else 1.0,
        "errors": [e for t in tallies for e in t.errors][:20],
    })
    diagnostics["machine"]["calib_ms"]["end"] = calibrate()
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return result, diagnostics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, diagnostics = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
