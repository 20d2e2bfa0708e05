"""Smoke test of the benchmark itself, at tiny sizes (a few seconds).

    python3 bench/smoke.py

It checks that every metric named in BENCHMARK.json is emitted with its
unit, that a deliberately wrong golden drives the failure fraction above 0,
and that the traced and untraced runs count the same objects and checks.
Exits non-zero on the first broken expectation.
"""
from __future__ import annotations

import json

from checks import load_goldens
from run import END_TO_END_UNITS, ROOT, WORKLOADS, run


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke: FAIL: {message}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    expect(wanted[False] == END_TO_END_UNITS, "end-to-end metrics differ from BENCHMARK.json")
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS), "workloads differ from BENCHMARK.json")

    for workload in WORKLOADS:
        runs = {}
        for trace in (False, True):
            result, diag = run(workload, seed=7, seconds=0.1, trace=trace, tiny=True)
            runs[trace] = (result, diag)
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{workload}: result keys {set(result)}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{workload} trace={trace}: {result['failed']} of {result['attempted']} failed: {diag['errors']}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == wanted[trace], f"{workload} trace={trace}: metrics/units {got} != {wanted[trace]}")
        (plain, plain_diag), (traced, traced_diag) = runs[False], runs[True]
        expect(plain_diag["objects_per_pass"] == traced_diag["objects_per_pass"],
               f"{workload}: objects {plain_diag['objects_per_pass']} untraced, {traced_diag['objects_per_pass']} traced")
        expect(traced["metrics"]["families.objects"]["value"] == plain_diag["enumerated_per_pass"],
               f"{workload}: traced families.objects != untraced enumerated count")
        print(f"smoke: {workload}: ok ({plain_diag['objects_per_pass']} objects, {plain['attempted']} checks)")

    goldens = load_goldens()
    key = next(k for k in goldens if k.startswith("thm3.2 ") and k.endswith(" n=4"))
    planted = {**goldens, key: "0" * 16}
    result, diag = run("em_enum", seed=7, seconds=0.1, trace=False, tiny=True, goldens=planted)
    expect(result["failed"] > 0 and not result["correct"] and diag["fail_frac"] > 0,
           f"a wrong golden for {key!r} was not caught")
    print(f"smoke: planted wrong golden caught, fail_frac = {diag['fail_frac']:.3f}")
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
