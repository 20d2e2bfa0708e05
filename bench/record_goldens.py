"""Record goldens.json: the digest of every check's LHS/RHS text at both
the full and the tiny (smoke test) sizes of every workload.

    python3 bench/record_goldens.py

Run it only at a commit whose output is trusted; afterwards the benchmark
counts any check whose digest differs as a failure.
"""
from __future__ import annotations

import json
import random

from checks import GOLDENS_PATH
from run import WORKLOADS, import_cli, invocations, run_pass


def main() -> int:
    cli = import_cli()
    goldens: dict[str, str] = {}
    for workload in WORKLOADS:
        for tiny in (False, True):
            _, _, tally = run_pass(cli, invocations(workload, tiny), random.Random(0), {})
            goldens.update(tally.digests)
    for workload in WORKLOADS:
        for tiny in (False, True):
            _, _, tally = run_pass(cli, invocations(workload, tiny), random.Random(1), goldens)
            if tally.failed:
                raise SystemExit(f"{workload} (tiny={tiny}) fails with the new goldens: {tally.errors}")
    GOLDENS_PATH.write_text(json.dumps(goldens, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(goldens)} goldens to {GOLDENS_PATH.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
