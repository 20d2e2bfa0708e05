"""Output checks for the benchmark: every report the CLI returns is parsed
and checked, and each failure is counted, so that a fast but wrong path
shows up as a failure and never as a speed-up.

A check fails when its invocation exits non-zero or raises, when it returns
another number of reports than the family size predicts (an empty range that
prints ``0/0 checks passed`` is a failure), when a report is not ``pass``,
when its LHS at p=q=t=1 differs from the closed-form family count, when that
count is zero, or when the digest of its LHS/RHS text misses the golden that
was recorded at a commit trusted to be correct.

``python3 bench/record_goldens.py`` re-records ``goldens.json`` from the
current code.  Do that only at a commit whose output is known to be right.
"""
from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from functools import cache
from math import factorial
from pathlib import Path

GOLDENS_PATH = Path(__file__).resolve().parent / "goldens.json"

_TERM_SPLIT = re.compile(r" ([+-]) ")


@cache
def stirling2(n: int, k: int) -> int:
    """Stirling numbers of the second kind, kept apart from the program's
    own so that the checker does not trust the code it checks."""
    if n == 0 and k == 0:
        return 1
    if k <= 0 or k > n:
        return 0
    return stirling2(n - 1, k - 1) + k * stirling2(n - 1, k)


@dataclass(frozen=True)
class Invocation:
    """One ``opstat`` command line and the number of reports it must return."""

    argv: tuple[str, ...]
    expected: int

    def label(self) -> str:
        return " ".join(self.argv)


@dataclass
class Tally:
    """Counts over the checks of one pass."""

    attempted: int = 0
    failed: int = 0
    objects: int = 0       # closed-form family sizes covered
    enumerated: int = 0    # the part of ``objects`` that was enumerated
    verify_checks: int = 0
    terms: int = 0         # polynomial terms returned
    errors: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(why)


def load_goldens() -> dict[str, str]:
    return json.loads(GOLDENS_PATH.read_text())


def digest(*texts: str | None) -> str:
    payload = "\n".join("" if t is None else t for t in texts)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def coefficients(text: str | None) -> list[int]:
    """Signed coefficients of the terms of a ``LaurentPolynomial.to_text``."""
    if text is None or text == "0":
        return []
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    parts = _TERM_SPLIT.split(text)
    out = []
    for idx in range(0, len(parts), 2):
        if idx:
            sign = -1 if parts[idx - 1] == "-" else 1
        head = parts[idx].split("*", 1)[0]
        out.append(sign * (int(head) if head.isdigit() else 1))
    return out


def family_size(theorem: str, params: dict[str, str]) -> tuple[int, bool]:
    """(closed-form size of the family a report covers, whether the program
    enumerates it).  The size does not depend on how the code enumerates."""
    if theorem == "thm3.5":
        return factorial(params["pi"].count("/") + 1), True
    n, k = int(params["n"]), int(params["k"])
    if theorem in ("thm3.1", "eq2.3"):
        return stirling2(n, k), True
    if theorem in ("thm3.2", "thm3.3", "thm3.4", "eq5.8", "eq9.2"):
        return factorial(k) * stirling2(n, k), True
    if theorem == "zezh":
        return factorial(k) * stirling2(n, k), False
    raise ValueError(f"no family size for {theorem}")


def check_key(theorem: str, params: dict[str, str]) -> str:
    return theorem + " " + " ".join(f"{key}={params[key]}" for key in sorted(params))


def check_output(inv: Invocation, rc: int, out: str, goldens: dict[str, str], tally: Tally) -> None:
    """Check one invocation's JSON output into ``tally``, which also keeps
    the digest of each check (that is how goldens are recorded)."""
    tally.attempted += inv.expected
    try:
        payload = json.loads(out)
        entries = _table_entries(inv.argv[1], payload) if inv.argv[0] == "table" else _report_entries(payload)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        tally.fail(inv.expected, f"{inv.label()}: exit {rc}, malformed output ({exc!r})")
        return
    if len(entries) != inv.expected or inv.expected == 0:
        tally.fail(inv.expected, f"{inv.label()}: {len(entries)} reports, expected {inv.expected}")
        return
    if inv.argv[0] == "verify":
        tally.verify_checks += len(entries)
    for key, passed, at_one, size, enumerated, terms, dig in entries:
        tally.objects += size
        tally.terms += terms
        if enumerated:
            tally.enumerated += size
        if rc != 0 or not passed:
            tally.fail(1, f"{key}: not pass (exit {rc})")
        elif size == 0:
            tally.fail(1, f"{key}: covers zero objects")
        elif at_one != size:
            tally.fail(1, f"{key}: LHS at 1 is {at_one}, family size is {size}")
        elif goldens.get(key) != dig:
            tally.fail(1, f"{key}: digest {dig} misses golden {goldens.get(key)}")
        tally.digests[key] = dig


def _report_entries(payload) -> list:
    entries = []
    for report in payload:
        theorem, params = report["theorem"], report["params"]
        size, enumerated = family_size(theorem, params)
        lhs, rhs = report["lhs"], report["rhs"]
        lhs_coeffs = coefficients(lhs)
        entries.append((
            check_key(theorem, params), report["pass"] is True, sum(lhs_coeffs), size,
            enumerated, len(lhs_coeffs) + len(coefficients(rhs)), digest(lhs, rhs),
        ))
    return entries


def _table_entries(kind: str, payload) -> list:
    """Rows of ``opstat table stirling-pq``, whose entries count set
    partitions at p = q = 1."""
    entries = []
    for row in payload:
        n, k, poly = row["n"], row["k"], row["poly"]
        entries.append((
            f"table {kind} k={k} n={n}", True, sum(term[0] for term in poly), stirling2(n, k),
            False, len(poly), digest(json.dumps(poly)),
        ))
    return entries
