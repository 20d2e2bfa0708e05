"""Command-line front end.

Subcommands: ``stats`` (coordinate table and aggregates of one partition),
``encode``/``decode`` (between partitions and labelled path diagrams, under
either encoding), ``map`` (apply one of the bijections), ``verify`` (run
identity checks over parameter ranges) and ``table`` (polynomial tables).

Exit codes: 0 success, 1 invalid input, 2 verification failure.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
from multiprocessing import Pool

from .core import OrderedSetPartition, Permutation
from .families import TABLE_MAX_N, compositions, permutations, set_partitions
from .motzkin import lambda_map
from .paths import PathDiagram, gamma_sigma, phi, phi_inv, psi, psi_inv, theta_map, upsilon, xi_map
from .qpoly import carlitz_aq, gauss_binomial, s_hat_pq, stirling_pq, stirling_q
from .statistics import COORD_NAMES, aggregate_profile, coordinate_table, resolve_stat, stat
from .verify import _CHECKS, THEOREM_IDS, _prepare, run_task

AGGREGATE_ORDER = (
    "binv", "bmaj", "cbinv", "cbmaj",
    "mak", "makp", "cinvlsb", "cmajlsb",
    "inv", "maj", "invsigma", "majsigma",
    "cls", "opb", "sb",
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are "invalid input"
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------

def render_stats_table(pi: OrderedSetPartition) -> str:
    """Plain-text coordinate table in the block layout of the partition,
    one row per coordinate statistic, with row totals."""
    rows = coordinate_table(pi)
    element_cells = [str(el) for block in pi.blocks for el in block]
    widths = [len(c) for c in element_cells]
    for name in COORD_NAMES:
        for j, value in enumerate(rows[name]):
            widths[j] = max(widths[j], len(str(value)))

    block_sizes = [len(b) for b in pi.blocks]

    def format_row(label: str, cells: list[str], total: str) -> str:
        out = [f"{label:>4} |"]
        pos = 0
        for size in block_sizes:
            chunk = " ".join(c.rjust(widths[pos + t]) for t, c in enumerate(cells[pos:pos + size]))
            out.append(f" {chunk} ")
            out.append("/")
            pos += size
        out[-1] = "|"
        out.append(f" {total:>5}")
        return "".join(out)

    lines = [format_row("i", element_cells, "total")]
    for name in COORD_NAMES:
        cells = [str(v) for v in rows[name]]
        lines.append(format_row(name, cells, str(sum(rows[name]))))
    return "\n".join(lines)


def _cmd_stats(args) -> int:
    pi = OrderedSetPartition.parse(args.partition)
    if args.stat is not None:
        value = resolve_stat(args.stat)(pi)
        if args.json:
            print(json.dumps({"partition": pi.to_json(), "stat": args.stat, "value": value}))
        else:
            print(value)
        return 0
    prof = aggregate_profile(pi)  # invsigma and majsigma are not in it
    aggregates = {name: prof[name] if name in prof else stat(pi, name) for name in AGGREGATE_ORDER}
    restricted = {key: prof[key] for name in COORD_NAMES for key in (f"{name}_os", f"{name}_tc")}
    if args.json:
        payload = {
            "partition": pi.to_json(),
            "coordinates": coordinate_table(pi),
            "aggregates": aggregates,
            "restricted": restricted,
        }
        print(json.dumps(payload))
        return 0
    print(f"pi = {pi.to_text()}")
    print(render_stats_table(pi))
    print()
    print("aggregates:")
    print("  " + "  ".join(f"{name}={aggregates[name]}" for name in AGGREGATE_ORDER))
    print("restricted:")
    print("  " + "  ".join(f"{key}={restricted[key]}" for key in sorted(restricted)))
    return 0


# ---------------------------------------------------------------------------
# encode / decode / map
# ---------------------------------------------------------------------------

def _cmd_encode(args) -> int:
    pi = OrderedSetPartition.parse(args.partition)
    diagram = psi_inv(pi) if args.psi else phi_inv(pi)
    print(json.dumps(diagram.to_json()) if args.json else diagram.to_text())
    return 0


def _cmd_decode(args) -> int:
    diagram = PathDiagram.parse(args.diagram)
    pi = psi(diagram) if args.psi else phi(diagram)
    print(json.dumps(pi.to_json()) if args.json else pi.to_text())
    return 0


def _cmd_map(args) -> int:
    pi = OrderedSetPartition.parse(args.partition)
    if args.xi:
        image = xi_map(pi)
    elif args.upsilon:
        image = upsilon(pi)
    elif args.theta:
        image = theta_map(pi)
    elif args.lam:
        image = lambda_map(pi)
    else:
        image = gamma_sigma(pi, Permutation.parse(args.gamma))
    print(json.dumps(image.to_json()) if args.json else image.to_text())
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

_INTEGER = r"\s*(-?[0-9]+)\s*"  # ASCII digits only, unlike int()


def _parse_int(flag: str, text: str) -> int:
    match = re.fullmatch(_INTEGER, text)
    if match is None:
        raise ValueError(f"--{flag} takes an integer, got {text!r}")
    return int(match.group(1))


def _parse_range(flag: str, text: str) -> list[int]:
    match = re.fullmatch(rf"{_INTEGER}(?:\.\.{_INTEGER})?", text)
    if match is None:
        raise ValueError(f"--{flag} takes an integer or a range a..b, got {text!r}")
    a, b = match.groups()
    return list(range(int(a), int(b or a) + 1))


# the verify parameter each id-specific flag sets; an id takes the flag when
# its record in opstat.verify names that parameter (--n and --k size the rest)
_FLAG_PARAMS = {"sigma": "sigma", "pi": "pi", "parts": "parts", "max_sum": "parts"}
# pairs of flag groups that each select the whole family, so not both
_EXCLUSIVE_FLAGS = ((("n", "k"), ("pi", "parts", "max_sum")), (("parts",), ("max_sum",)))


def _reject_unused_flags(theorem: str, names: tuple[str, ...], args) -> None:
    """Refuse a flag that the id would ignore, naming it."""

    def given(*dests: str) -> list[str]:
        return [f"--{dest.replace('_', '-')}" for dest in dests if getattr(args, dest) is not None]

    for dest, param in _FLAG_PARAMS.items():
        if param not in names and given(dest):
            ids = [t for t, check in _CHECKS.items() if param in check.names]
            raise ValueError(f"{theorem} does not take {given(dest)[0]} (only {', '.join(ids)})")
    for first, second in _EXCLUSIVE_FLAGS:
        if given(*first) and given(*second):
            raise ValueError(f"{given(*first)[0]} cannot be combined with {given(*second)[0]}")


def _verify_tasks(args) -> list[tuple[str, dict]]:
    """Every task, refused as ``verify`` refuses it, before any worker starts."""
    theorem = args.theorem.lower()
    names = _CHECKS[theorem].names
    _reject_unused_flags(theorem, names, args)
    extra = {"allow_large": True} if args.allow_large else {}
    tasks = []

    def add(**params) -> None:
        _prepare(theorem, args.allow_large, **params)
        tasks.append((theorem, {**params, **extra}))

    if "parts" in names:
        if args.parts is not None:
            tokens = args.parts.replace(",", " ").split()
            # a negative part is left to the composition check, and a part
            # left empty between two commas is refused, not skipped
            bad = [token for token in tokens if not re.fullmatch(_INTEGER, token)]
            if re.search(r",\s*,", args.parts):
                bad.insert(0, "")
            if bad:
                raise ValueError(f"--parts takes integers separated by commas, got {bad[0]!r}")
            add(parts=tuple(map(int, tokens)))
        elif args.max_sum is None:
            raise ValueError(f"{theorem} needs --parts or --max-sum")
        else:
            for total in range(1, _parse_int("max-sum", args.max_sum) + 1):
                for parts in compositions(total):
                    add(parts=parts)
        return tasks
    if "pi" in names and args.pi is not None:
        add(pi=args.pi)
        return tasks
    if args.n is None:
        raise ValueError(f"{theorem} needs {'--pi or ' if 'pi' in names else ''}--n (and optionally --k)")
    for n in _parse_range("n", args.n):
        for k in range(1, n + 1) if args.k in (None, "all") else _parse_range("k", args.k):
            if not 1 <= k <= n:
                continue
            if "pi" in names:
                # the S(n,k) rearrangement classes of k! members each
                # partition OP(n,k), so thm3.3 at (n, k) sizes them all;
                # each task carries its form, so no worker parses it again
                _prepare("thm3.3", args.allow_large, n=n, k=k)
                tasks += [(theorem, {"pi": pi0, **extra}) for pi0 in set_partitions(n, k)]
            elif "sigma" in names and args.sigma in (None, "all"):
                # the k! sigma-classes partition OP(n,k), each member
                # transported once, so thm3.3 at (n, k) sizes them all
                _prepare("thm3.3", args.allow_large, n=n, k=k)
                tasks += [(theorem, {"n": n, "k": k, "sigma": s.one_line(), **extra}) for s in permutations(k)]
            elif "sigma" in names:
                add(n=n, k=k, sigma=args.sigma)
            else:
                add(n=n, k=k)
    return tasks


def _cmd_verify(args) -> int:
    jobs = _parse_int("jobs", args.jobs)
    if jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {jobs}")
    tasks = _verify_tasks(args)
    if not tasks:
        given = " ".join(
            f"--{flag} {value}"
            for flag, value in (("n", args.n), ("k", args.k), ("max-sum", args.max_sum))
            if value is not None
        )
        raise ValueError(f"{args.theorem}: {given} is an empty range; nothing to verify")
    jobs = min(jobs, os.cpu_count() or 1, len(tasks))
    if jobs > 1:
        with Pool(jobs) as pool:
            reports = pool.map(run_task, tasks)
    else:
        reports = [run_task(task) for task in tasks]
    all_passed = all(r.passed for r in reports)
    if args.json:
        print(json.dumps([r.to_json() for r in reports]))
    else:
        for report in reports:
            print(report)
        print(f"{sum(r.passed for r in reports)}/{len(reports)} checks passed")
    return 0 if all_passed else 2


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

_TABLES = {
    "stirling": ("S_q", stirling_q),
    "stirling-pq": ("S_pq", stirling_pq),
    "stirling-hat": ("S_hat_pq", s_hat_pq),
    "eulerian": ("A_q", carlitz_aq),
    "gauss": ("C_q", gauss_binomial),
}


def _cmd_table(args) -> int:
    size = _parse_int("n", args.n)
    if size < 0:
        raise ValueError(f"--n must be nonnegative, got {size}")
    if size > TABLE_MAX_N and not args.allow_large:
        raise ValueError(f"--n {size} exceeds the table limit {TABLE_MAX_N}; pass --allow-large to override")
    label, fn = _TABLES[args.kind]
    fn.fill([(size, k) for k in range(size + 1)])  # every row below in one pass
    # JSON rows are written off the cells as the recursion keeps them: a
    # packed cell (``_Cell``, never zero) off its slots, unpacking nothing,
    # and a polynomial, such as a base value, by its own writer
    get = fn.stored if args.json else fn
    cells = ((n, k, get(n, k)) for n in range(size + 1) for k in range(n + 1))
    rows = ((n, k, poly) for n, k, poly in cells if poly)
    if args.json:
        # a row at a time, the text of json.dumps of the list of row objects
        write = sys.stdout.write
        write("[")
        for i, (n, k, poly) in enumerate(rows):
            write(f'{", " if i else ""}{{"n": {n}, "k": {k}, "poly": {poly.to_json_text()}}}')
        write("]\n")
    else:
        for n, k, poly in rows:
            print(f"{label}({n},{k}) = {poly.to_text()}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="opstat", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="coordinate table and aggregate statistics")
    p_stats.add_argument("partition")
    p_stats.add_argument("--stat", help="print a single named statistic")
    p_stats.add_argument("--json", action="store_true")
    p_stats.set_defaults(func=_cmd_stats)

    for name, fn in (("encode", _cmd_encode), ("decode", _cmd_decode)):
        p = sub.add_parser(name, help=f"{name} between partitions and path diagrams")
        p.add_argument("partition" if name == "encode" else "diagram")
        style = p.add_mutually_exclusive_group()
        style.add_argument("--phi", action="store_true", help="gap-rank encoding (default)")
        style.add_argument("--psi", action="store_true", help="descent-sensitive encoding")
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=fn)

    p_map = sub.add_parser("map", help="apply a bijection to a partition")
    p_map.add_argument("partition")
    which = p_map.add_mutually_exclusive_group(required=True)
    which.add_argument("--xi", action="store_true")
    which.add_argument("--upsilon", action="store_true")
    which.add_argument("--theta", action="store_true")
    which.add_argument("--lambda", dest="lam", action="store_true")
    which.add_argument("--gamma", metavar="SIGMA")
    p_map.add_argument("--json", action="store_true")
    p_map.set_defaults(func=_cmd_map)

    p_verify = sub.add_parser("verify", help="run identity checks over parameter ranges")
    p_verify.add_argument("theorem", choices=[t for t in THEOREM_IDS])
    p_verify.add_argument("--n", help="value or range, e.g. 6 or 1..6")
    p_verify.add_argument("--k", help="value, range, or 'all'")
    p_verify.add_argument("--sigma", help="one-line permutation, or 'all'")
    p_verify.add_argument("--pi", help="partition text (thm3.5)")
    p_verify.add_argument("--parts", help="composition, e.g. '3,2,3'")
    p_verify.add_argument("--max-sum", help="run all compositions up to this sum")
    p_verify.add_argument("--jobs", default="1")
    p_verify.add_argument("--allow-large", action="store_true",
                          help="override the desk-scale guards (or set OPSTAT_MAX_N for n)")
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=_cmd_verify)

    p_table = sub.add_parser("table", help="polynomial tables")
    p_table.add_argument("kind", choices=sorted(_TABLES))
    p_table.add_argument("--n", required=True)
    p_table.add_argument("--allow-large", action="store_true", help=f"allow --n above {TABLE_MAX_N}")
    p_table.add_argument("--json", action="store_true")
    p_table.set_defaults(func=_cmd_table)

    return parser


def _attach_negative_parts(argv: list[str]) -> list[str]:
    """Write ``--parts -1,2`` as ``--parts=-1,2``: argparse takes a value
    that starts with '-' and is not a plain negative number for a flag, and
    the composition check, not the parser, should refuse it."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--parts" and re.match(r"-\d", arg):
            out[-1] = f"--parts={arg}"
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_negative_parts(sys.argv[1:] if argv is None else argv))
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe is met here, not at exit
        return code
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader left early, as `head` does; what is still buffered goes
        # to devnull, so that the interpreter's last flush stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
