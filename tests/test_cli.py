import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import opstat
from opstat.cli import _TABLES, main, render_stats_table
from opstat.core import OrderedSetPartition

GOLDEN_TABLE = """\
   i | 6 8 / 5 / 1 4 7 / 3 9 / 2 | total
 los | 0 0 / 0 / 0 0 2 / 1 3 / 1 |     7
 ros | 4 4 / 3 / 0 2 2 / 1 1 / 0 |    17
 lob | 0 0 / 1 / 2 2 0 / 2 0 / 3 |    10
 rob | 0 0 / 0 / 2 0 0 / 0 0 / 0 |     2
 lcs | 0 0 / 0 / 0 0 1 / 0 3 / 0 |     4
 rcs | 2 3 / 1 / 0 1 1 / 1 1 / 0 |    10
 lcb | 0 0 / 1 / 2 2 1 / 3 0 / 4 |    13
 rcb | 2 1 / 2 / 2 1 1 / 0 0 / 0 |     9
 lsb | 0 0 / 0 / 0 0 1 / 1 0 / 1 |     3
 rsb | 2 1 / 2 / 0 1 1 / 0 0 / 0 |     7"""


def test_stats_table_rendering_golden():
    pi = OrderedSetPartition.parse("6 8/5/1 4 7/3 9/2")
    assert render_stats_table(pi) == GOLDEN_TABLE


def test_stats_command(capsys):
    assert main(["stats", "6 8/5/1 4 7/3 9/2"]) == 0
    out = capsys.readouterr().out
    assert GOLDEN_TABLE in out
    assert "ros_os=8" in out
    assert "rsb_tc=3" in out


def test_stats_json_schema(capsys):
    assert main(["stats", "6 8/5/1 4 7/3 9/2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["partition"]["blocks"][0] == [6, 8]
    assert payload["coordinates"]["ros"] == [4, 4, 3, 0, 2, 2, 1, 1, 0]
    assert payload["aggregates"]["mak"] == 21
    assert payload["restricted"]["ros_os"] == 8
    assert payload["restricted"]["rsb_tc"] == 3


def test_stats_single_statistic(capsys):
    assert main(["stats", "6 8/5/1 4 7/3 9/2", "--stat", "MAK"]) == 0
    assert capsys.readouterr().out.strip() == "21"
    assert main(["stats", "6 8/5/1 4 7/3 9/2", "--stat", "mak'"]) == 0
    assert capsys.readouterr().out.strip() == "19"


def test_stats_single_statistic_json(capsys):
    assert main(["stats", "6 8/5/1 4 7/3 9/2", "--stat", "mak", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "partition": {"n": 9, "blocks": [[6, 8], [5], [1, 4, 7], [3, 9], [2]]},
        "stat": "mak",
        "value": 21,
    }


def test_stats_refuses_an_empty_statistic_name(capsys):
    # an empty --stat names no statistic: it must not print the whole table
    assert main(["stats", "1 2/3", "--stat", ""]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown statistic: ''" in captured.err


def test_map_commands(capsys):
    assert main(["map", "--xi", "6/3 5 7/1 4 10/9/2 8"]) == 0
    assert capsys.readouterr().out.strip() == "4 6 8/3 7 10/1 9/5/2"
    assert main(["map", "--theta", "6/3 5 7/9/1 4 10/2 8"]) == 0
    assert capsys.readouterr().out.strip() == "4 6 8/1 7 10/3 9/5/2"
    assert main(["map", "--upsilon", "6/3 5 7/1 4 10/9/2 8"]) == 0
    assert capsys.readouterr().out.strip() == "6/3 5 7/9/1 4 10/2 8"
    assert main(["map", "--gamma", "43152", "1 5 7/2 4 10/3 8/6/9"]) == 0
    assert capsys.readouterr().out.strip() == "6/3 5 7/1 4 10/9/2 8"
    assert main(["map", "--lambda", "1 4 15/2 3/5 6/7 10 13/8/9 11/12 14"]) == 0
    assert capsys.readouterr().out.strip() == "1 12 15/2 4/3 6 9/5 7/8/10 11/13 14"


def test_encode_decode_roundtrip(capsys):
    assert main(["encode", "6/3 5 7/1 4 10/9/2 8"]) == 0
    diagram = capsys.readouterr().out.strip()
    assert diagram == "NNNOOEDDED 0,0,2,1,2,3,2,0,1,0"
    assert main(["decode", diagram]) == 0
    assert capsys.readouterr().out.strip() == "6/3 5 7/1 4 10/9/2 8"
    assert main(["encode", "--psi", "6/3 5 7/9/1 4 10/2 8"]) == 0
    assert capsys.readouterr().out.strip() == diagram
    assert main(["decode", "--psi", diagram]) == 0
    assert capsys.readouterr().out.strip() == "6/3 5 7/9/1 4 10/2 8"


def test_encode_json(capsys):
    assert main(["encode", "--json", "1 2"]) == 0
    assert json.loads(capsys.readouterr().out) == {"steps": "ND", "labels": [0, 0]}


def test_verify_ranges_exit_zero(capsys):
    assert main(["verify", "thm3.2", "--n", "1..4", "--k", "all"]) == 0
    out = capsys.readouterr().out
    assert "10/10 checks passed" in out


def test_verify_json(capsys):
    assert main(["verify", "zezh", "--n", "3", "--k", "all", "--json"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert len(reports) == 3
    assert all(r["pass"] for r in reports)


def test_verify_specific_parameters(capsys):
    assert main(["verify", "thm3.5", "--pi", "1 4/2 3/5"]) == 0
    assert main(["verify", "eq1.1", "--parts", "2,1"]) == 0
    assert main(["verify", "doubleton", "--max-sum", "3"]) == 0
    assert main(["verify", "thm3.1", "--n", "4", "--k", "2", "--sigma", "21"]) == 0
    capsys.readouterr()


def test_verify_parallel_jobs(capsys):
    assert main(["verify", "zezh", "--n", "1..5", "--k", "all", "--jobs", "2"]) == 0
    assert "15/15 checks passed" in capsys.readouterr().out


def test_thm35_tasks_carry_standard_forms_through_a_pool(capsys):
    # each --n/--k task holds its standard form, not the form's text; the
    # forms pickle into the workers, and the reports still show the text
    from opstat.cli import _verify_tasks, build_parser

    tasks = _verify_tasks(build_parser().parse_args(["verify", "thm3.5", "--n", "4", "--k", "all"]))
    assert len(tasks) == 15  # the set partitions of [4]
    assert all(type(params["pi"]) is OrderedSetPartition and params["pi"].is_standard() for _, params in tasks)
    for extra in ([], ["--json"]):
        outs = []
        for jobs in ("1", "2"):
            assert main(["verify", "thm3.5", "--n", "4", "--k", "all", "--jobs", jobs, *extra]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
    assert '"pi": "1 3/2 4"' in outs[0]


def test_invalid_input_exits_one(capsys):
    assert main(["stats", "1 2/2"]) == 1
    assert main(["verify", "nonsense", "--n", "3"]) == 1
    assert main(["map", "--xi"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--n", "3", "--k", "x"], "--k takes an integer or a range a..b, got 'x'"),
        (["--n", "1..x"], "--n takes an integer or a range a..b, got '1..x'"),
        (["--n", "\uff13"], "--n takes an integer or a range a..b, got '\uff13'"),
        (["--parts", "a,1"], "--parts takes integers separated by commas, got 'a'"),
        (["--parts", "1_0"], "--parts takes integers separated by commas, got '1_0'"),
        (["--parts", "1,,2"], "--parts takes integers separated by commas, got ''"),
    ],
)
def test_numeric_flag_errors_name_the_flag(capsys, flags, message):
    theorem = "eq1.1" if flags[0] == "--parts" else "thm3.2"
    assert main(["verify", theorem, *flags]) == 1
    assert capsys.readouterr().err.strip() == f"error: {message}"


@pytest.mark.parametrize("value", ["\uff13", "1_0", "+3"])
@pytest.mark.parametrize(
    "argv,flag",
    [
        (["verify", "doubleton", "--max-sum"], "--max-sum"),
        (["verify", "zezh", "--n", "3", "--jobs"], "--jobs"),
        (["table", "stirling", "--n"], "--n"),
    ],
)
def test_integer_flags_take_ascii_digits_only(capsys, argv, flag, value):
    # int() would read each of these as 3 or 10
    assert main([*argv, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == f"error: {flag} takes an integer, got {value!r}"


def test_verification_failure_exits_two(capsys, monkeypatch):
    from opstat import cli
    from opstat.verify import VerificationReport

    def failing(task):
        theorem, params = task
        return VerificationReport(theorem, params, False, detail="forced failure")

    monkeypatch.setattr(cli, "run_task", failing)
    assert main(["verify", "zezh", "--n", "3", "--k", "1"]) == 2
    assert "FAIL" in capsys.readouterr().out


def test_desk_scale_guard_exits_one(capsys):
    assert main(["verify", "thm3.2", "--n", "13", "--k", "2"]) == 1
    err = capsys.readouterr().err
    assert "desk-scale" in err


@pytest.mark.parametrize("raw", ["x", "1_0", "-5", ""])
def test_a_malformed_desk_scale_limit_exits_one(monkeypatch, capsys, raw):
    monkeypatch.setenv("OPSTAT_MAX_N", raw)
    assert main(["verify", "zezh", "--n", "3", "--k", "2"]) == 1
    assert capsys.readouterr().err == f"error: OPSTAT_MAX_N is not a decimal number: {raw!r}\n"


def test_verify_empty_range_exits_one(capsys):
    assert main(["verify", "thm3.2", "--n", "8..1"]) == 1
    assert "--n 8..1 is an empty range" in capsys.readouterr().err
    assert main(["verify", "thm3.2", "--n", "3", "--k", "9"]) == 1
    assert "--n 3 --k 9 is an empty range" in capsys.readouterr().err


def test_desk_scale_guard_covers_every_enumeration(capsys, monkeypatch):
    # each would enumerate for hours if the guard did not refuse it first
    _no_enumeration(monkeypatch)
    assert main(["verify", "eq2.3", "--n", "40", "--k", "20"]) == 1
    assert main(["verify", "thm3.1", "--n", "40", "--k", "20", "--sigma", "all"]) == 1
    assert main(["verify", "thm3.5", "--n", "40", "--k", "20"]) == 1
    assert capsys.readouterr().err.count("desk-scale") == 3


def test_desk_scale_guard_covers_partition_and_composition_checks(capsys):
    # 14! rearrangements, and families on ground sets of 28 and 27 elements
    assert main(["verify", "thm3.5", "--pi", "/".join(map(str, range(1, 15)))]) == 1
    assert main(["verify", "doubleton", "--parts", "14"]) == 1
    assert main(["verify", "eq1.1", "--parts", "9,9,9"]) == 1
    assert capsys.readouterr().err.count("desk-scale") == 3


@pytest.mark.parametrize(
    "argv,message",
    [
        (["thm3.3", "--n", "4", "--k", "2", "--sigma", "2,1"], "thm3.3 does not take --sigma"),
        (["thm3.2", "--n", "3", "--pi", "1/2"], "thm3.2 does not take --pi"),
        (["thm3.2", "--n", "3", "--k", "2", "--parts", "4"], "thm3.2 does not take --parts"),
        (["zezh", "--n", "3", "--max-sum", "2"], "zezh does not take --max-sum"),
        (["thm3.5", "--pi", "1/2", "--n", "9", "--k", "3"], "--n cannot be combined with --pi"),
        (["thm3.5", "--pi", "1/2", "--k", "1"], "--k cannot be combined with --pi"),
        (["eq1.1", "--parts", "2,1", "--n", "3"], "--n cannot be combined with --parts"),
        (["doubleton", "--max-sum", "3", "--k", "2"], "--k cannot be combined with --max-sum"),
        (["eq1.1", "--parts", "2", "--max-sum", "3"], "--parts cannot be combined with --max-sum"),
        # an empty --sigma is a given sigma, not every sigma
        (["thm3.1", "--n", "3", "--k", "2", "--sigma", ""], "sigma must act on k=2 blocks"),
    ],
)
def test_verify_rejects_flags_the_id_would_ignore(capsys, argv, message):
    assert main(["verify", *argv]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["eq1.1", "--parts", ","],
        ["doubleton", "--parts", ","],
        ["eq1.1", "--parts", "0"],
        ["doubleton", "--parts", "0,0"],
    ],
)
def test_verify_refuses_a_composition_with_sum_zero(capsys, argv):
    assert main(["verify", *argv]) == 1
    assert "parts must have a positive sum" in capsys.readouterr().err
    assert main(["verify", "eq1.1", "--parts", "2,0,1"]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["doubleton", "--parts", "-1,2"],
        ["doubleton", "--parts=-1,2"],
        ["eq1.1", "--parts", "-1"],
        ["eq1.1", "--parts", "2,-1"],
        ["eq1.1", "--parts", "1,-1"],  # sum zero: the sign is named first
    ],
)
def test_verify_refuses_negative_parts(capsys, argv):
    assert main(["verify", *argv]) == 1
    assert "composition parts must be nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["thm3.5", "--pi", ""], "error: no blocks in partition text: ''"),
        (["eq1.1", "--parts", ""], "error: parts must have a positive sum, got ()"),
        (["doubleton", "--parts", ""], "error: parts must have a positive sum, got ()"),
    ],
)
def test_verify_passes_an_empty_pi_or_parts_to_its_parser(capsys, argv, message):
    # an empty value is given, so it is parsed and refused, not taken as missing
    assert main(["verify", *argv]) == 1
    assert capsys.readouterr().err == message + "\n"


def _no_enumeration(monkeypatch):
    """Make every family a refused request could start fail the test."""
    verify_module = importlib.import_module("opstat.verify")
    cli_module = importlib.import_module("opstat.cli")

    def started(*args, **kwargs):
        raise AssertionError("the enumeration started")

    for name in ("rearrangements", "words", "set_partitions", "ordered_set_partitions"):
        monkeypatch.setattr(verify_module, name, started)
    for name in ("set_partitions", "permutations", "run_task", "Pool"):
        monkeypatch.setattr(cli_module, name, started)


def test_count_guard_refuses_large_classes_before_enumerating(capsys, monkeypatch):
    # twelve singletons have 12! orders and twelve letters 12! words, though
    # their ground sets pass the desk-scale limit; --max-sum sizes each
    # composition as it is listed ((1,)*10 has 10! words, a doubleton of 7
    # letters a ground set of 14), and thm3.5 --n and --sigma all size the
    # members of all their classes, as thm3.3 sizes OP(n, k): the 9! S(12, 9)
    # block orders of the rearrangement classes, and the 8! S(10, 8) members
    # of the sigma-classes
    _no_enumeration(monkeypatch)
    singletons = "/".join(map(str, range(1, 13)))
    over_count = "objects exceed the desk-scale count limit 1000000; pass"
    for argv, message in (
        (["thm3.5", "--pi", singletons], f"479001600 {over_count}"),
        (["thm3.5", "--n", "12", "--k", "12"], f"479001600 {over_count}"),
        (["thm3.5", "--n", "12", "--k", "9"], f"8083152000 {over_count}"),
        (["eq1.1", "--parts", ",".join("1" * 12)], f"479001600 {over_count}"),
        (["thm3.5", "--n", "13", "--k", "2"], "n=13 exceeds the desk-scale limit 12; set OPSTAT_MAX_N or pass"),
        (["eq1.1", "--max-sum", "10"], f"3628800 {over_count}"),
        (["doubleton", "--max-sum", "7"], "n=14 exceeds the desk-scale limit 12; set OPSTAT_MAX_N or pass"),
        (["thm3.1", "--n", "10", "--k", "8", "--sigma", "all"], f"30240000 {over_count}"),
    ):
        assert main(["verify", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message} --allow-large (allow_large=True) to override\n"


def test_a_reader_past_its_limit_exits_1_even_with_allow_large(capsys, monkeypatch):
    # the count guard yields to --allow-large, the reader's does not: one
    # block past a limit lowered to three blocks' 12 cells, and twenty
    # blocks at the real limit, refused before any row is built
    statistics = importlib.import_module("opstat.statistics")
    monkeypatch.setattr(statistics, "_pair_rows", lambda terms: pytest.fail("a refused reader built its rows"))
    twenty = "/".join(map(str, range(1, 21)))
    for argv, cells, limit in ((["--pi", "1/2/3/4"], 32, 3 * 2**2), (["--pi", twenty], 20 * 2**19, None)):
        with monkeypatch.context() as m:
            if limit is not None:
                m.setattr(statistics, "READER_MAX_CELLS", limit)
            assert main(["verify", "thm3.5", *argv, "--allow-large", "--jobs", "1"]) == 1
        captured = capsys.readouterr()
        blocks = argv[1].count("/") + 1
        assert captured.out == ""
        assert captured.err == (
            f"error: a reader on {blocks} blocks needs {cells} table cells, past the limit "
            f"{limit or statistics.READER_MAX_CELLS}; its {blocks}! orders cannot be checked\n"
        )


@pytest.mark.parametrize(
    "argv",
    [
        ["thm3.1", "--n", "13", "--k", "1", "--sigma", "all"],
        ["thm3.1", "--n", "13", "--k", "1", "--sigma", "1"],
        ["thm3.5", "--n", "13", "--k", "1"],
        ["eq2.3", "--n", "13", "--k", "13"],
        ["eq1.1", "--parts", "13"],
    ],
)
def test_allow_large_passes_every_guard_the_cli_runs(capsys, argv):
    # a ground set of 13 is past the desk-scale limit, though each family
    # here has one object
    assert main(["verify", *argv]) == 1
    assert "n=13 exceeds the desk-scale limit 12" in capsys.readouterr().err
    assert main(["verify", *argv, "--allow-large"]) == 0
    assert "1/1 checks passed" in capsys.readouterr().out


def test_count_guard_refuses_large_op_sums_before_any_worker_starts(capsys, monkeypatch):
    # 6! S(12, 6) block orders pass the ground-set guard; one refused k
    # refuses its whole range, and thm3.3 takes the class checks' limit
    _no_enumeration(monkeypatch)
    for argv, count, limit in (
        (["thm3.2", "--n", "12", "--k", "6"], 953029440, 100000000),
        (["eq5.8", "--n", "11", "--k", "all", "--jobs", "2"], 129230640, 100000000),
        (["thm3.3", "--n", "9", "--k", "6"], 1905120, 1000000),
    ):
        assert main(["verify", *argv]) == 1
        assert f"error: {count} objects exceed the desk-scale count limit {limit}" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["stirling-pq", "gauss"])
def test_table_guard_refuses_a_large_size(capsys, kind):
    from opstat.cli import TABLE_MAX_N

    assert TABLE_MAX_N >= 20  # the benchmark's S_pq table
    assert main(["table", kind, "--n", str(TABLE_MAX_N + 1)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --n {TABLE_MAX_N + 1} exceeds the table limit {TABLE_MAX_N}; pass --allow-large to override\n"


def test_table_allow_large_overrides_the_guard(capsys):
    from opstat.cli import TABLE_MAX_N

    assert main(["table", "gauss", "--n", str(TABLE_MAX_N + 1), "--allow-large"]) == 0
    assert f"C_q({TABLE_MAX_N + 1},1) = " in capsys.readouterr().out


def test_zezh_shares_the_table_limit(capsys):
    # zezh fills the same recursions as ``table``: refused past the same n
    # before any task starts, with nothing on stdout
    from opstat.cli import TABLE_MAX_N

    assert main(["verify", "zezh", "--n", "200", "--k", "100"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: n=200 exceeds the closed-form limit {TABLE_MAX_N}; "
        "pass --allow-large (allow_large=True) to override\n"
    )
    assert main(["verify", "zezh", "--n", str(TABLE_MAX_N), "--k", "all"]) == 0
    assert f"{TABLE_MAX_N}/{TABLE_MAX_N} checks passed" in capsys.readouterr().out
    assert main(["verify", "zezh", "--n", str(TABLE_MAX_N + 1), "--k", "1", "--allow-large"]) == 0
    assert "1/1 checks passed" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [["decode", ""], ["decode", "--psi", "   "]])
def test_decode_refuses_blank_diagram_text(capsys, argv):
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: no steps in diagram text:")


def test_parts_are_separated_by_commas_or_spaces(capsys):
    for parts in ("1 2", "1, 2", "1 , 2"):
        assert main(["verify", "eq1.1", "--parts", parts]) == 0
        assert "eq1.1 {'parts': (1, 2)}: pass" in capsys.readouterr().out


def test_verify_jobs_must_be_positive(capsys):
    assert main(["verify", "zezh", "--n", "3", "--jobs", "0"]) == 1
    assert "--jobs" in capsys.readouterr().err


def test_verify_pool_size_is_capped(capsys, monkeypatch):
    from opstat import cli

    sizes = []

    class RecordingPool:
        def __init__(self, size):
            sizes.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return [fn(task) for task in tasks]

    monkeypatch.setattr(cli, "Pool", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    assert main(["verify", "zezh", "--n", "1..5", "--jobs", "1000"]) == 0  # 15 tasks
    assert main(["verify", "zezh", "--n", "3", "--jobs", "1000"]) == 0  # 3 tasks
    assert main(["verify", "zezh", "--n", "1..5", "--jobs", "2"]) == 0
    assert main(["verify", "zezh", "--n", "1", "--jobs", "8"]) == 0  # 1 task: no pool
    capsys.readouterr()
    assert sizes == [4, 3, 2]


def test_table_command(capsys):
    assert main(["table", "eulerian", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert "A_q(3,1) = 2*q^2 + 2*q" in out
    assert main(["table", "stirling-pq", "--n", "3", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert {"n": 3, "k": 2, "poly": [[1, 2, 0, 0, 0], [1, 1, 1, 0, 0], [1, 1, 0, 0, 0]]} in rows


def test_table_refuses_a_negative_size(capsys):
    assert main(["table", "gauss", "--n", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--n must be nonnegative" in captured.err


def test_closed_forms_run_past_the_recursion_limit(capsys):
    # S_q(n,1), A_q(n,0) and C_q(n-1,n-1) are 1; each recursion still runs
    # n rows deep, past the interpreter's recursion limit
    assert main(["verify", "zezh", "--n", "1200", "--k", "1", "--allow-large"]) == 0
    assert "1/1 checks passed" in capsys.readouterr().out


# SHA-256 of the stdout of `opstat verify <id> --n N --k K [--sigma all] --json`
# (`--max-sum N` for the composition ids, keyed with K None).  The thm3.1,
# thm3.3 and thm3.5 entries were recorded before the transport checks were
# rebuilt on the block-pair kernel, the thm3.2 and thm3.4 entries at n = 6
# before those sweeps read the pair table, the zezh entries with K "all"
# before products of dense polynomials became one big-integer product, the
# others before the checks became one record per id.
VERIFY_DIGESTS = {
    ("thm3.1", 1, 1): "e9f5dbe463439049d39584575d622629d52f0b529fa45cf1dfdec094e6ef0177",
    ("thm3.1", 2, 1): "72a13b7ac683d63fc5aed5ca6222763518c3b5847c5ff379f9bb456bd732069a",
    ("thm3.1", 2, 2): "e83224e83f5576c09eb6c5446270989e1d059a2b0b6f009f18302b89e0f2de75",
    ("thm3.1", 3, 1): "fbca173749542d6f13fd7c9e5e88ed63c9ff1bdec91994a83fd70148f7e62730",
    ("thm3.1", 3, 2): "d9e41b6e64a57bdf7bc96065ac1bca0f652c0fbff18084ac1cff6f25e519e6ff",
    ("thm3.1", 3, 3): "1286a62c20161593593db82132dd007dede28708ae0d9cc38120bf0b6bf34c03",
    ("thm3.1", 4, 1): "e1adf40c88238bc2896fa4d9546d8395de4754c95e35d4a0fe2bfd31b7760baf",
    ("thm3.1", 4, 2): "0b7666ee801233c18764a983cd4c03462cdd6bcfc6db7772f84f0114e6cef5f4",
    ("thm3.1", 4, 3): "c06ee148de922297de11f77a014558a39bb12026e2a7f6e0f88b0c15ab359537",
    ("thm3.1", 5, 1): "e047ad7efd16d3d2205c18471297835fea59fdc50041ae019f5dcfec3b09dac7",
    ("thm3.1", 5, 2): "899e4dd36de380b991bf05040c7cc34861296f5fc9cae44a2051532259ca3e66",
    ("thm3.1", 5, 3): "5a6b963c0033dd9633a0ee90ee2eb3579e9da973add9f3e2e8cb4fc2a36761c3",
    ("thm3.3", 1, 1): "2a230e2c860b1553475a8c6546b2a357948f2c3889ded6846b5a3fb3f79b4f95",
    ("thm3.3", 2, 1): "09474731b3b15348470100da1d07e9013f6beb12383de3bed87c23e48b1731a8",
    ("thm3.3", 2, 2): "eefa7d1f7c26ed9043548a981eec4055d7464974ad4edddf7d67ae26d40e736d",
    ("thm3.3", 3, 1): "8f95075c4cf4551ac539ad40c4d3deee1892ab0f9fc7860268091e011a6f15bf",
    ("thm3.3", 3, 2): "eb0581bdbfc6b04442ab493408aeb44efa73e3d835b4ee67e8410ce65b1998e2",
    ("thm3.3", 3, 3): "c0bc23ce438e26ff2671dc30991d39857d85f8e628ddc330220e091de5f72a79",
    ("thm3.3", 4, 1): "cdb6b0bd7766de95059cd1612fa6e84d8c180e5f2bd6dcd7124d10b3968aef29",
    ("thm3.3", 4, 2): "36df5cdd04d0bf5bb5946b4701d3b3a432dfcd8dbc65324bab57bb528ce5f67d",
    ("thm3.3", 4, 3): "2d58f82778f037c49437456ff79d69e58fd934910bc34d60539017a19f27f3b9",
    ("thm3.3", 4, 4): "51aa56f0762b239606b4326e34b1bb475e031a5432a9e36a7ace89d84d47e70c",
    ("thm3.3", 5, 1): "3210c17246ce498849024d84a26b1f3d43bcd5003be4326a32186dd6c7c68cda",
    ("thm3.3", 5, 2): "4c17717c5701a4dae20f2a20fec55a50d1676061d9c27eb93bf91c43d3226461",
    ("thm3.3", 5, 3): "573093030e843e3e563974dc02a85e248fdbecd35edbf4651bbeacd909630572",
    ("thm3.3", 5, 4): "3002eed2833aac62b382fe1f673881dbe9148145766b50fba93893e38da7a03d",
    ("thm3.3", 5, 5): "da3ccf7a44d0fcd01620926f74cbe24aacf710d29ddef67c53d6494059f83c57",
    ("thm3.5", 1, 1): "9d9c480f227c40d574cdc0839ec185b8aff66216a2a2a392c8d1f3a8330af11e",
    ("thm3.5", 2, 1): "1a94e1cc5b9695f28ec58f2cbb735c4736d567782af9cc9bf67d86682e484f8a",
    ("thm3.5", 2, 2): "5439e1c47c83987a405a8789f92ec65c19182d1cc6aa8a65309fac0312190903",
    ("thm3.5", 3, 1): "e0ef833c24e100ae5746593b303943447bd80058d3a387c5a76aaaf3aae40894",
    ("thm3.5", 3, 2): "3f9f15da283b51cd0e45113aa85f8517d2cf5ec82954d0adc8373bd84156534e",
    ("thm3.5", 3, 3): "43b860f344ef0f1cf70598ffa84ea17822786ba21cfecac86baa5fa8d5849405",
    ("thm3.5", 4, 1): "091ede7d0405061a5dccbd405f133dcbfea35c512b54f4daaafca8237f1d9d5d",
    ("thm3.5", 4, 2): "b424baf304b0a36c4c6bc162849eda5efdb6cf9449ffc505d445408b09d3e0b6",
    ("thm3.5", 4, 3): "5ff30acd37656b8746163b1174265c4a2b79d8ddd509ce3b3d8b5cdde1ef32d4",
    ("thm3.5", 4, 4): "4f6259ca525ae989317e1f0a47bd4f92ffa178d3d361d536e0002923ae49119c",
    ("thm3.5", 5, 1): "924105545d700121b358c41e4fcd74d17d56a3e2e33c0744bb585721e4b3e208",
    ("thm3.5", 5, 2): "118d9c086cb6d996f5f92d55c8eee631a5c8328d496a35997bf229b249cb8a9b",
    ("thm3.5", 5, 3): "15898693012609fad9795ad7a0087a8da8dc1c69d31570f9a8b282880f517374",
    ("thm3.5", 5, 4): "b3e35c6616de23771c4fe7a2c8cc06d36e21a6c1c001f70f8c827f207de3af3c",
    ("thm3.5", 5, 5): "d165d953f5ac342dadf9b69c3f9f5d6b5cc6aa4eda9cf900b3fac482b3c73b65",
    ("thm3.2", 1, 1): "659cd95913a3eac8866525069111a4d399a744f26f674a24a10f58d797eaa5dd",
    ("thm3.2", 2, 1): "dc131cefddfa25ff8d2f40225dde3a549fbb314a44bc0e73f19e5cea9ccd0f09",
    ("thm3.2", 2, 2): "48c99c60f60ea1b106a3be7a60d4001d9c25862669f9c4106984b22c66b809c4",
    ("thm3.2", 3, 1): "99ad14f8b803dcc035fa580e84878b62aadee4bbd8347a6b7da13e673e187b6e",
    ("thm3.2", 3, 2): "90702279557a0a0845a852473141cf50209e7014d95b68e8c2a27cbdf20e832d",
    ("thm3.2", 3, 3): "c68b7802c16a25a79220aca91c70ca8835213b9b1ace24e93c86ee807ae25552",
    ("thm3.2", 4, 1): "9d4a745be0381ce02bee217c6c6994297af62a260f298d4c1f2c76ab8c70db01",
    ("thm3.2", 4, 2): "fcead7962b684721bae8e45e3616ecd95fd4bfc85ad8c75e88cb3cb95b02ef6d",
    ("thm3.2", 4, 3): "5173e508952abce4eb2ec49ddc8d81664d83245e480e54eb8b78bfc647516232",
    ("thm3.2", 4, 4): "e30e9739da23c659ebbc0aafc8356462d037d004f8c43459e7d6622dcab1fac7",
    ("thm3.2", 5, 1): "65c0a9550703633139a4d0c1c4f19e6d4700e7f72549b4960e5af2911620ac9e",
    ("thm3.2", 5, 2): "774900129f1263f337554e21c01e1482d9ae28316572a57ad8c2093829842720",
    ("thm3.2", 5, 3): "3ed2dccb01d37a721e179b2da24b2533f8e7f33da9b266a514b6964f2eeb6802",
    ("thm3.2", 5, 4): "7eb80a6d5d400303b8899ee098da5f044ea995ca9370a1f07c78d30ca2d3f866",
    ("thm3.2", 5, 5): "1296cfdca27bc574ff59e3f45dc281bfb55afdd05e841938ff578a4911f34edf",
    ("thm3.2", 6, 1): "26d305054c11168da693d3a1a91b21018e5ac1069805ff78d035cae93c4f0e95",
    ("thm3.2", 6, 2): "440473266748ca9fa720d100c161f49e4910e1eb5f709eb1a80194eb92f47e15",
    ("thm3.2", 6, 3): "be61a0cb5dcc8f5dd089cca240510a841a85b471fd54855f7f8448f463914525",
    ("thm3.2", 6, 4): "1d1ecb56fbaf80e9195b7043e1cccfe7f550a2c031cf89a2839403ba88e7999d",
    ("thm3.2", 6, 5): "a83e11117610f0d9173c074640a49d2c72b3588109cc24f3d5469edf63d025a6",
    ("thm3.2", 6, 6): "abec29abc8a5bacaaacae94ddf681bdebaa1da4b8f5ac77e7c1cc3a18dd0d2da",
    ("thm3.4", 1, 1): "ca38aaaa7bd6b2e2277d6e32dd3c57e65eb00d60a52611650b1320e67575374f",
    ("thm3.4", 2, 1): "8228b073d063235f00af33fbaca33a107fba757d5f63c68452d040374b07beb5",
    ("thm3.4", 2, 2): "017d84f454dc90321b77d5ac433614aa75585da9894425ff532c927d5ec57c73",
    ("thm3.4", 3, 1): "79c2068ff4e77ca5cec74b6c4faebeed278df7648cbcb5d618ad8d684afcefe0",
    ("thm3.4", 3, 2): "93726b5f7239a04ee39939a734035d60936826c242af6308c71045656847adaa",
    ("thm3.4", 3, 3): "f04a60c73e2c34c4e727a0b13eefee13731360c5ab6fe992ca7f8e6cb4ecfaf9",
    ("thm3.4", 4, 1): "d3f05b91372fc8849354efeeec3b8275c7d311b85b2651b0f1abdea31565599e",
    ("thm3.4", 4, 2): "278a15f06d62456ddb266411e3cc92bbd153b45171dc8eeaa7f6abcf10fe5ccc",
    ("thm3.4", 4, 3): "4f902676f98dd6871edef8251cd97a80114100b2b3595f87cdca2aec0e168879",
    ("thm3.4", 4, 4): "69bfd8984ce52acf5b430b3c67dcbbc5379bad24722f3cebcf5bd5062dc07dc9",
    ("thm3.4", 5, 1): "e0eaa3f07501366ddba822246a4d21461505390cc11ae2514811ecaf53d22187",
    ("thm3.4", 5, 2): "749168e9c12ee91f7b9fd93d274974f40c8fa22ee912cb1de421baa3087b87f6",
    ("thm3.4", 5, 3): "5a6998ba26d00508d6183ee81032bed0ca121198f7cb2c425d66af5dbef72c4f",
    ("thm3.4", 5, 4): "11cf247e16f94da7ba4866918fe4f3c639684fe104c4e7adf245ed1c97c63ab7",
    ("thm3.4", 5, 5): "a62a541633980e44cfb90787a6f89a76eb82673d58443eda9cbc73339209e923",
    ("thm3.4", 6, 1): "782e7fc8ad9953720dba4a6411b6766035c72d3fddccb15c5d6059a1ebc8fab2",
    ("thm3.4", 6, 2): "a10fd3741e6c4e3cca6f710a4feb9f4e79f300dbe13d570db8c45e674a7a0258",
    ("thm3.4", 6, 3): "b87332cce21f804f266c14214be56db04f9e5849a5d8ec1429408197665a9e11",
    ("thm3.4", 6, 4): "60dcc1711f069cee2c2047f34517328f237760874cf2b8bb90e98ab459b931ff",
    ("thm3.4", 6, 5): "592b33de22d5e94d4f0dd0ab4d69d056b4bdf3e22d009ea9b83dd022b37133ce",
    ("thm3.4", 6, 6): "3139a9a21da71a3087cc817a5d025dde382f0099157da84afc87bdb06209c7a1",
    ("eq2.3", 1, 1): "83a155ba1e74929e7f777578850c8dc2ceac04d0e4827bc0b190fc83ff27e754",
    ("eq2.3", 2, 1): "8b0884eb0a4fff587ea9a57177f4379e2a79f6acaf1e148a8040bfc4046c7a79",
    ("eq2.3", 2, 2): "a7ed1d2479b9c8e5a113d610fc372e2deeab10d821977587f26e52ea29cb02e4",
    ("eq2.3", 3, 1): "ed59a031591ee16559f91c6b9ff3490b70107556da49ed3e3e60d012f0fcf1e1",
    ("eq2.3", 3, 2): "4e0286d72d41f56e67ca044145cb87b7c9af02cb7a6053f4b2e6febc23882a4e",
    ("eq2.3", 3, 3): "30e4b409a84506bd82ae921f2dbddddeb27fd66b9196de7b3e6a8fcef52b56ef",
    ("eq2.3", 4, 1): "75d04ba5b07d1925193891c0503e9919234323dcf92e8e5a36988629a41b9c68",
    ("eq2.3", 4, 2): "e5a9e408b2761bb3407246da5ac3965f11fa3075763887066bd0643c979e4868",
    ("eq2.3", 4, 3): "660a7ddeb525b88728b7b565d20cf8241a2e7751f91acae2ebadcf0b618f37a4",
    ("eq2.3", 4, 4): "ab3310d346d84cb8cf93beac8dae074acc0ffac73250cd252aa8435d6f93ef56",
    ("eq2.3", 5, 1): "3e263d373bd360af468c2525860bd01c4b6648da08c80b2ba4f8aaddde33f11f",
    ("eq2.3", 5, 2): "5c1f501d8801ba10ff13816a58b903c19809529a4c69a3599aae8fd76daf519a",
    ("eq2.3", 5, 3): "ba91877cb6290c0b8ffbf7e582286e7b006148df2fe96ad600821983da071479",
    ("eq2.3", 5, 4): "b1b0f69cc29d77cdca3d6f88d519e5b034aa6112c699d8ad30ce284a16a657d0",
    ("eq2.3", 5, 5): "392401c319e170e4712b0e7541e11865fc56f423a978e0ab7d2543891db21cc1",
    ("eq5.8", 1, 1): "545559421390e3490fa725aafe54d5d2ea3da32962b45626eab5b3d84472a78c",
    ("eq5.8", 2, 1): "7784f2a1229050ca5a2eb2a14c9ba37174310134159416009c716844eeebc655",
    ("eq5.8", 2, 2): "a1f3ddb094dd8f18e4447f2e8ccadff9ded0bf123d6d62180c2b98d5c80512df",
    ("eq5.8", 3, 1): "49640f19284e4eb4e3d374830104bfa78a427d8959984c0a568f7760624ab209",
    ("eq5.8", 3, 2): "e700306880be16d29f3c6d6c98f3ac06fa4880a4b62c39f50f721c081bd77149",
    ("eq5.8", 3, 3): "84fd574131d7bb99950953b0637dbd926093b7e1553c39163af625dd6e355fcb",
    ("eq5.8", 4, 1): "488c4d04958fb0ab553485e52f6d22b42cd943a33f34b1aad5dfc898a8917eb5",
    ("eq5.8", 4, 2): "05ece1b2b6b339290b5a6bbd4c3099f56ec540accececd722ca6d60a3df6fc64",
    ("eq5.8", 4, 3): "abb435208ce612aa2525ce6e943cf7f6e0278f7266fef1e1265b3577ca066438",
    ("eq5.8", 4, 4): "b2bb294a1ed2f20650c18d92231464c9dca58ba45bab8e78de29d043d8e4e58b",
    ("eq5.8", 5, 1): "575e32cbf0056897e2caa27bd4599e3ec3eb1aea07e193731e07a16464c02e6a",
    ("eq5.8", 5, 2): "e5a2eea7b6fbc668d027a6c652f929b4b5c95b655f1350ac9c915f30f144a1b5",
    ("eq5.8", 5, 3): "8b66ee527495c2690c43229679399e98f777cd33cdc71d2b8c0c0aa735482e5a",
    ("eq5.8", 5, 4): "a91c1dccbab83e23ff27d43a88b05ee36150dc1e3c5faf98b77a5cc6bce715d0",
    ("eq5.8", 5, 5): "01d8aedc9d7a41ba5317f4a66d5ac5759fdef3588973bc6d3b978353168c716a",
    ("eq9.2", 1, 1): "2b2f85dd1647a379d6256c7b71325d0d1b758d06d6b2a1d1fb19e1f5c7d42c57",
    ("eq9.2", 2, 1): "ac5d0136430fa7fd6a7f39abf969c20987bb008e7a39c8815f15a1382dcc46fa",
    ("eq9.2", 2, 2): "04a6ed8b2da37cfc8ddb2c53e33e2d515c043cd06ee0ccc8ed698ae52efaa72b",
    ("eq9.2", 3, 1): "48834cd9783e697ef0b3ca8e2b50d472090d00665653c46ce1c7d19dff1ed3b0",
    ("eq9.2", 3, 2): "4d7b139c999ebc37ec3708c28f38cd53c4120e92bd4e65fa1298c253b25a0269",
    ("eq9.2", 3, 3): "2804102237c86154e6a7ca6fe8d82fdd701aa0b92d0a60e8ad47cb3bbbee46f1",
    ("eq9.2", 4, 1): "0a52792c347f648d83b6ff90ceb0c9dc538b0189aba23e8a303ce8cfebb564b6",
    ("eq9.2", 4, 2): "fbfcc3aeab8be58178718013e6e843b42b2a91bb4e0082d89ccee4f893ddabb9",
    ("eq9.2", 4, 3): "bf922a2b14f83d012040192c347ca39f7567cac23ff5c66db23672b991f33672",
    ("eq9.2", 4, 4): "51e1ab547b591d7f611275cc3d7acdfec957f0a4548f3e26962ff41d11de0cbb",
    ("eq9.2", 5, 1): "c99431f8f7ef0ae84f589042fe230c32ef1a2fb407561b7b3bbb8f86b2855272",
    ("eq9.2", 5, 2): "45abd83cbc3f63a1fafea0e5dc27c48d5670c05c8945313b6c71689974ed4863",
    ("eq9.2", 5, 3): "80b2272d64b7b0fb3ab70c7b09a91a2eb8e7f29e5513072205aef1281d4ac30c",
    ("eq9.2", 5, 4): "aec7b6505a4c43c4e5d01b96eb6ec707fb6063c04000f7a1e7fb7a042cb35791",
    ("eq9.2", 5, 5): "26e7843260b3ca52056e18871e135af1b798805cb010d242ab9d4cb0d63124a1",
    ("zezh", 1, 1): "8a8536e21ba18de76760b77933ad04a97b2b4c79ddf330e860d36dad68fe4546",
    ("zezh", 2, 1): "d827c8930730d8d6d8af24bd11dc2c5f085690440dcd69647a8d2509a25517a3",
    ("zezh", 2, 2): "af213a022146b55ec5ed75a53b3f4a74c1ec8617a263870799210259bc1e207e",
    ("zezh", 3, 1): "cbe7d2633bdb46d30ff53cefa26cb6ef3be6f1fa74087a80b82f7f40dc3c614b",
    ("zezh", 3, 2): "98d275482dd985c9a2596cc12a477c2810430b35e5546ec30f7e615e4cbb8447",
    ("zezh", 3, 3): "4909b0994b3cf8e414c8debb94997c9ce4e80f7e735d02c4a6b458bd52f1d064",
    ("zezh", 4, 1): "78b56a7e59fef249a854d7195781e48f2d9bad30ff098cc2a47b26a6a89d2ed5",
    ("zezh", 4, 2): "c86e57a5ebfde34c77cbd54b2c0998a8a38e402f7f40fa8083f8ee7069b096c7",
    ("zezh", 4, 3): "168878198225984d1097ff0060e0b3f8e2662e37522567057d6bfe4f1bf33a48",
    ("zezh", 4, 4): "ebece7d17c1c0a7c719173eb6bdca5035bd598f4829659d9515a1f1edf5a201b",
    ("zezh", 5, 1): "2bf1592ff5444ddf7ff87afdcf03c416c054fb1d1ce395ddfe66f09a6a4337c1",
    ("zezh", 5, 2): "d2cb6a40a36cf493bdc75c107fe056d6746698bc454b09cc89b4a2240ab5466f",
    ("zezh", 5, 3): "edf4f7b70d4ac09899229f2fbb59f236c68cba4da63811701698de4aeb44dc76",
    ("zezh", 5, 4): "b3d57216c232da5905929698718cb471fa8c4fcd103da1656794e04988f598d3",
    ("zezh", 5, 5): "a18a1e327c03a3e0294b3bd42a1ff9b53fd694308b8b2cad65baf5a75aa0df3d",
    ("eq1.1", 4, None): "835c8f36c69513f43145e55e46f91f3b4c31f1ff2d98f83bbf2aad76ff7f0d18",
    ("doubleton", 4, None): "15718663dd545ed22c04d887296665eff7187cb3204aadfc763e8105f86ffad4",
    ("zezh", 6, "all"): "2e1404bfe404ca1180e2a5a3f5a7391643ac5677203437bb0e364fd407ae4aff",
    ("zezh", 7, "all"): "690a646fe7fbe1c89464ad302d3497b4f46da0ac2e7507f1aefc40eef2fbd7ef",
    ("zezh", 8, "all"): "0fd2c20bb947c432132d4482f4596eb27a9ab87573c6e43f56662610b5d373a3",
    ("zezh", 9, "all"): "f7b8fce65e2fca612b01fcc2970bce2ec8ffb64ca3e035a1009860372191e9d9",
    ("zezh", 10, "all"): "e2abca10f72bf98fe2fbae9ba6fd85704de97572482240c3520d790efc7f5889",
    ("zezh", 11, "all"): "6b90836d3ff0d6c69526a99b843ed38560c95cfb8c1386fd7634cf20d37595f3",
    ("zezh", 12, "all"): "0f16fdc44b47c9d32032becd348569704cdf4a1843ab02b03caa612fe2976271",
    # the transport checks at n = 6, recorded before the encoders built
    # unchecked outputs and the rearrangement classes read the pair table;
    # each thm3.5 entry covers every standard form with k blocks
    ("thm3.1", 6, 3): "639e53c20eac7bd0d9d0776390f2e95ba105cc1d3be42b6418ea7612c790fb63",
    ("thm3.3", 6, 1): "9d554ad5f4bec4186ec5f916d3b9cc3a09b599e4ce0c843f4ad0138c998c27e2",
    ("thm3.3", 6, 2): "dcca8d7046e69a49482656241c724e99b53000413c88cd06bc0bc7816a51c2bd",
    ("thm3.3", 6, 3): "e8ddcb545095113c111f275300ecb32cfdaafcd2cba19accb341b3cff489f0e5",
    ("thm3.3", 6, 4): "70caa3135a6421369d10bdd7ce1045f737ddcf58ca19a98f18658b92a103305d",
    ("thm3.3", 6, 5): "9542b15f8ce7bbc06e6be7d01b940283d75abd87bf94edf9891b51a064a73ae8",
    ("thm3.3", 6, 6): "b34cdc6507b29e52005e50d68b257e78649ea63db1534f4ddd3d6eda227eb277",
    ("thm3.5", 6, 4): "56a41524426ed749fe55ffc456b68a7c654dc41505db5d2fc0290680924d9cb3",
    ("thm3.5", 6, 5): "68f4d2f17ba4aabd160e52e4cdda589d12ab6378a09f7f242b17609844e3d58b",
    ("thm3.5", 6, 6): "fa94b3b54406bb75177726b3a36e734e693dcc59d6827c434248dfbef32e5f93",
    # recorded before varphi became one pass, beta read a per-class plan and
    # eq2.3 read rcb and lsb without the profile
    ("thm3.1", 6, 4): "b0a90493ccceeb28d636302a4d24dd44425149e0ecc6fe32756d04757e89fdf7",
    ("eq2.3", 6, "all"): "916699fb1784d32d13186d4292abfad376bd45e905cedde073cde29936cf9e28",
    ("eq2.3", 7, "all"): "4494da3c64968259123f7546e51b1c1e87bc0ad630a15ca8d69c5491c8d21799",
    # recorded before every enumerated sum went through one fold that keys
    # each distinct row once
    ("eq1.1", 5, None): "b6badec747a87d1628646c3d732f167a71ba6fb56578ad005c98aa5f500b0553",
    ("doubleton", 5, None): "0b8eb606ad317cea4d2ef0bab6087369fc5a6b58351c4e88bf183d3d3a9e3f2f",
    ("eq2.3", 7, 1): "e222994feff2ad77897ff6e023da33b1e1bd06dd43aeaed743471c6492607eee",
    ("eq2.3", 7, 2): "a567a6118dcbdd8e63fb1f5c49d37154de301fd0e8ad494103c955a715143af7",
    ("eq2.3", 7, 3): "36774a9c93c052d808b0d520e98a2046609c28aa5ed39ccdba4f8b9ab9987755",
    ("eq2.3", 7, 4): "02920ac636dc7164a2f076e7cc79eb215a9d7f26b292deb5bbf580d39e48f9cc",
    ("eq2.3", 7, 5): "07310a086b448be89fea26df84f10d2e98d92ee151ea785be8f2122d5467135e",
    ("eq2.3", 7, 6): "816339a342350907774eab492134ec7fc8b99a7aeb2399e6cbfc71aa2b457b67",
    ("eq2.3", 7, 7): "2b4d05df60f6cd91f045fc85dc75bb180c355163dbb1d36e439a39edd3a4db94",
}

# SHA-256 of the stdout of `opstat table <kind> --n 14 --json`, recorded, like
# the ("zezh", m, "all") entries above, before products of dense polynomials
# went through one big-integer multiplication
TABLE_DIGESTS = {
    "eulerian": "2ab35d0f660f6c101b1f9acc95146a09d2b6fb3ec88a8e07f8ebfff7c87a56cc",
    "gauss": "69f8a4f12747c1655fc419c28060169a34110699d8e32bf1169c6881a690611c",
    "stirling": "1264bf73e7134a732205514ab811db22936fa04494cfdc92943d1002173d5447",
    "stirling-hat": "c13b6625e50da1e21ca754d025aecf501bf14ed7a66a9dcd726c60c2a27078ac",
    "stirling-pq": "f77ba5f85a663cf7fa2c85cf89d772d39af28650f66b65d64a863e36086e93be",
}


# named for the transport ids it first covered; the name keeps their test ids.
# The k column mixes ints, "all" and None, so the key orders by type name first.
@pytest.mark.parametrize(
    "theorem,n,k", sorted(VERIFY_DIGESTS, key=lambda key: [(type(v).__name__, v) for v in key])
)
def test_transport_outputs_match_recorded_digests(capsys, theorem, n, k):
    if k is None:
        argv = ["verify", theorem, "--max-sum", str(n), "--json"]
    else:
        argv = ["verify", theorem, "--n", str(n), "--k", str(k), "--json"]
    if theorem == "thm3.1":
        argv += ["--sigma", "all"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_DIGESTS[theorem, n, k]


@pytest.mark.parametrize("kind", sorted(TABLE_DIGESTS))
def test_table_outputs_match_recorded_digests(capsys, kind):
    assert main(["table", kind, "--n", "14", "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == TABLE_DIGESTS[kind]


# SHA-256 of the stdout of `opstat table <kind> --n 12`, as text and with
# --json, and of `opstat verify zezh --n 14 --k all --json`, recorded before
# the recursions and zezh's two sides were computed on one packed layout
TABLE_12_DIGESTS = {
    ("eulerian", False): "1a4c822d56c800c48fd4ce0a1bf618246b380491c4ca36b22efd2198048284c4",
    ("eulerian", True): "58fe98b8f3f2c6e6409522d4baf060e47bc6356612cecead18c1411fa0ea52bd",
    ("gauss", False): "496d23f4d2f86bf67bb7377199665f8688266349e21c3d6b8d44874893a8ee7d",
    ("gauss", True): "345f117c38f1556ff735805bce0514ce2a76a0422401797fa0cfba3a6b3e3577",
    ("stirling", False): "4e929dfb8272941adbfea4870c131860172ddbc50e7fa53b0a89eb069923d62d",
    ("stirling", True): "f1ac58cd6912d97116a2eefd1356b90922f982e67f26f77cb24530a04fa98f02",
    ("stirling-hat", False): "2d2a1326f0a208b796258349c28431ea60a36fcb3e34cea5398cb32d2f59863f",
    ("stirling-hat", True): "cd16c9ae414ff6beab06d7754fdd6d49b0ef94a13cddd2c12c41082cfbfe0fd3",
    ("stirling-pq", False): "88a9ff6afc42751ab00968b41417ed2dde3689b994a99675a76d0a0de1d6cddb",
    ("stirling-pq", True): "f13c2f7606ff280d3a5cb248c458d3fbc63781643ff7f807cb70607cf1c58869",
}
ZEZH_14_DIGEST = "db2f6184e90dc248e1d4f9c22a6daa852905bef8b9ee4469be8a3fb4f9a01749"


@pytest.mark.parametrize("kind,as_json", sorted(TABLE_12_DIGESTS))
def test_table_outputs_at_12_match_recorded_digests(capsys, kind, as_json):
    assert main(["table", kind, "--n", "12"] + ["--json"] * as_json) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == TABLE_12_DIGESTS[kind, as_json]


def test_zezh_report_at_14_matches_recorded_digest(capsys):
    assert main(["verify", "zezh", "--n", "14", "--k", "all", "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == ZEZH_14_DIGEST


# SHA-256 of the stdout of the S_pq table the benchmark writes and of the
# largest zezh report it reads, recorded before table rows were streamed and
# polynomials written from their ordered terms
LARGE_OUTPUT_DIGESTS = {
    ("table", "stirling-pq", "--n", "20", "--json"): "b18be81cfaac2e1772e7edbb38be025c0b5c33642316715966b31afc05e447f3",
    ("verify", "zezh", "--n", "22", "--k", "all", "--json"): "ae3e5b8d37e2f6e0bccf1ac9bda341733f5f1b2a832d276c8a0633876b3faf47",
}


@pytest.mark.parametrize("argv", sorted(LARGE_OUTPUT_DIGESTS), ids=" ".join)
def test_large_outputs_match_recorded_digests(capsys, argv):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == LARGE_OUTPUT_DIGESTS[argv]


@pytest.mark.parametrize("kind", sorted(_TABLES))
@pytest.mark.parametrize("size", [0, 1, 6])
def test_streamed_table_json_is_the_dump_of_its_rows(capsys, kind, size):
    assert main(["table", kind, "--n", str(size), "--json"]) == 0
    fn = _TABLES[kind][1]
    rows = [
        {"n": n, "k": k, "poly": fn(n, k).to_json()}
        for n in range(size + 1) for k in range(n + 1) if fn(n, k)
    ]
    assert capsys.readouterr().out == json.dumps(rows) + "\n"


def test_a_reader_that_leaves_early_gets_no_traceback():
    # as `opstat table stirling-pq --n 14 | head -n 1`: far more text than a
    # pipe holds, so the writer meets the closed pipe
    src = Path(opstat.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    argv = [sys.executable, "-m", "opstat.cli", "table", "stirling-pq", "--n", "14"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline() == b"S_pq(0,0) = 1\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    assert err.decode() == ""
    assert proc.returncode == 1
