import json

from opstat.cli import main, render_stats_table
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


def test_invalid_input_exits_one(capsys):
    assert main(["stats", "1 2/2"]) == 1
    assert main(["verify", "nonsense", "--n", "3"]) == 1
    assert main(["map", "--xi"]) == 1
    capsys.readouterr()


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


def test_verify_empty_range_exits_one(capsys):
    assert main(["verify", "thm3.2", "--n", "8..1"]) == 1
    assert "--n 8..1 is an empty range" in capsys.readouterr().err
    assert main(["verify", "thm3.2", "--n", "3", "--k", "9"]) == 1
    assert "--n 3 --k 9 is an empty range" in capsys.readouterr().err


def test_desk_scale_guard_covers_every_enumeration(capsys):
    # each would enumerate for hours if the guard did not refuse it first
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
