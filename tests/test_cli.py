import hashlib
import json

import pytest

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
    ],
)
def test_verify_rejects_flags_the_id_would_ignore(capsys, argv, message):
    assert main(["verify", *argv]) == 1
    assert message in capsys.readouterr().err


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


# SHA-256 of the stdout of `opstat verify <id> --n N --k K [--sigma all] --json`,
# recorded before the transport checks were rebuilt on the block-pair kernel
TRANSPORT_DIGESTS = {
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
}


@pytest.mark.parametrize("theorem,n,k", sorted(TRANSPORT_DIGESTS))
def test_transport_outputs_match_recorded_digests(capsys, theorem, n, k):
    argv = ["verify", theorem, "--n", str(n), "--k", str(k), "--json"]
    if theorem == "thm3.1":
        argv += ["--sigma", "all"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == TRANSPORT_DIGESTS[theorem, n, k]
