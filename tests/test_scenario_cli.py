"""Scenario dialect and the command-line surface."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from clbf.cli import main
from clbf.scenario import (
    PRESETS,
    ScenarioError,
    load_preset,
    parse_scenario,
    parse_sweep_spec,
    preset_text,
)

GOOD = """\
[network]
n = 6
delta = 3
road_length_m = 900.0
placement = balanced_prefix
hops = 4

[filters]
m1 = 256
k1 = 3
m2 = 64
k2 = 3
seed = 77

[experiment]
trials = 40
base_seed = 123
sweep = k2:1..3
"""


def test_parse_scenario_full():
    scn = parse_scenario(GOOD, name="good")
    assert scn.name == "good"
    assert scn.setup.n_nodes == 6 and scn.setup.h == 4
    assert scn.setup.placement.policy == "balanced_prefix"
    assert scn.trials == 40 and scn.base_seed == 123
    assert scn.sweep == ("k2", (1, 2, 3))
    assert scn.filter_seed == 77


def test_hops_defaults_to_a_full_chain():
    text = GOOD.replace("hops = 4\n", "")
    assert parse_scenario(text).setup.h == 5


def test_optional_keys_default():
    text = GOOD.replace("sweep = k2:1..3\n", "").replace("seed = 77\n", "")
    scn = parse_scenario(text)
    assert scn.sweep is None
    assert scn.filter_seed == 0


@pytest.mark.parametrize(
    "mutation",
    [
        lambda t: t + "\n[extra]\nx = 1\n",  # unknown section
        lambda t: t.replace("k2 = 3", "k2 = 3\nk3 = 9"),  # unknown key
        lambda t: t.replace("m2 = 64\n", ""),  # missing required key
        lambda t: t.replace("[filters]\nm1 = 256\nk1 = 3\nm2 = 64\nk2 = 3\nseed = 77\n\n", ""),
        lambda t: t.replace("trials = 40", "trials = many"),  # not an integer
        lambda t: t.replace("placement = balanced_prefix", "placement = ring"),
        lambda t: t.replace("sweep = k2:1..3", "sweep = m1:1..3"),  # not sweepable
        lambda t: t.replace("sweep = k2:1..3", "sweep = k2:9..3"),  # empty range
        lambda t: t.replace("n = 6", "n = 3"),  # hops exceed the fleet
    ],
)
def test_dialect_violations_are_fatal(mutation):
    with pytest.raises(ScenarioError):
        parse_scenario(mutation(GOOD))


def test_placement_grammar():
    text = GOOD.replace("placement = balanced_prefix", "placement = uniform_per_segment:2")
    assert parse_scenario(text).setup.placement.per_segment == 2
    text = GOOD.replace("placement = balanced_prefix", "placement = explicit:1,1,2,2,3")
    assert parse_scenario(text).setup.placement.segments == (1, 1, 2, 2, 3)
    text = GOOD.replace("placement = balanced_prefix", "placement = free")
    assert parse_scenario(text).setup.placement.policy == "free"
    with pytest.raises(ScenarioError):
        parse_scenario(GOOD.replace("placement = balanced_prefix", "placement = explicit:"))
    with pytest.raises(ScenarioError):
        parse_scenario(
            GOOD.replace("placement = balanced_prefix", "placement = uniform_per_segment")
        )


@pytest.mark.parametrize("placement", ["free:3", "balanced_prefix:7", "random:x", "free:"])
def test_placement_arguments_are_refused_where_the_policy_takes_none(placement, tmp_path, capsys):
    text = GOOD.replace("placement = balanced_prefix", f"placement = {placement}")
    with pytest.raises(ScenarioError, match="takes no argument"):
        parse_scenario(text)
    scenario = tmp_path / "arg.ini"
    scenario.write_text(text)
    rc = main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path)])
    assert rc == 2
    assert "takes no argument" in capsys.readouterr().err
    assert not (tmp_path / "arg.csv").exists()


def test_sweep_spec_grammar():
    assert parse_sweep_spec("m2:100,200,300") == ("m2", (100, 200, 300))
    assert parse_sweep_spec(" delta : 2..4 ") == ("delta", (2, 3, 4))
    for bad in ("k2", "k2:", "k2:x..3", "k2:1,two", "width:1..3"):
        with pytest.raises(ScenarioError):
            parse_sweep_spec(bad)


def test_presets_parse_and_stay_runnable():
    assert PRESETS == ("hash-sweep-d8", "hash-sweep-d16", "width-sweep", "segment-sweep")
    for name in PRESETS:
        scn = load_preset(name)
        assert scn.sweep is not None
        assert scn.trials == 10000
        assert "[network]" in preset_text(name)
    with pytest.raises(ScenarioError):
        load_preset("nope")


# ---------------------------------------------------------------------------
# command line


def test_cli_analyze_point(capsys):
    rc = main(["analyze", "--m2", "64", "--k2", "3", "--hops", "4", "--delta", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "false-positive probability: " in out
    assert "clamped: no" in out or "clamped: yes" in out


def test_cli_oracle_counts_geometries_past_enumeration(capsys):
    # 5.5e11 admissible sequences: the oracle counts them without listing any
    rc = main(["analyze", "--backend", "oracle", "--m2", "200", "--k2", "5",
               "--hops", "40", "--delta", "30"])
    assert rc == 0
    assert "admissible sequences 549463063520" in capsys.readouterr().out


def test_cli_analyze_needs_all_parameters(capsys):
    rc = main(["analyze", "--m2", "64", "--k2", "3"])
    assert rc == 2
    assert "needs" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--m2", "0", "--k2", "3", "--hops", "4", "--delta", "3"],
        ["analyze", "--m2", "64", "--k2", "3", "--hops", "4", "--delta", "0"],
        ["analyze", "--m2", "4", "--k2", "9", "--hops", "3", "--delta", "3"],
        ["analyze", "--m2", "5000000000", "--k2", "3", "--hops", "3", "--delta", "3"],
        ["optimize", "--m2", "64", "--hops", "0", "--delta", "3"],
        ["optimize", "--budget", "4096", "--hops", "0", "--delta", "15", "--nodes", "11"],
        ["optimize", "--m2", "0", "--hops", "5", "--delta", "3"],
        ["analyze", "--m2", "200", "--k2", "4", "--hops", "256", "--delta", "3"],
        ["optimize", "--m2", "200", "--hops", "256", "--delta", "3"],
        ["optimize", "--budget", "-3", "--hops", "5", "--delta", "3", "--nodes", "11"],
        ["optimize", "--budget", "4096", "--hops", "5", "--delta", "3", "--nodes", "11",
         "--eps1", "nan"],
        ["optimize", "--budget", "4096", "--hops", "5", "--delta", "3", "--nodes", "1"],
        ["simulate", "--preset", "width-sweep", "--trials", "64", "--seed=-1"],
        ["simulate", "--preset", "width-sweep", "--trials", "64", f"--seed={2**65 - 1}"],
        ["trace", "--preset", "hash-sweep-d8", "--seed=-5"],
    ],
)
def test_cli_out_of_range_parameter_exits_2(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_analyze_sweep_rejects_a_bad_point_before_any_output(capsys):
    rc = main(
        ["analyze", "--m2", "64", "--k2", "3", "--hops", "4", "--delta", "3",
         "--sweep", "k2:1,0"]
    )
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_cli_analyze_sweep_csv(capsys):
    rc = main(
        ["analyze", "--m2", "64", "--k2", "3", "--hops", "4", "--delta", "3",
         "--sweep", "k2:1..4", "--backend", "oracle"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "# schema: clbf.analyze.v1"
    assert len(lines) == 2 + 4


def test_cli_analyze_compare_histograms(capsys):
    rc = main(["analyze", "--compare-histograms", "--delta", "2", "--hops", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("# schema: clbf.fj-comparison.v1")


def test_cli_simulate_scenario_file(tmp_path, capsys):
    scenario = tmp_path / "tiny.ini"
    scenario.write_text(GOOD.replace("sweep = k2:1..3", "sweep = k2:2..3"))
    rc = main(["simulate", "--scenario", str(scenario), "--trials", "60",
               "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    csv = (tmp_path / "tiny.csv").read_text()
    assert csv.startswith("# schema: clbf.sweep.v1")
    assert len(csv.strip().split("\n")) == 2 + 2
    assert "empirical argmin" in out


def test_cli_simulate_point_mode(tmp_path):
    scenario = tmp_path / "point.ini"
    scenario.write_text(GOOD.replace("sweep = k2:1..3\n", ""))
    rc = main(["simulate", "--scenario", str(scenario), "--trials", "50",
               "--out", str(tmp_path)])
    assert rc == 0
    csv = (tmp_path / "point.csv").read_text()
    assert csv.startswith("# schema: clbf.point.v1")


def test_cli_simulate_missing_file(tmp_path, capsys):
    rc = main(["simulate", "--scenario", str(tmp_path / "absent.ini")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_cli_simulate_scenario_that_is_a_directory(tmp_path, capsys):
    # a PermissionError takes the same path; it cannot be provoked as root
    rc = main(["simulate", "--scenario", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and str(tmp_path) in err
    assert "Traceback" not in err


def test_cli_simulate_bad_scenario(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text(GOOD.replace("[network]", "[netwrk]"))
    rc = main(["simulate", "--scenario", str(bad)])
    assert rc == 2
    assert "scenario error" in capsys.readouterr().err


def test_cli_simulate_hops_past_the_hop_counter(tmp_path, capsys):
    scenario = tmp_path / "long.ini"
    scenario.write_text(GOOD.replace("n = 6", "n = 257").replace("hops = 4", "hops = 256"))
    rc = main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path)])
    assert rc == 2
    assert "hop counter" in capsys.readouterr().err


@pytest.mark.parametrize("n, delta, hops", [(70000, 3, 10), (65537, 3, 10), (6, 65536, 4)])
def test_cli_simulate_ids_past_the_u16_key_fields(n, delta, hops, tmp_path, capsys):
    # node ids and fragments are u16 key fields: rejected before a point runs
    scenario = tmp_path / "wide.ini"
    scenario.write_text(
        GOOD.replace("n = 6", f"n = {n}")
        .replace("delta = 3", f"delta = {delta}")
        .replace("placement = balanced_prefix", "placement = free")
        .replace("hops = 4", f"hops = {hops}")
    )
    rc = main(["simulate", "--scenario", str(scenario), "--trials", "2", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("scenario error: ") and "u16" in err


def test_cli_simulate_sequence_count_past_int64(tmp_path, capsys):
    # sum of C(65, j) for j < 40 admissible sequences: about 2^65
    scenario = tmp_path / "wide.ini"
    scenario.write_text(
        GOOD.replace("n = 6", "n = 70")
        .replace("delta = 3", "delta = 40")
        .replace("placement = balanced_prefix", "placement = free")
        .replace("hops = 4", "hops = 66")
    )
    rc = main(["simulate", "--scenario", str(scenario), "--trials", "2", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "n=70, delta=40, hops=66" in err
    assert "int64" in err


@pytest.mark.parametrize(
    "k2, sweep, bad",
    [(5, "m2:3,100", "m=3]"), (3, "k2:2,300", "k=300"), (3, "m2:0,64", "m=0")],
)
def test_cli_simulate_sweep_value_the_packet_refuses_exits_2(k2, sweep, bad, tmp_path, capsys):
    # every point is built before any runs: no trial, no CSV
    scenario = tmp_path / "geometry.ini"
    scenario.write_text(
        GOOD.replace("k2 = 3", f"k2 = {k2}").replace("sweep = k2:1..3", f"sweep = {sweep}")
    )
    rc = main(["simulate", "--scenario", str(scenario), "--trials", "64", "--out", str(tmp_path)])
    assert rc == 2
    assert bad in capsys.readouterr().err
    assert not (tmp_path / "geometry.csv").exists()


def test_cli_optimize_k2_mode(capsys):
    rc = main(["optimize", "--m2", "64", "--hops", "4", "--delta", "3"])
    assert rc == 0
    assert capsys.readouterr().out.startswith("k2=")


def test_cli_optimize_budget_mode(capsys):
    rc = main(["optimize", "--budget", "1024", "--hops", "4", "--delta", "3",
               "--nodes", "8"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "edge filter: m1=" in out and "location filter: m2=" in out


def test_cli_optimize_budget_needs_nodes(capsys):
    rc = main(["optimize", "--budget", "1024", "--hops", "4", "--delta", "3"])
    assert rc == 2


def test_cli_optimize_infeasible(capsys):
    rc = main(["optimize", "--budget", "64", "--hops", "10", "--delta", "4",
               "--nodes", "64", "--eps1", "1e-9"])
    assert rc == 3
    assert "infeasible" in capsys.readouterr().err


def test_cli_trace_replays_one_trial(capsys):
    rc = main(["trace", "--preset", "hash-sweep-d8", "--point", "3", "--trial", "5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "path (unit-outward):" in out
    assert "classification:" in out
    assert "packet: " in out


# SHA-256 of the concatenated stdout below: it moves with any change to how a
# trial's path is drawn, embedded, serialized, recovered or printed
TRACE_DIGEST = "a8f518ace2b7ab0d791fd4dbced76487df352d30fae84d4ec4b4298fdf2482bd"


def test_cli_trace_stdout_is_pinned(capsys):
    digest = hashlib.sha256()
    for preset in PRESETS:
        for point in (0, 3):
            for trial in (0, 5, 17):
                for fixed in ((), ("--fixed-seed",)):
                    argv = ["trace", "--preset", preset, "--point", str(point),
                            "--trial", str(trial), *fixed]
                    assert main(argv) == 0
                    digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == TRACE_DIGEST


CORRUPT_ROUND_TRIP = """
import sys
from clbf import cli
assert not __debug__, "expected python -O"
parse = cli.Clbf.from_bytes
def from_bytes(blob):
    pkt = parse(blob)
    pkt.hop_count -= 1  # the parsed packet no longer matches its image
    return pkt
if sys.argv[1] == "corrupt":
    cli.Clbf.from_bytes = from_bytes
sys.exit(cli.main(["trace", "--preset", "hash-sweep-d8"]))
"""


@pytest.mark.parametrize("mode", ["intact", "corrupt"])
def test_cli_trace_round_trip_check_survives_python_O(mode):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run(
        [sys.executable, "-O", "-c", CORRUPT_ROUND_TRIP, mode],
        capture_output=True, text=True, env=env, timeout=120,
    )
    if mode == "intact":
        assert run.returncode == 0, run.stderr
        assert "classification:" in run.stdout
    else:
        assert run.returncode != 0
        assert "AssertionError: packet image does not survive its own round trip" in run.stderr


def test_cli_trace_free_placement_scenario(tmp_path, capsys):
    scenario = tmp_path / "free.ini"
    scenario.write_text(GOOD.replace("placement = balanced_prefix", "placement = free"))
    rc = main(["trace", "--scenario", str(scenario)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "classification:" in out


def test_cli_trace_point_out_of_range(capsys):
    rc = main(["trace", "--preset", "hash-sweep-d8", "--point", "99"])
    assert rc == 2


def test_cli_trace_point_of_a_scenario_without_sweep(tmp_path, capsys):
    # `simulate` runs such a scenario as point 0 alone
    scenario = tmp_path / "point.ini"
    scenario.write_text(GOOD.replace("sweep = k2:1..3\n", ""))
    assert main(["trace", "--scenario", str(scenario), "--point", "0"]) == 0
    capsys.readouterr()
    for point in (7, 1, -1):
        rc = main(["trace", "--scenario", str(scenario), "--point", str(point)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == f"--point {point} outside 0..0\n"
        assert captured.out == ""


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
