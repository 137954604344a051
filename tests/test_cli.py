"""Command-line interface tests, run in-process."""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import re
import shlex
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from gridfire import cli
from gridfire.cli import ExperimentConfig, build_parser, main
from gridfire.trace import RunTrace


def run_cli(*argv):
    return main(list(argv))


def test_run_null_strategy_counts(capsys, tmp_path):
    out = tmp_path / "trace.jsonl"
    code = run_cli(
        "run", "--topology", "cartesian", "--radius", "0",
        "--strategy", "null", "--budget", "const:0",
        "--horizon", "5", "--out", str(out),
    )
    captured = capsys.readouterr().out
    assert code == 0
    assert "burnt cells: 61" in captured
    trace = RunTrace.load(out)
    assert trace.final_round() == 5


def test_run_containment_controls(capsys, tmp_path):
    out = tmp_path / "contained.jsonl"
    code = run_cli(
        "run", "--topology", "strong", "--radius", "1",
        "--strategy", "contain:m=1,r=1", "--budget", "const:4",
        "--horizon", "45", "--out", str(out),
    )
    captured = capsys.readouterr().out
    assert code == 0
    assert "controlled at round" in captured
    t = int(captured.split("controlled at round")[1].split()[0])
    assert t <= 42


def test_run_strategy_error_exits_nonzero(capsys, tmp_path):
    trace_path = tmp_path / "donor.jsonl"
    run_cli("run", "--topology", "cartesian", "--radius", "0",
            "--strategy", "greedy", "--budget", "periodic:2,1",
            "--horizon", "8", "--out", str(trace_path))
    capsys.readouterr()
    # Replaying a Cartesian trace on the strong grid goes illegal quickly.
    code = run_cli(
        "run", "--topology", "strong", "--radius", "0",
        "--strategy", f"replay:file={trace_path}", "--budget", "periodic:2,1",
        "--horizon", "8",
    )
    captured = capsys.readouterr().out
    assert code == 1
    assert "strategy error" in captured
    assert "round" in captured


def test_run_random_requires_seed(capsys):
    code = run_cli(
        "run", "--topology", "cartesian", "--strategy", "random",
        "--budget", "const:1",
    )
    assert code == 2


def test_monitor_json_report(capsys, tmp_path):
    out = tmp_path / "trace.jsonl"
    run_cli("run", "--topology", "cartesian", "--radius", "0",
            "--strategy", "null", "--budget", "const:0",
            "--horizon", "6", "--out", str(out))
    capsys.readouterr()
    report_path = tmp_path / "report.json"
    code = run_cli("monitor", "--trace", str(out), "--json-out", str(report_path))
    assert code == 0
    data = json.loads(report_path.read_text())
    assert data["ok"] is True
    assert data["rounds"][6]["perimeter"] == 24
    assert set(data["checks"]) == set("ABCDE")


def test_monitor_pass_and_exit_zero(capsys, tmp_path):
    out = tmp_path / "greedy.jsonl"
    run_cli("run", "--topology", "cartesian", "--radius", "0",
            "--strategy", "greedy", "--budget", "periodic:2,1",
            "--horizon", "40", "--out", str(out))
    capsys.readouterr()
    code = run_cli("monitor", "--trace", str(out))
    captured = capsys.readouterr().out
    assert code == 0
    for name in "ABCDE":
        assert f"check {name}: pass" in captured


def test_monitor_rejects_corrupt_trace(capsys, tmp_path):
    out = tmp_path / "ok.jsonl"
    run_cli("run", "--topology", "cartesian", "--radius", "0",
            "--strategy", "null", "--budget", "const:0",
            "--horizon", "4", "--out", str(out))
    capsys.readouterr()
    lines = out.read_text().splitlines()
    rec = json.loads(lines[2])
    rec["ignited"].append([30, 30])
    lines[2] = json.dumps(rec)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    code = run_cli("monitor", "--trace", str(bad))
    err = capsys.readouterr().err
    assert code == 2
    assert "malformed" in err
    assert "line" in err


def test_monitor_replays_a_trace_of_cells_far_apart(capsys, tmp_path):
    """A header whose two initial cells are 10**5 apart: the replay holds a
    few cells, not a byte for each of the 10**10 cells between them. The
    trace is the one ``run`` writes when the strategy fails in ``reset``."""
    path = tmp_path / "far.jsonl"
    path.write_text(json.dumps({
        "topology": "cartesian", "initial": [[0, 0], [100000, 100000]],
        "budget": "const:0", "strategy": "contain:m=1,r=1", "status": "strategy-error",
        "error": "round 0: containment walls assume the strong grid"}) + "\n")
    code = run_cli("monitor", "--trace", str(path))
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    for name in "ABCDE":
        assert f"check {name}: pass" in captured.out


def test_monitor_const2_void_precondition(capsys, tmp_path):
    out = tmp_path / "c2.jsonl"
    run_cli("run", "--topology", "cartesian", "--radius", "0",
            "--strategy", "greedy", "--budget", "const:2",
            "--horizon", "20", "--out", str(out))
    capsys.readouterr()
    code = run_cli("monitor", "--trace", str(out))
    captured = capsys.readouterr().out
    assert code == 0
    assert "precondition void from t=2" in captured


def test_reduce_containment(capsys):
    code = run_cli("reduce", "--strategy", "contain:m=1,r=1",
                   "--budget", "const:4")
    assert code == 0
    assert capsys.readouterr().out == (
        "strong grid: status=controlled control_round=39\n"
        "cartesian source radius 2: controlled=True control_round=79 "
        "placements_even=True ignition_parity=True\n"
        "cartesian source radius 1: controlled=True control_round=80 "
        "placements_even=True ignition_parity=False\n"
        "analysis-clock rounds: cartesian 80 vs 2x strong 80\n"
    )


def test_reduce_thin_budget_fails(capsys):
    code = run_cli("reduce", "--strategy", "contain:m=1,r=1",
                   "--budget", "const:3")
    assert code == 1
    assert capsys.readouterr().out == (
        "strong grid: status=strategy-error control_round=None\n"
        "cartesian source radius 2: controlled=False control_round=None "
        "placements_even=True ignition_parity=True\n"
        "cartesian source radius 1: controlled=False control_round=None "
        "placements_even=True ignition_parity=False\n"
        "strong-grid strategy failed; reduction inherits the failure\n"
    )


def test_reduce_exits_1_when_the_report_is_not_ok(capsys, monkeypatch):
    """A controlled strong side does not make the reduction hold: the exit
    code is the report's verdict."""
    real = cli.run_reduction

    def odd_doubled(*args):
        report = real(*args)
        trace = report.outcomes[0].trace
        first = trace.rounds[0]
        trace.rounds[0] = dataclasses.replace(first, placed=first.placed + ((1, 0),))
        return report

    monkeypatch.setattr(cli, "run_reduction", odd_doubled)
    code = run_cli("reduce", "--strategy", "contain:m=1,r=1", "--budget", "const:4")
    out = capsys.readouterr().out
    assert code == 1
    assert "status=controlled" in out and "placements_even=False" in out


def test_search_cli_small(capsys):
    code = run_cli("search", "--topology", "cartesian", "--budget", "const:4",
                   "--horizon", "1")
    captured = capsys.readouterr().out
    assert code == 0
    assert json.loads(captured)["outcome"] == "controlled-found"


def test_search_cli_min_burnt_writes_its_witness(capsys, tmp_path):
    witness = tmp_path / "w.jsonl"
    code = run_cli("search", "--objective", "min-burnt", "--budget", "periodic:2,2,2,3",
                   "--horizon", "8", "--distance", "2", "--witness-out", str(witness))
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert (out["outcome"], out["nodes"], out["min_burnt"]) == ("controlled-found", 70, 12)
    assert hashlib.sha256(witness.read_bytes()).hexdigest() == (
        "667e29b3bec8ebe7ad17ec125d9f1e6c2603b924cac4d1a07ad36796305fc6d5")


def test_search_cli_seals_at_the_root(capsys):
    # Four firefighters protect the whole first ring, so the root seals.
    code = run_cli("search", "--budget", "const:4", "--horizon", "2")
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert (out["outcome"], out["nodes"], out["min_burnt"]) == ("controlled-found", 1, 1)


def test_sweep_empty_grid(capsys):
    code = run_cli("sweep", "--m", "", "--r", "")
    captured = capsys.readouterr().out
    assert code == 0
    assert "empty sweep" in captured


def test_sweep_single_cell(capsys):
    code = run_cli("sweep", "--m", "1", "--r", "1")
    captured = capsys.readouterr().out
    assert code == 0
    assert "controlled" in captured


def test_sweep_jobs_match_a_serial_sweep(capsys, tmp_path, monkeypatch):
    workers = []

    class Pool(ProcessPoolExecutor):
        def __init__(self, max_workers):
            workers.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", Pool)
    rows = {}
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}.json"
        assert run_cli("sweep", "--m", "1", "--r", "1,2", "--jobs", jobs,
                       "--json-out", str(out)) == 0
        rows[jobs] = json.loads(out.read_text())
    capsys.readouterr()
    assert workers == [2]
    assert rows["2"] == rows["1"] and len(rows["1"]) == 2


def test_render_round_zero(capsys, tmp_path):
    out = tmp_path / "t.jsonl"
    run_cli("run", "--topology", "cartesian", "--radius", "0",
            "--strategy", "null", "--budget", "const:0",
            "--horizon", "2", "--out", str(out))
    capsys.readouterr()
    code = run_cli("render", "--trace", str(out), "--round", "0",
                   "--window=-1,1,-1,1")
    captured = capsys.readouterr().out
    assert code == 0
    assert captured.splitlines() == ["...", ".#.", "..."]


def test_render_window_off_activity(capsys, tmp_path):
    out = tmp_path / "t.jsonl"
    run_cli("run", "--topology", "cartesian", "--radius", "0",
            "--strategy", "null", "--budget", "const:0",
            "--horizon", "2", "--out", str(out))
    capsys.readouterr()
    code = run_cli("render", "--trace", str(out), "--round", "1",
                   "--window=10,12,10,12")
    captured = capsys.readouterr().out
    assert code == 0
    assert set("".join(captured.split())) == {"."}


def test_render_out_of_range_round(capsys, tmp_path):
    out = tmp_path / "t.jsonl"
    run_cli("run", "--topology", "cartesian", "--radius", "0",
            "--strategy", "null", "--budget", "const:0",
            "--horizon", "2", "--out", str(out))
    capsys.readouterr()
    code = run_cli("render", "--trace", str(out), "--round", "9",
                   "--window=-1,1,-1,1")
    assert code == 2


def test_render_pgm(tmp_path, capsys):
    out = tmp_path / "t.jsonl"
    run_cli("run", "--topology", "cartesian", "--radius", "0",
            "--strategy", "greedy", "--budget", "const:1",
            "--horizon", "2", "--out", str(out))
    capsys.readouterr()
    pgm = tmp_path / "snap.pgm"
    code = run_cli("render", "--trace", str(out), "--round", "2",
                   "--window=-3,3,-3,3", "--pgm", str(pgm))
    assert code == 0
    header, *rows = pgm.read_text().splitlines()
    assert header.startswith("P2 7 7 255")
    values = {v for row in rows for v in row.split()}
    assert values <= {"0", "128", "255"}
    assert "0" in values and "128" in values


def test_experiment_config_round_trip():
    cfg = ExperimentConfig(
        topology="strong", center=(1, -2), radius=2, budget="periodic:4,3",
        strategy="contain:m=2,r=2", horizon=300, seed=9, out="x.jsonl",
    )
    assert ExperimentConfig.from_json(cfg.to_json()) == cfg


def test_run_from_config_file(tmp_path, capsys):
    cfg = ExperimentConfig(topology="cartesian", radius=0, budget="const:0",
                           strategy="null", horizon=3)
    path = tmp_path / "cfg.json"
    path.write_text(cfg.to_json())
    code = run_cli("run", "--config", str(path))
    captured = capsys.readouterr().out
    assert code == 0
    assert "burnt cells: 25" in captured


_CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_readme_sample_config_runs(capsys, monkeypatch, tmp_path):
    # The config names its budget table relative to its own directory, so it
    # runs from any working directory.
    monkeypatch.chdir(tmp_path)
    assert run_cli("run", "--config", str(_CONFIGS / "limsup_burst.json")) == 0
    assert "horizon reached at round 240" in capsys.readouterr().out


def test_config_trace_does_not_depend_on_the_working_directory(monkeypatch, tmp_path):
    here = tmp_path / "configs"
    here.mkdir()
    out = tmp_path / "trace.jsonl"
    config = json.loads((_CONFIGS / "limsup_burst.json").read_text())
    config |= {"horizon": 80, "out": str(out)}
    (here / "limsup_burst.json").write_text(json.dumps(config))
    table = "limsup_burst_budget.json"
    (here / table).write_text((_CONFIGS / table).read_text())
    traces = []
    for cwd, path in ((tmp_path, "configs/limsup_burst.json"), (here, "limsup_burst.json"),
                      (tmp_path.parent, str(here / "limsup_burst.json"))):
        monkeypatch.chdir(cwd)
        assert run_cli("run", "--config", path) == 0
        traces.append(out.read_bytes())
    assert traces[1] == traces[0] == traces[2]
    # The header keeps the budget spec as the config wrote it.
    assert RunTrace.load(str(out)).budget_desc == f"table:{table}"


def test_run_monitor_compose(tmp_path, capsys):
    out = tmp_path / "compose.jsonl"
    assert run_cli("run", "--topology", "cartesian", "--radius", "0",
                   "--strategy", "random:seed=3", "--budget", "periodic:2,1",
                   "--horizon", "25", "--out", str(out)) == 0
    capsys.readouterr()
    assert run_cli("monitor", "--trace", str(out)) == 0


def test_identical_config_gives_identical_bytes(tmp_path, capsys):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    for path in (a, b):
        run_cli("run", "--topology", "cartesian", "--radius", "0",
                "--strategy", "random:seed=42", "--budget", "periodic:2,1",
                "--horizon", "30", "--seed", "42", "--out", str(path))
        capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def _config_file(tmp_path, drop=(), extra=None) -> str:
    fields = json.loads(ExperimentConfig().to_json())
    for key in drop:
        del fields[key]
    fields.update(extra or {})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(fields))
    return str(path)


def _trace_file(tmp_path) -> str:
    path = tmp_path / "t.jsonl"
    assert run_cli("run", "--horizon", "2", "--out", str(path)) == 0
    return str(path)


def _text_file(tmp_path, text: str) -> str:
    path = tmp_path / "text.jsonl"
    path.write_text(text)
    return str(path)


def _latin1_trace_file(tmp_path) -> str:
    """A trace whose third line holds the Latin-1 byte of "é", which is not UTF-8."""
    path = tmp_path / "latin1.jsonl"
    lines = Path(_trace_file(tmp_path)).read_bytes().split(b"\n")
    lines[2] = lines[2].replace(b'"t"', b'"t\xe9"')
    path.write_bytes(b"\n".join(lines))
    return str(path)


def _table_trace_with_fractional_f(tmp_path) -> str:
    with open(_trace_file(tmp_path)) as fp:
        lines = fp.read().splitlines()
    header, first = json.loads(lines[0]), json.loads(lines[1])
    header["budget"] = "table:b.json"
    first["f"] = 1.5
    return _text_file(
        tmp_path, "\n".join([json.dumps(header), json.dumps(first)] + lines[2:]) + "\n"
    )


def _repeated_initial_trace_file(tmp_path) -> str:
    """A true trace whose header lists its one source cell twice."""
    with open(_trace_file(tmp_path)) as fp:
        lines = fp.read().splitlines()
    header = json.loads(lines[0])
    header["initial"] = header["initial"] * 2
    return _text_file(tmp_path, "\n".join([json.dumps(header)] + lines[1:]) + "\n")


PARSE_ERRORS = {
    "run-config-missing-file":
        lambda tmp: ["run", "--config", str(tmp / "absent.json")],
    "run-config-unknown-key":
        lambda tmp: ["run", "--config", _config_file(tmp, extra={"colour": "red"})],
    "run-config-missing-key":
        lambda tmp: ["run", "--config", _config_file(tmp, drop=("center",))],
    "run-config-zero-horizon":
        lambda tmp: ["run", "--config", _config_file(tmp, extra={"horizon": 0})],
    "run-config-not-json":
        lambda tmp: ["run", "--config", _trace_file(tmp)],
    "run-config-deeply-nested":
        lambda tmp: ["run", "--config", _text_file(tmp, "[" * 200_000 + "]" * 200_000)],
    "run-config-int-budget":
        lambda tmp: ["run", "--config", _config_file(tmp, extra={"budget": 5})],
    "run-config-int-strategy":
        lambda tmp: ["run", "--config", _config_file(tmp, extra={"strategy": 5})],
    "run-config-fractional-horizon":
        lambda tmp: ["run", "--config", _config_file(tmp, extra={"horizon": 1.5})],
    "run-config-bool-horizon":
        lambda tmp: ["run", "--config", _config_file(tmp, extra={"horizon": True})],
    "run-config-int-out":
        lambda tmp: ["run", "--config", _config_file(tmp, extra={"out": 5})],
    "run-config-string-seed":
        lambda tmp: ["run", "--config", _config_file(tmp, extra={"seed": "x"})],
    "run-config-fractional-center":
        lambda tmp: ["run", "--config", _config_file(tmp, extra={"center": [0, 0.5]})],
    "run-config-three-center":
        lambda tmp: ["run", "--config", _config_file(tmp, extra={"center": [0, 0, 0]})],
    "run-config-int-center":
        lambda tmp: ["run", "--config", _config_file(tmp, extra={"center": 5})],
    "run-config-string-center":
        lambda tmp: ["run", "--config", _config_file(tmp, extra={"center": "ab"})],
    "run-horizon-zero": lambda tmp: ["run", "--horizon", "0"],
    "run-bad-center": lambda tmp: ["run", "--center", "1"],
    "run-bad-budget": lambda tmp: ["run", "--budget", "const:x"],
    "search-negative-radius":
        lambda tmp: ["search", "--radius", "-1", "--budget", "const:1", "--horizon", "1"],
    "search-horizon-zero":
        lambda tmp: ["search", "--budget", "const:1", "--horizon", "0"],
    "search-bound-without-min-burnt":
        lambda tmp: ["search", "--budget", "const:2", "--horizon", "2", "--bound", "1"],
    "search-unrestricted-with-distance":
        lambda tmp: ["search", "--budget", "const:2", "--horizon", "2",
                     "--unrestricted", "--distance", "7"],
    "search-no-symmetry":
        lambda tmp: ["search", "--budget", "const:1", "--horizon", "1", "--no-symmetry"],
    "search-default-distance-with-unrestricted":
        lambda tmp: ["search", "--budget", "const:2", "--horizon", "2",
                     "--distance", "2", "--unrestricted"],
    "render-bad-window":
        lambda tmp: ["render", "--trace", _trace_file(tmp), "--round", "0",
                     "--window=a,b,c,d"],
    "render-inverted-window":
        lambda tmp: ["render", "--trace", _trace_file(tmp), "--round", "0",
                     "--window=5,0,0,0"],
    "render-inverted-window-pgm":
        lambda tmp: ["render", "--trace", _trace_file(tmp), "--round", "0",
                     "--window=0,0,1,0", "--pgm", str(tmp / "a.pgm")],
    "render-missing-trace":
        lambda tmp: ["render", "--trace", str(tmp / "absent.jsonl"), "--round", "0",
                     "--window=0,1,0,1"],
    "monitor-missing-trace":
        lambda tmp: ["monitor", "--trace", str(tmp / "absent.jsonl")],
    "monitor-deeply-nested-trace":
        lambda tmp: ["monitor", "--trace", _text_file(tmp, "[" * 100_000)],
    "monitor-fractional-f":
        lambda tmp: ["monitor", "--trace", _table_trace_with_fractional_f(tmp)],
    "monitor-trace-not-utf8":
        lambda tmp: ["monitor", "--trace", _latin1_trace_file(tmp)],
    "monitor-repeated-initial-cell":
        lambda tmp: ["monitor", "--trace", _repeated_initial_trace_file(tmp)],
    "render-trace-not-utf8":
        lambda tmp: ["render", "--trace", _latin1_trace_file(tmp), "--round", "0",
                     "--window=0,1,0,1"],
    "search-negative-node-cap":
        lambda tmp: ["search", "--budget", "const:1", "--horizon", "1", "--node-cap", "-5"],
    "search-negative-bound":
        lambda tmp: ["search", "--budget", "const:1", "--horizon", "1", "--bound", "-3"],
    "search-unwritable-witness-out":
        lambda tmp: ["search", "--budget", "const:4", "--horizon", "1",
                     "--witness-out", str(tmp / "absent" / "w.jsonl")],
    "run-unwritable-out":
        lambda tmp: ["run", "--horizon", "2", "--out", str(tmp / "absent" / "x.jsonl")],
    "monitor-unwritable-json-out":
        lambda tmp: ["monitor", "--trace", _trace_file(tmp),
                     "--json-out", str(tmp / "absent" / "r.json")],
    "render-unwritable-pgm":
        lambda tmp: ["render", "--trace", _trace_file(tmp), "--round", "0",
                     "--window=0,1,0,1", "--pgm", str(tmp / "absent" / "a.pgm")],
    "sweep-unwritable-json-out":
        lambda tmp: ["sweep", "--m", "1", "--r", "1",
                     "--json-out", str(tmp / "absent" / "s.json")],
    "sweep-bad-m": lambda tmp: ["sweep", "--m", "a", "--r", "1"],
    "sweep-zero-r": lambda tmp: ["sweep", "--m", "1", "--r", "0"],
    "sweep-zero-jobs": lambda tmp: ["sweep", "--m", "1", "--r", "1", "--jobs", "0"],
    "sweep-negative-jobs": lambda tmp: ["sweep", "--m", "1", "--r", "1", "--jobs", "-2"],
    "reduce-horizon-zero":
        lambda tmp: ["reduce", "--strategy", "contain:m=1,r=1", "--budget", "const:4",
                     "--horizon", "0"],
    "reduce-not-a-containment-plan":
        lambda tmp: ["reduce", "--strategy", "greedy", "--budget", "const:4"],
    "reduce-budget-table-not-json":
        lambda tmp: ["reduce", "--strategy", "contain:m=1,r=1",
                     "--budget", f"table:{_text_file(tmp, 'root:x:0:0')}"],
    "unknown-option": lambda tmp: ["run", "--colour", "red"],
}


@pytest.mark.parametrize("case", sorted(PARSE_ERRORS))
def test_parse_errors_exit_2_with_one_line(case, tmp_path, capsys):
    argv = PARSE_ERRORS[case](tmp_path)
    capsys.readouterr()
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse reports its own errors by exiting
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1, err


@pytest.mark.parametrize("case", ["monitor-trace-not-utf8", "render-trace-not-utf8"])
def test_a_trace_that_is_not_utf8_is_malformed_at_its_line(case, tmp_path, capsys):
    assert main(PARSE_ERRORS[case](tmp_path)) == 2
    assert capsys.readouterr().err == (
        "malformed trace: not UTF-8: invalid continuation byte (line 3)\n")


def test_a_trace_whose_source_repeats_a_cell_is_malformed_at_line_1(tmp_path, capsys):
    assert main(PARSE_ERRORS["monitor-repeated-initial-cell"](tmp_path)) == 2
    assert capsys.readouterr().err == (
        "malformed trace: header initial lists a cell twice (line 1)\n")


@pytest.mark.parametrize("center", [5, "ab"])
def test_config_center_error_names_the_field(center, tmp_path, capsys):
    assert main(["run", "--config", _config_file(tmp_path, extra={"center": center})]) == 2
    assert capsys.readouterr().err == f"error: center must be two ints, got {center!r}\n"


def test_budget_table_error_names_the_table(tmp_path, capsys):
    assert main(PARSE_ERRORS["reduce-budget-table-not-json"](tmp_path)) == 2
    assert capsys.readouterr().err.startswith(
        f"error: budget table {str(tmp_path / 'text.jsonl')!r} is not JSON: ")


def test_readme_commands_parse():
    """Every ``gridfire`` command in README's code blocks parses, so a renamed
    or removed flag cannot leave the README stale. Nothing is run."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = readme.read_text(encoding="utf-8").split("```")[1::2]
    commands = []
    for block in blocks:
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["gridfire"]:
                commands.append(words[1:])
    assert len(commands) >= 6, commands
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: gridfire {shlex.join(argv)}")


def test_every_long_option_is_in_the_readme():
    """Every subcommand's long options appear in README.md, so no flag lives
    on undocumented. ``--help`` is argparse's own."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    subcommands = next(a for a in build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction))
    missing = [
        f"{name} {opt}"
        for name, sub in subcommands.choices.items()
        for action in sub._actions if not isinstance(action, argparse._HelpAction)
        for opt in action.option_strings
        if opt.startswith("--") and not re.search(re.escape(opt) + r"(?![\w-])", readme)
    ]
    assert not missing, missing
