"""Framework behaviour: suppressions, scoping, CLI exit codes, JSON."""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.analysis import (
    analyze_paths,
    analyze_source,
    module_name_for,
)
from repro.analysis.__main__ import main

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "fixtures" / "analysis"


# -- suppressions -----------------------------------------------------------


def test_line_suppressions_respected():
    path = str(FIXTURES / "suppress_fixture.py")
    report = analyze_paths([path])
    assert [d.code for d in report.diagnostics] == ["DET001"]
    assert report.suppressed == 2


def test_no_suppress_reveals_everything():
    path = str(FIXTURES / "suppress_fixture.py")
    report = analyze_paths([path], respect_suppressions=False)
    assert [d.code for d in report.diagnostics] == ["DET001"] * 3
    assert report.suppressed == 0


def test_file_level_suppression_filters_one_code():
    path = str(FIXTURES / "suppress_file_fixture.py")
    report = analyze_paths([path])
    assert [d.code for d in report.diagnostics] == ["DET002"]
    assert report.suppressed == 1


def test_suppression_scope_decorator_def_alias_and_fn():
    # The fixture's expect markers pin the three findings that must
    # survive; the suppressed count pins the four that must not:
    # RNG004 via a decorator-line allow, DET001 via a def-line allow,
    # and two DET001s under one allow-fn.
    path = str(FIXTURES / "suppress_scope_fixture.py")
    report = analyze_paths([path])
    assert [d.code for d in report.diagnostics] == [
        "RNG004", "DET001", "DET001"]
    assert report.suppressed == 4


def test_suppression_scope_no_suppress_reveals_all():
    path = str(FIXTURES / "suppress_scope_fixture.py")
    report = analyze_paths([path], respect_suppressions=False)
    assert sorted(d.code for d in report.diagnostics) == (
        ["DET001"] * 5 + ["RNG004"] * 2)
    assert report.suppressed == 0


def test_allow_fn_degrades_to_line_scope_without_a_tree():
    from repro.analysis.diagnostics import Diagnostic
    from repro.analysis.suppressions import Suppressions

    # Unparseable source: the marker still covers its own line, but
    # cannot grow to a function span.
    source = "def broken(:\n    x = 1  # repro: allow-fn[DET001]\n"
    scanned = Suppressions.scan(source)
    on_line = Diagnostic(path="f.py", line=2, col=0, code="DET001",
                         message="m")
    off_line = Diagnostic(path="f.py", line=1, col=0, code="DET001",
                          message="m")
    assert scanned.is_suppressed(on_line)
    assert not scanned.is_suppressed(off_line)


# -- module naming and scoping -----------------------------------------------


def test_module_name_from_src_layout():
    assert module_name_for("src/repro/net/rpc.py") == "repro.net.rpc"
    assert module_name_for("src/repro/sim/__init__.py") == "repro.sim"
    assert module_name_for("tests/test_net.py") == "test_net"


def test_module_directive_overrides_path():
    source = "# repro: module=repro.sim.custom\nx = 1\n"
    assert module_name_for("anywhere/odd.py", source) == "repro.sim.custom"


def test_scope_gates_checkers():
    source = "import time\n\n\ndef f():\n    return time.time()\n"
    in_scope = analyze_source(source, module="repro.sim.clock")
    assert [d.code for d in in_scope] == ["DET001"]
    # Outside the repro tree the determinism contract does not apply.
    assert analyze_source(source, module="scripts.clock") == []


def test_fixture_directories_skipped_when_walking():
    report = analyze_paths([str(ROOT / "tests")])
    analyzed_fixture = any("fixtures" in d.path for d in report.diagnostics)
    assert not analyzed_fixture and report.ok


def test_syntax_errors_reported_not_raised():
    report = analyze_paths([str(FIXTURES / "syntax_error_fixture.py")])
    (diag,) = report.diagnostics
    assert diag.code == "PARSE"


# -- parallel runner ----------------------------------------------------------


def test_parallel_analysis_identical_to_serial():
    # The fixture corpus has findings from most checkers plus a parse
    # failure, so this pins diagnostics, ordering, suppressed count,
    # and file count across the sharded path.
    paths = [str(FIXTURES)]
    serial = analyze_paths(paths, jobs=1)
    parallel = analyze_paths(paths, jobs=2)
    assert ([d.to_dict() for d in parallel.diagnostics]
            == [d.to_dict() for d in serial.diagnostics])
    assert parallel.files_analyzed == serial.files_analyzed
    assert parallel.suppressed == serial.suppressed
    assert serial.diagnostics  # the comparison is not vacuous


def test_parallel_full_sweep_clean_within_time_bound():
    import time as _time

    start = _time.monotonic()
    report = analyze_paths([str(ROOT / "src")], jobs=2)
    elapsed = _time.monotonic() - start
    assert report.ok
    # Generous smoke bound: the sharded sweep of src/ must stay well
    # under interactive-CI scale even on a loaded single-core runner.
    assert elapsed < 120.0


# -- CLI ------------------------------------------------------------------------


def test_cli_exit_one_on_findings(capsys):
    assert main([str(FIXTURES / "det_wall_clock.py")]) == 1
    out = capsys.readouterr().out
    assert "DET001" in out


def test_cli_exit_zero_on_clean_tree(capsys):
    assert main([str(ROOT / "src")]) == 0


def test_cli_exit_two_on_bad_usage(capsys):
    assert main(["no/such/path.py"]) == 2
    assert main(["--checker", "nonsense", str(ROOT / "src")]) == 2


def test_cli_checker_selection(capsys):
    # Only the rng checker runs: the wall-clock fixture comes out clean.
    assert main(["--checker", "rng-discipline",
                 str(FIXTURES / "det_wall_clock.py")]) == 0


def test_cli_list_checkers(capsys):
    assert main(["--list-checkers"]) == 0
    out = capsys.readouterr().out
    for code in ("DET001", "RNG001", "SIM001", "PROTO001"):
        assert code in out


def test_cli_json_format(capsys):
    assert main(["--format", "json",
                 str(FIXTURES / "det_wall_clock.py")]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == 1
    assert payload["summary"]["total"] == len(payload["findings"]) > 0
    finding = payload["findings"][0]
    assert {"path", "line", "col", "code", "severity",
            "message", "checker"} <= set(finding)


def test_cli_sarif_format(capsys):
    assert main(["--format", "sarif",
                 str(FIXTURES / "det_wall_clock.py")]) == 1
    log = json.loads(capsys.readouterr().out)
    assert log["version"] == "2.1.0"
    (run,) = log["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro-analysis"
    rule_ids = [rule["id"] for rule in driver["rules"]]
    assert rule_ids == sorted(rule_ids)
    for code in ("DET001", "RNG004", "PARSE"):
        assert code in rule_ids
    assert run["results"], "wall-clock fixture must produce results"
    result = run["results"][0]
    assert result["ruleId"].startswith("DET")
    assert result["level"] == "error"
    region = result["locations"][0]["physicalLocation"]["region"]
    assert region["startLine"] >= 1 and region["startColumn"] >= 1
    assert driver["rules"][result["ruleIndex"]]["id"] == result["ruleId"]


def test_cli_jobs_flag(capsys):
    assert main(["--jobs", "2", str(FIXTURES / "det_wall_clock.py"),
                 str(FIXTURES / "suppress_fixture.py")]) == 1
    out = capsys.readouterr().out
    assert "DET001" in out


def test_cli_module_entry_point():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get(
        "PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "src"],
        cwd=str(ROOT), env=env, capture_output=True, text=True,
        check=False)
    assert result.returncode == 0, result.stdout + result.stderr
