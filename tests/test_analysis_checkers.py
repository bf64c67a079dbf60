"""Every checker fires on its fixture with the right code and line.

Fixtures under ``tests/fixtures/analysis/`` carry ``# expect[CODE]``
markers on the lines where a diagnostic must land; the tests compare
the analyzer's full output against exactly that marker set, so both
missed violations *and* false positives fail.
"""

import re
from pathlib import Path

from repro.analysis import analyze_paths

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "analysis"
_EXPECT = re.compile(r"#\s*expect\[([A-Z0-9,]+)\]")


def expected_markers(path):
    expected = set()
    lines = path.read_text(encoding="utf-8").splitlines()
    for lineno, line in enumerate(lines, start=1):
        match = _EXPECT.search(line)
        if match:
            for code in match.group(1).split(","):
                expected.add((lineno, code))
    return expected


def assert_matches_markers(*names, respect_suppressions=True):
    paths = [str(FIXTURES / name) for name in names]
    report = analyze_paths(paths, respect_suppressions=respect_suppressions)
    actual = {}
    for diag in report.diagnostics:
        actual.setdefault(Path(diag.path).name, set()).add(
            (diag.line, diag.code))
    expected = {}
    for name in names:
        markers = expected_markers(FIXTURES / name)
        if markers:
            expected[name] = markers
    assert actual == expected, (
        f"analyzer output {actual!r} != expect markers {expected!r}")
    return report


def test_wall_clock_violations_detected():
    assert_matches_markers("det_wall_clock.py")


def test_global_random_and_entropy_detected():
    assert_matches_markers("det_global_random.py")


def test_hash_order_iteration_detected():
    assert_matches_markers("det_set_order.py")


def test_rng_discipline_detected():
    assert_matches_markers("rng_fixture.py")


def test_sim_process_discipline_detected():
    assert_matches_markers("sim_fixture.py")


def test_unslotted_hot_path_classes_detected():
    report = assert_matches_markers("perf_fixture.py")
    by_line = {d.line: d for d in report.diagnostics}
    assert all(d.code == "PERF001" for d in report.diagnostics)
    assert any("Packet" in d.message for d in report.diagnostics)
    # The allow[] escape on DebugProbe must have been honored.
    assert report.suppressed >= 1
    assert not any("DebugProbe" in d.message for d in by_line.values())


def test_raw_spectral_calls_detected():
    report = assert_matches_markers("perf_pmf_fixture.py")
    assert all(d.code == "PERF002" for d in report.diagnostics)
    # Aliased imports must resolve: ``raw_convolve`` and bare ``rfft``
    # both reach numpy under the covers.
    messages = " ".join(d.message for d in report.diagnostics)
    assert "numpy.convolve" in messages
    assert "numpy.fft.rfft" in messages
    # The allow[] escape on the pinned reference must have been honored.
    assert report.suppressed >= 1


def test_unhandled_and_dead_message_kinds_detected():
    report = assert_matches_markers("proto_fixture_node.py")
    by_code = {d.code: d for d in report.diagnostics}
    assert "fixture_write" in by_code["PROTO001"].message
    assert "fixture_drain" in by_code["PROTO002"].message


def test_unreachable_state_detected():
    # The two files must be analyzed together: reachability is a
    # cross-module property.
    report = assert_matches_markers(
        "proto_fixture_states.py", "proto_fixture_states_use.py")
    (diag,) = report.diagnostics
    assert diag.code == "PROTO003"
    assert "ReplicaState.ZOMBIE" in diag.message


def test_diagnostics_carry_checker_and_severity():
    report = analyze_paths([str(FIXTURES / "det_wall_clock.py")])
    assert report.diagnostics
    for diag in report.diagnostics:
        assert diag.checker == "determinism"
        assert diag.severity.value == "error"
        assert diag.format().startswith(diag.path + ":")
