"""The chaos-scenario catalogue: structure, determinism, and gates.

Three layers, matching what the scenarios CI tier relies on:

* catalogue structure — the named entries, their versions, and the
  fraction-to-absolute resolution of fault windows and shapes;
* run determinism — the same (scenario, profile, seed) triple always
  produces the identical recovery table, pinned per scenario for the
  smoke profile on seed 0 so metric drift fails loudly (bump the
  scenario's ``version`` when a change is intentional);
* plumbing — the CLI writes and gates, and the scenario fuzz axis
  perturbs deterministically.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.check import CheckConfig, run_check
from repro.scenarios import (
    SCENARIOS,
    SMOKE,
    Arm,
    FaultSpec,
    Scenario,
    arms_for,
    build_config,
    get_scenario,
    render_csv,
    render_markdown,
    reports_digest,
    reports_json,
    run_scenario,
    scenario_names,
)
from repro.scenarios.__main__ import main


# ---------------------------------------------------------------- catalogue


def test_catalogue_names_and_versions():
    assert scenario_names() == (
        "dc_outage_failover", "wan_brownout", "diurnal_flash_crowd",
        "hotkey_storm", "mixed_tenants")
    for scenario in SCENARIOS:
        assert scenario.version >= 1
        assert scenario.title and scenario.description
        start, end = scenario.disturbance
        assert 0.0 <= start < end <= 1.0


def test_get_scenario_unknown_name():
    with pytest.raises(ValueError, match="catalogue"):
        get_scenario("nope")


def test_fault_spec_validation():
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultSpec("meteor", 0.1, 0.2)
    with pytest.raises(ValueError, match="window"):
        FaultSpec("outage", 0.5, 0.4, {"dc": 1})


def test_fault_spec_resolves_fractions_and_auto_keys():
    spec = FaultSpec("outage", 0.25, 0.45,
                     {"dc": 1, "failover_keys": "auto"})
    action = spec.action(3_000.0, 12_000.0, keys=("item:0", "item:1"))
    assert action.at_ms == pytest.approx(6_000.0)
    assert action.until_ms == pytest.approx(8_400.0)
    assert action.args["failover_keys"] == ("item:0", "item:1")


def test_disturbance_window_resolution():
    scenario = get_scenario("wan_brownout")
    start, end = scenario.disturbance_window(3_000.0, 12_000.0)
    assert (start, end) == (pytest.approx(6_600.0), pytest.approx(10_200.0))


def test_arms_for_profile():
    assert [arm.label for arm in arms_for(SMOKE)] == [
        "fixed/classic", "dynamic/classic"]
    full_like = dataclasses.replace(SMOKE, fast_arms=True)
    assert [arm.label for arm in arms_for(full_like)] == [
        "fixed/classic", "dynamic/classic", "fixed/fast", "dynamic/fast"]


def test_build_config_wires_shape_and_faults():
    config = build_config(get_scenario("mixed_tenants"),
                          Arm("dynamic", "classic"), SMOKE, seed=3)
    assert config.tenants is not None and len(config.tenants) == 2
    assert config.faults is not None
    writer, browser = config.tenants
    assert writer.rate_tps + browser.rate_tps == pytest.approx(
        SMOKE.rate_tps)
    assert browser.read_fraction == pytest.approx(0.6)
    hot = build_config(get_scenario("hotkey_storm"),
                       Arm("fixed", "classic"), SMOKE, seed=3)
    assert hot.zipf_s == pytest.approx(1.1)
    assert hot.modulation is not None


# ---------------------------------------------------------------- determinism

#: Pinned smoke recovery metrics, seed 0: (dip depth, recovery ms) per
#: (scenario, arm).  A drift here means the scenario's sample path
#: changed — bump the scenario ``version`` if it was intentional.
PINNED_SEED0 = {
    ("dc_outage_failover", "fixed/classic"): (0.75, 0.0),
    ("dc_outage_failover", "dynamic/classic"): (0.64, 0.0),
    ("wan_brownout", "fixed/classic"): (0.82, 0.0),
    ("wan_brownout", "dynamic/classic"): (0.82, 0.0),
    ("diurnal_flash_crowd", "fixed/classic"): (0.19, 300.0),
    ("diurnal_flash_crowd", "dynamic/classic"): (0.43, 600.0),
    ("hotkey_storm", "fixed/classic"): (0.0, 0.0),
    ("hotkey_storm", "dynamic/classic"): (0.45, 2_700.0),
    ("mixed_tenants", "fixed/classic"): (0.45, 0.0),
    ("mixed_tenants", "dynamic/classic"): (0.51, 0.0),
}


@pytest.fixture(scope="module")
def smoke_reports():
    return [run_scenario(scenario, SMOKE, seed=0)
            for scenario in SCENARIOS]


def test_every_smoke_arm_recovers(smoke_reports):
    for report in smoke_reports:
        assert report.passed(), report.scenario
        for arm in report.arms:
            assert arm.recovered, f"{report.scenario} {arm.arm}"
            assert arm.baseline_rate > 0.0
            assert 0.0 <= arm.dip_depth <= 1.0


def test_smoke_seed0_recovery_metrics_are_pinned(smoke_reports):
    seen = {}
    for report in smoke_reports:
        for arm in report.arms:
            seen[(report.scenario, arm.arm)] = (
                round(arm.dip_depth, 2), arm.recovery_ms)
    assert seen == PINNED_SEED0


def test_scenario_rerun_is_byte_identical(smoke_reports):
    again = run_scenario(get_scenario("dc_outage_failover"), SMOKE, seed=0)
    assert again.to_dict() == smoke_reports[0].to_dict()
    assert reports_digest([again]) == reports_digest([smoke_reports[0]])


def test_report_renderings_are_consistent(smoke_reports):
    markdown = render_markdown(smoke_reports)
    csv_text = render_csv(smoke_reports)
    payload = json.loads(reports_json(smoke_reports))
    assert len(payload) == len(SCENARIOS)
    for report in smoke_reports:
        assert report.scenario in markdown
        assert report.scenario in csv_text
    digest = reports_digest(smoke_reports)
    assert digest == hashlib.sha256(
        reports_json(smoke_reports).encode()).hexdigest()


# ---------------------------------------------------------------- CLI


def test_cli_list_runs():
    assert main(["list"]) == 0


def test_cli_run_requires_names():
    assert main(["run"]) == 2


def test_cli_run_writes_artifacts_and_summary(tmp_path, capsys):
    out = tmp_path / "artifacts"
    summary = tmp_path / "summary.md"
    code = main(["run", "wan_brownout", "--seed", "0",
                 "--out", str(out), "--summary", str(summary)])
    assert code == 0
    for name in ("report.json", "recovery_table.txt",
                 "recovery_table.md", "recovery_table.csv", "digest.txt"):
        assert (out / name).exists(), name
    text = summary.read_text()
    assert "PASS" in text and "wan_brownout" in text
    digest = (out / "digest.txt").read_text().strip()
    assert f"`{digest}`" in text
    # The report subcommand re-renders the saved run and agrees.
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 0
    assert digest in capsys.readouterr().out


def test_cli_report_missing_directory(tmp_path):
    assert main(["report", "--out", str(tmp_path / "missing")]) == 2


# ---------------------------------------------------------------- fuzz axis


def test_scenario_fuzz_axis_uses_anchor_and_is_deterministic():
    config = CheckConfig(seed=4, scenario="dc_outage_failover")
    first = run_check(config)
    second = run_check(config)
    assert first.history.digest() == second.history.digest()
    kinds = [action.kind for action in first.schedule.actions]
    assert "outage" in kinds  # the anchor survived the perturbation
    assert not first.violations


def test_scenario_fuzz_axis_differs_from_default_palette():
    plain = run_check(CheckConfig(seed=4))
    anchored = run_check(CheckConfig(seed=4, scenario="wan_brownout"))
    assert [a.describe() for a in plain.schedule.actions] \
        != [a.describe() for a in anchored.schedule.actions]
    assert any(a.kind == "brownout" for a in anchored.schedule.actions)
