import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import fwdsim
from fwdsim import (Finding, InterferenceConfig, ScenarioConfig,
                    ScenarioParseError, is_valid, parse_scenario,
                    render_scenario, run_simulation, validate_config)
from fwdsim.cli import main as cli_main


def small_cfg(**overrides) -> ScenarioConfig:
    base = dict(horizon=60, node_energy_wh_min=0.5,
                interference=InterferenceConfig(prob_per_cycle=0.02))
    base.update(overrides)
    return ScenarioConfig(**base)


class TestScenarioFiles:
    def test_render_parse_roundtrip(self):
        cfg = small_cfg(forced_deaths=((10, 3),), strategy="PDD-CR", seed=9,
                        metrics_stride=7)
        parsed = parse_scenario(render_scenario(cfg))
        assert parsed == cfg

    def test_unknown_key_names_line(self):
        text = "[topology]\nrows = 3\nwat = 7\n"
        with pytest.raises(ScenarioParseError) as err:
            parse_scenario(text, origin="f.scenario")
        assert "f.scenario:3" in str(err.value)
        assert "wat" in str(err.value)

    @pytest.mark.parametrize("section, key", [("data", "piece_size_bytes"),
                                              ("protocol", "cycle_seconds"),
                                              ("energy", "battery_cap_wh")])
    def test_removed_inert_keys_are_unknown(self, section, key):
        with pytest.raises(ScenarioParseError) as err:
            parse_scenario(f"[{section}]\n{key} = 1\n")
        assert f"unknown key {key!r}" in str(err.value)

    def test_unknown_section_rejected(self):
        with pytest.raises(ScenarioParseError) as err:
            parse_scenario("[nope]\n")
        assert "unknown section" in str(err.value)

    def test_bad_value_names_field(self):
        with pytest.raises(ScenarioParseError) as err:
            parse_scenario("[topology]\nrows = many\n")
        assert "topology.rows" in str(err.value)

    def test_key_outside_section_rejected(self):
        with pytest.raises(ScenarioParseError) as err:
            parse_scenario("rows = 3\n")
        assert "outside any [section]" in str(err.value)

    @pytest.mark.parametrize("text", [
        "[data]\nrequest_prob = 0.05\nrequest_prob = 0.5\n",
        "[data]\nrequest_prob = 0.05\n[run]\nseed = 2\n[data]\nrequest_prob = 0.5\n",
    ])
    def test_repeated_key_names_both_lines(self, text):
        # A later value used to override the earlier one silently.
        second = text.count("\n")
        with pytest.raises(ScenarioParseError) as err:
            parse_scenario(text, origin="f.scenario")
        assert str(err.value) == (f"f.scenario:{second}: data.request_prob "
                                  f"repeats line 2")

    def test_comments_and_blanks_ignored(self):
        text = "# header\n\n[run]\nseed = 5   # inline\n"
        assert parse_scenario(text).seed == 5


class TestValidation:
    def test_defaults_are_valid(self):
        findings = validate_config(ScenarioConfig())
        assert is_valid(findings)

    def test_threshold_out_of_range(self):
        findings = validate_config(ScenarioConfig(trigger_threshold=1.5))
        assert not is_valid(findings)
        assert any("trigger_threshold" in f.field for f in findings)

    def test_negative_config_phase_energy_rejected(self):
        findings = validate_config(ScenarioConfig(config_phase_energy_j=-1e-3))
        assert Finding("error", "links.config_phase_energy_j",
                       "must be >= 0") in findings

    def test_negative_controller_energy_rejected(self):
        findings = validate_config(ScenarioConfig(controller_energy_j=-1.0))
        assert Finding("error", "links.controller_energy_j",
                       "must be >= 0") in findings

    def test_free_controller_exchange_only_warns(self):
        findings = validate_config(ScenarioConfig(controller_energy_j=0.0))
        assert is_valid(findings)
        assert [f.severity for f in findings
                if f.field == "links.controller_energy_j"] == ["warning"]

    @pytest.mark.parametrize("attr, fieldname", [
        ("node_energy_wh_max", "energy.node_wh_max"),
        ("proxy_energy_wh", "energy.proxy_wh")])
    def test_endowment_above_battery_capacity_rejected(self, attr, fieldname):
        assert is_valid(validate_config(ScenarioConfig(**{attr: 3.071})))
        findings = validate_config(ScenarioConfig(**{attr: 3.072}))
        assert Finding("error", fieldname,
                       "exceeds battery capacity 3.071 Wh") in findings

    def test_range_below_spacing_is_disconnected(self):
        findings = validate_config(ScenarioConfig(range_m=2.0))
        assert not is_valid(findings)
        assert any("disconnected" in f.message for f in findings)

    def test_weak_multiplier_warns(self):
        cfg = ScenarioConfig(interference=InterferenceConfig(multiplier=1.5))
        findings = validate_config(cfg)
        assert is_valid(findings)
        assert any("fire the trigger" in f.message for f in findings)

    def test_infeasible_budget_warns_with_piece_id(self):
        findings = validate_config(ScenarioConfig(latency_budget_ms=5.0))
        assert is_valid(findings)
        assert any("no feasible plan" in f.message for f in findings)

    @pytest.mark.parametrize("budget", ["0", "inf", "nan"])
    def test_budget_must_be_positive_and_finite(self, budget):
        cfg = parse_scenario(f"[protocol]\nlatency_budget_ms = {budget}\n")
        findings = validate_config(cfg)
        assert not is_valid(findings)
        assert any("latency_budget_ms" in f.field for f in findings)

    def test_unknown_strategy_rejected(self):
        findings = validate_config(ScenarioConfig(strategy="magic"))
        assert not is_valid(findings)

    def test_negative_metrics_stride_rejected(self):
        cfg = parse_scenario("[run]\nmetrics_stride = -5\n")
        findings = validate_config(cfg)
        assert not is_valid(findings)
        assert Finding("error", "run.metrics_stride", "must be >= 0") in findings

    def test_forced_death_outside_horizon_rejected(self):
        findings = validate_config(ScenarioConfig(forced_deaths=((10 ** 9, 0),)))
        assert not is_valid(findings)


class TestCli:
    def write_scenario(self, tmp_path, cfg) -> Path:
        path = tmp_path / "case.scenario"
        path.write_text(render_scenario(cfg))
        return path

    def test_grid_produces_one_csv_per_run_plus_comparison(self, tmp_path):
        path = self.write_scenario(tmp_path, small_cfg())
        out = tmp_path / "out"
        code = cli_main([str(path), "--strategy", "PDD", "PDD-CR", "DistrDataFwd",
                         "--seeds", "1", "2", "3", "4", "5",
                         "--out", str(out)])
        assert code == 0
        csvs = sorted(p.name for p in out.glob("*_seed*.csv"))
        assert len(csvs) == 15
        comparison = (out / "comparison.csv").read_text()
        assert comparison.splitlines()[0].startswith("strategy,seeds,")
        assert len(comparison.splitlines()) == 4

    def test_cli_matches_library(self, tmp_path):
        cfg = small_cfg(strategy="DistrDataFwd", seed=7)
        path = self.write_scenario(tmp_path, cfg)
        out = tmp_path / "out"
        assert cli_main([str(path), "--out", str(out)]) == 0
        via_cli = (out / "DistrDataFwd_seed7.csv").read_text()
        assert via_cli == run_simulation(cfg).csv_text()

    def test_validate_only_ok(self, tmp_path, capsys):
        path = self.write_scenario(tmp_path, small_cfg())
        assert cli_main([str(path), "--validate-only"]) == 0
        assert "scenario valid" in capsys.readouterr().out

    def test_invalid_scenario_exits_one(self, tmp_path):
        path = self.write_scenario(tmp_path, small_cfg(trigger_threshold=0.99))
        bad = path.read_text().replace("trigger_threshold = 0.99",
                                       "trigger_threshold = 1.5")
        path.write_text(bad)
        assert cli_main([str(path), "--validate-only"]) == 1

    def test_parse_error_exits_one(self, tmp_path):
        path = tmp_path / "broken.scenario"
        path.write_text("[topology]\nwat = 3\n")
        assert cli_main([str(path)]) == 1

    def test_missing_file_exits_one(self, tmp_path):
        assert cli_main([str(tmp_path / "absent.scenario")]) == 1

    def test_trace_flag_writes_message_log(self, tmp_path):
        cfg = small_cfg(strategy="DistrDataFwd", seed=3,
                        interference=InterferenceConfig(prob_per_cycle=0.1))
        path = self.write_scenario(tmp_path, cfg)
        out = tmp_path / "out"
        assert cli_main([str(path), "--out", str(out), "--trace"]) == 0
        trace = (out / "DistrDataFwd_seed3_trace.log").read_text()
        rows = [line for line in trace.splitlines() if line]
        assert rows
        for line in rows:
            cycle, mtype, src, dst, piece = line.split(",")
            int(cycle), int(src), int(dst)
            assert mtype in ("StatusMsg", "PlanMsg", "Alert", "Join",
                             "ModifyPath", "RouteRequest", "RouteReply")

    def test_workers_flag_gives_identical_outputs(self, tmp_path):
        path = self.write_scenario(tmp_path, small_cfg())
        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        assert cli_main([str(path), "--seeds", "1", "2", "--out", str(serial)]) == 0
        assert cli_main([str(path), "--seeds", "1", "2", "--out", str(parallel),
                         "--workers", "2"]) == 0
        for name in ("DistrDataFwd_seed1.csv", "DistrDataFwd_seed2.csv",
                     "comparison.csv"):
            assert (serial / name).read_text() == (parallel / name).read_text()

    def test_console_entry_point(self, tmp_path):
        path = self.write_scenario(tmp_path, small_cfg())
        # The child imports the package this test imported, installed or not.
        here = str(Path(fwdsim.__file__).resolve().parent.parent)
        paths = [here, os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        proc = subprocess.run(
            [sys.executable, "-m", "fwdsim.cli", str(path), "--validate-only"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0


class TestShippedScenarios:
    @pytest.mark.parametrize("name", ["default", "forced_death", "quick"])
    def test_shipped_files_parse_and_validate(self, name):
        path = Path(__file__).resolve().parent.parent / "scenarios" / f"{name}.scenario"
        cfg = parse_scenario(path.read_text(), origin=str(path))
        assert is_valid(validate_config(cfg))

    def test_default_scenario_matches_library_defaults(self):
        path = Path(__file__).resolve().parent.parent / "scenarios" / "default.scenario"
        cfg = parse_scenario(path.read_text())
        assert cfg == ScenarioConfig()
