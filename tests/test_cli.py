"""Command-line interface: subcommands, exit codes, file outputs."""

import json

import pytest

from neuroloop.cli import EXIT_FAULT, EXIT_OK, EXIT_VALIDATION, main

from conftest import SCENARIO_DIR, ecap_raw


@pytest.fixture
def ecap_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(ecap_raw(plant={"ecap": {"sensor_noise_sd_uV": 0.01}})))
    return path


class TestValidate:
    def test_reference_scenarios_pass(self, capsys):
        for name in ("ecap_scs", "adbs_parkinsons", "rns_epilepsy"):
            assert main(["validate", str(SCENARIO_DIR / f"{name}.json")]) == EXIT_OK
        assert "ok" in capsys.readouterr().out

    def test_bad_limits_exit_2(self, tmp_path, capsys):
        raw = ecap_raw(limits={"amp_min_mA": 9.0, "amp_max_mA": 6.0,
                               "max_slew_mA_per_tick": 1.0,
                               "max_charge_per_pulse_uC": 2.0})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert main(["validate", str(path)]) == EXIT_VALIDATION
        assert "Stimulation actuator limits" in capsys.readouterr().out

    def test_unparseable_exit_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["validate", str(path)]) == EXIT_VALIDATION


class TestRun:
    def test_writes_outputs(self, ecap_file, tmp_path):
        out = tmp_path / "out"
        assert main(["run", str(ecap_file), "--out", str(out)]) == EXIT_OK
        for fname in ("timeseries.csv", "events.jsonl", "summary.json", "scenario.json"):
            assert (out / fname).exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["fault_count"] == 0
        assert summary["metrics"]["teed_total"] > 0

    def test_identical_seed_identical_bytes(self, ecap_file, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", str(ecap_file), "--out", str(out1)]) == EXIT_OK
        assert main(["run", str(ecap_file), "--out", str(out2)]) == EXIT_OK
        for fname in ("timeseries.csv", "events.jsonl", "summary.json"):
            assert (out1 / fname).read_bytes() == (out2 / fname).read_bytes()

    def test_seed_flag_overrides_file(self, ecap_file, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", str(ecap_file), "--out", str(out1), "--seed", "5"])
        main(["run", str(ecap_file), "--out", str(out2), "--seed", "6"])
        assert (out1 / "timeseries.csv").read_bytes() != (out2 / "timeseries.csv").read_bytes()
        assert json.loads((out1 / "summary.json").read_text())["seed"] == 5

    def test_invalid_scenario_exit_2(self, tmp_path):
        raw = ecap_raw()
        del raw["fallback"]
        path = tmp_path / "nofallback.json"
        path.write_text(json.dumps(raw))
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == EXIT_VALIDATION

    def test_fault_run_exit_3(self, tmp_path):
        raw = ecap_raw(plant={"device": {"battery_v": 3.2, "drain_v_per_uC": 1e-3}})
        path = tmp_path / "eos.json"
        path.write_text(json.dumps(raw))
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == EXIT_FAULT


class TestCompare:
    def test_writes_comparison(self, ecap_file, tmp_path):
        out = tmp_path / "cmp"
        assert main(["compare", str(ecap_file), "--out", str(out)]) == EXIT_OK
        doc = json.loads((out / "comparison.json").read_text())
        assert {"automated", "fixed", "target"} <= set(doc)
        assert (out / "automated" / "timeseries.csv").exists()
        assert (out / "fixed" / "timeseries.csv").exists()


class TestSweep:
    def test_aggregate(self, ecap_file, tmp_path):
        out = tmp_path / "sw"
        assert main(["sweep", str(ecap_file), "--seeds", "3", "--out", str(out)]) == EXIT_OK
        agg = json.loads((out / "aggregate.json").read_text())
        assert agg["n_runs"] == 3
        assert agg["safety_violations_total"] == 0
        assert len(agg["seeds"]) == 3
        assert (out / f"seed_{agg['seeds'][0]}" / "summary.json").exists()


class TestReplay:
    def test_replay_ok(self, ecap_file, tmp_path):
        out = tmp_path / "r"
        main(["run", str(ecap_file), "--out", str(out)])
        assert main(["replay", str(out)]) == EXIT_OK

    def test_replay_detects_mutation(self, ecap_file, tmp_path):
        out = tmp_path / "r"
        main(["run", str(ecap_file), "--out", str(out)])
        ts = out / "timeseries.csv"
        ts.write_text(ts.read_text().replace("Automated", "Autonomous", 1))
        assert main(["replay", str(out)]) == EXIT_FAULT


class TestSeedChecks:
    # validate must reject every seed that run cannot use, with the same rule.
    @pytest.mark.parametrize("seed", [-1, "abc", 1.5, True, None])
    def test_bad_seed_fails_validate_and_run(self, tmp_path, capsys, seed):
        path = tmp_path / "bad_seed.json"
        path.write_text(json.dumps(ecap_raw(seed=seed)))
        assert main(["validate", str(path)]) == EXIT_VALIDATION
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
        assert not (tmp_path / "o").exists()
        assert "seed" in capsys.readouterr().out

    def test_negative_seed_flag_exit_2(self, ecap_file, tmp_path):
        out = tmp_path / "o"
        assert main(["run", str(ecap_file), "--out", str(out), "--seed", "-3"]) == EXIT_VALIDATION
        assert not out.exists()

    def test_zero_seed_accepted(self, ecap_file, tmp_path):
        out = tmp_path / "o"
        assert main(["run", str(ecap_file), "--out", str(out), "--seed", "0"]) == EXIT_OK
        assert json.loads((out / "summary.json").read_text())["seed"] == 0
