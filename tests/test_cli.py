"""Command-line interface: subcommands, exit codes, file outputs."""

import json
import warnings

import pytest

from neuroloop.cli import EXIT_FAULT, EXIT_OK, EXIT_VALIDATION, main

from conftest import SCENARIO_DIR, deep_merge, ecap_raw, reference_raw


# Each of these once passed validate and then failed in run, made validate
# itself raise, or ran with a number the file does not hold (2.7 read as 2,
# true as 1, "1.0" as 1.0); validate and run must both exit 2.
MUTATIONS = [
    ("ecap_scs", {"trust": {"exit_after_consecutive_fails": 2.7}}),
    ("ecap_scs", {"trust": {"exit_after_consecutive_fails": True}}),
    ("ecap_scs", {"policy": {"target_uV": "1.0"}}),
    ("ecap_scs", {"trust": "x"}),
    ("ecap_scs", {"budgets": []}),
    ("ecap_scs", {"outputs": 1}),
    ("ecap_scs", {"metrics": None}),
    ("ecap_scs", {"metrics": {"range": []}}),
    ("ecap_scs", {"metrics": {"step_response": {"step_tick": -1}}}),
    ("ecap_scs", {"plant": {"device": {"impedance_ohm": "x"}}}),
    ("ecap_scs", {"timebase": {"duration_s": 1e12}}),
    ("adbs_parkinsons", {"features": []}),
    ("adbs_parkinsons", {"features": {"band_lo_hz": 0}}),
    ("adbs_parkinsons", {"features": {"band_hi_hz": 1e9}}),
    ("adbs_parkinsons", {"features": {"band_lo_hz": 1}}),
    ("adbs_parkinsons", {"timebase": {"duration_s": 1e12}}),
    ("rns_epilepsy", {"features": {"tools": ["x"]}}),
    ("rns_epilepsy", {"policy": {"burst_duration_ticks": 1e9}}),
]


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

    def test_not_utf8_exit_2(self, tmp_path, capsys):
        # Once a UnicodeDecodeError traceback and exit 1.
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe" + json.dumps(ecap_raw()).encode("utf-16-le"))
        assert main(["validate", str(path)]) == EXIT_VALIDATION
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
        assert not (tmp_path / "o").exists()
        assert "not UTF-8" in capsys.readouterr().err

    # JSON parsing reads the literals NaN, Infinity and 1e999 as floats. The
    # first made validate raise OverflowError; the second validated and then
    # crashed run; the third ran with every seizure undetected; the fourth
    # made validate raise OverflowError.
    @pytest.mark.parametrize("name, old, new", [
        ("ecap_scs", '"duration_s": 30.0', '"duration_s": Infinity'),
        ("ecap_scs", '"compliance_v": 12.0', '"compliance_v": NaN'),
        ("rns_epilepsy", '"background_sd_uV": 10.0', '"background_sd_uV": NaN'),
        ("rns_epilepsy", '"frame_len": 32', '"frame_len": -1e999'),
    ])
    def test_non_finite_literal_exit_2(self, tmp_path, capsys, name, old, new):
        text = (SCENARIO_DIR / f"{name}.json").read_text(encoding="utf-8")
        assert text.count(old) == 1
        path = tmp_path / "non_finite.json"
        path.write_text(text.replace(old, new), encoding="utf-8")
        assert main(["validate", str(path)]) == EXIT_VALIDATION
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
        assert not (tmp_path / "o").exists()
        assert "is not a finite number" in capsys.readouterr().out

    @pytest.mark.parametrize("name, edit", MUTATIONS,
                             ids=[f"{n}:{json.dumps(e)}" for n, e in MUTATIONS])
    def test_reproduced_mutations_exit_2(self, tmp_path, capsys, name, edit):
        path = tmp_path / "mutated.json"
        path.write_text(json.dumps(deep_merge(reference_raw(name), edit)))
        assert main(["validate", str(path)]) == EXIT_VALIDATION
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
        assert not (tmp_path / "o").exists()
        assert "FAIL" in capsys.readouterr().out


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

    def test_summary_is_strict_json_when_the_tail_has_no_sample(self, tmp_path):
        # The battery reaches end of service early, so the step-response tail
        # lies in a reset mode where no biomarker is measured. This once wrote
        # a bare NaN into summary.json and warned "Mean of empty slice".
        raw = deep_merge(reference_raw("ecap_scs"), {"plant": {"device": {
            "battery_v": 3.0004, "eos_threshold_v": 3.0, "drain_v_per_uC": 1e-5,
        }}})
        path = tmp_path / "eos.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", str(path), "--out", str(out)]) == EXIT_FAULT
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

        def reject(constant):
            raise ValueError(f"not JSON: {constant}")

        summary = json.loads((out / "summary.json").read_text(), parse_constant=reject)
        assert summary["metrics"]["step_response"]["steady_state_dev"] is None


class TestCompare:
    def test_writes_comparison(self, ecap_file, tmp_path):
        out = tmp_path / "cmp"
        assert main(["compare", str(ecap_file), "--out", str(out)]) == EXIT_OK
        doc = json.loads((out / "comparison.json").read_text())
        assert {"automated", "fixed", "target"} <= set(doc)
        assert (out / "automated" / "timeseries.csv").exists()
        assert (out / "fixed" / "timeseries.csv").exists()

    def test_both_arms_replay(self, ecap_file, tmp_path):
        out = tmp_path / "cmp"
        assert main(["compare", str(ecap_file), "--out", str(out)]) == EXIT_OK
        assert main(["replay", str(out / "automated")]) == EXIT_OK
        assert main(["replay", str(out / "fixed")]) == EXIT_OK
        stored = json.loads((out / "fixed" / "scenario.json").read_text())
        assert stored["name"] == "ecap_test_fixed"
        assert stored["policy"]["kind"] == "ManualFixed"

    def test_manual_fixed_policy_exit_2(self, tmp_path, capsys):
        raw = ecap_raw(policy={"kind": "ManualFixed",
                               "dose": {"amplitude_mA": 4.0, "pulse_width_us": 200.0,
                                        "frequency_hz": 50.0, "contact_set": "E1"}})
        path = tmp_path / "manual.json"
        path.write_text(json.dumps(raw))
        assert main(["validate", str(path)]) == EXIT_OK
        assert main(["compare", str(path), "--out", str(tmp_path / "cmp")]) == EXIT_VALIDATION
        assert "ManualFixed" in capsys.readouterr().err
        assert not (tmp_path / "cmp").exists()


class TestSweep:
    def test_aggregate(self, ecap_file, tmp_path):
        out = tmp_path / "sw"
        assert main(["sweep", str(ecap_file), "--seeds", "3", "--out", str(out)]) == EXIT_OK
        agg = json.loads((out / "aggregate.json").read_text())
        assert agg["n_runs"] == 3
        assert agg["safety_violations_total"] == 0
        assert len(agg["seeds"]) == 3
        assert (out / f"seed_{agg['seeds'][0]}" / "summary.json").exists()

    @pytest.mark.parametrize("seeds", ["0", "-2"])
    def test_no_seeds_exit_2(self, ecap_file, tmp_path, capsys, seeds):
        out = tmp_path / "sw"
        assert main(["sweep", str(ecap_file), "--seeds", seeds, "--out", str(out)]) == EXIT_VALIDATION
        assert "--seeds" in capsys.readouterr().err
        assert not out.exists()


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

    @pytest.mark.parametrize("edit", [
        lambda raw: raw.pop("limits"),
        lambda raw: raw["timebase"].pop("dt_s"),
        lambda raw: raw.update(schema=2),
    ], ids=["no-limits", "no-dt_s", "schema-2"])
    def test_invalid_stored_scenario_exit_3(self, ecap_file, tmp_path, capsys, edit):
        out = tmp_path / "r"
        assert main(["run", str(ecap_file), "--out", str(out)]) == EXIT_OK
        stored = out / "scenario.json"
        raw = json.loads(stored.read_text())
        edit(raw)
        stored.write_text(json.dumps(raw))
        assert main(["replay", str(out)]) == EXIT_FAULT
        assert "replay error" in capsys.readouterr().err


    # Each of these once made replay exit 1 with a traceback from the CSV scan.
    CSV_EDITS = {
        "non-numeric-cell": lambda rows, col: rows[1].__setitem__(col, "abc"),
        "no-delivered-header": lambda rows, col: rows[0].__setitem__(col, "delivered"),
        "short-row": lambda rows, col: rows.__setitem__(5, rows[5][:col]),
    }

    @pytest.mark.parametrize("edit", CSV_EDITS.values(), ids=CSV_EDITS.keys())
    def test_unreadable_timeseries_exit_3(self, ecap_file, tmp_path, capsys, edit):
        out = tmp_path / "r"
        assert main(["run", str(ecap_file), "--out", str(out)]) == EXIT_OK
        ts = out / "timeseries.csv"
        rows = [line.split(",") for line in ts.read_text().splitlines()]
        edit(rows, rows[0].index("delivered_mA"))
        ts.write_text("".join(",".join(row) + "\n" for row in rows))
        capsys.readouterr()
        assert main(["replay", str(out)]) == EXIT_FAULT
        report = json.loads(capsys.readouterr().out)
        assert report["files_matched"]["timeseries.csv"] is False
        assert report["safety_scan_ok"] is False
        assert [v[1] for v in report["violations"]] == ["unreadable"]

    def test_timeseries_not_utf8_exit_3(self, ecap_file, tmp_path, capsys):
        out = tmp_path / "r"
        assert main(["run", str(ecap_file), "--out", str(out)]) == EXIT_OK
        ts = out / "timeseries.csv"
        ts.write_bytes(b"\xff\xfe" + ts.read_bytes())
        capsys.readouterr()
        assert main(["replay", str(out)]) == EXIT_FAULT
        assert json.loads(capsys.readouterr().out)["safety_scan_ok"] is False

    def test_stored_scenario_not_utf8_exit_3(self, ecap_file, tmp_path, capsys):
        out = tmp_path / "r"
        assert main(["run", str(ecap_file), "--out", str(out)]) == EXIT_OK
        stored = out / "scenario.json"
        stored.write_bytes(b"\xff\xfe" + stored.read_bytes())
        assert main(["replay", str(out)]) == EXIT_FAULT
        assert "replay error" in capsys.readouterr().err


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
