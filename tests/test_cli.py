"""Command-line interface: subcommands, exit codes, file outputs."""

import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

from neuroloop import cli
from neuroloop.cli import EXIT_FAULT, EXIT_OK, EXIT_VALIDATION, main
from neuroloop.scenario import MAX_COMMENT_DEPTH

from conftest import SCENARIO_DIR, deep_merge, ecap_raw, reference_raw


# Each of these once passed validate and then failed in run, made validate
# itself raise, ran with a number the file does not hold (2.7 read as 2,
# true as 1, "1.0" as 1.0), or ran and then failed replay's limit scan (a
# floor or slew limit between two output steps, which the actuator's floor
# to a step breaks, or an amp_min the charge clamp or the compliance cap
# holds a dose below), or ran with a disturbance its plant kind does not
# model silently dropped, or with a key it does not know ignored; validate
# and run must both exit 2.
LIMITS_BETWEEN_STEPS = [
    ("ecap_scs", {"limits": {"amp_min_mA": 4.005}, "baseline_dose": {"amplitude_mA": 4.5},
                  "policy": {"target_uV": 0.2}}),
    ("ecap_scs", {"limits": {"max_slew_mA_per_tick": 0.015}}),
]
# (reference file, plant kind, a disturbance that kind does not model)
UNMODELLED = [
    ("ecap_scs", "ecap", {"kind": "CardiacArtifact", "start_tick": 0, "rate_hz": 1.2,
                          "amplitude_uV": 1.0}),
    ("ecap_scs", "ecap", {"kind": "CircadianSine", "start_tick": 0, "period_ticks": 960,
                          "amplitude": 0.3, "phase": 0.0}),
    ("adbs_parkinsons", "beta", {"kind": "PostureStep", "start_tick": 100, "delta_mm": 1.0}),
    ("rns_epilepsy", "ieeg", {"kind": "CardiacArtifact", "start_tick": 0, "rate_hz": 1.2,
                              "amplitude_uV": 1.0}),
]


def with_disturbance(name: str, disturbance: dict) -> dict:
    """The edit that appends ``disturbance`` to a reference file's disturbances."""
    have = reference_raw(name)["plant"].get("disturbances", [])
    return {"plant": {"disturbances": have + [disturbance]}}


def with_first(name: str, section: str, key: str, **fields) -> dict:
    """The edit that sets ``fields`` on the first item of the list ``section.key``."""
    items = reference_raw(name)[section][key]
    return {section: {key: [{**items[0], **fields}] + items[1:]}}


# Each of these once made validate or run exit 1 with an OverflowError, or
# run with a ValueError as summary.json refused an infinite energy total: an
# integer beyond 2**53 - 1, and a dose whose energy over the run is not a
# finite float.
OVERFLOWS = [
    ("rns_epilepsy", with_first("rns_epilepsy", "features", "tools", threshold={
        "mode": "fixed", "value": 5.0, "short_window_ticks": 10**20})),
    ("ecap_scs", {"baseline_dose": {"frequency_hz": 1e308}}),
    ("adbs_parkinsons", {"baseline_dose": {"frequency_hz": 1e308}}),
    ("rns_epilepsy", {"policy": {"burst": {"frequency_hz": 1e308}}}),
    ("ecap_scs", with_first("ecap_scs", "plant", "disturbances", start_tick=10**20)),
    ("ecap_scs", with_first("ecap_scs", "plant", "disturbances", start_tick=-10**20)),
    ("ecap_scs", with_first("ecap_scs", "plant", "disturbances", rise_ticks=10**20)),
    ("ecap_scs", {"plant": {"device": {"compliance_v": 1e300}},
                  "limits": {"amp_max_mA": 1e300, "max_charge_per_pulse_uC": 1e300},
                  "baseline_dose": {"amplitude_mA": 1e200}}),
]
# Each of these once exited 1 with an OverflowError: run on a smoothing window
# of round(inf) ticks and on an fsum whose partial sum overflows, validate on
# a float ** that overflows. Each now validates, runs to the end and replays.
RUNS_THROUGH = [
    ("adbs_parkinsons", {"features": {"smooth_s": 1e308}}),
    ("adbs_parkinsons", {"features": {"smooth_s": -1e308}}),
    ("rns_epilepsy", {"plant": {"ieeg": {"background_sd_uV": 1e308}}}),
    ("rns_epilepsy", {"plant": {"ieeg": {"background_sd_uV": -1e308}}}),
    ("rns_epilepsy", {"plant": {"ieeg": {"ictal_amplitude_uV": 1e308}}}),
    ("adbs_parkinsons", {"plant": {"beta": {"curve": {"baseline_uV": 1e300}}}}),
]

# Each of these once validated and then made run, sweep and compare exit 1, as
# summary.json refused a step-response metric that overflowed to inf. A
# metric that is not finite is a fault: exit 3, and no summary.json.
NON_FINITE_METRICS = [
    {"plant": {"ecap": {"sensor_noise_sd_uV": 1e308}}},
]
# Each of these did the same, and then exited 3, only because the float sum
# behind steady_state_dev overflowed: every tail deviation is finite, and so
# is their mean. run and sweep exit 0; compare still exits 3, as the variance
# about the target, a mean of squares, is not finite (comparison.json).
HUGE_DEVIATIONS = [
    {"plant": {"ecap": {"slope_uV_per_mA_at_ref": 1e308}}},
    {"plant": {"ecap": {"slope_distance_coeff_per_mm": 1e308}}},
    {"policy": {"target_uV": -1e308}},
]

# Each of these once validated with a distance profile that is not finite: NaN
# where opposite overflowing coughs meet, and inf past the largest float. The
# first then faulted at the posture step, the second read NaN flagged OK.
NON_FINITE_DISTANCES = [
    ("ecap_scs", {"plant": {"ecap": {"slope_distance_coeff_per_mm": -0.2}, "disturbances": [
        {"kind": "CoughTransient", "start_tick": 100, "delta_mm": 1e308, "rise_ticks": 10,
         "fall_ticks": 10},
        {"kind": "CoughTransient", "start_tick": 100, "delta_mm": -1e308, "rise_ticks": 10,
         "fall_ticks": 10},
        {"kind": "PostureStep", "start_tick": 750, "delta_mm": 6.0}]}}),
    ("ecap_scs", with_first("ecap_scs", "plant", "disturbances", delta_mm=1e308)),
]
# Each of these once validated and then made run exit 3 as scenario.json
# refused the NaN that a string field held (it was read with str()).
NON_STRINGS = [
    ("ecap_scs", {"name": math.nan}),
    ("ecap_scs", {"baseline_dose": {"contact_set": math.nan},
                  "plant": {"device": {"impedance_ohm": {"nan": 500.0}}}}),
]


# Each of these once validated and ran. A posture step 1e308 mm away from a
# reference distance of -1e308 mm made the recruitment slope 0 * inf = NaN,
# read as blank biomarkers flagged OK. A negative battery drain charged the
# battery, and an overflowing one wrote "battery_v":-Infinity into events.jsonl.
NAN_SLOPE = [("ecap_scs", {"plant": {"ecap": {"distance_ref_mm": -1e308}, "disturbances": [
    {**d, "delta_mm": 1e308} if d["kind"] == "PostureStep" else d
    for d in reference_raw("ecap_scs")["plant"]["disturbances"]]}})]
BATTERY_DRAINS = [("rns_epilepsy", {"plant": {"device": {"drain_v_per_uC": drain}}})
                  for drain in (1e308, -1.0, -1e308)]


MUTATIONS = LIMITS_BETWEEN_STEPS + NON_FINITE_DISTANCES + NON_STRINGS + NAN_SLOPE + [
    (name, with_disturbance(name, d)) for name, _, d in UNMODELLED
] + BATTERY_DRAINS + [
    ("ecap_scs", {"limits": {"amp_min_mA": 4, "max_charge_per_pulse_uC": 0.7}}),
    ("ecap_scs", {"limits": {"amp_min_mA": 4}, "plant": {"device": {"compliance_v": 1.5}}}),
    ("ecap_scs", {"limits": {"amp_min_mA": 4},
                  "plant": {"device": {"impedance_ramp_ohm_per_tick": 2.0}}}),
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
    ("ecap_scs", {"plant": {"device": {"impedance_ohm": {"E1": 1e-310}}}}),
    ("ecap_scs", {"timebase": {"duration_s": 1e12}}),
    ("adbs_parkinsons", {"features": []}),
    ("adbs_parkinsons", {"features": {"band_lo_hz": 0}}),
    ("adbs_parkinsons", {"features": {"band_hi_hz": 1e9}}),
    ("adbs_parkinsons", {"features": {"band_lo_hz": 1}}),
    ("adbs_parkinsons", {"timebase": {"duration_s": 1e12}}),
    ("rns_epilepsy", {"features": {"tools": ["x"]}}),
    ("rns_epilepsy", {"policy": {"burst_duration_ticks": 1e9}}),
    ("rns_epilepsy", {"features": {"tools": [
        {"feature": "line_length",
         "threshold": {"mode": "fixed", "value": 100.0, "short_window_ticks": 0}}]}}),
    ("rns_epilepsy", {"plant": {"ieeg": {"fs_hz": 16.0, "frame_len": 2, "ictal_hz": 5.0}},
                      "features": {"tools": [
                          {"feature": "half_wave", "threshold": {"mode": "fixed", "value": 1.0},
                           "half_wave": {"min_amplitude_uV": 10.0, "min_duration_ticks": 1,
                                         "max_duration_ticks": 4}}]}}),
    ("adbs_parkinsons", {"features": {"smoothing_s": 5.0}}),
    ("ecap_scs", {"limits": {"amp_max_mA_typo": 8.0}}),
    ("ecap_scs", {"polcy": {}}),
    # The first command, gain * (target - estimate), overflowed to inf: exit 3.
    ("ecap_scs", {"policy": {"gain_mA_per_uV": 1e308, "target_uV": 3.0},
                  "limits": {"amp_max_mA": 20.0}}),
] + OVERFLOWS


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

    # Free text, yet once written as NaN into scenario.json, which is then not JSON.
    @pytest.mark.parametrize("comment", [math.nan, math.inf, ["text", -math.inf]], ids=repr)
    def test_non_finite_comment_exit_2(self, tmp_path, capsys, comment):
        path = tmp_path / "comment.json"
        path.write_text(json.dumps({**reference_raw("ecap_scs"), "_comment": comment}))
        assert main(["validate", str(path)]) == EXIT_VALIDATION
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
        assert not (tmp_path / "o").exists()
        assert "not JSON compliant" in capsys.readouterr().out

    # Free text, yet writing scenario.json and pickling a scenario into a
    # forked sweep worker recurse with the comment's nesting. Past those
    # depths a comment once validated and then crashed with exit 1: sweep
    # on 2 cores from 491 levels, compare from 985 and run from 987.
    COMMANDS = {"validate": [], "run": ["--out", "o"], "compare": ["--out", "o"],
                "sweep": ["--seeds", "2", "--out", "o"]}

    @staticmethod
    def deep_comment_file(where: Path, depth: int) -> Path:
        """ecap_scs cut to 10 ticks, with a comment of lists nested ``depth`` deep."""
        path = where / f"comment_{depth}.json"
        text = json.dumps(deep_merge(reference_raw("ecap_scs"), {"timebase": {"duration_s": 0.2}}))
        path.write_text(text[:-1] + ', "_comment": ' + "[" * depth + "]" * depth + "}")
        return path

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("depth", [MAX_COMMENT_DEPTH + 1, 491])
    def test_comment_nested_too_deeply_exit_2(self, tmp_path, monkeypatch, capsys, command,
                                              depth):
        monkeypatch.chdir(tmp_path)
        path = self.deep_comment_file(tmp_path, depth)
        assert main([command, str(path)] + self.COMMANDS[command]) == EXIT_VALIDATION
        assert not (tmp_path / "o").exists()
        assert f"_comment nests lists and objects more than {MAX_COMMENT_DEPTH} deep" in \
            capsys.readouterr().out

    def test_comment_987_deep_exit_2_in_a_fresh_process(self, tmp_path):
        # Budget: about 1 s. The JSON parser takes 987 levels only from the
        # shallow stack of a fresh process, as the CLI runs, not from pytest's.
        path = self.deep_comment_file(tmp_path, 987)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(__file__).resolve().parent.parent / "src")]
            + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))}
        for command, args in self.COMMANDS.items():
            proc = subprocess.run([sys.executable, "-m", "neuroloop", command, str(path)] + args,
                                  cwd=tmp_path, env=env, capture_output=True, text=True,
                                  timeout=60)
            assert proc.returncode == EXIT_VALIDATION, (command, proc.stderr)
            assert "_comment nests lists and objects" in proc.stdout, command
            assert not (tmp_path / "o").exists()

    def test_deepest_comment_validation_accepts_runs(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = self.deep_comment_file(tmp_path, MAX_COMMENT_DEPTH)
        for command, args in self.COMMANDS.items():
            out = [command if a == "o" else a for a in args]   # --out named after the command
            assert main([command, str(path)] + out) == EXIT_OK, command
        assert main(["replay", "run"]) == EXIT_OK

    @pytest.mark.parametrize("name, edit", MUTATIONS,
                             ids=[f"{n}:{json.dumps(e)}" for n, e in MUTATIONS])
    def test_reproduced_mutations_exit_2(self, tmp_path, capsys, name, edit):
        path = tmp_path / "mutated.json"
        path.write_text(json.dumps(deep_merge(reference_raw(name), edit)))
        assert main(["validate", str(path)]) == EXIT_VALIDATION
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
        assert not (tmp_path / "o").exists()
        assert "FAIL" in capsys.readouterr().out


    @pytest.mark.parametrize("name, edit", LIMITS_BETWEEN_STEPS,
                             ids=[json.dumps(e) for _, e in LIMITS_BETWEEN_STEPS])
    def test_limit_between_output_steps_is_a_limits_finding(self, tmp_path, capsys, name, edit):
        path = tmp_path / "mutated.json"
        path.write_text(json.dumps(deep_merge(reference_raw(name), edit)))
        assert main(["validate", str(path)]) == EXIT_VALIDATION
        out = capsys.readouterr().out
        assert "Stimulation actuator limits" in out and "whole number of amp_step_mA" in out

    @pytest.mark.parametrize("name, kind, disturbance", UNMODELLED,
                             ids=[f"{n}:{d['kind']}" for n, _, d in UNMODELLED])
    def test_unmodelled_disturbance_names_plant_and_disturbance(self, tmp_path, capsys,
                                                                 name, kind, disturbance):
        path = tmp_path / "mutated.json"
        path.write_text(json.dumps(deep_merge(reference_raw(name),
                                              with_disturbance(name, disturbance))))
        assert main(["validate", str(path)]) == EXIT_VALIDATION
        out = capsys.readouterr().out
        assert f"a {kind} plant does not model {disturbance['kind']} disturbances" in out

    @pytest.mark.parametrize("name, edit", RUNS_THROUGH,
                             ids=[f"{n}:{json.dumps(e)}" for n, e in RUNS_THROUGH])
    def test_overflowing_values_run_and_replay(self, tmp_path, capsys, name, edit):
        path = tmp_path / "mutated.json"
        path.write_text(json.dumps(deep_merge(reference_raw(name), edit)))
        out = tmp_path / "o"
        with warnings.catch_warnings():   # numpy warns about the overflow it is given
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(["validate", str(path)]) == EXIT_OK
            assert main(["run", str(path), "--out", str(out)]) == EXIT_OK
            assert main(["replay", str(out)]) == EXIT_OK
        assert "Traceback" not in capsys.readouterr().err


class TestNonFiniteOutput:
    """summary.json, comparison.json, aggregate.json and events.jsonl are written
    by one JSON writer, which refuses a number that is not finite: exit 3, one line."""

    ERR = "output error: Out of range float values are not JSON compliant: inf\n"

    @staticmethod
    def argv(command: str, path, out) -> list:
        seeds = ["--seeds", "2"] if command == "sweep" else []
        return [command, str(path), "--out", str(out)] + seeds

    @pytest.mark.parametrize("command", ["run", "sweep", "compare"])
    @pytest.mark.parametrize("edit", NON_FINITE_METRICS, ids=json.dumps)
    def test_overflowing_metric_exit_3(self, tmp_path, capsys, edit, command):
        path = tmp_path / "mutated.json"
        path.write_text(json.dumps(deep_merge(reference_raw("ecap_scs"), edit)))
        out = tmp_path / "o"
        with warnings.catch_warnings():   # numpy warns about the overflow it is given
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(["validate", str(path)]) == EXIT_OK
            assert main(self.argv(command, path, out)) == EXIT_FAULT
        assert capsys.readouterr().err == self.ERR
        assert not list(out.rglob("summary.json"))

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("edit", HUGE_DEVIATIONS, ids=json.dumps)
    def test_huge_deviations_have_a_finite_mean(self, tmp_path, capsys, edit, command):
        path = tmp_path / "mutated.json"
        path.write_text(json.dumps(deep_merge(reference_raw("ecap_scs"), edit)))
        out = tmp_path / "o"
        assert main(self.argv(command, path, out)) == EXIT_OK   # and no RuntimeWarning
        summaries = sorted(out.rglob("summary.json"))
        assert len(summaries) == (1 if command == "run" else 2)
        for summary in summaries:
            dev = json.loads(summary.read_text())["metrics"]["step_response"]["steady_state_dev"]
            assert 1e300 < dev < math.inf
            assert main(["replay", str(summary.parent)]) == EXIT_OK
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [{"plant": {"ecap": {"slope_uV_per_mA_at_ref": 1e200}}},
                                      *HUGE_DEVIATIONS], ids=json.dumps)
    def test_comparison_json_holds_no_infinity(self, tmp_path, capsys, edit):
        # Every summary is finite, but the variance about the target is not:
        # comparison.json once held the non-JSON literal Infinity, with exit 0,
        # and later compare printed numpy's overflow warning and left both arm
        # directories behind.
        path = tmp_path / "mutated.json"
        path.write_text(json.dumps(deep_merge(reference_raw("ecap_scs"), edit)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(self.argv("run", path, tmp_path / "r")) == EXIT_OK
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(self.argv("compare", path, tmp_path / "c")) == EXIT_FAULT
        assert capsys.readouterr().err == self.ERR
        assert not (tmp_path / "c").exists()

    def test_events_jsonl_holds_no_infinity(self, tmp_path, capsys):
        # A gain of 1e308 on a band power more than 2 above the reference
        # overflows the first command, which a slew event reports: events.jsonl
        # once held "requested_mA":Infinity, with exit 0.
        policy = {"kind": "Proportional", "reference": -2.0, "gain_mA_per_unit": 1e308}
        path = tmp_path / "mutated.json"
        path.write_text(json.dumps({**reference_raw("adbs_parkinsons"), "policy": policy}))
        out = tmp_path / "o"
        assert main(["validate", str(path)]) == EXIT_OK
        assert main(self.argv("run", path, out)) == EXIT_FAULT
        err = capsys.readouterr().err   # json's C encoder may leave out the value
        assert err.startswith(self.ERR[:-len(": inf\n")]) and len(err.splitlines()) == 1
        assert not (out / "events.jsonl").exists()

    @pytest.mark.parametrize("command, stage, spoil", [
        ("run", "run_scenario",
         lambda r: replace(r, metrics=replace(r.metrics, teed_total=math.inf))),
        ("compare", "compare_modes", lambda c: replace(c, fixed_variance_about_target=math.inf)),
        ("sweep", "aggregate_summaries", lambda agg: {**agg, "teed_total": {"mean": math.inf}}),
    ], ids=["summary.json", "comparison.json", "aggregate.json"])
    def test_each_writer_refuses_an_inf_metric(self, ecap_file, tmp_path, monkeypatch, capsys,
                                               command, stage, spoil):
        real = getattr(cli, stage)
        monkeypatch.setattr(cli, stage, lambda *args: spoil(real(*args)))
        assert main(self.argv(command, ecap_file, tmp_path / "o")) == EXIT_FAULT
        assert capsys.readouterr().err == self.ERR


class TestUnreadablePaths:
    """A path the CLI cannot read or write ends in one stderr line and a
    documented exit code, never a traceback (once exit 1 with FileNotFoundError,
    IsADirectoryError, FileExistsError or NotADirectoryError)."""

    ARGS = {"validate": [], "run": ["--out", "o"], "compare": ["--out", "o"],
            "sweep": ["--seeds", "2", "--out", "o"]}

    @staticmethod
    def one_line(capsys, text: str) -> None:
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and text in err and "Traceback" not in err, err

    @pytest.mark.parametrize("command", list(ARGS))
    @pytest.mark.parametrize("where", ["missing", "directory"])
    def test_unreadable_scenario_exit_2(self, tmp_path, monkeypatch, capsys, command, where):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "absent.json"
        if where == "directory":
            path.mkdir()
        assert main([command, str(path)] + self.ARGS[command]) == EXIT_VALIDATION
        self.one_line(capsys, f"{path}: cannot read")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["run", "compare", "sweep"])
    def test_out_names_a_file_exit_3(self, ecap_file, tmp_path, capsys, command):
        out = tmp_path / "taken"
        out.write_text("x")
        argv = [command, str(ecap_file), "--out", str(out)]
        assert main(argv + (["--seeds", "2"] if command == "sweep" else [])) == EXIT_FAULT
        self.one_line(capsys, "output error:")
        assert out.read_text() == "x"

    def test_replay_of_a_missing_directory_exit_3(self, tmp_path, capsys):
        assert main(["replay", str(tmp_path / "absent")]) == EXIT_FAULT
        self.one_line(capsys, "replay error:")

    # JSON the parser refuses: once a RecursionError or a ValueError
    # traceback and exit 1.
    REFUSED = {
        "nested-200000-deep": lambda: "[" * 200_000 + "]" * 200_000,
        "seed-past-the-digit-limit": lambda: json.dumps({**ecap_raw(), "seed": 0}).replace(
            '"seed": 0', '"seed": ' + "7" * (sys.get_int_max_str_digits() + 1)),
    }

    @pytest.mark.parametrize("command", list(ARGS))
    @pytest.mark.parametrize("refused", REFUSED)
    def test_json_the_parser_refuses_exit_2(self, tmp_path, monkeypatch, capsys, command,
                                            refused):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "refused.json"
        path.write_text(self.REFUSED[refused]())
        assert main([command, str(path)] + self.ARGS[command]) == EXIT_VALIDATION
        self.one_line(capsys, f"parse error: {path}: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("refused", REFUSED)
    def test_replay_of_json_the_parser_refuses_exit_3(self, ecap_file, tmp_path, capsys,
                                                      refused):
        out = tmp_path / "r"
        assert main(["run", str(ecap_file), "--out", str(out)]) == EXIT_OK
        (out / "scenario.json").write_text(self.REFUSED[refused]())
        capsys.readouterr()
        assert main(["replay", str(out)]) == EXIT_FAULT
        self.one_line(capsys, "replay error:")


class TestRun:
    def test_writes_outputs(self, ecap_file, tmp_path):
        out = tmp_path / "out"
        assert main(["run", str(ecap_file), "--out", str(out)]) == EXIT_OK
        for fname in ("timeseries.csv", "events.jsonl", "summary.json", "scenario.json"):
            assert (out / fname).exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["fault_count"] == 0
        assert summary["metrics"]["teed_total"] > 0

    def test_disabled_output_is_not_written_named_or_compared(self, tmp_path, capsys):
        path = tmp_path / "no_summary.json"
        path.write_text(json.dumps(ecap_raw(outputs={"summary": False})))
        out = tmp_path / "o"
        assert main(["run", str(path), "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == f"wrote {out}/timeseries.csv events.jsonl\n"
        assert sorted(f.name for f in out.iterdir()) == [
            "events.jsonl", "scenario.json", "timeseries.csv"]
        assert main(["replay", str(out)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["files_matched"] == {
            "timeseries.csv": True, "events.jsonl": True}

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

    def test_impedance_ramped_to_zero_exit_2_and_writes_nothing(self, tmp_path, capsys):
        # Once a RUN_FAULT at tick 99, exit 3 and truncated outputs.
        raw = deep_merge(reference_raw("ecap_scs"),
                         {"plant": {"device": {"impedance_ramp_ohm_per_tick": -5.0}}})
        path = tmp_path / "ramp.json"
        path.write_text(json.dumps(raw))
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
        assert not (tmp_path / "o").exists()
        out = capsys.readouterr().out
        assert ("[Device state] impedance_ramp_ohm_per_tick -5.0 over 1500 ticks: impedance of "
                "contact 'E1' must be positive") in out

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


    # Each of these once made replay exit 1 with a traceback from the CSV scan;
    # the scan reads each tick's pulse width off the mode column.
    CSV_EDITS = {
        "non-numeric-cell": lambda rows, col: rows[1].__setitem__(col, "abc"),
        "no-delivered-header": lambda rows, col: rows[0].__setitem__(col, "delivered"),
        "short-row": lambda rows, col: rows.__setitem__(5, rows[5][:col]),
        "unknown-mode": lambda rows, col: rows[3].__setitem__(col + 1, "Autonomous"),
        "no-mode-header": lambda rows, col: rows[0].__setitem__(col + 1, "mode"),
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

    def test_report_of_non_finite_cells_is_strict_json(self, ecap_file, tmp_path, capsys):
        # The report once printed the details of these cells as NaN and Infinity.
        out = tmp_path / "r"
        assert main(["run", str(ecap_file), "--out", str(out)]) == EXIT_OK
        ts = out / "timeseries.csv"
        rows = [line.split(",") for line in ts.read_text().splitlines()]
        col = rows[0].index("delivered_mA")
        rows[1][col], rows[3][col] = "nan", "inf"
        ts.write_text("".join(",".join(row) + "\n" for row in rows))
        capsys.readouterr()
        assert main(["replay", str(out)]) == EXIT_FAULT

        def reject(constant):
            raise ValueError(f"not JSON: {constant}")

        violations = json.loads(capsys.readouterr().out, parse_constant=reject)["violations"]
        assert [0, "amp_not_a_number", "nan"] in violations
        assert [2, "amp_above_max", "inf"] in violations

    def test_tick_zero_slew_is_scanned(self, tmp_path, capsys):
        # The scan once compared tick 0 with itself, not with the initial delivered amplitude.
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(ecap_raw(limits={"max_slew_mA_per_tick": 0.5})))
        out = tmp_path / "r"
        assert main(["run", str(scenario), "--out", str(out)]) == EXIT_OK
        ts = out / "timeseries.csv"
        rows = [line.split(",") for line in ts.read_text().splitlines()]
        col = rows[0].index("delivered_mA")
        rows[1][col] = repr(float(rows[1][col]) + 2.0)   # 4.0 mA before tick 0
        ts.write_text("".join(",".join(row) + "\n" for row in rows))
        capsys.readouterr()
        assert main(["replay", str(out)]) == EXIT_FAULT
        violations = json.loads(capsys.readouterr().out)["violations"]
        assert violations[0][:2] == [0, "slew_exceeded"]

    def test_cut_timeseries_exit_3(self, ecap_file, tmp_path, capsys):
        # A scan that paired the fresh run's modes with a cut file's rows exited 1.
        out = tmp_path / "r"
        assert main(["run", str(ecap_file), "--out", str(out)]) == EXIT_OK
        ts = out / "timeseries.csv"
        ts.write_text("".join(ts.read_text().splitlines(keepends=True)[:101]))
        capsys.readouterr()
        assert main(["replay", str(out)]) == EXIT_FAULT
        report = json.loads(capsys.readouterr().out)
        assert report["files_matched"]["timeseries.csv"] is False
        assert report["safety_scan_ok"] is True

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


class TestChargeScanWidths:
    """The limit scan checks each tick's charge at the pulse width of the dose its
    supervisor mode delivers, not at the widest configured one."""

    # A 200 µs fallback dose beside the 60 µs baseline: the widest width once
    # flagged 0.51 µC at Automated ticks, which deliver 60 µs pulses.
    WIDE_FALLBACK = {"fallback": {"dose": {"pulse_width_us": 200.0, "amplitude_mA": 2.0}}}

    def scenario_file(self, tmp_path, **edits) -> str:
        path = tmp_path / "scenario.json"
        raw = deep_merge(reference_raw("adbs_parkinsons"), self.WIDE_FALLBACK)
        path.write_text(json.dumps(deep_merge(raw, edits)))
        return str(path)

    def test_wide_fallback_dose_runs_replays_and_sweeps(self, tmp_path):
        path = self.scenario_file(tmp_path)
        assert main(["validate", path]) == EXIT_OK
        assert main(["run", path, "--out", str(tmp_path / "r")]) == EXIT_OK
        assert main(["replay", str(tmp_path / "r")]) == EXIT_OK
        assert main(["sweep", path, "--seeds", "2", "--out", str(tmp_path / "s")]) == EXIT_OK

    def test_over_charge_at_the_narrow_width_is_flagged(self, tmp_path, capsys):
        # At 0.2 µC, 60 µs pulses carry at most 3.33 mA: 3.4 mA at tick 1 is over.
        path = self.scenario_file(tmp_path, limits={"max_charge_per_pulse_uC": 0.2})
        out = tmp_path / "r"
        assert main(["run", path, "--out", str(out)]) == EXIT_OK
        ts = out / "timeseries.csv"
        rows = [line.split(",") for line in ts.read_text().splitlines()]
        col = rows[0].index("delivered_mA")
        assert rows[2][col + 1] == "Automated"
        rows[2][col] = "3.4"
        ts.write_text("".join(",".join(row) + "\n" for row in rows))
        capsys.readouterr()
        assert main(["replay", str(out)]) == EXIT_FAULT
        violations = json.loads(capsys.readouterr().out)["violations"]
        assert [v[:2] for v in violations] == [[1, "charge_exceeded"]]
        assert violations[0][2] == pytest.approx(3.4 * 60e-3)


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
