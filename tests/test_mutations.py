"""Single-field mutations of the reference scenarios.

Every JSON path of each shipped scenario (containers and list elements
included) is set, one at a time, to each value in ``VALUES``, and is also
deleted. Validation must return a report for every one of them, and whatever
it passes must build and run: a 40-tick copy of each passing mutation runs
without raising and without aborting, and renders the summary.json and
events.jsonl that ``run`` writes. The deletions pin which keys are
optional. Wrongly typed values, non-finite numbers and keys a section does
not know are findings. Each file's reports are pinned by a sha256 over one
line per case: the case, its ``ok`` flag and its tagged findings in order,
so a refactor of the reader or the checklist that changes any finding's
flag, tag, message or order fails.
Runtime budget (2-core host): under 15 s for the whole file.
"""

import copy
import hashlib
import warnings

import pytest

from neuroloop.core import MAX_FRAME_LEN
from neuroloop.engine import run_scenario
from neuroloop.outputs import events_jsonl_text, summary_json_text
from neuroloop.scenario import validate_scenario

from conftest import reference_raw

VALUES = ([], "x", None, {}, 1, -1, True, 0, 1e9, float("nan"), float("inf"), float("-inf"),
          1e308, -1e308, 2**63)
# Values that overflow float arithmetic on purpose. numpy warns about the
# overflow (a RuntimeWarning, which this suite otherwise fails on); the case
# must still validate, or run and render, without raising.
OVERFLOWING = (1e308, -1e308)
DELETE = object()  # the mutation that removes the path
SHORT_TICKS = 40
# How many of each file's deletions still validate: the optional keys and
# list elements, and the free text (name, comments).
OPTIONAL_PATHS = {"ecap_scs": 37, "adbs_parkinsons": 34, "rns_epilepsy": 44}
FINDINGS_SHA256 = {
    "ecap_scs": "a484d24d6598f3d0b88735685c8fed58df4250997816623cc1ca5dc56580db86",
    "adbs_parkinsons": "3a8c57a90022cb2cb1da57de372c78a4e1036e31a8fb03a3b7f7a98b2e45b140",
    "rns_epilepsy": "e2ddd1cba3e06f9f32bd48745eb4647ca923698c4e0aac6a8b31424e029b2195",
}


def json_paths(node, prefix=()):
    """Every path below ``node``, parents before children."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from json_paths(child, prefix + (key,))


def mutated(raw: dict, path: tuple, value) -> dict:
    out = copy.deepcopy(raw)
    node = out
    for key in path[:-1]:
        node = node[key]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = copy.deepcopy(value)
    return out


def short_copy(raw: dict) -> dict:
    dt = raw["timebase"]["dt_s"]
    return {**raw, "timebase": {**raw["timebase"], "duration_s": SHORT_TICKS * dt}}


def fault_events(result) -> list:
    return [r.to_dict() for r in result.events if r.severity == "Fault"]


def mutation_cases(name: str):
    """Each mutation case of reference file ``name``: (case, value, mutated raw)."""
    raw = reference_raw(name)
    for path in json_paths(raw):
        for value in VALUES + (DELETE,):
            where = ".".join(map(str, path))
            case = f"del {where}" if value is DELETE else f"{where} = {value!r}"
            yield case, value, mutated(raw, path, value)


def case_line(case: str, report) -> str:
    """The pinned line of one case: the case, its ``ok`` flag and its tagged findings."""
    tagged = [(f.checklist_item, f.message) for f in report.findings]
    return f"{case}\t{report.ok}\t{tagged}\n"


def case_lines(name: str):
    """Each case's pinned line, in order; FINDINGS_SHA256[name] is their sha256."""
    for case, value, candidate in mutation_cases(name):
        with warnings.catch_warnings():
            if value in OVERFLOWING:
                warnings.simplefilter("ignore", RuntimeWarning)
            yield case_line(case, validate_scenario(candidate))


@pytest.mark.parametrize("name", ["ecap_scs", "adbs_parkinsons", "rns_epilepsy"])
def test_single_field_mutations(name):
    failures = []
    cases = passed = deletions_passed = 0
    digest = hashlib.sha256()
    for case, value, candidate in mutation_cases(name):
        cases += 1
        with warnings.catch_warnings():
            if value in OVERFLOWING:
                warnings.simplefilter("ignore", RuntimeWarning)
            try:
                report = validate_scenario(candidate)
                digest.update(case_line(case, report).encode())
                if not report.ok:
                    continue
                passed += 1
                deletions_passed += value is DELETE
                assert report.scenario is not None, "ok report without a scenario"
                short = validate_scenario(short_copy(candidate))
                assert short.ok, f"40-tick copy fails validation: {short.findings}"
                result = run_scenario(short.scenario)
                assert not result.aborted, f"run aborted: {fault_events(result)}"
                summary_json_text(result), events_jsonl_text(result)   # what run writes
            except Exception as e:  # collect every failing case, not just the first
                failures.append(f"{case}: {type(e).__name__}: {e}")
    assert not failures, f"{len(failures)} of {cases} mutations:\n" + "\n".join(failures)
    # The sweep must exercise both sides of validation.
    assert 0 < passed < cases
    assert deletions_passed == OPTIONAL_PATHS[name]
    assert digest.hexdigest() == FINDINGS_SHA256[name]


@pytest.mark.parametrize("path, optional", [
    (("trust", "exit_after_consecutive_fails"), False),
    (("trust", "reenter_after_consecutive_passes"), False),
    (("plant", "ecap", "sensor_noise_sd_uV"), True),
    (("plant", "ecap", "threshold_distance_coeff_mA_per_mm"), True),
    (("limits", "amp_max_mA"), False),
    (("policy", "deadband_uV"), True),
])
def test_deleting_a_key(path, optional):
    report = validate_scenario(mutated(reference_raw("ecap_scs"), path, DELETE))
    assert report.ok == optional, report.findings
    if not optional:
        assert report.findings[0].message == f"KeyError: {path[-1]!r}"


@pytest.mark.parametrize("mode, built", [(None, "adaptive"), ("fixed", "fixed")])
def test_threshold_mode_defaults_to_adaptive(mode, built):
    raw = reference_raw("rns_epilepsy")
    threshold = raw["features"]["tools"][0]["threshold"]
    if mode is None:
        del threshold["mode"]
    else:
        threshold["mode"] = mode
    report = validate_scenario(raw)
    assert report.ok, report.findings
    assert report.scenario.plant.tools[0].threshold_mode == built



# A JSON type the field does not take once converted silently: ``{}`` read
# as no trust checks or no magnet intervals, ``"x"`` as an enabled output,
# a string of checks as its characters, a float as the integer it truncates
# to, ``true`` as 1 and a numeric string as its number.
WRONG_TYPES = [
    (("trust", "exit_after_consecutive_fails"), 2.7, "value must be a JSON integer, got 2.7"),
    (("trust", "exit_after_consecutive_fails"), 2.0, "value must be a JSON integer, got 2.0"),
    (("trust", "exit_after_consecutive_fails"), True, "value must be a JSON integer, got True"),
    (("magnet",), [{"start_tick": "1", "end_tick": 10}], "value must be a JSON integer, got '1'"),
    (("policy", "target_uV"), "1.0", "value must be a JSON number, got '1.0'"),
    (("policy", "target_uV"), True, "value must be a JSON number, got True"),
    (("plant", "device", "impedance_ohm", "E1"), True, "value must be a JSON number, got True"),
    (("timebase", "duration_s"), "10", "value must be a JSON number, got '10'"),
    (("metrics", "range", 0), False, "value must be a JSON number, got False"),
    (("trust", "checks"), {}, "value must be a JSON array, got {}"),
    (("trust", "checks"), "QualityOK", "value must be a JSON array, got 'QualityOK'"),
    (("outputs", "timeseries"), {}, "value must be true or false, got {}"),
    (("outputs", "timeseries"), "x", "value must be true or false, got 'x'"),
    (("outputs", "summary"), {}, "value must be true or false, got {}"),
    (("magnet",), {}, "magnet must be a JSON array, got {}"),
    (("plant", "disturbances"), {}, "plant.disturbances must be a JSON array, got {}"),
]


@pytest.mark.parametrize("path, value, message", WRONG_TYPES,
                         ids=[f"{'.'.join(map(str, p))}={v!r}" for p, v, _ in WRONG_TYPES])
def test_wrong_json_type_is_a_finding(path, value, message):
    report = validate_scenario(mutated(reference_raw("ecap_scs"), path, value))
    assert [f.message for f in report.findings] == [f"ConfigurationError: {message}"]


NUMBER_PATHS = [
    ("timebase", "duration_s"),
    ("plant", "device", "compliance_v"),
    ("plant", "device", "impedance_ohm", "E1"),
    ("trust", "exit_after_consecutive_fails"),
    ("magnet",),
    ("metrics", "range", 0),
]


@pytest.mark.parametrize("path", NUMBER_PATHS, ids=[".".join(map(str, p)) for p in NUMBER_PATHS])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=repr)
def test_non_finite_number_is_a_finding(path, value):
    raw = reference_raw("ecap_scs")
    if path == ("magnet",):
        value = [{"start_tick": value, "end_tick": 10}]
    report = validate_scenario(mutated(raw, path, value))
    assert not report.ok
    assert any("is not a finite number" in f.message for f in report.findings), report.findings


def test_tick_count_overflow_is_a_finding():
    # A finite duration whose tick count overflows once made validate raise.
    report = validate_scenario(mutated(reference_raw("ecap_scs"), ("timebase", "duration_s"), 1e308))
    assert [f.message for f in report.findings] == [
        "OverflowError: cannot convert float infinity to integer"
    ]


@pytest.mark.parametrize("name, plant", [("adbs_parkinsons", "beta"), ("rns_epilepsy", "ieeg")])
@pytest.mark.parametrize("frame_len", [MAX_FRAME_LEN, MAX_FRAME_LEN + 1])
def test_frame_len_is_bounded(name, plant, frame_len):
    # Validated only, never run: a run draws engine.NOISE_CHUNK such frames per lane.
    raw = reference_raw(name)
    raw["plant"][plant]["frame_len"] = frame_len
    raw["plant"][plant]["fs_hz"] = frame_len / raw["timebase"]["dt_s"]
    report = validate_scenario(raw)
    if frame_len <= MAX_FRAME_LEN:
        assert report.ok, report.findings
    else:
        assert [f.message for f in report.findings] == [
            f"ConfigurationError: frame_len {frame_len} is more than the "
            f"{MAX_FRAME_LEN} samples a frame may have"]


# A key its section does not read. Each of these once validated ok with the
# field it was meant for left at its default.
UNKNOWN_KEYS = [
    ("adbs_parkinsons", ("features", "smoothing_s"), "features"),
    ("adbs_parkinsons", ("plant", "beta", "curve", "knee"), "plant.beta.curve"),
    ("adbs_parkinsons", ("plant", "beta", "gamma_uV"), "plant.beta"),
    ("ecap_scs", ("polcy",), "scenario"),
    ("ecap_scs", ("limits", "amp_max_mA_typo"), "limits"),
    ("ecap_scs", ("timebase", "dt"), "timebase"),
    ("ecap_scs", ("baseline_dose", "amp"), "baseline_dose"),
    ("ecap_scs", ("plant", "beta"), "plant"),
    ("ecap_scs", ("plant", "ecap", "noise_sd"), "plant.ecap"),
    ("ecap_scs", ("plant", "device", "battery"), "plant.device"),
    ("ecap_scs", ("plant", "disturbances", 0, "rise"), "disturbance"),
    ("ecap_scs", ("features", "estimatr"), "features"),
    ("ecap_scs", ("policy", "dose", "width"), "policy.dose"),
    ("ecap_scs", ("policy", "target"), "policy"),
    ("ecap_scs", ("trust", "check"), "trust"),
    ("ecap_scs", ("fallback", "dose"), "fallback"),
    ("ecap_scs", ("outputs", "csv"), "outputs"),
    ("ecap_scs", ("metrics", "rng"), "metrics"),
    ("rns_epilepsy", ("plant", "seizures", "rate"), "plant.seizures"),
    ("rns_epilepsy", ("features", "tools", 0, "mode"), "detection tool"),
    ("rns_epilepsy", ("features", "tools", 0, "threshold", "window"), "detection tool threshold"),
    ("rns_epilepsy", ("budgets", "max_episodes"), "budgets"),
]


@pytest.mark.parametrize("name, path, where", UNKNOWN_KEYS,
                         ids=[f"{n}:{'.'.join(map(str, p))}" for n, p, _ in UNKNOWN_KEYS])
def test_unknown_key_is_a_finding(name, path, where):
    raw = reference_raw(name)
    if path[0] == "policy" and "dose" in path:
        raw["policy"] = {"kind": "ManualFixed", "dose": dict(raw["baseline_dose"])}
    report = validate_scenario(mutated(raw, path, 1))
    assert [f.message for f in report.findings] == [
        f"ConfigurationError: unknown key(s) in {where}: {path[-1]}"
    ]


# Every field whose class has a plan is read as a nested object by that plan, so
# each reports a missing or non-object value the same way.
NESTED = [
    ("ecap_scs", ("baseline_dose",), True),
    ("rns_epilepsy", ("policy", "burst"), True),
    ("ecap_scs", ("fallback", "dose"), True),
    ("adbs_parkinsons", ("plant", "beta", "curve"), True),
    ("ecap_scs", ("metrics", "step_response"), False),
]


@pytest.mark.parametrize("name, path, required", NESTED,
                         ids=[".".join(p) for _, p, _ in NESTED])
@pytest.mark.parametrize("value", [DELETE, 1], ids=["deleted", "1"])
def test_nested_object_findings_share_one_shape(name, path, required, value):
    raw = reference_raw(name)
    if path == ("fallback", "dose"):
        raw["fallback"] = {"kind": "FixedSafe", "dose": dict(raw["baseline_dose"])}
    report = validate_scenario(mutated(raw, path, value))
    parent = ".".join(path[:-1]) or "scenario"
    if value is DELETE:
        expected = [f"ConfigurationError: missing {path[-1]!r} in {parent}"] if required else []
    else:
        expected = [f"ConfigurationError: {'.'.join(path)} must be a JSON object, got 1"]
    assert [f.message for f in report.findings] == expected


def test_unknown_keys_are_listed_and_magnet_intervals_checked():
    raw = reference_raw("ecap_scs")
    raw["magnet"] = [{"start_tick": 1, "end_tick": 5, "stop": 9, "begin": 0}]
    report = validate_scenario(raw)
    assert [f.message for f in report.findings] == [
        "ConfigurationError: unknown key(s) in magnet interval: begin, stop"
    ]


@pytest.mark.parametrize("value, ok", [("identity", True), ("matched_filter", False)])
def test_ecap_estimator_is_the_identity(value, ok):
    raw = reference_raw("ecap_scs")
    raw["features"]["estimator"] = value
    report = validate_scenario(raw)
    assert report.ok == ok
    if not ok:
        assert [f.message for f in report.findings] == [
            "ConfigurationError: features.estimator must be 'identity', got 'matched_filter'"
        ]


if __name__ == "__main__":
    # Print every pinned case line, to diff a re-pin against another checkout:
    #   PYTHONPATH=src python tests/test_mutations.py [file ...] > lines.txt
    import sys

    for name in sys.argv[1:] or OPTIONAL_PATHS:
        for line in case_lines(name):
            sys.stdout.write(f"{name}\t{line}")
