"""Single-field mutations of the reference scenarios.

Every JSON path of each shipped scenario (containers and list elements
included) is set, one at a time, to each value in ``VALUES``, and is also
deleted. Validation must return a report for every one of them, and whatever
it passes must build and run: a 40-tick copy of each passing mutation runs
without raising and without aborting. The deletions pin which keys are
optional. Wrongly typed values and non-finite numbers are findings.
Runtime budget (2-core host): under 15 s for the whole file.
"""

import copy

import pytest

from neuroloop.engine import run_scenario
from neuroloop.scenario import validate_scenario

from conftest import reference_raw

VALUES = ([], "x", None, {}, 1, -1, True, 0, 1e9, float("nan"), float("inf"), float("-inf"))
DELETE = object()  # the mutation that removes the path
SHORT_TICKS = 40
# How many of each file's deletions still validate: the optional keys and
# list elements, and the free text (name, comments).
OPTIONAL_PATHS = {"ecap_scs": 37, "adbs_parkinsons": 34, "rns_epilepsy": 44}


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


@pytest.mark.parametrize("name", ["ecap_scs", "adbs_parkinsons", "rns_epilepsy"])
def test_single_field_mutations(name):
    raw = reference_raw(name)
    failures = []
    cases = passed = deletions_passed = 0
    for path in json_paths(raw):
        for value in VALUES + (DELETE,):
            cases += 1
            where = ".".join(map(str, path))
            case = f"del {where}" if value is DELETE else f"{where} = {value!r}"
            candidate = mutated(raw, path, value)
            try:
                report = validate_scenario(candidate)
                if not report.ok:
                    continue
                passed += 1
                deletions_passed += value is DELETE
                assert report.scenario is not None, "ok report without a scenario"
                short = validate_scenario(short_copy(candidate))
                assert short.ok, f"40-tick copy fails validation: {short.findings}"
                result = run_scenario(short.scenario)
                assert not result.aborted, f"run aborted: {fault_events(result)}"
            except Exception as e:  # collect every failing case, not just the first
                failures.append(f"{case}: {type(e).__name__}: {e}")
    assert not failures, f"{len(failures)} of {cases} mutations:\n" + "\n".join(failures)
    # The sweep must exercise both sides of validation.
    assert 0 < passed < cases
    assert deletions_passed == OPTIONAL_PATHS[name]


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
    assert report.scenario.features.tools[0].threshold_mode == built



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
