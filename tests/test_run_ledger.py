"""Run ledger: every way a run of a built scenario can fail, and why it cannot or must.

A ``Scenario`` exists only when validation found nothing, so a run of one
may fail only where a row of ``LEDGER`` says it may. This guard parses
``MODULES`` and follows every call from ``ROOTS``: the methods of the
sensing classes and of ``engine._Lane``, and the writers of the run files.
It follows by spelling: a call ``x.name(...)`` reaches every function or
method called ``name``, a call of a class its ``__init__`` and
``__post_init__``. It collects each ``raise`` of a ``SimulationError``
subclass and each ``json.dumps`` in what it reaches. The set must equal
``LEDGER``, whose rows are each one of three kinds:

- excluded by a finding: the row's edit of a reference file is refused by
  validation, with the finding the row names;
- unreachable: the row says why; where the run copies a field that a check
  passed when it was built, the row's edit shows that check refusing it;
- by design, exit 3: state reached only during the run. There is one
  cause: an output number that is not finite, which the one JSON writer
  refuses with NonFiniteOutputError. The row's edit validates, and its run
  ends there.

A new raise or ``json.dumps`` on the run path fails here until its row says
why. Divisions are not covered.
Runtime budget: well under 0.5 s.
"""

import ast
import importlib
import warnings
from pathlib import Path

import pytest

from neuroloop.core import SimulationError
from neuroloop.engine import run_scenario
from neuroloop.features import FEATURES
from neuroloop.outputs import events_jsonl_text, summary_json_text
from neuroloop.scenario import validate_scenario

from conftest import deep_merge, reference_raw

SRC = Path(__file__).resolve().parent.parent / "src" / "neuroloop"
MODULES = ("engine", "plant", "features", "scenario", "core", "safety", "control", "metrics",
           "outputs")
ROOTS = (("engine", "_Sensing"), ("engine", "EcapSensing"), ("engine", "BetaSensing"),
         ("engine", "IeegSensing"), ("engine", "_Lane"), ("outputs", "timeseries_csv_text"),
         ("outputs", "events_jsonl_text"), ("outputs", "summary_json_text"),
         ("outputs", "json_text"))
# ``tool_feature`` calls the feature a tool names through ``globals()``.
DISPATCHED = tuple(feature.function for feature in FEATURES.values())

FINDING, UNREACHABLE, EXIT_3 = "excluded by a finding", "unreachable", "by design, exit 3"

HALF_WAVE_ON_TWO_SAMPLES = {
    "plant": {"ieeg": {"fs_hz": 16.0, "frame_len": 2, "ictal_hz": 5.0}},
    "features": {"tools": [{"feature": "half_wave", "threshold": {"mode": "fixed", "value": 1.0},
                            "half_wave": {"min_amplitude_uV": 10.0, "min_duration_ticks": 1,
                                          "max_duration_ticks": 4}}]}}
FRAME = "_FrameConfig.__post_init__ requires frame_len >= 2"
BAND = "BetaPlantSpec.__post_init__ runs check_band on the band and frame band_power reads"
COPIED = "seizure_step copies the fields of the state this check passed when it was built"
DEVICE = "device_step copies the fields of the device this check passed when it was built"
CAPS = "Budgets.counted copies the caps this check passed when they were built"
OVERFLOW = ("ecap_scs", {"plant": {"ecap": {"sensor_noise_sd_uV": 1e308}}},
            "NonFiniteOutputError: Out of range float values are not JSON compliant")
# (function, exception, the message's first literal text) or (function,
# "json.dumps", its allow_nan keyword) -> (kind, why, case). A case is
# (reference file, edit, text): the text of the finding validation gives
# the edited file or, for exit 3, of the error its run ends with.
LEDGER = {
    ("features.check_band", "DomainError", "band ["): (
        FINDING, BAND, ("adbs_parkinsons", {"features": {"band_lo_hz": 0}},
                        "DomainError: band [0.0, 30.0] must satisfy")),
    ("features.check_band", "InsufficientDataError", "window of "): (
        FINDING, BAND, ("adbs_parkinsons", {"features": {"band_lo_hz": 1}},
                        "InsufficientDataError: window of 64 samples is shorter")),
    ("features.half_wave_count", "InsufficientDataError",
     "half_wave_count needs at least 3 samples"): (
        FINDING, "IeegPlantSpec.__post_init__ requires each tool feature's min_frame_len",
        ("rns_epilepsy", HALF_WAVE_ON_TWO_SAMPLES,
         "a half_wave tool needs frame_len of at least 3 samples")),
    ("features.signal_quality", "InsufficientDataError",
     "signal_quality needs a nonempty window"): (
        FINDING, FRAME, ("rns_epilepsy", {"plant": {"ieeg": {"frame_len": 0}}},
                         "frame_len must be at least 2")),
    ("features.line_length", "InsufficientDataError", "line_length needs at least 2 samples"): (
        FINDING, FRAME, ("rns_epilepsy", {"plant": {"ieeg": {"frame_len": 1}}},
                         "frame_len must be at least 2")),
    ("features.area_under_curve", "InsufficientDataError",
     "area_under_curve needs at least 1 sample"): (
        FINDING, FRAME, ("rns_epilepsy", {"plant": {"ieeg": {"frame_len": 0}}},
                         "frame_len must be at least 2")),
    ("plant.SeizureGenState.__post_init__", "ConfigurationError",
     "suppression_prob must be in [0, 1]"): (
        UNREACHABLE, COPIED, ("rns_epilepsy", {"plant": {"seizures": {"suppression_prob": 2.0}}},
                              "suppression_prob must be in [0, 1]")),
    ("plant.SeizureGenState.__post_init__", "ConfigurationError",
     "base_duration_ticks must be positive"): (
        UNREACHABLE, COPIED, ("rns_epilepsy", {"plant": {"seizures": {"base_duration_ticks": 0}}},
                              "base_duration_ticks must be positive")),
    ("plant.SeizureGenState.__post_init__", "ConfigurationError",
     "response_window_ticks must be positive"): (
        UNREACHABLE, COPIED, ("rns_epilepsy",
                              {"plant": {"seizures": {"response_window_ticks": 0}}},
                              "response_window_ticks must be positive")),
    ("plant.SeizureGenState.__post_init__", "ConfigurationError",
     "rate_per_hour must be nonnegative"): (
        UNREACHABLE, COPIED, ("rns_epilepsy", {"plant": {"seizures": {"rate_per_hour": -1.0}}},
                              "rate_per_hour must be nonnegative")),
    ("plant.DeviceState.__post_init__", "ConfigurationError", "amp_step_mA must be positive"): (
        UNREACHABLE, DEVICE, ("ecap_scs", {"plant": {"device": {"amp_step_mA": 0}}},
                              "amp_step_mA must be positive")),
    ("plant.DeviceState.__post_init__", "ConfigurationError", "compliance_v must be positive"): (
        UNREACHABLE, DEVICE, ("ecap_scs", {"plant": {"device": {"compliance_v": 0}}},
                              "compliance_v must be positive")),
    ("safety.Budgets.__post_init__", "ConfigurationError",
     "max_therapies_per_event must be >= 0"): (
        UNREACHABLE, CAPS, ("rns_epilepsy", {"budgets": {"max_therapies_per_event": -1}},
                            "max_therapies_per_event must be >= 0")),
    ("safety.Budgets.__post_init__", "ConfigurationError", "max_episodes_per_day must be >= 0"): (
        UNREACHABLE, CAPS, ("rns_epilepsy", {"budgets": {"max_episodes_per_day": -1}},
                            "max_episodes_per_day must be >= 0")),
    ("safety.Budgets.__post_init__", "ConfigurationError", "ticks_per_day must be >= 1"): (
        UNREACHABLE, "Budgets.counted copies ticks_per_day, which TimeBase.ticks_per_day gives "
                     "as at least 1", None),
    ("safety.Budgets.__post_init__", "ConfigurationError",
     "episodes_today exceeds max_episodes_per_day"): (
        UNREACHABLE, "therapy_and_episode_budget_step counts an episode only while "
                     "episodes_today < max_episodes_per_day, and otherwise keeps or zeroes it",
        None),
    ("plant.dose_response_eval", "DomainError", "amplitude must be nonnegative, got "): (
        UNREACHABLE, "its one caller, BetaTickTable.envelope, gets lane amplitudes, which "
                     "actuator_apply floors at 0.0", None),
    ("plant.NoisyNonMonotonic.value", "DomainError",
     "NoisyNonMonotonic with noise_sd > 0 needs an rng"): (
        UNREACHABLE, "reached by spelling only: a beta plant's curve is read as a "
                     "BetaSuppression", None),
    ("plant.DeviceState.__post_init__", "ConfigurationError", "impedance of contact "): (
        FINDING, "device_step adds impedance_ramp_ohm_per_tick to each impedance once per "
                 "tick; validation runs this check on the impedances after n_ticks additions",
        ("ecap_scs", {"plant": {"device": {"impedance_ramp_ohm_per_tick": -100.0}}},
         "impedance of contact 'E1' must be positive")),
    ("outputs.json_text", "NonFiniteOutputError", ""): (
        EXIT_3, "a metric or an event payload that overflowed during the run", OVERFLOW),
    ("outputs.json_text", "json.dumps", "allow_nan=False"): (
        EXIT_3, "strict: the ValueError it raises on inf or NaN is the NonFiniteOutputError "
                "row", OVERFLOW),
}


def definitions():
    """Each function and method of MODULES by name: name -> [(qualified name, node)];
    and each class: name -> its node."""
    functions, classes = {}, {}
    for module in MODULES:
        tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                functions.setdefault(node.name, []).append((f"{module}.{node.name}", node))
            elif isinstance(node, ast.ClassDef):
                classes[node.name] = node
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        functions.setdefault(item.name, []).append(
                            (f"{module}.{node.name}.{item.name}", item))
    return functions, classes


def called_names(node):
    """The spelling of each call in ``node``: a name or an attribute."""
    for call in ast.walk(node):
        if isinstance(call, ast.Call):
            if isinstance(call.func, ast.Name):
                yield call.func.id
            elif isinstance(call.func, ast.Attribute):
                yield call.func.attr


def message_head(exc: ast.Call) -> str:
    """The first literal text of a raise's message."""
    arg = exc.args[0] if exc.args else None
    if isinstance(arg, ast.Constant):
        return arg.value
    if isinstance(arg, ast.JoinedStr) and isinstance(arg.values[0], ast.Constant):
        return arg.values[0].value
    return ""


def allow_nan(call: ast.Call) -> str:
    """A ``json.dumps`` call's allow_nan keyword, as written or as defaulted."""
    given = [kw.value for kw in call.keywords if kw.arg == "allow_nan"]
    value = given[0].value if given and isinstance(given[0], ast.Constant) else True
    return f"allow_nan={value}"


def run_sites():
    """Each (function, exception, message head) of a SimulationError raise, and
    each (function, "json.dumps", allow_nan) of a JSON encoding, that ROOTS reach."""
    functions, classes = definitions()
    namespace = {}
    for module in MODULES:
        namespace.update(vars(importlib.import_module(f"neuroloop.{module}")))
    todo = []
    for module, name in ROOTS:
        if name in classes:
            todo += [(f"{module}.{name}.{item.name}", item) for item in classes[name].body
                     if isinstance(item, ast.FunctionDef)]
        else:
            todo += [pair for pair in functions[name] if pair[0] == f"{module}.{name}"]
    todo += [pair for name in DISPATCHED for pair in functions[name]]
    seen, sites = set(), set()
    while todo:
        qualname, node = todo.pop()
        if qualname in seen:
            continue
        seen.add(qualname)
        for name in called_names(node):
            if name in classes:
                todo += [pair for method in ("__init__", "__post_init__")
                         for pair in functions.get(method, []) if pair[0].split(".")[1] == name]
            todo += functions.get(name, [])
        for site in ast.walk(node):
            if isinstance(site, ast.Raise) and isinstance(site.exc, ast.Call):
                cls = namespace.get(getattr(site.exc.func, "id", None))
                if isinstance(cls, type) and issubclass(cls, SimulationError):
                    sites.add((qualname, cls.__name__, message_head(site.exc)))
            elif (isinstance(site, ast.Call) and isinstance(site.func, ast.Attribute)
                  and site.func.attr == "dumps" and getattr(site.func.value, "id", "") == "json"):
                sites.add((qualname, "json.dumps", allow_nan(site)))
    return sites


def edited_report(case):
    name, edit, _ = case
    with warnings.catch_warnings():   # numpy warns about the overflow it is given
        warnings.simplefilter("ignore", RuntimeWarning)
        return validate_scenario(deep_merge(reference_raw(name), edit))


def test_every_run_site_is_in_the_ledger():
    assert sorted(run_sites()) == sorted(LEDGER)


def test_each_row_has_a_kind_and_exit_3_has_one_cause():
    kinds = [kind for kind, _, _ in LEDGER.values()]
    assert set(kinds) == {FINDING, UNREACHABLE, EXIT_3}
    assert all(case for kind, _, case in LEDGER.values() if kind != UNREACHABLE)
    assert len({case[2] for kind, _, case in LEDGER.values() if kind == EXIT_3}) == 1


CHECKED = [site for site, (kind, _, case) in LEDGER.items() if case and kind != EXIT_3]


@pytest.mark.parametrize("site", CHECKED, ids=lambda site: f"{site[0]}:{site[2]}")
def test_each_finding_refuses_its_configuration(site):
    report = edited_report(LEDGER[site][2])
    assert report.scenario is None
    assert any(LEDGER[site][2][2] in f.message for f in report.findings), report.findings


@pytest.mark.parametrize("site", [site for site, row in LEDGER.items() if row[0] == EXIT_3],
                         ids=lambda site: f"{site[0]}:{site[1]}")
def test_each_exit_3_site_ends_a_run_of_a_valid_scenario(site):
    case = LEDGER[site][2]
    report = edited_report(case)
    assert report.ok, report.findings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        result = run_scenario(report.scenario)
    try:
        events_jsonl_text(result), summary_json_text(result)
        error = ""
    except SimulationError as e:
        error = f"{type(e).__name__}: {e}"
    assert error.startswith(case[2])
