"""Single-field mutations of the reference scenarios.

Every JSON path of each shipped scenario (containers and list elements
included) is set, one at a time, to each value in ``VALUES``. Validation
must return a report for every one of them, and whatever it passes must
build and run: a 40-tick copy of each passing mutation runs without raising
and without aborting.
"""

import copy

import pytest

from neuroloop.engine import run_scenario
from neuroloop.scenario import validate_scenario

from conftest import reference_raw

VALUES = ([], "x", None, {}, 1, -1, True, 0, 1e9)
SHORT_TICKS = 40


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
    cases = passed = 0
    for path in json_paths(raw):
        for value in VALUES:
            cases += 1
            case = f"{'.'.join(map(str, path))} = {value!r}"
            candidate = mutated(raw, path, value)
            try:
                report = validate_scenario(candidate)
                if not report.ok:
                    continue
                passed += 1
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

