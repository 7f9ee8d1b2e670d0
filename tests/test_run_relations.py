"""Relations between runs of one scenario: causality and output independence.

- Causality: a run cut to its first n ticks (``duration_s`` shortened) is the
  full run's first n ticks. Its ``timeseries.csv`` is the full run's header
  and first n rows, and its events are the full run's events with
  ``tick < n``. Since no run can fault, nothing else shortens a run.
- Output flags: turning ``outputs.timeseries`` or ``outputs.summary`` off
  leaves every other file of the run byte-identical.

Each shipped file runs as shipped, which logs no event, and with a magnet
interval, which logs mode changes on both sides of the middle cut.
Runtime budget: under 2 s (about 1.5 s on a 2-core host).
"""

from functools import lru_cache

import pytest

from neuroloop.engine import run_scenario
from neuroloop.outputs import events_jsonl_text, timeseries_csv_text, write_run
from neuroloop.scenario import scenario_from_dict

from conftest import deep_merge, reference_raw

SHIPPED = ("ecap_scs", "adbs_parkinsons", "rns_epilepsy")
CUTS = (0.1, 0.37, 0.9)   # fractions of the run; the middle one is inside the magnet interval
FILES = {"timeseries": "timeseries.csv", "events": "events.jsonl", "summary": "summary.json"}


def edited(name: str, magnet: bool, **edit) -> dict:
    raw = reference_raw(name)
    if magnet:
        n = scenario_from_dict(raw).timebase.n_ticks
        raw["magnet"] = [{"start_tick": int(0.3 * n), "end_tick": int(0.45 * n)}]
    return deep_merge(raw, edit)


@lru_cache(maxsize=None)
def full_run(name: str, magnet: bool):
    return run_scenario(scenario_from_dict(edited(name, magnet)))


@pytest.mark.parametrize("magnet", [False, True], ids=["as-shipped", "magnet"])
@pytest.mark.parametrize("name", SHIPPED)
def test_a_cut_run_is_a_prefix_of_the_full_run(name, magnet):
    full = full_run(name, magnet)
    rows = timeseries_csv_text(full).splitlines(keepends=True)
    dt_s = full.scenario.timebase.dt_s
    assert (len(full.events) > 0) == magnet
    for frac in CUTS:
        n = int(frac * full.n_ticks)
        # floor((n + 0.5) * dt / dt) is n whatever the rounding of the product.
        cut = run_scenario(scenario_from_dict(
            edited(name, magnet, timebase={"duration_s": (n + 0.5) * dt_s})))
        assert cut.n_ticks == n
        assert timeseries_csv_text(cut) == "".join(rows[:n + 1]), (name, n)
        assert cut.events == [e for e in full.events if e.tick < n], (name, n)
        assert events_jsonl_text(cut) == "".join(
            events_jsonl_text(full).splitlines(keepends=True)[:len(cut.events)])


def written(result, out) -> dict:
    write_run(result, out)
    return {f.name: f.read_bytes() for f in out.iterdir() if f.name != "scenario.json"}


@pytest.mark.parametrize("off", ["timeseries", "summary"])
@pytest.mark.parametrize("name", SHIPPED)
def test_turning_an_output_off_leaves_the_others_unchanged(tmp_path, name, off):
    every = written(full_run(name, True), tmp_path / "every")
    some = written(run_scenario(scenario_from_dict(edited(name, True, outputs={off: False}))),
                   tmp_path / "some")
    assert set(every) == set(FILES.values())
    assert some == {fname: text for fname, text in every.items() if fname != FILES[off]}
