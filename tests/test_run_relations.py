"""Relations between runs of one scenario: causality and output independence.

- Causality: a run cut to its first n ticks (``duration_s`` shortened) is the
  full run's first n ticks. Its ``timeseries.csv`` is the full run's header
  and first n rows, and its events are the full run's events with
  ``tick < n``. Since no run can fault, nothing else shortens a run.
- Magnet causality: a magnet interval that starts at tick t leaves the
  ``timeseries.csv`` rows and the events before t byte-identical.
- Output flags: turning ``outputs.timeseries`` or ``outputs.summary`` off
  leaves every other file of the run byte-identical.
- Seed shift: lane k of ``sweep`` from base seed s is lane 0 of ``sweep``
  from s + k.

Each shipped file runs as shipped, which logs no event, and with a magnet
interval, which logs mode changes on both sides of the middle cut. The
nine magnet, end-of-service and DC-leak variants of
``tests/test_trust_paths.py``, the only runs that reach a stop, are cut
three ticks into their first stop, and take a magnet from two ticks before
it (from the middle of the run when the stop starts at tick 0).
Runtime budget: under 4.5 s (about 3.5 s on a 2-core host).
"""

from functools import lru_cache

import pytest

from neuroloop.engine import run_scenario, sweep
from neuroloop.metrics import STOP_MODES
from neuroloop.outputs import events_jsonl_text, timeseries_csv_text, write_run
from neuroloop.safety import MODE_SUSPENDED_MAGNET
from neuroloop.scenario import scenario_from_dict

from conftest import deep_merge, reference_raw
from test_trust_paths import digests, variant_raw

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


@pytest.mark.parametrize("at", ["1", "n/3", "n/2", "n-1"])
@pytest.mark.parametrize("name", SHIPPED)
def test_a_magnet_changes_nothing_before_it_starts(name, at):
    # Budget: under 1 s for the 12 cases.
    shipped = full_run(name, False)
    n = shipped.n_ticks
    t = {"1": 1, "n/3": n // 3, "n/2": n // 2, "n-1": n - 1}[at]
    raw = reference_raw(name)
    raw["magnet"] = [{"start_tick": t, "end_tick": n}]
    magnet = run_scenario(scenario_from_dict(raw))
    assert magnet.mode[t] == MODE_SUSPENDED_MAGNET   # the magnet takes effect at t
    rows = timeseries_csv_text(magnet).splitlines(keepends=True)
    assert rows[:t + 1] == timeseries_csv_text(shipped).splitlines(keepends=True)[:t + 1]
    assert [e for e in magnet.events if e.tick < t] == [e for e in shipped.events if e.tick < t]


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


STOP_VARIANTS = [(kind, path) for kind in ("ecap", "beta", "ieeg")
                 for path in ("magnet", "eos", "dc_leak")]


@pytest.mark.parametrize("kind, path", STOP_VARIANTS)
def test_stop_variants_are_causal(kind, path):
    # Budget: under 0.5 s for the 9 cases.
    raw = variant_raw(kind, path)
    full = run_scenario(scenario_from_dict(raw))
    stop = next(t for t, mode in enumerate(full.mode) if mode in STOP_MODES)
    n = stop + 3
    dt_s = full.scenario.timebase.dt_s
    cut = run_scenario(scenario_from_dict(
        deep_merge(raw, {"timebase": {"duration_s": (n + 0.5) * dt_s}})))
    assert cut.n_ticks == n
    assert timeseries_csv_text(cut) == "".join(
        timeseries_csv_text(full).splitlines(keepends=True)[:n + 1])
    assert cut.events == [e for e in full.events if e.tick < n]
    t = stop - 2 if stop >= 2 else full.n_ticks // 2
    magnet = run_scenario(scenario_from_dict(
        {**raw, "magnet": raw.get("magnet", []) + [{"start_tick": t, "end_tick": full.n_ticks}]}))
    assert magnet.mode[t] in STOP_MODES
    rows = timeseries_csv_text(magnet).splitlines(keepends=True)
    assert rows[:t + 1] == timeseries_csv_text(full).splitlines(keepends=True)[:t + 1]
    assert [e for e in magnet.events if e.tick < t] == [e for e in full.events if e.tick < t]


@pytest.mark.parametrize("name", SHIPPED)
def test_lane_k_from_seed_s_is_lane_0_from_s_plus_k(name):
    # Budget: under 1 s for the 3 files.
    scenario = scenario_from_dict(reference_raw(name))
    shifted = sweep(scenario.with_seed(scenario.seed + 1), 2)
    assert shifted[0].scenario.seed == scenario.seed + 1
    assert digests(sweep(scenario, 2)[1]) == digests(shifted[0])
