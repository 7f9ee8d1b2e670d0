"""Golden outputs: the reference scenarios render byte for byte as pinned.

The sha256 digests of ``timeseries.csv``, ``events.jsonl`` and
``summary.json`` are read from ``perfbench/digests.json``, the one pinned
copy, and compared with fresh runs of the first two pinned seeds of each
reference scenario. A refactor that changes any output byte fails here.
"""

import hashlib
import json
from pathlib import Path

import pytest

from neuroloop.engine import run_scenario
from neuroloop.outputs import events_jsonl_text, summary_json_text, timeseries_csv_text
from neuroloop.scenario import scenario_from_dict

from conftest import reference_raw

DIGESTS = Path(__file__).resolve().parent.parent / "perfbench" / "digests.json"

CASES = [
    ("sweep_rns", "rns_epilepsy", 11181923),
    ("sweep_rns", "rns_epilepsy", 11181924),
    ("sweep_adbs", "adbs_parkinsons", 42424242),
    ("sweep_adbs", "adbs_parkinsons", 42424243),
    ("run_replay_ecap", "ecap_scs", 20260808),
    ("run_replay_ecap", "ecap_scs", 20260809),
]

RENDERERS = {
    "timeseries.csv": timeseries_csv_text,
    "events.jsonl": events_jsonl_text,
    "summary.json": summary_json_text,
}


@pytest.mark.parametrize("workload,name,seed", CASES)
def test_reference_outputs_match_pinned_digests(workload, name, seed):
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))[workload][str(seed)]
    result = run_scenario(scenario_from_dict(reference_raw(name)).with_seed(seed))
    for fname, render in RENDERERS.items():
        digest = hashlib.sha256(render(result).encode("utf-8")).hexdigest()
        assert digest == pinned[fname], fname
