"""Cost guard: a stopped lane does no amplitude arithmetic.

Responsive stimulation is off between detections, so almost every tick of
``scenarios/rns_epilepsy.json`` commands 0 mA, a stop. ``clamp_and_slew``
still runs on every tick, but ``_Lane.step`` calls ``actuator_apply`` only
for a nonzero legal amplitude (plus once when the lane is built), and
``charge_per_tick`` and ``teed_rate`` only for a nonzero delivered one.
Each skip is exact: 0 mA is 0.0 after the actuator and adds +0.0 charge
and +0.0 energy. The stages are counted through the names ``engine`` calls.
Runtime budget (2-core host): under 0.5 s.
"""

from collections import Counter

import numpy as np

import neuroloop.engine as engine
from neuroloop.engine import run_scenario
from neuroloop.scenario import scenario_from_dict

from conftest import reference_raw

COUNTED = ("clamp_and_slew", "actuator_apply", "charge_per_tick", "teed_rate")


def test_a_stopped_tick_skips_the_actuator_charge_and_energy(monkeypatch):
    calls = Counter()

    def counting(name):
        stage = getattr(engine, name)

        def counted(*args):
            calls[name] += 1
            return stage(*args)
        return counted

    for name in COUNTED:
        monkeypatch.setattr(engine, name, counting(name))
    result = run_scenario(scenario_from_dict(reference_raw("rns_epilepsy")))
    delivering = np.count_nonzero(result.delivered_mA)
    assert result.n_ticks == 3840 and delivering == 24
    assert calls == {"clamp_and_slew": 3840, "actuator_apply": 1 + delivering,
                     "charge_per_tick": delivering, "teed_rate": delivering}
