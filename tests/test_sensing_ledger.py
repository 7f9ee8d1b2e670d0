"""Sensing ledger: no sensing stage can fault a built scenario.

The engine aborts a lane only when one of ``_Lane.step``'s own stages raises;
an error raised while sensing propagates. That holds because every raise of a
``SimulationError`` the sensing objects can reach is excluded by a check that
runs while the scenario is built, for every built scenario (not only an ok
one), or can be reached by no configuration at all.

This guard parses ``engine``, ``plant``, ``features``, ``scenario`` and
``core``, follows every call from the methods of the sensing classes (by spelling: a
call ``x.name(...)`` reaches every function or method called ``name``, a call
of a class its ``__init__`` and ``__post_init__``), and collects each
``raise`` of a ``SimulationError`` subclass in what it reaches. The set must
equal ``LEDGER``, whose rows each say why the site cannot fire once a
scenario is built; a row with a construction check builds the configuration
that check rejects, once. A new raise on the sensing path fails here until
its row says why it cannot fault a run.
Runtime budget: well under 0.5 s.
"""

import ast
import importlib
from pathlib import Path

import pytest

from neuroloop.core import SimulationError
from neuroloop.features import FEATURES, HalfWaveConfig
from neuroloop.plant import (
    BetaPlantConfig,
    BetaSuppression,
    CoughTransient,
    DisturbanceTrack,
    EcapPlantParams,
    IeegPlantConfig,
    PostureStep,
    SeizureGenState,
)
from neuroloop.scenario import BetaPlantSpec, EcapPlantSpec, IeegPlantSpec, ToolSpec

SRC = Path(__file__).resolve().parent.parent / "src" / "neuroloop"
MODULES = ("engine", "plant", "features", "scenario", "core")
SENSING = ("_Sensing", "EcapSensing", "BetaSensing", "IeegSensing")
# ``tool_feature`` calls the feature a tool names through ``globals()``.
DISPATCHED = tuple(feature.function for feature in FEATURES.values())


def seizures(**fields):
    return SeizureGenState(**{"rate_per_hour": 1.0, "base_duration_ticks": 4,
                              "suppression_prob": 0.5, "response_window_ticks": 2, **fields})


def ieeg_cfg(frame_len: int) -> IeegPlantConfig:
    return IeegPlantConfig(256.0, frame_len, background_sd_uV=1.0, ictal_amplitude_uV=1.0,
                           ictal_hz=10.0)


def beta_spec(band_lo_hz: float) -> BetaPlantSpec:
    cfg = BetaPlantConfig(256.0, 64, beta_hz=20.0, curve=BetaSuppression(1.0, 0.5, 2.0, 0.5))
    return BetaPlantSpec(cfg, band_lo_hz=band_lo_hz)


def ecap_distances(segment, **params) -> None:
    """The distances of a 4 mm ecap plant with one disturbance ``segment``."""
    p = EcapPlantParams(**{"slope_uV_per_mA_at_ref": 0.5, "threshold_mA_at_ref": 3.0,
                           "distance_ref_mm": 4.0, **params})
    EcapPlantSpec(p, base_distance_mm=4.0, track=DisturbanceTrack((segment,))).distances(8)


ENSURED = "EcapPlantSpec.check makes it a finding, and EcapSensing.__init__ raises it for a " \
          "scenario built with that finding, before the first tick and outside any lane"
COPIED = "seizure_step copies the fields of the state this check passed when it was built"
FRAME = "_FrameConfig.__post_init__ requires frame_len >= 2"
# (function, exception, the message's first literal text) -> (why it cannot
# fire once a scenario is built, a configuration its check rejects or None).
LEDGER = {
    ("plant.EcapPlantParams.validate_over_range", "InvalidPlantError", "distance range ["): (
        ENSURED, lambda: ecap_distances(CoughTransient(0, 1e308, 2, 1))),
    ("plant.EcapPlantParams.validate_over_range", "InvalidPlantError",
     "recruitment slope is nonpositive at distance "): (
        ENSURED, lambda: ecap_distances(PostureStep(0, 2.0), slope_distance_coeff=-1.0)),
    ("plant.EcapPlantParams.validate_over_range", "InvalidPlantError",
     "activation threshold is negative at distance "): (
        ENSURED, lambda: ecap_distances(PostureStep(0, -4.0), threshold_distance_coeff=1.0)),
    ("plant.dose_response_eval", "DomainError", "amplitude must be nonnegative, got "): (
        "its one caller, BetaTickTable.envelope, gets lane amplitudes, which actuator_apply "
        "floors at 0.0", None),
    ("plant.NoisyNonMonotonic.value", "DomainError",
     "NoisyNonMonotonic with noise_sd > 0 needs an rng"): (
        "reached by spelling only: a beta plant's curve is read as a BetaSuppression", None),
    ("plant.SeizureGenState.__post_init__", "ConfigurationError",
     "suppression_prob must be in [0, 1]"): (COPIED, lambda: seizures(suppression_prob=2.0)),
    ("plant.SeizureGenState.__post_init__", "ConfigurationError",
     "base_duration_ticks must be positive"): (COPIED, lambda: seizures(base_duration_ticks=0)),
    ("plant.SeizureGenState.__post_init__", "ConfigurationError",
     "response_window_ticks must be positive"): (
        COPIED, lambda: seizures(response_window_ticks=0)),
    ("plant.SeizureGenState.__post_init__", "ConfigurationError",
     "rate_per_hour must be nonnegative"): (COPIED, lambda: seizures(rate_per_hour=-1.0)),
    ("features.check_band", "DomainError", "band ["): (
        "BetaPlantSpec.__post_init__ runs check_band on the band and frame band_power reads",
        lambda: beta_spec(band_lo_hz=0.0)),
    ("features.check_band", "InsufficientDataError", "window of "): (
        "BetaPlantSpec.__post_init__, as above", lambda: beta_spec(band_lo_hz=2.0)),
    ("features.half_wave_count", "InsufficientDataError",
     "half_wave_count needs at least 3 samples"): (
        "IeegPlantSpec.__post_init__ requires each tool feature's min_frame_len (3 here)",
        lambda: IeegPlantSpec(ieeg_cfg(2), seizures(), tools=(
            ToolSpec("half_wave", "fixed", half_wave=HalfWaveConfig(1.0, 1, 2)),))),
    ("features.signal_quality", "InsufficientDataError",
     "signal_quality needs a nonempty window"): (FRAME, lambda: ieeg_cfg(0)),
    ("features.line_length", "InsufficientDataError", "line_length needs at least 2 samples"): (
        FRAME, lambda: ieeg_cfg(1)),
    ("features.area_under_curve", "InsufficientDataError",
     "area_under_curve needs at least 1 sample"): (FRAME, lambda: ieeg_cfg(0)),
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


def sensing_raises():
    """Each (function, exception, message head) of a SimulationError raise that
    the sensing classes reach."""
    functions, classes = definitions()
    namespace = {}
    for module in MODULES:
        namespace.update(vars(importlib.import_module(f"neuroloop.{module}")))
    todo = [(q, node) for name in SENSING for q, node in
            ((f"engine.{name}.{item.name}", item) for item in classes[name].body
             if isinstance(item, ast.FunctionDef))]
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
        for raise_ in ast.walk(node):
            if isinstance(raise_, ast.Raise) and isinstance(raise_.exc, ast.Call):
                cls = namespace.get(getattr(raise_.exc.func, "id", None))
                if isinstance(cls, type) and issubclass(cls, SimulationError):
                    sites.add((qualname, cls.__name__, message_head(raise_.exc)))
    return sites


def test_every_sensing_raise_is_in_the_ledger():
    assert sorted(sensing_raises()) == sorted(LEDGER)


@pytest.mark.parametrize("site", [site for site, (_, build) in LEDGER.items() if build],
                         ids=lambda site: f"{site[0]}:{site[2]}")
def test_each_construction_check_rejects_its_configuration(site):
    with pytest.raises(SimulationError):
        LEDGER[site][1]()
