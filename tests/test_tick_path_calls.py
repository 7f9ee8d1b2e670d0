"""Cost guard: the per-lane tick path keeps out interpreter glue.

Every lane runs these functions on every tick. A two-argument builtin
``min`` or ``max`` costs about 200-250 ns in CPython 3.11, several times the
comparison that replaces it, and ``round(x, 9)`` converts through a decimal
string; so ``round`` stays only on ``plant._floor_to_step``'s fallback line.
``safety.supervisor_step`` builds no closure per call, ``engine._Lane``
reads plain attributes instead of properties, and the tick loop of
``engine._run_lanes`` scans no lanes with a generator or ``any``. A run
cannot fault, so neither ``_Lane.step`` nor the tick loop has a ``try``:
no per-lane abort path comes back.
The source is parsed with ``ast``, nothing is imported.
Runtime budget: well under 0.1 s.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "neuroloop"
TICK_PATH = {
    "safety": ("clamp_and_slew",),
    "plant": ("_floor_to_step", "actuator_apply", "ecap_true"),
    "control": ("single_threshold_step", "dual_threshold_step", "proportional_step",
                "ecap_setpoint_step"),
}


def tick_path_functions() -> dict:
    """Each listed function's ``ast`` node, by ``module.name``."""
    found = {}
    for module, names in TICK_PATH.items():
        tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
        defined = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
        for name in names:
            found[f"{module}.{name}"] = defined.get(name)
    missing = [where for where, node in found.items() if node is None]
    assert missing == [], f"no such top-level function: {missing}"
    return found


def calls(node: ast.AST, builtin: str) -> list:
    return [
        c for c in ast.walk(node)
        if isinstance(c, ast.Call) and isinstance(c.func, ast.Name) and c.func.id == builtin
    ]


def test_dose_stages_call_no_builtin_min_or_max():
    found = [
        f"{where}:{c.lineno} {builtin}()"
        for where, node in tick_path_functions().items()
        for builtin in ("min", "max")
        for c in calls(node, builtin)
    ]
    assert found == [], f"use a comparison, which keeps min/max semantics: {found}"


def test_round_is_called_only_on_the_floor_fallback_line():
    functions = tick_path_functions()
    fallback = functions["plant._floor_to_step"].body[-1]
    assert isinstance(fallback, ast.Return)
    rounds = [c for node in functions.values() for c in calls(node, "round")]
    assert len(rounds) == 1 and rounds == calls(fallback, "round"), [
        c.lineno for c in rounds]


def top_level(module: str, name: str) -> ast.AST:
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    return next(node for node in tree.body if getattr(node, "name", None) == name)


def test_supervisor_step_builds_no_closure():
    fn = top_level("safety", "supervisor_step")
    nested = [node.lineno for node in ast.walk(fn) if node is not fn
              and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))]
    assert nested == [], f"a nested function or lambda is built on every call: {nested}"


def test_lane_defines_no_property():
    lane = top_level("engine", "_Lane")
    found = [node.lineno for node in ast.walk(lane)
             if isinstance(node, ast.Name) and node.id == "property"]
    assert found == [], f"cache it as an attribute: {found}"


def tick_loop() -> ast.For:
    run = top_level("engine", "_run_lanes")
    loops = [node for node in ast.walk(run) if isinstance(node, ast.For)
             and isinstance(node.target, ast.Name) and node.target.id == "t"]
    assert len(loops) == 1
    return loops[0]


def test_tick_loop_scans_no_lanes_with_a_generator_or_any():
    loop = tick_loop()
    found = [c.lineno for c in ast.walk(loop) if isinstance(c, ast.GeneratorExp)]
    found += [c.lineno for c in calls(loop, "any")]
    assert found == [], f"a per-tick scan of the lanes: {found}"


def test_lane_step_and_tick_loop_catch_nothing():
    step = next(node for node in top_level("engine", "_Lane").body
                if isinstance(node, ast.FunctionDef) and node.name == "step")
    tries = (ast.Try, getattr(ast, "TryStar", ast.Try))
    found = [node.lineno for part in (step, tick_loop()) for node in ast.walk(part)
             if isinstance(node, tries)]
    assert found == [], f"a stage error caught on the tick path: {found}"
