"""Cost guard: the per-lane dose stages call no builtin ``min``, ``max`` or ``round``.

Every lane runs these functions on every tick. A two-argument builtin
``min`` or ``max`` costs about 200-250 ns in CPython 3.11, several times the
comparison that replaces it, and ``round(x, 9)`` converts through a decimal
string; so ``round`` stays only on ``plant._floor_to_step``'s fallback line.
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
