"""Kind guard: each kind is declared once, in the module that runs it.

``features`` declares the detection-feature, threshold-mode and combinator
names (``FEATURES``, ``THRESHOLD_MODES``, ``COMBINATORS``); every other
module reads those tables. A disturbance kind states its ``effect`` and a
dose-response curve its ``value``, so no code tells them apart by class.
Parses ``src/neuroloop/*.py`` and fails on:

- an ``==``, ``!=``, ``in`` or ``not in`` outside ``features.py`` with one of
  the declared names as an operand (alone, or in a tuple, list or set);
- an ``isinstance`` call anywhere whose class argument names a disturbance
  or curve class of ``plant``.

It also checks that the disturbance effects the classes state are the ones
the plant kinds model. Runtime budget: well under 0.5 s.
"""

import ast
import inspect
from pathlib import Path

from neuroloop import plant
from neuroloop.features import COMBINATORS, FEATURES, THRESHOLD_MODES
from neuroloop.scenario import DISTURBANCES, PLANTS

SRC = Path(__file__).resolve().parent.parent / "src" / "neuroloop"
NAMES = frozenset(FEATURES) | frozenset(THRESHOLD_MODES) | frozenset(COMBINATORS)
# The classes of ``plant`` that state a disturbance effect or a curve's value.
KIND_CLASSES = frozenset(
    name for name, cls in vars(plant).items()
    if inspect.isclass(cls) and cls.__module__ == plant.__name__
    and (hasattr(cls, "effect") or hasattr(cls, "value"))
)
COMPARISONS = (ast.Eq, ast.NotEq, ast.In, ast.NotIn)


def compared_names(tree: ast.AST):
    """(line, name) of each declared name an equality or membership test compares against."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Compare) and any(isinstance(op, COMPARISONS)
                                                      for op in node.ops)):
            continue
        for operand in [node.left, *node.comparators]:
            literal = isinstance(operand, (ast.Tuple, ast.List, ast.Set))
            for item in operand.elts if literal else [operand]:
                if isinstance(item, ast.Constant) and item.value in NAMES:
                    yield node.lineno, item.value


def isinstance_kinds(tree: ast.AST):
    """(line, class name) of each disturbance or curve class an ``isinstance`` call names."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            for name in ast.walk(node.args[1]):
                if isinstance(name, (ast.Name, ast.Attribute)):
                    spelled = name.id if isinstance(name, ast.Name) else name.attr
                    if spelled in KIND_CLASSES:
                        yield node.lineno, spelled


def parsed():
    for path in sorted(SRC.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_the_guard_knows_every_kind():
    assert NAMES == {"line_length", "area", "half_wave", "adaptive", "fixed", "OR", "AND"}
    assert KIND_CLASSES == {"PostureStep", "CoughTransient", "CircadianSine", "CardiacArtifact",
                            "OffsetGain", "NoisyNonMonotonic", "BetaSuppression"}


def test_the_guard_flags_what_it_forbids():
    tree = ast.parse("a == 'OR'\n'half_wave' != b\nc in ('line_length', 'x')\n"
                     "d not in {'fixed'}\nisinstance(s, (plant.PostureStep, int))\n"
                     "isinstance(c, OffsetGain)\n")
    assert list(compared_names(tree)) == [(1, "OR"), (2, "half_wave"), (3, "line_length"),
                                          (4, "fixed")]
    assert list(isinstance_kinds(tree)) == [(5, "PostureStep"), (6, "OffsetGain")]


def test_kind_names_are_compared_only_in_features():
    found = [f"{name}:{line} compares against {value!r}"
             for name, tree in parsed() if name != "features.py"
             for line, value in compared_names(tree)]
    assert found == [], "dispatch on features.FEATURES, THRESHOLD_MODES or COMBINATORS"


def test_no_isinstance_on_disturbance_or_curve_classes():
    found = [f"{name}:{line} isinstance on {cls}"
             for name, tree in parsed() for line, cls in isinstance_kinds(tree)]
    assert found == [], "read the kind's effect or value instead"


def test_every_disturbance_effect_is_modelled_by_a_plant_kind():
    # A misspelt effect, on a disturbance class or in a plant kind's EFFECTS,
    # would make every disturbance with that effect a finding.
    effects = {plan[0].effect for plan in DISTURBANCES.values()}
    modelled = set().union(*(spec.EFFECTS for spec in PLANTS.values()))
    assert effects == modelled == {"distance", "circadian", "cardiac"}
