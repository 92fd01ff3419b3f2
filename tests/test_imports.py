"""Every name a module imports is used, every name perfbench patches
exists, and every dataclass and NamedTuple field is read.

Imports: package ``__init__`` modules are skipped, since their imports are
re-exports, and so are ``from __future__`` imports. A name counts as used
when it appears as a ``Name`` node, as the root of an attribute chain
(``np`` in ``np.array``), or inside a string annotation such as
``"Incident"``.

Patch targets: every attribute perfbench's tracer replaces through
``_patch`` exists in ``src/``.

Fields: every field declared in a ``src/pipegov`` dataclass or NamedTuple
class (``ObservationBundle``, ``ControlState``, the kernel reports) must be read
as an attribute (``x.field`` in a load context) somewhere in ``src/``,
``tests/`` or ``perfbench/``. The match is by name, not by type, and a
field read only through ``getattr`` or ``asdict`` does not count.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path
    for base in (ROOT / "src" / "pipegov", ROOT / "tests")
    for path in base.rglob("*.py")
    if path.name != "__init__.py"
)

# Fields kept although no code reads them, each with its reason.
UNREAD_FIELDS = {
    # The audit seq of the Allow or approval decision: the type carries it so
    # no action reaches apply_action without a decision to point at.
    ("ApprovedAction", "decision_ref"),
}


def _imported(tree: ast.Module) -> dict[str, int]:
    """Local name bound by each import statement -> its line."""

    names: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotation_strings(tree: ast.Module):
    """Every string used as (or inside) an annotation."""

    for node in ast.walk(tree):
        # ast.arg and ast.AnnAssign carry `annotation`, functions `returns`.
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if annotation is None:
                continue
            for sub in ast.walk(annotation):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    yield sub.value


def _used(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for text in _annotation_strings(tree):
        try:
            parsed = ast.parse(text, mode="eval")
        except SyntaxError:
            continue
        used.update(node.id for node in ast.walk(parsed) if isinstance(node, ast.Name))
    return used


def unused_imports(source: str) -> list[tuple[int, str]]:
    tree = ast.parse(source)
    used = _used(tree)
    return sorted((line, name) for name, line in _imported(tree).items() if name not in used)


@pytest.mark.parametrize(
    "source, expected",
    [
        ("from dataclasses import dataclass, field\n@dataclass\nclass A: pass\n", [(1, "field")]),
        ("import os.path\nos.path.join('a')\n", []),
        ("import numpy as np\n", [(1, "np")]),
        ("from x import T\ndef f(a: 'T') -> None: pass\n", []),
        ("from x import T\ny: 'list[T] | None' = None\n", []),
        ("from __future__ import annotations\n", []),
        ("def f():\n    from x import y\n    return 1\n", [(2, "y")]),
    ],
)
def test_scanner(source, expected):
    assert unused_imports(source) == expected


def test_no_unused_imports():
    scanned = {path.relative_to(ROOT).as_posix(): path for path in MODULES}
    assert "src/pipegov/agents/controller.py" in scanned
    assert "tests/test_imports.py" in scanned
    found = {name: unused_imports(path.read_text()) for name, path in scanned.items()}
    assert {name: unused for name, unused in found.items() if unused} == {}


def _is_dataclass(decorator: ast.expr) -> bool:
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    if isinstance(decorator, ast.Attribute):
        return decorator.attr == "dataclass"
    return isinstance(decorator, ast.Name) and decorator.id == "dataclass"


def _is_named_tuple(base: ast.expr) -> bool:
    if isinstance(base, ast.Attribute):  # typing.NamedTuple
        return base.attr == "NamedTuple"
    return isinstance(base, ast.Name) and base.id == "NamedTuple"


def dataclass_fields(source: str) -> list[tuple[str, str]]:
    """(class, field) for every annotated field of every dataclass or NamedTuple."""

    return [
        (node.name, stmt.target.id)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
        and (any(map(_is_dataclass, node.decorator_list)) or any(map(_is_named_tuple, node.bases)))
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    ]


def attribute_reads(source: str) -> set[str]:
    return {
        node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_field_scanner():
    source = (
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\nclass A:\n    x: int\n    y: int = 0\n"
        "class B:\n    z: int\n"
        "class C(NamedTuple):\n    w: int\n"
        "class D(typing.NamedTuple):\n    v: int\n"
        "def f(a):\n    a.y = 1\n    return a.x\n"
    )
    assert dataclass_fields(source) == [("A", "x"), ("A", "y"), ("C", "w"), ("D", "v")]
    assert attribute_reads(source) == {"NamedTuple", "x"}


def test_every_dataclass_field_is_read():
    reads: set[str] = set()
    for base in ("src", "tests", "perfbench"):
        for path in (ROOT / base).rglob("*.py"):
            reads |= attribute_reads(path.read_text())
    declared = [
        (path.relative_to(ROOT).as_posix(), *field)
        for path in sorted((ROOT / "src" / "pipegov").rglob("*.py"))
        for field in dataclass_fields(path.read_text())
    ]
    assert ("src/pipegov/simkernel/world.py", "SimWorld", "pending_failures") in declared
    assert ("src/pipegov/simkernel/world.py", "PipelineSample", "ingress") in declared
    assert ("src/pipegov/agents/bundle.py", "ObservationBundle", "observed") in declared
    assert ("src/pipegov/agents/bundle.py", "ControlState", "observations") in declared
    unread = [
        (where, cls, name)
        for where, cls, name in declared
        if name not in reads and (cls, name) not in UNREAD_FIELDS
    ]
    assert unread == []


# The package layers, lowest first: each package may import only those
# listed for it. Audit replay needs the policy engine and the operator
# model, so it lives in ``harness``, not in ``telemetry``.
_BASE = {"core", "policy", "simkernel", "telemetry"}
LAYERS = {
    "core": set(),
    "policy": {"core"},
    "simkernel": {"core"},
    "telemetry": {"core"},
    "scenario": _BASE,
    "agents": _BASE | {"scenario"},
    "harness": _BASE | {"scenario", "agents"},
    "cli": _BASE | {"scenario", "agents", "harness"},
}


def imported_packages(source: str, module: str) -> set[str]:
    """The ``pipegov`` packages a module imports; ``module`` is its dotted
    name, with ``__init__`` kept so relative imports resolve."""

    package = module.split(".")[:-1]
    found: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            targets = [alias.name.split(".") for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            target = base + (node.module.split(".") if node.module else [])
            targets = [target + [alias.name] for alias in node.names] if not node.module else [target]
        else:
            continue
        found.update(t[1] for t in targets if len(t) > 1 and t[0] == "pipegov")
    return found


@pytest.mark.parametrize(
    "source, module, expected",
    [
        ("from ..agents.controller import OperatorModel\n", "pipegov.harness.replay", {"agents"}),
        ("from .baseline import X\n", "pipegov.harness.__init__", {"harness"}),
        ("from .harness.runner import run\n", "pipegov.cli", {"harness"}),
        ("from pipegov.core.actions import Actor\nimport json\n", "pipegov.telemetry.audit", {"core"}),
        ("import pipegov.policy.engine\n", "pipegov.agents.bundle", {"policy"}),
        ("from .. import telemetry\n", "pipegov.harness.replay", {"telemetry"}),
    ],
)
def test_import_resolver(source, module, expected):
    assert imported_packages(source, module) == expected


def test_packages_import_only_lower_layers():
    src = ROOT / "src"
    graph: dict[str, set[str]] = {}
    for path in sorted((src / "pipegov").rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        if parts[1] == "__init__":
            continue  # the package docstring only
        layer = parts[1]
        graph.setdefault(layer, set()).update(
            imported_packages(path.read_text(), ".".join(parts)) - {layer}
        )
    assert set(graph) == set(LAYERS)
    assert "agents" in graph["harness"]  # the resolver sees relative imports
    upward = {layer: sorted(used - LAYERS[layer]) for layer, used in graph.items()}
    assert {layer: used for layer, used in upward.items() if used} == {}


def patch_targets(source: str) -> set[tuple[str, str]]:
    """(owner expression, attribute) for every ``self._patch(owner, attr, ...)``
    call; an attribute named by a ``for`` variable yields each string the loop
    runs over."""

    tree = ast.parse(source)
    loops: dict[str, tuple[str, ...]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.For) and isinstance(node.target, ast.Name):
            if isinstance(node.iter, (ast.Tuple, ast.List)):
                loops[node.target.id] = tuple(e.value for e in node.iter.elts)
    found: set[tuple[str, str]] = set()
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "_patch"
        ):
            continue
        owner, attr = node.args[0], node.args[1]
        names = (attr.value,) if isinstance(attr, ast.Constant) else loops[attr.id]
        found.update((ast.unparse(owner), name) for name in names)
    return found


def test_patch_target_scanner():
    source = (
        "self._patch(cli, 'run', w)\n"
        "self._patch(metrics.MetricStore, \"record_sample\", w)\n"
        "for attr in ('a', 'b'):\n    self._patch(cli, attr, w)\n"
        "setattr(cli, 'ignored', w)\n"
    )
    assert patch_targets(source) == {
        ("cli", "run"),
        ("metrics.MetricStore", "record_sample"),
        ("cli", "a"),
        ("cli", "b"),
    }


def test_tracer_patch_targets_exist():
    """Every name perfbench's tracer patches exists in ``src/``: a missing one
    fails each benchmark sample with AttributeError at install time."""

    tracer = ROOT / "perfbench" / "tracer.py"
    tree = ast.parse(tracer.read_text())
    modules = {
        alias.asname or alias.name: f"{node.module}.{alias.name}"
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module and node.module.startswith("pipegov")
        for alias in node.names
    }
    targets = patch_targets(tracer.read_text())
    assert ("baseline", "step") in targets
    assert ("cli", "emit_aggregate_report") in targets
    assert ("controller.Controller", "tick") in targets
    missing = []
    for owner, attr in sorted(targets):
        root, *path = owner.split(".")
        held = importlib.import_module(modules[root])
        for part in path:
            held = getattr(held, part)
        if not hasattr(held, attr):
            missing.append(f"{owner}.{attr}")
    assert missing == []
