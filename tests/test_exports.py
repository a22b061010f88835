"""Every name a module exports resolves, so deleting a function while
leaving its ``__all__`` entry fails the suite; and every exported name has
a user outside the tests, so an export kept alive only by its own tests
fails it too."""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import ghcrypt

MODULES = ["ghcrypt"] + sorted(
    f"ghcrypt.{info.name}" for info in pkgutil.iter_modules(ghcrypt.__path__))

PERFBENCH = Path(__file__).parents[1] / "perfbench"

# exports kept with no user in the package or the benchmark
ALLOWED = {
    # the reference evaluation in H that the encrypted-input protocol is
    # tested against
    "eval_group_circuit",
    # the product of the image group, against which the homomorphism of
    # phi_map is tested (acceptance test 06)
    "k_multiply",
}


def test_one_comment_rule():
    # comments are stripped by errors.records for every artifact; the
    # circuit DSL keeps its own rule, which reports error columns
    src = Path(ghcrypt.__file__).parent
    strippers = {p.name for p in src.glob("*.py") if 'split("#"' in p.read_text()}
    assert strippers <= {"circuit.py", "errors.py"}, strippers


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    module = importlib.import_module(name)
    exports = getattr(module, "__all__", [])
    missing = [export for export in exports if not hasattr(module, export)]
    assert not missing, f"{name}.__all__ names undefined {missing}"


def _references(module, imports: bool) -> set[str]:
    """Names a module reads: loaded names and attributes, plus the names it
    imports from other modules when ``imports`` is set.  Definitions,
    assignments and the strings of ``__all__`` do not count."""
    found = set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif imports and isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def test_every_export_has_a_user():
    # the package __init__ only re-exports, so it neither is checked nor
    # counts as a user
    modules = [importlib.import_module(name) for name in MODULES[1:]]
    perfbench = "\n".join(p.read_text() for p in sorted(PERFBENCH.glob("*.py")))
    unused = []
    for module in modules:
        own = _references(module, imports=False)
        others = set().union(*(_references(m, imports=True)
                               for m in modules if m is not module))
        for export in getattr(module, "__all__", []):
            if (export in own or export in others or export in ALLOWED
                    or re.search(rf"\b{export}\b", perfbench)):
                continue
            unused.append(f"{module.__name__}.{export}")
    assert not unused, f"exports used only by tests: {unused}"
