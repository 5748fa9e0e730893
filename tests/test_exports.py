"""Every public name the package advertises resolves."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import gkexpand

MODULES = sorted(m.name for m in pkgutil.iter_modules(gkexpand.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"gkexpand.{name}")
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert missing == []


def test_package_reexports_resolve():
    # each name gkexpand re-exports is one its module publishes
    tree = ast.parse(Path(gkexpand.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    stale = []
    for node in imports:
        module = importlib.import_module(f"gkexpand.{node.module}")
        public = getattr(module, "__all__", None)
        for alias in node.names:
            if not hasattr(gkexpand, alias.asname or alias.name) or (
                public is not None and alias.name not in public
            ):
                stale.append(f"{node.module}.{alias.name}")
    assert stale == []


def test_readme_library_sketch_runs():
    # the README's library sketch names only functions that exist
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    section = text[text.index("\n## Library sketch\n"):]
    start = section.index("```python\n") + len("```python\n")
    code = section[start:section.index("\n```", start)]
    assert "import gkexpand" in code
    exec(compile(code, f"{readme}:Library sketch", "exec"), {})
