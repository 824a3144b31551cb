"""Every name a module under ``src/repro`` imports is used there.

An import binds a name; the name is used when the module's AST reads it
(a ``Name`` node — ``from __future__ import annotations`` keeps
annotations as nodes, so a name used only in an annotation counts), or
when a string annotation (``"ContentNode"``) or ``__all__`` names it.
A package ``__init__`` re-exports what it imports, and an import under
``if TYPE_CHECKING:`` exists for annotations only; both count as used.
No linter is installed, so this walk is the check.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _annotation_strings(tree):
    """Names read by string annotations anywhere in ``tree``."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations.append(node.returns)
            annotations += [
                arg.annotation
                for arg in (
                    *args.posonlyargs, *args.args, *args.kwonlyargs,
                    args.vararg, args.kwarg,
                )
                if arg is not None
            ]
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    names = set()
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                names |= {
                    n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)
                }
    return names


def _type_checking_imports(tree):
    """Import nodes under an ``if TYPE_CHECKING:`` block."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and (
            getattr(node.test, "id", None) == "TYPE_CHECKING"
            or getattr(node.test, "attr", None) == "TYPE_CHECKING"
        ):
            found |= {
                id(sub) for sub in ast.walk(node)
                if isinstance(sub, (ast.Import, ast.ImportFrom))
            }
    return found


def unused_imports(source):
    """``[(line, name)]`` of the names ``source`` imports and never uses."""
    tree = ast.parse(source)
    skip = _type_checking_imports(tree)
    imported = {}
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _annotation_strings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) == "__all__" for target in node.targets
        ):
            used |= {
                c.value for c in ast.walk(node.value)
                if isinstance(c, ast.Constant) and isinstance(c.value, str)
            }
    return sorted(
        (line, name) for name, line in imported.items() if name not in used
    )


def test_no_module_imports_a_name_it_does_not_use():
    unused = [
        f"{path.relative_to(SRC).as_posix()}:{line}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py"
        for line, name in unused_imports(path.read_text())
    ]
    assert not unused, "unused imports: " + ", ".join(unused)


class TestScan:
    """The scan on synthetic modules."""

    def test_an_unused_import_is_flagged(self):
        source = "import bisect\nfrom typing import Dict, List\nx: List[int] = []\n"
        assert unused_imports(source) == [(1, "bisect"), (2, "Dict")]

    def test_a_string_annotation_uses_a_name(self):
        source = (
            "from .tree import ContentNode\n"
            "def parent(node) -> 'Optional[ContentNode]':\n"
            "    return node\n"
        )
        assert unused_imports(source) == []

    def test_all_and_type_checking_count_as_used(self):
        source = (
            "from typing import TYPE_CHECKING\n"
            "from .a import exported\n"
            "if TYPE_CHECKING:\n"
            "    from .b import OnlyForTypes\n"
            "__all__ = ['exported']\n"
        )
        assert unused_imports(source) == []

    def test_a_dotted_import_binds_its_root(self):
        assert unused_imports("import os.path\nos.getcwd()\n") == []
        assert unused_imports("import os.path as p\n") == [(1, "p")]
