"""Only what runs: every public name in the serving layers has a caller.

A public class or module-level function in ``streaming/``, ``control/``
or ``catalog/`` must be named by some non-test module — ``src/``,
``bench/``, ``examples/`` or ``benchmarks/``. Tests alone do not keep a
name alive. A reference inside the name's own definition does not
count, and neither does an ``__init__`` re-export (an import is not a
use). The walk runs to a fixpoint, so a name reached only from inside
other unreached names is unreached too.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
CHECKED = ("streaming", "control", "catalog")
CALLERS = (SRC, ROOT / "bench", ROOT / "examples", ROOT / "benchmarks")

#: name -> why it may stay without a caller
EXEMPT = {
    "TinyLFUAdmission":
        "ROADMAP 3(b): earns a cache-pressure workload or leaves",
}

DEFS = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def public_names():
    """``{name: "pkg/file.py"}`` of the checked packages' public defs."""
    names = {}
    for package in CHECKED:
        for path in sorted((SRC / package).glob("*.py")):
            for node in ast.parse(path.read_text()).body:
                if isinstance(node, DEFS) and not node.name.startswith("_"):
                    names[node.name] = path.relative_to(SRC).as_posix()
    return names


def references(names):
    """``{name: {owner}}``: for each use of a checked name, the checked
    top-level definition it sits in, or ``None`` outside any."""
    refs = {}
    for root in CALLERS:
        for path in sorted(root.rglob("*.py")):
            for top in ast.parse(path.read_text()).body:
                owner = top.name if isinstance(top, DEFS) else None
                if owner not in names:
                    owner = None
                for node in ast.walk(top):
                    if isinstance(node, ast.Name):
                        used = node.id
                    elif isinstance(node, ast.Attribute):
                        used = node.attr
                    else:
                        continue
                    if used in names:
                        refs.setdefault(used, set()).add(owner)
    return refs


def unreached():
    names = public_names()
    refs = references(names)
    reached = set(EXEMPT)
    while True:
        grown = {
            name for name in names
            if name not in reached and any(
                owner is None or (owner in reached and owner != name)
                for owner in refs.get(name, ())
            )
        }
        if not grown:
            break
        reached |= grown
    return sorted(
        f"{names[name]}:{name}" for name in names if name not in reached
    )


class TestReachability:
    def test_every_public_serving_name_has_a_non_test_caller(self):
        missing = unreached()
        assert not missing, "no non-test caller: " + ", ".join(missing)

    def test_exemptions_name_live_definitions(self):
        # an exemption outlives its reason once the name is gone
        assert set(EXEMPT) <= set(public_names())
