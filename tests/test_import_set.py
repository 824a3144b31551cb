"""A run loads only the code it runs.

Package names resolve on first access (``repro._exports``), and a layer is
imported where it is used: a lecture pulls in the Petri-net layer only
when it is compiled to a net. Each check runs in a fresh interpreter, so
what this test process has already imported cannot hide a module that
an import drags in.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGES = ["repro"] + sorted(
    f"repro.{init.parent.name}" for init in (SRC / "repro").glob("*/__init__.py")
)

#: what a streaming run imports: the load harness (and with it the
#: serving stack and the player), the QoE rows and a lecture
REPLAY_IMPORTS = """
from repro.load import generate, run_workload
import repro.obs.qoe
from repro.lod import Lecture
"""

#: layers a replay never runs
NOT_LOADED_PREFIXES = (
    "repro.core", "repro.contenttree", "repro.catalog", "repro.control",
)
NOT_LOADED = ("repro.obs.checker", "repro.lod.floor")


def run_fresh(code):
    """Run ``code`` in a new interpreter; returns what it printed as JSON."""
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    return json.loads(out.stdout)


def test_a_replay_loads_no_net_tree_catalog_or_control_layer():
    loaded = run_fresh(REPLAY_IMPORTS + """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m.startswith("repro"))))
""")
    ran = {"repro.load.harness", "repro.streaming.client", "repro.lod.lecture"}
    assert ran <= set(loaded)
    unwanted = [
        m for m in loaded
        if m in NOT_LOADED
        or any(m == p or m.startswith(p + ".") for p in NOT_LOADED_PREFIXES)
    ]
    assert not unwanted, f"loaded by a replay's imports: {unwanted}"


def test_compiling_a_lecture_to_a_net_loads_the_net_layer():
    loaded = run_fresh(REPLAY_IMPORTS + """
import json, sys
from repro.lod import demo_lecture
demo_lecture().to_presentation()
demo_lecture().content_tree()
print(json.dumps(sorted(m for m in sys.modules if m.startswith("repro"))))
""")
    assert "repro.core.extended" in loaded
    assert "repro.contenttree.abstractor" in loaded


def test_every_exported_name_is_listed_and_resolves():
    found = run_fresh(f"""
import importlib, json
out = {{}}
for name in {PACKAGES!r}:
    package = importlib.import_module(name)
    listed = set(dir(package))
    out[name] = {{
        "all": list(package.__all__),
        "unlisted": [n for n in package.__all__ if n not in listed],
        "unresolved": [n for n in package.__all__ if getattr(package, n, None) is None],
    }}
print(json.dumps(out))
""")
    assert sorted(found) == PACKAGES
    for name, row in found.items():
        assert row["all"], f"{name} exports nothing"
        assert not row["unlisted"], f"{name}: not in dir(): {row['unlisted']}"
        assert not row["unresolved"], f"{name}: do not resolve: {row['unresolved']}"


def test_star_import_and_submodule_import_still_work():
    found = run_fresh("""
import json
from repro.streaming import *
from repro.load import harness
import repro
print(json.dumps([MediaPlayer.__module__, harness.__name__, repro.core.__name__]))
""")
    assert found == ["repro.streaming.client", "repro.load.harness", "repro.core"]


@pytest.mark.parametrize("package", PACKAGES)
def test_an_unknown_name_raises_attribute_error(package):
    module = __import__(package, fromlist=["_"])
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name
    assert not hasattr(module, "no_such_name")
