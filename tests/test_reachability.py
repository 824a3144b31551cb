"""Only what runs: every public name and write-path option has a caller.

A public class or module-level function in any package under
``src/repro`` (every directory with an ``__init__.py``, so a package
added later is walked too) must be named by some non-test module —
``src/``, ``bench/``, ``examples/`` or ``benchmarks/``. Tests alone do not keep a name alive. A reference
inside the name's own definition does not count, and neither does an
``__init__`` re-export (an import is not a use). The walk runs to a
fixpoint, so a name reached only from inside other unreached names is
unreached too.

The same rule holds for the options of the write path's constructors:
every ``__init__`` parameter must be passed, by position or keyword, by
some non-test call.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
CHECKED = tuple(sorted(init.parent.name for init in SRC.glob("*/__init__.py")))
CALLERS = (SRC, ROOT / "bench", ROOT / "examples", ROOT / "benchmarks")

#: name -> why it may stay without a caller
EXEMPT = {
    "TinyLFUAdmission":
        "ROADMAP 3(b): earns a cache-pressure workload or leaves",
    "pack_u8":
        "the reference writer the packetizer property test checks the "
        "struct headers against",
    "add_script_commands":
        "paper §2.1's ASF Indexer step: commands added to a finished file",
    "apply_to_stream":
        "the interaction script on the stream player (with its "
        "StreamRunResult)",
    "reset_counters": "test isolation for the process-global counter bags",
    "relation_between":
        "the interval-algebra oracle the interval and OCPN property tests "
        "check compiled schedules against",
    "load_jsonl":
        "EXPERIMENTS.md's JSONL trace round trip; ROADMAP 8(b)'s "
        "`trace explain` reads traces through it",
}

#: write-path constructor -> its module under ``src/repro``
CONSTRUCTORS = {
    "EncodeFarm": "asf/farm.py",
    "EncodeCache": "asf/encoder.py",
    "ASFEncoder": "asf/encoder.py",
    "LODPublisher": "lod/publisher.py",
    "Orchestrator": "lod/orchestrator.py",
    "WebPublishingManager": "lod/publisher.py",
}

#: ``Class.param`` (or a bare parameter name, for every class) -> why it
#: may stay without a non-test caller
OPTION_EXEMPT = {
    "tracer": "observability: every write-path stage records spans when given one",
    "ASFEncoder.cache": "ROADMAP 3(b): the cache-pressure workload's republish",
    "LODPublisher.edge_directory":
        "ROADMAP 3(b): the cache-pressure workload's mid-run republish",
    "LODPublisher.catalog":
        "ROADMAP 3(b): the cache-pressure workload's mid-run republish",
    "WebPublishingManager.license_server": "the form's protect path",
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


def constructor_params():
    """``{class: [parameter, ...]}`` of each constructor's ``__init__``,
    positional ones first, ``self`` left out."""
    params = {}
    for cls, module in CONSTRUCTORS.items():
        for node in ast.parse((SRC / module).read_text()).body:
            if isinstance(node, ast.ClassDef) and node.name == cls:
                init = next(
                    f for f in node.body
                    if isinstance(f, ast.FunctionDef) and f.name == "__init__"
                )
                args = init.args
                params[cls] = [
                    a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
                ][1:]
    return params


def unset_options():
    """``Class.param`` for every constructor parameter no non-test call
    passes and no exemption covers."""
    params = constructor_params()
    passed = set()
    for root in CALLERS:
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                cls = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if cls not in params:
                    continue
                positional = [a for a in node.args if not isinstance(a, ast.Starred)]
                passed.update((cls, name) for name in params[cls][: len(positional)])
                passed.update((cls, kw.arg) for kw in node.keywords if kw.arg)
    return sorted(
        f"{cls}.{name}"
        for cls, names in params.items()
        for name in names
        if (cls, name) not in passed
        and name not in OPTION_EXEMPT
        and f"{cls}.{name}" not in OPTION_EXEMPT
    )


class TestReachability:
    def test_every_public_serving_name_has_a_non_test_caller(self):
        missing = unreached()
        assert not missing, "no non-test caller: " + ", ".join(missing)

    def test_exemptions_name_live_definitions(self):
        # an exemption outlives its reason once the name is gone
        assert set(EXEMPT) <= set(public_names())

    def test_every_write_path_option_has_a_non_test_caller(self):
        unset = unset_options()
        assert not unset, "no non-test caller passes: " + ", ".join(unset)

    def test_option_exemptions_name_live_parameters(self):
        params = constructor_params()
        live = {name for names in params.values() for name in names}
        live |= {f"{cls}.{name}" for cls, names in params.items() for name in names}
        assert set(OPTION_EXEMPT) <= live
