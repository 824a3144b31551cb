"""Only what runs: every public name and guarded option has a caller.

A public class or module-level function in any package under
``src/repro`` (every directory with an ``__init__.py``, so a package
added later is walked too) must be named by some non-test module —
``src/``, ``bench/``, ``examples/`` or ``benchmarks/``. Tests alone do not keep a name alive. A reference
inside the name's own definition does not count, and neither does an
``__init__`` re-export (an import is not a use). The walk runs to a
fixpoint, so a name reached only from inside other unreached names is
unreached too.

The same rule holds for the options of the guarded constructors: every
public class, dataclass and module-level function of the serving
packages (``GUARDED``) and the write path's ``CONSTRUCTORS``. Each
``__init__`` parameter, function parameter or dataclass field must be
set, by position or keyword, by some non-test call — and a call that
only forwards a same-named parameter of the function it sits in counts
only once that parameter is set. A record type (``RECORDS``) holds data
a run fills in, not options, and is declared once instead.
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
    "CatalogIndex":
        "ROADMAP 13(a): the level_navigation workload jumps through "
        "seek_to_slide",
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

#: packages whose every public class and module-level function is a
#: guarded constructor
GUARDED = ("catalog", "control", "load", "net", "streaming", "web")

#: guarded constructors outside ``GUARDED`` (the write path) -> their
#: module under ``src/repro``
CONSTRUCTORS = {
    "EncodeFarm": "asf/farm.py",
    "EncodeCache": "asf/encoder.py",
    "ASFEncoder": "asf/encoder.py",
    "LODPublisher": "lod/publisher.py",
    "Orchestrator": "lod/orchestrator.py",
    "WebPublishingManager": "lod/publisher.py",
}

#: record type -> what it records: its fields are filled in by the code
#: that makes one, so they are data, not options
RECORDS = {
    "StreamSession": "a server's per-session state, written as it serves",
    "LinkStats": "a link's delivery and drop counters",
    "CohortPlan": "one cohort of plan_cohorts' output",
    "HTTPRequest": "one request as HTTPClient.fetch puts it on the wire",
}

_TINY_LFU = "ROADMAP 3(b): admission earns a cache-pressure workload or leaves"
_IMPAIRED_LINKS = (
    "ROADMAP 16(c): the lossy variant impairs backbone and last-mile links"
)
_LIVE_TREE = "ROADMAP 2(a): the live_lecture_tree workload sets it"

#: ``Constructor.param`` (or a bare parameter name, for every
#: constructor) -> why it may stay without a non-test caller
OPTION_EXEMPT = {
    "tracer": "observability: every stage and relay records spans when given one",
    "ASFEncoder.cache": "ROADMAP 3(b): the cache-pressure workload's republish",
    "LODPublisher.edge_directory":
        "ROADMAP 3(b): the cache-pressure workload's mid-run republish",
    "LODPublisher.catalog":
        "ROADMAP 3(b): the cache-pressure workload's mid-run republish",
    "WebPublishingManager.license_server": "the form's protect path",
    **dict.fromkeys(
        ("EdgeRelay.port", "build_edge_tier.port", "build_relay_tree.port"),
        "a deployment setting: the port a relay listens on",
    ),
    **dict.fromkeys(
        ("EdgeDirectory.seed", "build_edge_tier.seed", "build_relay_tree.seed"),
        "the placement ring's salt: a deployment setting",
    ),
    "HeartbeatMonitor.seed":
        "the beacon phase salt: a deployment setting, like the ring's; the "
        "chaos suite varies it with CHAOS_SEED",
    "WorkloadSpec.seed":
        "the audience seed: bench/workloads.py's builders forward --seed, "
        "and bench/child.py calls them through its BUILDERS table, which "
        "the guard does not resolve",
    "cache_bytes":
        "ROADMAP 3(a): the cache-pressure workload sizes the edge cache "
        "below the catalog",
    "PacketRunCache.admission": "ROADMAP 3(b): admission earns a workload or leaves",
    "PacketRunCache.ttl_seconds": "ROADMAP 3(b): TTL earns a workload or leaves",
    "PacketRunCache.counters":
        "ROADMAP 3(b): the admission and TTL tests read a private counter "
        "bag; it is decided with them",
    "MediaServer.qos_enabled":
        "the origin's per-session QoS reservation (XOCPN channel setup, "
        "paper §1): the admission and teardown tests audit it",
    **dict.fromkeys(
        (
            "TinyLFUAdmission.width", "TinyLFUAdmission.depth",
            "TinyLFUAdmission.doorkeeper_bits",
            "TinyLFUAdmission.sample_period", "TinyLFUAdmission.counters",
            "TinyLFUAdmission.seed", "CountMinSketch.width",
            "CountMinSketch.depth", "CountMinSketch.seed",
            "Doorkeeper.hashes", "Doorkeeper.seed",
        ),
        _TINY_LFU,
    ),
    **dict.fromkeys(
        (
            "GilbertElliott.loss_bad", "GilbertElliott.loss_good",
            "GilbertElliott.p_enter", "GilbertElliott.p_exit",
            "Link.loss_rate", "Link.burst_loss", "Link.jitter",
        ),
        _IMPAIRED_LINKS,
    ),
    **dict.fromkeys(
        (
            "BackboneBudget.capacities", "BackboneBudget.default_capacity",
            "BackboneBudget.symmetric", "LoadConfig.backbone_budget",
            "LoadConfig.live_capture", "LectureSpec.live",
        ),
        _LIVE_TREE,
    ),
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


def _is_classvar(annotation):
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        return annotation.value.startswith(("ClassVar", "typing.ClassVar"))
    if isinstance(annotation, ast.Subscript):
        annotation = annotation.value
    return getattr(annotation, "id", getattr(annotation, "attr", None)) == "ClassVar"


def signature(node):
    """A def's settable parameters, positional ones first: a function's
    arguments, a class's ``__init__`` arguments without ``self``, or a
    class's annotated fields (a dataclass's) without its ``ClassVar``
    constants."""
    if isinstance(node, ast.ClassDef):
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                return signature(item)[1:]
        return [
            item.target.id for item in node.body
            if isinstance(item, ast.AnnAssign)
            and isinstance(item.target, ast.Name)
            and not _is_classvar(item.annotation)
        ]
    args = node.args
    return [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]


def guarded_modules():
    """``{constructor: "pkg/file.py"}``: every public def of the
    ``GUARDED`` packages, plus ``CONSTRUCTORS``."""
    modules = {
        name: module for name, module in public_names().items()
        if module.split("/")[0] in GUARDED
    }
    modules.update(CONSTRUCTORS)
    return modules


def constructor_params(sources=None, records=None):
    """``{constructor: [parameter, ...]}`` (see :func:`signature`) for
    every guarded constructor but the records; ``sources`` maps a
    constructor to its module's text."""
    if sources is None:
        modules = guarded_modules()
        texts = {m: (SRC / m).read_text() for m in set(modules.values())}
        sources = {name: texts[m] for name, m in modules.items()}
    records = RECORDS if records is None else records
    params = {}
    for name, source in sources.items():
        if name in records:
            continue
        for node in ast.parse(source).body:
            if isinstance(node, DEFS) and node.name == name:
                params[name] = signature(node)
    return params


def caller_sources():
    return [
        path.read_text()
        for root in CALLERS for path in sorted(root.rglob("*.py"))
    ]


def _calls(tree):
    """``(call, scope)`` for every call in ``tree``; ``scope`` lists the
    enclosing functions as ``(key, parameters)``, innermost last. A
    class's ``__init__`` is keyed by the class, any other def by its own
    name, and a method's parameters leave out ``self``."""
    found = []

    def visit(node, scope, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, scope, child.name)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                params = signature(child)
                key = child.name
                if owner is not None and params[:1] in (["self"], ["cls"]):
                    params = params[1:]
                if owner is not None and key == "__init__":
                    key = owner
                visit(child, scope + ((key, params),), None)
                continue
            if isinstance(child, ast.Call):
                found.append((child, scope))
            visit(child, scope, None)

    visit(tree, (), None)
    return found


def unset_options(params=None, sources=None, exempt=None):
    """``Constructor.param`` for every parameter no non-test call sets
    and no exemption covers.

    A call sets each parameter it passes, by position or keyword, except
    that an argument which only forwards a same-named parameter of a
    function it sits in (``k=k``) sets it only once that outer parameter
    is set: a fixpoint over every def in the callers. A ``*args`` or
    ``**kwargs`` splat sets nothing. An exempt parameter counts as set,
    so what it forwards does too.
    """
    params = constructor_params() if params is None else params
    sources = caller_sources() if sources is None else sources
    exempt = OPTION_EXEMPT if exempt is None else exempt
    calls = [found for source in sources for found in _calls(ast.parse(source))]
    signatures = {name: [names] for name, names in params.items()}
    for _, scope in calls:
        for key, names in scope:
            signatures.setdefault(key, []).append(names)
    done = {
        (key, name)
        for key, lists in signatures.items()
        for names in lists
        for name in names
        if name in exempt or f"{key}.{name}" in exempt
    }
    rules = set()
    for call, scope in calls:
        func = call.func
        callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        positional = []
        for arg in call.args:
            if isinstance(arg, ast.Starred):
                break
            positional.append(arg)
        passed = [(kw.arg, kw.value) for kw in call.keywords if kw.arg]
        for names in signatures.get(callee, ()):
            passed += zip(names, positional)
        for name, value in passed:
            needs = None
            if isinstance(value, ast.Name) and value.id == name:
                needs = next(
                    ((key, name) for key, names in reversed(scope) if name in names),
                    None,
                )
            rules.add(((callee, name), needs))
    while True:
        grown = {
            fact for fact, needs in rules
            if fact not in done and (needs is None or needs in done)
        }
        if not grown:
            break
        done |= grown
    return sorted(
        f"{name}.{param}"
        for name, names in params.items()
        for param in names
        if (name, param) not in done
    )


def stale_exemptions(params=None, exempt=None):
    """Exemptions that name no live parameter of a guarded constructor."""
    params = constructor_params() if params is None else params
    exempt = OPTION_EXEMPT if exempt is None else exempt
    live = {name for names in params.values() for name in names}
    live |= {f"{cls}.{name}" for cls, names in params.items() for name in names}
    return sorted(set(exempt) - live)


class TestReachability:
    def test_every_public_serving_name_has_a_non_test_caller(self):
        missing = unreached()
        assert not missing, "no non-test caller: " + ", ".join(missing)

    def test_exemptions_name_live_definitions(self):
        # an exemption outlives its reason once the name is gone
        assert set(EXEMPT) <= set(public_names())

    def test_every_guarded_option_has_a_non_test_caller(self):
        unset = unset_options()
        assert not unset, "no non-test caller passes: " + ", ".join(unset)

    def test_option_exemptions_name_live_parameters(self):
        stale = stale_exemptions()
        assert not stale, "exempt but no such parameter: " + ", ".join(stale)

    def test_records_name_guarded_classes(self):
        assert set(RECORDS) <= set(guarded_modules())


WIDGET = """
class Widget:
    def __init__(self, network, *, k=0, tracer=None):
        self.k = k
"""


class TestOptionGuard:
    """The option rule on synthetic modules."""

    def guard(self, constructor, *callers, exempt=(), records=()):
        params = constructor_params(
            dict.fromkeys(("Widget", "Config"), constructor),
            dict.fromkeys(records, ""),
        )
        return unset_options(
            params, [constructor, *callers], dict.fromkeys(exempt, "")
        )

    def test_a_forwarded_keyword_counts_only_once_the_outer_one_is_set(self):
        build = (
            "def build(network, *, k=0):\n"
            "    def relay_on(host):\n"
            "        return Widget(host, k=k)\n"
            "    return relay_on(network)\n"
        )
        assert self.guard(WIDGET, build, "build(None)", exempt=["tracer"]) == [
            "Widget.k"
        ]
        assert self.guard(WIDGET, build, "build(None, k=1)", exempt=["tracer"]) == []

    def test_a_forwarded_exempt_parameter_counts(self):
        build = (
            "def build(network, *, tracer=None):\n"
            "    Widget(network, k=1, tracer=tracer)\n"
        )
        assert self.guard(WIDGET, build, "build(None)") == ["Widget.tracer"]
        assert self.guard(WIDGET, build, "build(None)", exempt=["build.tracer"]) == []

    def test_a_new_dataclass_field_is_flagged(self):
        config = (
            "@dataclass(frozen=True)\n"
            "class Config:\n"
            "    fixed: ClassVar[int] = 1\n"
            "    knob: float = 0.5\n"
        )
        assert self.guard(config, "Config()") == ["Config.knob"]
        assert self.guard(config, "Config(knob=1.0)") == []

    def test_a_stale_exemption_is_reported(self):
        params = constructor_params({"Widget": WIDGET})
        assert stale_exemptions(params, {"k": "", "Widget.gone": ""}) == [
            "Widget.gone"
        ]

    def test_a_declared_record_exempts_its_own_fields_only(self):
        both = WIDGET + (
            "@dataclass\n"
            "class Config:\n"
            "    knob: float = 0.5\n"
        )
        assert self.guard(both, "Widget(None)", exempt=["tracer"]) == [
            "Config.knob", "Widget.k",
        ]
        assert self.guard(
            both, "Widget(None)", exempt=["tracer"], records=["Config"]
        ) == ["Widget.k"]

    def test_a_splat_sets_nothing(self):
        build = (
            "def build(network, **params):\n"
            "    Widget(network, **params)\n"
        )
        assert self.guard(
            WIDGET, build, "build(None, k=1)", exempt=["tracer"]
        ) == ["Widget.k"]

    def test_a_new_option_in_a_walked_package_is_flagged(self):
        modules = guarded_modules()
        assert modules["Link"] == "net/link.py"
        texts = {m: (SRC / m).read_text() for m in set(modules.values())}
        texts["net/link.py"] = texts["net/link.py"].replace(
            "        queue_limit: int = 64,",
            "        queue_limit: int = 64,\n        test_only: int = 0,",
        )
        params = constructor_params(
            {name: texts[m] for name, m in modules.items()}
        )
        assert "test_only" in params["Link"]
        assert unset_options(params) == ["Link.test_only"]
