"""Only what runs: every public name, option and method has a caller.

A public class or module-level function in any package under
``src/repro`` (every directory with an ``__init__.py``, so a package
added later is walked too) must be named by some non-test module —
``src/``, ``bench/``, ``examples/`` or ``benchmarks/``. Tests alone do not keep a name alive. A reference
inside the name's own definition does not count, and neither does an
``__init__`` re-export (an import is not a use). The walk runs to a
fixpoint, so a name reached only from inside other unreached names is
unreached too.

The same rule holds for options: each ``__init__`` parameter, function
parameter or dataclass field of every public class and module-level
function must be set, by position or keyword, by some non-test call —
and a call that only forwards a same-named parameter of the function it
sits in counts only once that parameter is set. A record type
(``RECORDS``) holds data a run fills in, not options, and is declared
once instead.

And for methods: each public method, property or classmethod of a
public class must be named — as an attribute, a name or a string
constant — by some non-test module, outside its own body.

A name in ``EXEMPT`` exempts its options and methods too.

Definitions are keyed by file and name: two public classes of one name
in different modules (``Summary``) are each walked by every rule. A use
is a bare name, so it reaches every definition of that name.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
CHECKED = tuple(sorted(init.parent.name for init in SRC.glob("*/__init__.py")))
CALLERS = (SRC, ROOT / "bench", ROOT / "examples", ROOT / "benchmarks")

#: name -> why it may stay without a caller (its options and methods too)
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

#: ``pkg/file.py:Record`` -> what it records: its fields are filled in by
#: the code that makes one, so they are data, not options
RECORDS = {
    "streaming/session.py:StreamSession":
        "a server's per-session state, written as it serves",
    "net/link.py:LinkStats": "a link's delivery and drop counters",
    "load/workload.py:CohortPlan": "one cohort of plan_cohorts' output",
    "web/http.py:HTTPRequest":
        "one request as HTTPClient.fetch puts it on the wire",
    "obs/qoe.py:SessionQoE":
        "one playback session's QoE facts, filled in as it plays",
    "metrics/stats.py:Summary": "the statistics Summary.of computes over a sample",
    "asf/packets.py:LossReport":
        "what a depacketizer saw delivered and lost per stream",
    "asf/indexer.py:SimpleIndex":
        "a file's time index, built from its packets or parsed back",
    "asf/drm.py:DRMInfo":
        "the header's protection object, parsed back by cls(r.string(), ...)",
    "core/analysis.py:ReachabilityGraph":
        "the markings and edges reachability_graph explores",
    "core/scheduler.py:PresentationTimeline":
        "a schedule's playouts, built by from_schedule",
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
    **dict.fromkeys(
        ("WebPublishingManager.license_server", "MediaPlayer.license_server"),
        "the form's protect path: a protected file plays only through a "
        "player that acquires its license",
    ),
    "EncoderConfig.with_data":
        "safety: tests need distinguishable payload bytes to check fragment "
        "order, DRM round trips and zero-block sharing",
    "ScriptedAction.param":
        "the seek target of the interaction script apply_to_stream (EXEMPT) "
        "runs",
    "is_safe.net":
        "benchmarks/test_bench_net_scaling.py hands is_safe to run_once, "
        "which the guard does not resolve",
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
            "CountMinSketch.width", "CountMinSketch.depth", "CountMinSketch.seed",
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

_AUDITED = "an invariant or leak check the tests audit after every run"
_DETECTED = "the failure detector's verdict, which the chaos tests audit"
_CHAOS = "ROADMAP 7(a): a fault the generated chaos plans place"

#: ``Class.method`` -> why it may stay with only tests naming it
METHOD_EXEMPT = {
    **dict.fromkeys(
        (
            "TraceChecker.assert_ok", "SessionTable.assert_consistent",
            "MediaServer.assert_no_qos_leaks", "MediaServer.qos_leaks",
            "ReliableChannel.in_flight", "RecoveryClient.pending_repairs",
            "Tracer.open_spans",
        ),
        _AUDITED,
    ),
    **dict.fromkeys(
        ("HeartbeatMonitor.is_suspected", "HeartbeatMonitor.expected_interval"),
        _DETECTED,
    ),
    **dict.fromkeys(
        ("FaultPlan.partition", "HeartbeatMonitor.fail_over_now"), _CHAOS
    ),
    "Classroom.site_disconnected":
        "fault recovery: a disconnected floor holder's floor is reclaimed",
    **dict.fromkeys(
        ("LicenseServer.entitle", "LicenseServer.revoke"),
        "the form's protect path: a protected file plays only for a user "
        "entitled to it",
    ),
}

DEFS = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def public_names():
    """``{("pkg/file.py", name)}`` of the checked packages' public defs."""
    names = set()
    for package in CHECKED:
        for path in sorted((SRC / package).glob("*.py")):
            module = path.relative_to(SRC).as_posix()
            for node in ast.parse(path.read_text()).body:
                if isinstance(node, DEFS) and not node.name.startswith("_"):
                    names.add((module, node.name))
    return names


def references(names):
    """``{name: {owner}}``: for each use of a checked def's name, the
    checked top-level definition it sits in, as ``(module, name)``, or
    ``None`` outside any."""
    bare = {name for _, name in names}
    refs = {}
    for root in CALLERS:
        for path in sorted(root.rglob("*.py")):
            module = path.relative_to(SRC).as_posix() if root == SRC else None
            for top in ast.parse(path.read_text()).body:
                owner = (module, top.name) if isinstance(top, DEFS) else None
                if owner not in names:
                    owner = None
                for node in ast.walk(top):
                    if isinstance(node, ast.Name):
                        used = node.id
                    elif isinstance(node, ast.Attribute):
                        used = node.attr
                    else:
                        continue
                    if used in bare:
                        refs.setdefault(used, set()).add(owner)
    return refs


def unreached():
    names = public_names()
    refs = references(names)
    reached = {key for key in names if key[1] in EXEMPT}
    while True:
        grown = {
            key for key in names
            if key not in reached and any(
                owner is None or (owner in reached and owner != key)
                for owner in refs.get(key[1], ())
            )
        }
        if not grown:
            break
        reached |= grown
    return sorted(
        f"{module}:{name}" for module, name in names
        if (module, name) not in reached
    )


def _is_classvar(annotation):
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        return annotation.value.startswith(("ClassVar", "typing.ClassVar"))
    if isinstance(annotation, ast.Subscript):
        annotation = annotation.value
    return getattr(annotation, "id", getattr(annotation, "attr", None)) == "ClassVar"


def _is_init_field(item):
    """An annotated class-body field an ``__init__`` takes: not a
    ``ClassVar`` and not ``field(init=False)``."""
    if not isinstance(item, ast.AnnAssign) or not isinstance(item.target, ast.Name):
        return False
    value = item.value
    return not _is_classvar(item.annotation) and not (
        isinstance(value, ast.Call)
        and any(
            kw.arg == "init" and getattr(kw.value, "value", True) is False
            for kw in value.keywords
        )
    )


def signature(node, classes=None):
    """A def's settable parameters, positional ones first: a function's
    arguments, a class's ``__init__`` arguments without ``self``, or a
    class's annotated fields (a dataclass's) without its ``ClassVar``
    constants and ``init=False`` fields, after the fields it inherits
    from a base in ``classes`` (``{name: ClassDef}``)."""
    if isinstance(node, ast.ClassDef):
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                return signature(item)[1:]
        names = []
        for base in node.bases:
            base = (classes or {}).get(getattr(base, "id", None))
            if base is not None:
                names += signature(base, classes)
        names += [item.target.id for item in node.body if _is_init_field(item)]
        return list(dict.fromkeys(names))
    args = node.args
    return [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]


def constructor_params(sources=None, skip=None):
    """``{(module, constructor): [parameter, ...]}`` (see
    :func:`signature`) for every public def but those in ``skip`` (the
    records, as ``module:name``, and ``EXEMPT`` names); ``sources`` maps
    ``(module, def)`` to its module's text."""
    if sources is None:
        keys = public_names()
        texts = {m: (SRC / m).read_text() for m, _ in keys}
        sources = {(m, name): texts[m] for m, name in keys}
    skip = {*RECORDS, *EXEMPT} if skip is None else skip
    trees = {text: ast.parse(text) for text in set(sources.values())}
    classes = {
        node.name: node for tree in trees.values() for node in tree.body
        if isinstance(node, ast.ClassDef)
    }
    params = {}
    for (module, name), source in sources.items():
        if name in skip or f"{module}:{name}" in skip:
            continue
        for node in trees[source].body:
            if isinstance(node, DEFS) and node.name == name:
                params[module, name] = signature(node, classes)
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
    so what it forwards does too, and so does every parameter of an
    ``EXEMPT`` def. A call of a class also sets the same-named field of
    every class it inherits from.
    """
    params = constructor_params() if params is None else params
    sources = caller_sources() if sources is None else sources
    exempt = OPTION_EXEMPT if exempt is None else exempt
    trees = [ast.parse(source) for source in sources]
    calls = [found for tree in trees for found in _calls(tree)]
    signatures = {}
    for (_, name), names in params.items():
        signatures.setdefault(name, []).append(names)
    for _, scope in calls:
        for key, names in scope:
            signatures.setdefault(key, []).append(names)
    done = {
        (key, name)
        for key, lists in signatures.items()
        for names in lists
        for name in names
        if key in EXEMPT or name in exempt or f"{key}.{name}" in exempt
    }
    bases = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases.setdefault(node.name, set()).update(
                    base.id for base in node.bases if isinstance(base, ast.Name)
                )

    def lineage(name):
        """``name`` and every class it inherits from."""
        seen, todo = set(), [name]
        while todo:
            cls = todo.pop()
            if cls not in seen:
                seen.add(cls)
                todo += bases.get(cls, ())
        return seen

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
            for cls in lineage(callee):
                rules.add(((cls, name), needs))
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
        for (_, name), names in params.items()
        for param in names
        if (name, param) not in done
    )


def stale_exemptions(params=None, exempt=None):
    """Exemptions that name no live parameter of a guarded constructor."""
    params = constructor_params() if params is None else params
    exempt = OPTION_EXEMPT if exempt is None else exempt
    live = {name for names in params.values() for name in names}
    live |= {
        f"{cls}.{name}" for (_, cls), names in params.items() for name in names
    }
    return sorted(set(exempt) - live)



def public_methods(sources=None):
    """``{("pkg/file.py", "Class.method")}``: every public method,
    property or classmethod of a public class of the checked packages
    but the ``EXEMPT`` ones; ``sources`` maps a module to its text."""
    if sources is None:
        sources = {
            path.relative_to(SRC).as_posix(): path.read_text()
            for package in CHECKED for path in sorted((SRC / package).glob("*.py"))
        }
    methods = set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if (
                isinstance(node, ast.ClassDef)
                and not node.name.startswith("_")
                and node.name not in EXEMPT
            ):
                for item in node.body:
                    if isinstance(item, DEFS[1:]) and not item.name.startswith("_"):
                        methods.add((module, f"{node.name}.{item.name}"))
    return methods


def method_references(sources=None):
    """``{name: {owner}}``: for each attribute, name or string constant
    in the callers, the ``"Class.method"`` whose body it sits in, or
    ``None`` outside any method."""
    sources = caller_sources() if sources is None else sources
    refs = {}

    def visit(node, owner, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, owner, child.name)
                continue
            if isinstance(child, DEFS[1:]) and cls is not None:
                visit(child, f"{cls}.{child.name}", None)
                continue
            if isinstance(child, ast.Name):
                used = child.id
            elif isinstance(child, ast.Attribute):
                used = child.attr
            elif isinstance(child, ast.Constant) and isinstance(child.value, str):
                used = child.value
            else:
                used = None
            if used is not None:
                refs.setdefault(used, set()).add(owner)
            visit(child, owner, None)

    for source in sources:
        visit(ast.parse(source), None, None)
    return refs


def unreached_methods(methods=None, refs=None, exempt=None):
    """Public methods no non-test module names outside their own body,
    and no exemption covers."""
    methods = public_methods() if methods is None else methods
    refs = method_references() if refs is None else refs
    exempt = METHOD_EXEMPT if exempt is None else exempt
    return sorted(
        f"{module}:{method}" for module, method in methods
        if method not in exempt
        and not refs.get(method.split(".")[1], set()) - {method}
    )


def stale_method_exemptions(methods=None, exempt=None):
    """Method exemptions that name no live public method."""
    methods = public_methods() if methods is None else methods
    exempt = METHOD_EXEMPT if exempt is None else exempt
    return sorted(set(exempt) - {method for _, method in methods})


class TestReachability:
    def test_every_public_serving_name_has_a_non_test_caller(self):
        missing = unreached()
        assert not missing, "no non-test caller: " + ", ".join(missing)

    def test_exemptions_name_live_definitions(self):
        # an exemption outlives its reason once the name is gone
        assert set(EXEMPT) <= {name for _, name in public_names()}

    def test_every_guarded_option_has_a_non_test_caller(self):
        unset = unset_options()
        assert not unset, "no non-test caller passes: " + ", ".join(unset)

    def test_option_exemptions_name_live_parameters(self):
        stale = stale_exemptions()
        assert not stale, "exempt but no such parameter: " + ", ".join(stale)

    def test_records_name_guarded_classes(self):
        assert set(RECORDS) <= {f"{m}:{name}" for m, name in public_names()}

    def test_each_of_two_same_named_classes_is_walked(self):
        # both public ``Summary`` classes, not whichever was walked last
        names = public_names()
        assert {("contenttree/abstractor.py", "Summary"),
                ("metrics/stats.py", "Summary")} <= names
        assert ("contenttree/abstractor.py", "Summary") in constructor_params()
        assert ("metrics/stats.py", "Summary") not in constructor_params()

    def test_every_public_method_is_named_by_a_non_test_module(self):
        missing = unreached_methods()
        assert not missing, "named by no non-test module: " + ", ".join(missing)

    def test_method_exemptions_name_live_methods(self):
        stale = stale_method_exemptions()
        assert not stale, "exempt but no such method: " + ", ".join(stale)


WIDGET = """
class Widget:
    def __init__(self, network, *, k=0, tracer=None):
        self.k = k
"""


class TestOptionGuard:
    """The option rule on synthetic modules."""

    def guard(self, constructor, *callers, exempt=(), records=()):
        defs = [
            node.name for node in ast.parse(constructor).body
            if isinstance(node, DEFS)
        ]
        params = constructor_params(
            {("w.py", name): constructor for name in defs}, records
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
        params = constructor_params({("w.py", "Widget"): WIDGET})
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

    def test_an_init_false_field_is_not_an_option(self):
        config = (
            "@dataclass\n"
            "class Config:\n"
            "    knob: float = 0.5\n"
            "    _memo: object = field(default=None, init=False)\n"
        )
        assert self.guard(config, "Config(knob=1.0)") == []

    def test_a_subclass_takes_its_base_fields_first(self):
        # ``Audio("voice", 2.0)`` sets the inherited name and duration,
        # not the subclass's own first fields
        media = (
            "@dataclass\n"
            "class Media:\n"
            "    name: str\n"
            "    duration: float\n"
            "@dataclass\n"
            "class Audio(Media):\n"
            "    rate: int = 22050\n"
            "    channels: int = 1\n"
        )
        assert self.guard(media, 'Audio("voice", 2.0)') == [
            "Audio.channels", "Audio.rate",
        ]

    def test_a_subclass_call_sets_the_base_field(self):
        media = (
            "@dataclass\n"
            "class Media:\n"
            "    name: str\n"
            "    duration: float = 0.0\n"
            "@dataclass\n"
            "class Note(Media):\n"
            "    text: str = ''\n"
        )
        assert self.guard(media, 'Note("n", 1.0, text="x")') == []

    def test_an_exempt_name_exempts_its_parameters(self):
        oracle = "def relation_between(a, b, *, tol=1e-9):\n    return a\n"
        assert "relation_between" in EXEMPT
        assert constructor_params({("w.py", "relation_between"): oracle}) == {}
        # and what it forwards counts as set, though nothing calls it
        forward = (
            "def relation_between(k, tracer):\n"
            "    return Widget(None, k=k, tracer=tracer)\n"
        )
        assert self.guard(WIDGET, forward) == []

    def test_a_new_option_in_a_walked_package_is_flagged(self):
        keys = public_names()
        assert ("net/link.py", "Link") in keys
        texts = {m: (SRC / m).read_text() for m, _ in keys}
        texts["net/link.py"] = texts["net/link.py"].replace(
            "        queue_limit: int = 64,",
            "        queue_limit: int = 64,\n        test_only: int = 0,",
        )
        params = constructor_params({key: texts[key[0]] for key in keys})
        assert "test_only" in params["net/link.py", "Link"]
        assert unset_options(params) == ["Link.test_only"]


class TestMethodGuard:
    """The method rule on synthetic modules."""

    WIDGET = (
        "class Widget:\n"
        "    def ping(self):\n"
        "        return self.ping()\n"
        "    def _private(self):\n"
        "        return 0\n"
    )

    def unreached(self, *callers, exempt=()):
        methods = public_methods({"w.py": self.WIDGET})
        assert methods == {("w.py", "Widget.ping")}
        refs = method_references([self.WIDGET, *callers])
        return unreached_methods(methods, refs, dict.fromkeys(exempt, ""))

    def test_a_reference_in_its_own_body_does_not_count(self):
        assert self.unreached() == ["w.py:Widget.ping"]

    def test_an_attribute_a_name_or_a_string_names_it(self):
        assert self.unreached("Widget().ping()") == []
        assert self.unreached("ping = 1") == []
        assert self.unreached('getattr(w, "ping")') == []

    def test_an_exemption_covers_it(self):
        assert self.unreached(exempt=["Widget.ping"]) == []

    def test_a_stale_method_exemption_is_reported(self):
        methods = public_methods({"w.py": self.WIDGET})
        assert stale_method_exemptions(methods, {"Widget.gone": ""}) == [
            "Widget.gone"
        ]

    def test_a_test_only_method_in_a_walked_package_is_flagged(self):
        path = SRC / "net" / "link.py"
        text = path.read_text().replace(
            "    def transmit(",
            "    def test_only_probe(self) -> int:\n"
            "        return 0\n\n"
            "    def transmit(",
            1,
        )
        methods = public_methods({"net/link.py": text})
        assert ("net/link.py", "Link.test_only_probe") in methods
        assert unreached_methods(methods, exempt={}) == [
            "net/link.py:Link.test_only_probe"
        ]
