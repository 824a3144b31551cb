"""Layer spans, recorded from outside the program (traced child only).

``install()`` replaces, at class level, the public functions of each layer
with timing wrappers, and wraps the callbacks handed to the public
registration points (``Simulator.schedule``, ``SharedTicker.register``,
``PeriodicTask``, ``HTTPServer.route``, ``DatagramChannel``,
``MediaServer.open_session``) so an event handler is charged to the module
that defines it. A span is ``[layer, name, parent, session, t0, t1, sim0,
sim1, value]``: layer = module name without ``repro.``, parent = index of
the enclosing span, session = player user / cohort host where the callee
has one, t = host ``perf_counter``, sim = simulated clock, value = a size
the call returned (units, packets, bytes; hit = 1 / miss = 0).

Spans stay in memory; ``write_jsonl`` dumps them after the measurement.
Private glue that no registration point sees (for instance a lambda one
private method passes to another) is charged to the nearest enclosing
span, and so are functions too small to time from outside without
drowning them in the wrapper's own cost (``JitterBuffer.push``,
``Tracer.event``: tens of thousands of sub-microsecond calls). Nothing in
``src/`` is edited.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

SPAN_FIELDS = ["layer", "name", "parent", "session", "t0", "t1", "sim0", "sim1", "value"]
LAYER, NAME, PARENT, SESSION, T0, T1, SIM0, SIM1, VALUE = range(len(SPAN_FIELDS))

#: module -> class -> public methods wrapped as spans
PUBLIC_METHODS: Dict[str, Dict[str, List[str]]] = {
    "repro.net.engine": {
        "Simulator": ["step", "run", "run_until", "fast_forward"],
    },
    "repro.net.link": {"Link": ["transmit"]},
    "repro.net.transport": {
        "DatagramChannel": ["send"],
        "ReliableChannel": ["send"],
    },
    "repro.web.http": {"HTTPClient": ["fetch"], "HTTPServer": ["handle"]},
    "repro.streaming.server": {
        "MediaServer": [
            "publish", "unpublish", "describe", "open_session", "play",
            "adopt_session", "pause", "resume", "seek", "close_session",
            "crash", "restart", "downshift",
        ],
    },
    "repro.streaming.edge": {
        "PacketRunCache": ["lookup", "store", "remove"],
        "EdgeDirectory": [
            "place", "url_for", "mark_down", "mark_up", "fill_sources",
            "record_fill", "forget_fill",
        ],
        "EdgeRelay": [
            "prefetch", "invalidate_point", "open_session", "close_session",
            "unpublish", "play", "shutdown", "drain", "crash", "restart",
            "upstream_crashed",
        ],
    },
    "repro.streaming.session": {"SessionTable": ["create", "close"]},
    "repro.streaming.recovery": {"RecoveryClient": ["observe_gaps", "reset"]},
    "repro.streaming.client": {
        "MediaPlayer": [
            "connect", "play", "pause", "resume", "seek", "stop",
            "split_member", "run_until_finished", "report",
        ],
    },
    "repro.asf.packets": {
        "Depacketizer": ["push_packet", "expect_replay", "loss_report"],
        "Packetizer": ["packetize"],
    },
    "repro.asf.stream": {
        "ASFFile": ["pack", "packed_packets", "fingerprint", "ensure_index"],
    },
    "repro.asf.encoder": {
        "EncodeCache": ["lookup", "store", "lookup_segment", "store_segment"],
        "ASFEncoder": ["encode_file"],
    },
    "repro.asf.farm": {"EncodeFarm": ["encode_batch"]},
    "repro.media.codecs": {"Codec": ["encode"], "ImageCodec": ["encode"]},
    "repro.contenttree.abstractor": {
        "Abstractor": ["at_level", "all_levels", "summarize", "verify_nesting"],
    },
    "repro.lod.lecture": {"Lecture": ["content_tree"]},
    "repro.lod.publisher": {"LODPublisher": ["publish"]},
    "repro.load.cohort": {"CohortViewer": ["start", "split", "depart", "qoes"]},
    "repro.control.heartbeat": {
        "HeartbeatMonitor": ["watch", "watch_directory", "start", "stop"],
    },
}

#: (module holding the binding, function name): module-level public
#: functions, patched in every namespace that imported them by name
PUBLIC_FUNCTIONS: List[Tuple[str, str]] = [
    ("repro.load.workload", "plan_cohorts"),
    ("repro.load.harness", "plan_cohorts"),
    ("repro.load.harness", "encode_lecture"),
    ("repro.asf.farm", "run_encode_job"),
]

#: size a call returned, kept as the span's value
_MEASURE: Dict[Tuple[str, str], Callable[[Any], float]] = {
    ("Depacketizer", "push_packet"): len,
    ("Packetizer", "packetize"): len,
    ("ASFFile", "pack"): len,
    ("PacketRunCache", "lookup"): lambda r: 0 if r is None else 1,
    ("HTTPClient", "fetch"): lambda r: 1 if r.ok else 0,
}


def _cache_entry(cache: Any, key: str, *_: Any, **__: Any) -> str:
    return f"cache{id(cache)}:{key}"


#: calls whose "session" is not a viewer: a run-cache entry, so a miss can
#: be paired with the store that fills it
_SESSION: Dict[Tuple[str, str], Callable[..., Optional[str]]] = {
    ("PacketRunCache", "lookup"): _cache_entry,
    ("PacketRunCache", "store"): _cache_entry,
}


def layer_of(module: Optional[str]) -> str:
    if not module:
        return "builtin"
    return module[len("repro."):] if module.startswith("repro.") else module


def _session_of(obj: Any) -> Optional[str]:
    user = getattr(obj, "user", None)
    if isinstance(user, str):
        return user
    delegate = getattr(obj, "delegate", None)  # CohortViewer
    user = getattr(delegate, "user", None)
    return user if isinstance(user, str) else None


def _session_of_self(*args: Any, **_: Any) -> Optional[str]:
    return _session_of(args[0]) if args else None


class Recorder:
    """All spans of one child process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.stack: List[int] = []
        #: the run's simulator, learnt from its first ``schedule`` call
        self.sim: Any = None
        #: every link that transmitted, for the LinkStats roll-up
        self.links: Dict[int, Any] = {}
        #: (layer, name) -> span indices, rebuilt when spans were added
        self._index: Dict[Tuple[str, str], List[int]] = {}
        self._indexed = 0

    # -- wrapping -------------------------------------------------------

    def _wrap(self, func, layer: str, name: str, session, measure):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        rec = self

        def wrapper(*args, **kwargs):
            sim = rec.sim
            span = [
                layer, name, stack[-1] if stack else -1,
                session(*args, **kwargs),
                clock(), 0.0, sim.now if sim is not None else 0.0, 0.0, None,
            ]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = func(*args, **kwargs)
                if measure is not None:
                    span[VALUE] = measure(result)
                return result
            finally:
                sim = rec.sim  # the first span of a run opens before it exists
                span[SIM1] = sim.now if sim is not None else 0.0
                span[T1] = clock()
                stack.pop()

        wrapper._bench_span = True
        return wrapper

    def method(self, func, layer: str, name: str, measure=None, session=None):
        """Wrap a method or function as a span: session is read from
        ``args[0]`` unless ``session`` derives it from the call's arguments."""
        return functools.update_wrapper(
            self._wrap(func, layer, name, session or _session_of_self, measure), func
        )

    def callback(self, func):
        """Wrap a callback at a registration point, charged to its owner."""
        if func is None or getattr(func, "_bench_span", False):
            return func
        target = func
        while isinstance(target, functools.partial):
            target = target.func
        owner = _session_of(getattr(target, "__self__", None))
        target = getattr(target, "__func__", target)
        return self._wrap(
            func,
            layer_of(getattr(target, "__module__", None)),
            getattr(target, "__name__", type(target).__name__),
            lambda *args, **kwargs: owner,
            None,
        )

    # -- reading --------------------------------------------------------

    def self_times(self) -> List[float]:
        """Per span: its duration minus the part its child spans cover."""
        own = [s[T1] - s[T0] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[T1] - s[T0]
        return own

    def self_by_layer(self) -> Dict[str, float]:
        totals: Dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            totals[span[LAYER]] += own
        return dict(totals)

    def depth_inside(self, layer: str, name: str) -> List[int]:
        """Per span: how many (layer, name) spans enclose it, itself included."""
        depth = [0] * len(self.spans)
        for i, s in enumerate(self.spans):
            above = depth[s[PARENT]] if s[PARENT] >= 0 else 0
            depth[i] = above + (1 if s[LAYER] == layer and s[NAME] == name else 0)
        return depth

    def select(self, layer: str, name: str) -> Iterable[Tuple[int, list]]:
        """(index, span) of every (layer, name) span, in start order."""
        if self._indexed != len(self.spans):
            self._index = defaultdict(list)
            for i, s in enumerate(self.spans):
                self._index[s[LAYER], s[NAME]].append(i)
            self._indexed = len(self.spans)
        return ((i, self.spans[i]) for i in self._index.get((layer, name), ()))

    def write_jsonl(self, path: str) -> None:
        """One JSON array per span, in start order (the line number is the
        span's index); the first line names the fields."""
        with open(path, "w") as fh:
            fh.write(json.dumps(SPAN_FIELDS) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def install() -> Recorder:
    """Put the wrappers in place; returns the recorder they feed."""
    rec = Recorder()

    for module_name, classes in PUBLIC_METHODS.items():
        module = importlib.import_module(module_name)
        layer = layer_of(module_name)
        for class_name, methods in classes.items():
            cls = getattr(module, class_name)
            for method in methods:
                setattr(cls, method, rec.method(
                    cls.__dict__[method], layer, method,
                    _MEASURE.get((class_name, method)),
                    _SESSION.get((class_name, method)),
                ))
    for module_name, name in PUBLIC_FUNCTIONS:
        module = importlib.import_module(module_name)
        func = getattr(module, name)
        if not getattr(func, "_bench_span", False):
            func = rec.method(func, layer_of(func.__module__), name)
        setattr(module, name, func)

    _wrap_registration_points(rec)
    return rec


def _wrap_registration_points(rec: Recorder) -> None:
    from repro.net.engine import PeriodicTask, SharedTicker, Simulator
    from repro.net.link import Link
    from repro.net.transport import DatagramChannel
    from repro.streaming.edge import EdgeRelay
    from repro.streaming.server import MediaServer
    from repro.web.http import HTTPServer

    schedule = Simulator.schedule

    def traced_schedule(self, delay, callback, **kwargs):
        rec.sim = self
        return schedule(self, delay, rec.callback(callback), **kwargs)

    Simulator.schedule = traced_schedule

    schedule_batch = Simulator.schedule_batch

    def traced_schedule_batch(self, events, **kwargs):
        rec.sim = self
        return schedule_batch(
            self, [(d, rec.callback(cb)) for d, cb in events], **kwargs
        )

    Simulator.schedule_batch = traced_schedule_batch

    register = SharedTicker.register

    def traced_register(self, callback):
        return register(self, rec.callback(callback))

    SharedTicker.register = traced_register

    periodic_init = PeriodicTask.__init__

    def traced_periodic_init(self, simulator, interval, callback, **kwargs):
        on_skip = kwargs.pop("on_skip", None)
        periodic_init(
            self, simulator, interval, rec.callback(callback),
            on_skip=rec.callback(on_skip), **kwargs,
        )

    PeriodicTask.__init__ = traced_periodic_init

    route = HTTPServer.route

    def traced_route(self, method, prefix, handler):
        route(self, method, prefix, rec.callback(handler))

    HTTPServer.route = traced_route

    datagram_init = DatagramChannel.__init__

    def traced_datagram_init(self, link, on_receive, **kwargs):
        datagram_init(self, link, rec.callback(on_receive), **kwargs)

    DatagramChannel.__init__ = traced_datagram_init

    # the session's ``deliver`` callback is the player's (or a relay's)
    # packet sink: wrap it below the span wrapper install() already put on
    for cls in (MediaServer, EdgeRelay):
        spanned = cls.__dict__["open_session"]

        def traced_open(self, name, client_host, deliver, *args,
                        _spanned=spanned, **kwargs):
            return _spanned(
                self, name, client_host, rec.callback(deliver), *args, **kwargs
            )

        cls.open_session = traced_open

    transmit = Link.transmit

    def traced_transmit(self, *args, **kwargs):
        rec.links[id(self)] = self
        return transmit(self, *args, **kwargs)

    Link.transmit = traced_transmit


def median(values: List[float]) -> float:
    """Lower median; 0.0 for no samples (the layer did nothing)."""
    return statistics.median_low(values) if values else 0.0
