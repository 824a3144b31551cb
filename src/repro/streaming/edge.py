"""The distributed edge-relay serving tier.

The paper promises a *distributed* lecture-on-demand system; a single
:class:`~repro.streaming.server.MediaServer` caps out at O(clients)
origin egress. This module puts relays between the origin and the
viewers, the way Cycon et al.'s distributed e-learning system scales:

* :class:`EdgeRelay` — a :class:`MediaServer` subclass that *fills* its
  local copy of a publishing point from an upstream over one replica
  session, then re-paces to its own clients with the inherited shared
  schedule/pacing-group machinery. All clients behind one edge watching
  one point share a single upstream session (**request coalescing**).
* :class:`PacketRunCache` — LRU + byte-budget cache of filled packet
  runs, keyed by :meth:`~repro.asf.stream.ASFFile.fingerprint`, so
  repeat viewers, seek/replay, and a restarted edge never touch the
  origin's data path again (hit/miss counters in the process-global
  ``edge_cache`` bag). It caches runs only: a broadcast's packets live
  in the relay's local live stream, whose last ``live_history_seconds``
  serve late joiners as a catch-up train.
* :class:`EdgeDirectory` — consistent-hash ring (virtual nodes, seeded
  sha1 so placement is deterministic and independent of
  ``PYTHONHASHSEED``) placing clients on edges, with admission control
  (capacity), overflow spill to the next ring node, and — for relay
  trees — a **holder registry** recording which edges hold which runs,
  plus the regional-parent map.
* :class:`FillToken` — the hop-limited path token every tree fill
  request carries; a relay that finds itself already in the token's
  path refuses, so A→B→A can never cycle.
* :func:`build_edge_tier` / :func:`build_relay_tree` — topology
  construction: the flat one-level tier of PR 5, and the multi-level
  tree (regional parents absorbing fan-in, sibling fills, shared
  :class:`~repro.streaming.backbone.BackboneBudget`).

**Fill-source selection** (tree mode): on a cache miss an edge consults
the directory and fills from, in order, (1) a *sibling* edge in its
region that already holds (or is currently filling) the run, (2) its
*regional parent*, which absorbs fan-in — sixty-four cold edges in four
regions cost the origin four fills, not sixty-four — and (3) the origin
as the last resort. The origin is always described first (control
plane, zero media egress) so a stale sibling replica is rejected by
cache key before any media moves. Only parents may fill *on behalf of*
another relay; a leaf receiving a tokened fill request serves it from
local state or refuses, which, with the path token, makes fill cascades
finite and loop-free.

Relays speak the same control plane as the origin, so
:class:`~repro.streaming.client.MediaPlayer` /
:class:`~repro.streaming.recovery.RecoveryClient` NAK, downshift, and
reconnect against an edge unchanged; an edge crash re-routes the client
through the directory to a surviving edge.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
from bisect import bisect_left
from collections import OrderedDict
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple,
)
from urllib.parse import urlparse

from ..asf.packets import DataPacket
from ..asf.stream import ASFFile, ASFLiveStream
from ..metrics.counters import Counters, get_counters
from ..net.link import Link
from ..net.transport import DatagramChannel, Message
from ..web.http import HTTPClient, HTTPError, HTTPRequest, HTTPResponse, VirtualNetwork
from .backbone import BackboneBudget, BudgetError
from .recovery import NAK_WIRE_SIZE, NakRequest
from .server import MediaServer, PublishError
from .session import SessionError, SessionState, StreamSession


class PlacementError(Exception):
    """No edge can admit the client (all down or at capacity)."""


# ----------------------------------------------------------------------
# packet-run cache
# ----------------------------------------------------------------------


class PacketRunCache:
    """LRU byte-budgeted cache of filled packet runs.

    Entries are whole :class:`~repro.asf.stream.ASFFile` replicas keyed
    by content fingerprint; the charged size is the packed wire image
    (what the run costs to hold): the header plus
    :meth:`~repro.asf.stream.ASFFile.data_size`, since every packet is
    exactly ``packet_size`` on the wire. Eviction is LRU
    but never evicts the entry just inserted — a run larger than the
    whole budget still serves its current viewers, it just won't keep
    neighbours around. ``on_evict`` (if set) observes every eviction so
    a directory's holder registry can stop advertising the run. Live
    broadcasts are not cached here: their history is the relay's local
    live stream.

    Two optional content-aware layers (see :mod:`repro.catalog`):

    * ``admission`` — a TinyLFU-style policy consulted when a store
      would overflow the budget: the candidate must *beat* the LRU
      victim's windowed frequency estimate or it is turned away
      (``admission_rejected``), which is what keeps a one-shot catalog
      scan from flushing the hot set;
    * ``ttl_seconds`` + ``clock`` — entries expire on lookup once older
      than the TTL (``ttl_evictions``), the passive half of republish
      invalidation (the active half is the origin's invalidation push).
    """

    def __init__(
        self,
        *,
        max_bytes: int = 64 * 1024 * 1024,
        counters: Optional[Counters] = None,
        admission=None,
        ttl_seconds: Optional[float] = None,
    ) -> None:
        if max_bytes <= 0:
            raise ValueError("cache budget must be positive")
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError("ttl_seconds must be positive (or None)")
        self.max_bytes = max_bytes
        self.counters = counters if counters is not None else get_counters("edge_cache")
        #: optional :class:`~repro.catalog.TinyLFUAdmission`-shaped policy
        #: (``record_access(key)`` / ``admit(candidate, victim)``)
        self.admission = admission
        self.ttl_seconds = ttl_seconds
        #: time source for TTL (an EdgeRelay binds the simulator clock)
        self.clock: Optional[Callable[[], float]] = None
        self._entries: "OrderedDict[str, ASFFile]" = OrderedDict()
        self._sizes: Dict[str, int] = {}
        self._stored_at: Dict[str, float] = {}
        self.bytes_cached = 0
        #: observer of evictions (cache key) — set by EdgeRelay when a
        #: directory with a holder registry is attached
        self.on_evict: Optional[Callable[[str], None]] = None

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def keys(self) -> List[str]:
        """Keys from least- to most-recently used."""
        return list(self._entries)

    def _now(self) -> float:
        return self.clock() if self.clock is not None else 0.0

    def lookup(self, key: str) -> Optional[ASFFile]:
        if self.admission is not None:
            self.admission.record_access(key)
        entry = self._entries.get(key)
        if entry is None:
            self.counters.inc("misses")
            return None
        if (
            self.ttl_seconds is not None
            and self._now() - self._stored_at.get(key, 0.0) > self.ttl_seconds
        ):
            self.remove(key, counter="ttl_evictions")
            self.counters.inc("misses")
            return None
        self._entries.move_to_end(key)
        self.counters.inc("hits")
        return entry

    def store(self, key: str, asf: ASFFile) -> bool:
        """Insert a run; False when the admission policy turned it away.

        Re-storing a key already resident (a refill landing the same
        content, a stale-serve refresh) is deduped by cache key *before*
        any charge: the entry is only freshened, never double-counted.
        """
        if key in self._entries:
            self._entries.move_to_end(key)
            self._stored_at[key] = self._now()
            return True
        size = len(asf.header.pack()) + asf.data_size()
        if (
            self.admission is not None
            and self._entries
            and self.bytes_cached + size > self.max_bytes
        ):
            victim = next(iter(self._entries))
            if not self.admission.admit(key, victim):
                self.counters.inc("admission_rejected")
                return False
        self._entries[key] = asf
        self._sizes[key] = size
        self._stored_at[key] = self._now()
        self.bytes_cached += size
        self.counters.inc("insertions")
        self.counters.inc("bytes_inserted", size)
        while self.bytes_cached > self.max_bytes and len(self._entries) > 1:
            self._drop(next(iter(self._entries)), "evictions", "bytes_evicted")
        return True

    def remove(self, key: str, *, counter: str = "invalidations") -> bool:
        """Drop one run eagerly (invalidation push, supersede, TTL).

        Charges come off exactly once however many times this is called;
        ``on_evict`` fires so a holder registry stops advertising it.
        """
        if key not in self._entries:
            return False
        self._drop(key, counter, "bytes_invalidated")
        return True

    def _drop(self, key: str, counter: str, bytes_counter: str) -> None:
        """Take a resident run out, charges and holder registry included."""
        del self._entries[key]
        freed = self._sizes.pop(key)
        self._stored_at.pop(key, None)
        self.bytes_cached -= freed
        self.counters.inc(counter)
        self.counters.inc(bytes_counter, freed)
        if self.on_evict is not None:
            self.on_evict(key)


# ----------------------------------------------------------------------
# hop-limited fill token
# ----------------------------------------------------------------------


class FillToken:
    """Loop protection for tree fills.

    ``path`` lists every relay the request chain has traversed (the
    originator first); a relay that finds its own name in the path
    refuses the request, so A→B→A can never cycle. ``hops`` bounds the
    chain length independently of names. The token rides the control
    plane as two fields — ``fill_path`` (comma-joined, so relay names
    must not contain commas) and ``fill_hops`` — in describe query
    strings and ``open`` bodies.
    """

    __slots__ = ("path", "hops")

    def __init__(self, path: Sequence[str], hops: int) -> None:
        self.path: Tuple[str, ...] = tuple(path)
        self.hops = int(hops)

    def descend(self, name: str) -> "FillToken":
        """The token this relay forwards upstream: one hop spent, its
        own name appended to the path."""
        return FillToken(self.path + (name,), self.hops - 1)

    def wire(self) -> Dict[str, Any]:
        return {"fill_path": ",".join(self.path), "fill_hops": self.hops}

    def query(self) -> str:
        return f"fill_path={','.join(self.path)}&fill_hops={self.hops}"

    @classmethod
    def from_wire(cls, fields: Dict[str, Any]) -> Optional["FillToken"]:
        """Parse from a describe query or an ``open`` body; ``None``
        when the request carries no token (an ordinary origin fill)."""
        raw = fields.get("fill_path")
        if not raw:
            return None
        path = tuple(part for part in str(raw).split(",") if part)
        if not path:
            return None
        return cls(path, int(fields.get("fill_hops", 0)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FillToken(path={'>'.join(self.path)}, hops={self.hops})"


# ----------------------------------------------------------------------
# consistent-hash directory
# ----------------------------------------------------------------------

#: ring points per placeable edge
VNODES = 64


class _EdgeEntry:
    __slots__ = (
        "name", "url", "relay", "capacity", "down", "region", "placeable",
    )

    def __init__(
        self,
        name: str,
        url: Optional[str],
        relay: Optional["EdgeRelay"],
        capacity: Optional[int],
        region: Optional[str] = None,
        placeable: bool = True,
    ) -> None:
        self.name = name
        self.url = url
        self.relay = relay
        self.capacity = capacity
        self.down = False
        self.region = region
        self.placeable = placeable

    def load(self) -> int:
        return len(self.relay.sessions) if self.relay is not None else 0

    def available(self) -> bool:
        if self.down:
            return False
        if self.relay is not None and (self.relay.crashed or self.relay.draining):
            return False
        if self.capacity is not None and self.load() >= self.capacity:
            return False
        return True


class EdgeDirectory:
    """Consistent-hash placement of clients onto edge relays.

    Each edge owns :data:`VNODES` points on a 64-bit sha1 ring (salted by
    ``seed``); a client key walks clockwise from its own hash and takes
    the first *available* edge — not down, not crashed, under capacity.
    The ring gives the two properties the tier needs: deterministic
    placement under a fixed seed, and bounded reshuffle when an edge
    joins or leaves (only keys whose arc changed move).

    For relay trees the directory additionally tracks **regions** (an
    edge belongs to at most one; the per-region *parent* relay is
    registered via :meth:`add_parent` and never placed on the ring) and
    the **holder registry** — which edges hold (or are currently
    filling) which publishing points — consulted by
    :meth:`fill_sources` when a sibling misses.
    """

    def __init__(self, *, seed: int = 0) -> None:
        self.seed = seed
        self._edges: Dict[str, _EdgeEntry] = {}
        self._ring: List[Tuple[int, str]] = []  # (hash, edge name), sorted
        self._ring_edges = 0  # distinct names on the ring
        self._parents: Dict[str, str] = {}  # region -> parent entry name
        self._holders: Dict[str, Set[str]] = {}  # point -> edge names

    # -- membership -----------------------------------------------------

    def _register(
        self, what: str, name: str, relay: Optional["EdgeRelay"],
        url: Optional[str], capacity: Optional[int], **entry: Any,
    ) -> None:
        """One directory entry — a ring leaf or a region parent."""
        if name in self._edges:
            raise PlacementError(f"edge {name!r} already registered")
        if relay is not None and url is None:
            url = f"http://{relay.host}:{relay.port}"
        if url is None:
            raise PlacementError(f"{what} {name!r} needs a relay or a url")
        self._edges[name] = _EdgeEntry(
            name, url.rstrip("/"), relay, capacity, **entry
        )

    def add_edge(
        self,
        name: str,
        *,
        relay: Optional["EdgeRelay"] = None,
        url: Optional[str] = None,
        capacity: Optional[int] = None,
        region: Optional[str] = None,
    ) -> None:
        self._register("edge", name, relay, url, capacity, region=region)
        for v in range(VNODES):
            self._ring.append((self._hash(f"{name}#{v}"), name))
        self._ring.sort()
        self._ring_edges += 1

    def add_parent(self, region: str, *, relay: "EdgeRelay") -> str:
        """Register ``region``'s parent relay as ``parent-<region>``.
        Parents are directory citizens — watched by heartbeats, targeted
        by fault plans, valid fill sources — but never placed on the
        ring: clients land on leaves, parents absorb fan-in."""
        name = f"parent-{region}"
        if region in self._parents:
            raise PlacementError(f"region {region!r} already has a parent")
        self._register(
            "parent", name, relay, None, None, region=region, placeable=False
        )
        self._parents[region] = name
        return name

    def mark_down(self, name: str) -> None:
        self._entry(name).down = True

    def mark_up(self, name: str) -> None:
        self._entry(name).down = False

    def relays(self) -> Dict[str, Optional["EdgeRelay"]]:
        """``{name: relay}`` for every registered relay — leaves *and*
        regional parents — for fault-injector and heartbeat registration."""
        return {name: entry.relay for name, entry in self._edges.items()}

    def edge_url(self, name: str) -> str:
        """Base control/playback URL of one edge."""
        return self._entry(name).url

    def is_available(self, name: str) -> bool:
        """Whether the edge currently admits clients (not down, not
        crashed, not draining, under capacity)."""
        return self._entry(name).available()

    def region_of(self, name: str) -> Optional[str]:
        return self._entry(name).region

    def parent_name(self, region: str) -> Optional[str]:
        return self._parents.get(region)

    # -- parent failover ------------------------------------------------

    def elect_parent(self, region: str) -> Optional[str]:
        """Pick the healthiest same-region leaf to promote when the
        region's parent dies: fewest open sessions (a cohort delegate
        counts once, whatever its multiplicity), name as the
        deterministic tiebreak. Returns ``None`` when no leaf qualifies
        — the region then falls flat to origin-only."""
        candidates = [
            entry for entry in self._edges.values()
            if entry.placeable and entry.region == region
            and self.can_serve_fill(entry.name)
            and not (entry.relay is not None and entry.relay.draining)
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda e: (e.load(), e.name)).name

    def promote_parent(self, region: str, name: str) -> None:
        """Re-point ``region``'s parent slot at ``name`` (a leaf being
        promoted to acting parent). The promoted leaf keeps its ring
        presence — it still serves its own viewers — it just absorbs
        the region's fan-in on top."""
        entry = self._entry(name)
        if entry.region != region:
            raise PlacementError(
                f"cannot promote {name!r}: not in region {region!r}"
            )
        self._parents[region] = name

    def clear_parent(self, region: str) -> None:
        """Drop ``region``'s parent slot — the region falls flat: leaves
        fill and attach straight to the origin until a parent rejoins."""
        self._parents.pop(region, None)

    def _entry(self, name: str) -> _EdgeEntry:
        try:
            return self._edges[name]
        except KeyError:
            raise PlacementError(f"no edge {name!r}") from None

    # -- holder registry (who holds which run) --------------------------

    def record_fill(self, name: str, point: str) -> None:
        """Advertise that ``name`` holds ``point``. Fills register at
        *begin* as well as at completion, so two siblings missing
        concurrently coalesce: the second finds the first's in-flight
        fill and rides it instead of starting its own."""
        if name in self._edges:
            self._holders.setdefault(point, set()).add(name)

    def forget_fill(self, name: str, point: str) -> None:
        holders = self._holders.get(point)
        if holders is not None:
            holders.discard(name)
            if not holders:
                del self._holders[point]

    def holders(self, point: str) -> List[str]:
        return sorted(self._holders.get(point, ()))

    def can_serve_fill(self, name: str) -> bool:
        """Whether ``name`` can answer a *fill* right now. Deliberately
        looser than :meth:`is_available`: a **draining** edge still
        serves fills — that is exactly how its successor warms up
        without a cold origin re-fill — and viewer capacity does not
        gate replica sessions."""
        entry = self._edges.get(name)
        if entry is None or entry.down:
            return False
        if entry.relay is not None and entry.relay.crashed:
            return False
        return True

    def fill_sources(self, name: str, point: str) -> List[str]:
        """Sibling edges in ``name``'s region that hold (or are filling)
        ``point`` and can serve, in deterministic (sorted) order."""
        try:
            region = self.region_of(name)
        except PlacementError:
            region = None
        out: List[str] = []
        for holder in self.holders(point):
            if holder == name:
                continue
            entry = self._edges.get(holder)
            if entry is None or not entry.placeable:
                continue
            if entry.region != region:
                continue
            if not self.can_serve_fill(holder):
                continue
            out.append(holder)
        return out

    # -- placement ------------------------------------------------------

    def _hash(self, value: str) -> int:
        """The top 64 bits of ``sha1("<seed>:<value>")``."""
        digest = hashlib.sha1(f"{self.seed}:{value}".encode()).digest()
        return int.from_bytes(digest[:8], "big")

    def _ring_walk(self, key: str) -> Iterator[str]:
        """Each edge on the ring once, clockwise from ``key``'s hash."""
        ring = self._ring
        start = bisect_left(ring, (self._hash(key),))
        seen: Set[str] = set()
        for i in range(len(ring)):
            name = ring[(start + i) % len(ring)][1]
            if name not in seen:
                seen.add(name)
                yield name
                if len(seen) == self._ring_edges:
                    return

    def spill_order(self, key: str) -> List[str]:
        """Every placeable edge in ring-walk order from ``key``'s hash.

        The first entry is the primary placement; the rest is the
        deterministic overflow order when primaries refuse admission.
        """
        return list(self._ring_walk(key))

    def place(self, key: str) -> str:
        """Edge name admitting ``key``; raises :class:`PlacementError`."""
        ring = self._ring
        if ring:
            # the primary ring entry admits almost every key: try it
            # before setting up the walk, which starts with it again
            start = bisect_left(ring, (self._hash(key),))
            name = ring[start % len(ring)][1]
            if self._edges[name].available():
                return name
        for name in self._ring_walk(key):
            if self._edges[name].available():
                return name
        raise PlacementError(
            f"no edge available for {key!r} "
            f"({len(self._edges)} registered, all down or full)"
        )

    def url_for(self, client_host: str, point: str) -> str:
        """Playback URL for one client/point pair.

        Keys combine client and point so one client's lectures spread
        over the ring while the placement stays deterministic.
        """
        name = self.place(f"{client_host}|{point}")
        return f"{self._edges[name].url}/lod/{point}"


# ----------------------------------------------------------------------
# the relay
# ----------------------------------------------------------------------


class _UpstreamRef:
    """One upstream replica session — at the origin, the regional
    parent, or a sibling edge. Carries everything needed to NAK, close,
    and settle it: the base URL, the NAK datagram channel (lazy), and
    the backbone reservation it holds (if any)."""

    __slots__ = (
        "url", "host", "session_id", "sink", "channel", "budget_rid",
        "abandoned", "feed",
    )

    def __init__(
        self,
        url: str,
        host: Optional[str],
        session_id: int,
        sink,
        budget_rid: Optional[str] = None,
    ) -> None:
        self.url = url
        self.host = host
        self.session_id = session_id
        self.sink = sink
        self.channel: Optional[DatagramChannel] = None
        self.budget_rid = budget_rid
        #: the upstream is known dead/unreachable (monitor-settled):
        #: skip the remote close instead of stalling on a silent host
        self.abandoned = False
        #: live feed id (live.feed/live.feed_end) once a live leg plays
        self.feed: Optional[str] = None


class _FillState:
    """One in-flight fill of a point, possibly spanning several upstream
    sources. The *driver* (the frame that started the fill) owns source
    selection: ``attempt_failed`` aborts only the current attempt, while
    ``exhausted`` tells nested riders that every source was tried."""

    __slots__ = (
        "point", "header", "cache_key", "sequences",
        "got", "session_id", "done", "exhausted", "attempt_failed",
        "supersedes",
    )

    def __init__(
        self, point: str, header, cache_key: str, sequences: Tuple[int, ...]
    ) -> None:
        self.point = point
        self.header = header
        self.cache_key = cache_key
        self.sequences = sequences
        self.got: Dict[int, DataPacket] = {}
        self.session_id: Optional[int] = None
        self.done = False
        self.exhausted = False
        self.attempt_failed = False
        #: cache key this point previously resolved to (a republish
        #: changed the content): the stale run is dropped when the fill
        #: lands so both generations never occupy budget at once
        self.supersedes: Optional[str] = None

    def missing(self) -> List[int]:
        return [s for s in self.sequences if s not in self.got]


class EdgeRelay(MediaServer):
    """A relay between the origin and the viewers.

    Inherits the full serving stack — sessions, shared-schedule pacing,
    NAK repair, MBR downshift, QoS, crash/restart, HTTP control plane —
    and adds the upstream side:

    * the first client opening a point triggers a **fill**: one replica
      session against an upstream source bursts the whole packet run
      across the backbone (loss repaired by upstream NAK rounds), the
      assembled file is fingerprint-verified, cached, and published
      locally. With a directory attached the source is chosen sibling →
      regional parent → origin; without one (the flat PR 5 tier) fills
      go straight to the origin;
    * later clients of the same point coalesce onto the already-local
      copy — zero extra origin traffic; a refill after crash/idle is a
      cache hit and costs the origin only a control-plane open;
    * when the *last* local client leaves, the local point is retired
      and the upstream session closed, so upstream session/QoS lifetime
      matches local demand exactly (two-hop teardown);
    * ``join_quantum`` is how long a pacing group stays joinable: every
      ``play()`` starts at once, and a viewer landing in the same quantum
      as an equal one catches up on its trains and joins its group.

    Broadcast points pass through: the upstream feed — pulled from the
    regional parent when one is configured, so it enters each region
    exactly once — is republished as a local live stream, late joiners
    get its last ``live_history_seconds`` as catch-up, and NAKs for
    packets the relay itself never received are forwarded upstream.
    """

    #: edges publish/retire local copies constantly — only the origin's
    #: point lifecycle is authoritative for the trace audit
    _trace_point_lifecycle = False

    #: backbone fill: seconds one upstream attempt may take, the quiet
    #: interval after which missing packets are NAKed, and how many such
    #: rounds an attempt gets
    FILL_TIMEOUT = 30.0
    FILL_NAK_INTERVAL = 0.25
    FILL_NAK_ROUNDS = 8
    #: a fill's grant: the whole run bursts across the backbone as one
    #: whole-file train instead of pacing out in real time
    FILL_BURST = 64.0
    #: hop budget minted into a viewer-triggered :class:`FillToken`
    FILL_HOP_LIMIT = 3

    def __init__(
        self,
        network: VirtualNetwork,
        host: str,
        *,
        origin_url: str,
        name: Optional[str] = None,
        cache: Optional[PacketRunCache] = None,
        port: int = 8080,
        pacing_quantum: float = 0.0,
        join_quantum: float = 0.0,
        region: Optional[str] = None,
        is_parent: bool = False,
        backbone: Optional[BackboneBudget] = None,
        live_history_seconds: float = 0.0,
        tracer=None,
    ) -> None:
        if join_quantum < 0:
            raise PublishError("join_quantum must be >= 0")
        self.name = name or host
        super().__init__(
            network, host,
            port=port, pacing_quantum=pacing_quantum,
            tracer=tracer, trace_label=self.name,
        )
        self.origin_url = origin_url.rstrip("/")
        parsed = urlparse(self.origin_url)
        self.origin_host = parsed.hostname
        self.cache = cache if cache is not None else PacketRunCache()
        self.cache.clock = lambda: self.simulator.now
        self.join_quantum = join_quantum
        self.region = region
        self.is_parent = is_parent
        self.backbone = backbone
        self.live_history_seconds = live_history_seconds
        #: sibling-aware fill sourcing; set via :meth:`attach_directory`
        self.directory: Optional[EdgeDirectory] = None
        self.http_client = HTTPClient(network, host)
        #: set by :meth:`drain`: the relay stops admitting viewers
        #: (directory entries report unavailable) while live sessions
        #: hand off — but *replica* opens stay admitted, so successors
        #: can warm up from this edge instead of re-filling from origin
        self.draining = False
        #: point -> upstream replica session (exactly one per local point)
        self._upstream: Dict[str, _UpstreamRef] = {}
        self._fills: Dict[str, _FillState] = {}
        #: broadcast points whose upstream attach is in flight — a
        #: concurrent open waits on the attach instead of duplicating it
        self._pending_broadcasts: Set[str] = set()
        #: point -> cache key of the run last filled for it — the disk
        #: index beside the cache: it lets a viewer arriving while the
        #: origin is *unreachable* (describe impossible) still be served
        #: the cached run instead of refused. Like the cache, it survives
        #: crash/restart — it models on-disk metadata, not process state.
        self._cache_keys: Dict[str, str] = {}
        #: (upstream url, session id) pairs whose close never reached the
        #: upstream (edge crash, upstream outage) — retried until one
        #: lands, so no upstream's session table or QoS channels leak
        #: across edge faults
        self._orphan_upstream: List[Tuple[str, int]] = []
        self._releasing: Set[str] = set()
        #: live point -> [highest sequence in its local stream (-1 while
        #: empty), index of the stream's first packet inside
        #: ``live_history_seconds``] — the stream itself is the record
        self._live_marks: Dict[str, List[int]] = {}
        self._feed_ids = itertools.count(1)
        #: sequences super()._repair_entry could not serve locally during
        #: the current _handle_nak call — forwarded upstream afterwards
        self._nak_forward: Optional[List[int]] = None

    def attach_directory(self, directory: EdgeDirectory) -> None:
        """Enable tree fills: consult ``directory`` for sibling/parent
        sources and advertise the runs this relay holds (including
        evictions, via the cache's ``on_evict`` hook)."""
        self.directory = directory
        self.cache.on_evict = self._on_cache_evict
        for point, key in self._cache_keys.items():
            if key in self.cache:
                directory.record_fill(self.name, point)

    def _on_cache_evict(self, key: str) -> None:
        if self.directory is None:
            return
        for point, cache_key in self._cache_keys.items():
            if cache_key == key:
                self.directory.forget_fill(self.name, point)

    # ------------------------------------------------------------------
    # upstream control plane
    # ------------------------------------------------------------------

    def _control_at(self, url: str, action: str, **fields) -> Any:
        response = self.http_client.post(
            f"{url}/control/{action}", body=fields
        )
        if not response.ok:
            raise PublishError(
                f"upstream {action} at {url} failed: "
                f"{response.status} {response.body}"
            )
        return response.body

    def _open_upstream(
        self,
        url: str,
        name: str,
        deliver: Callable[[List[DataPacket]], None],
        *,
        token: Optional[FillToken] = None,
        budget_rid: Optional[str] = None,
    ) -> _UpstreamRef:
        fields: Dict[str, Any] = {
            "point": name, "deliver": deliver, "replica": True,
        }
        if token is not None:
            fields.update(token.wire())
        try:
            body = self._control_at(url, "open", **fields)
        except (HTTPError, PublishError):
            # a refused open returns the link charge it was made under
            if budget_rid is not None and self.backbone is not None:
                self.backbone.release(budget_rid)
            raise
        return _UpstreamRef(
            url, urlparse(url).hostname, body["session_id"],
            body.get("recovery_sink"), budget_rid,
        )

    def _nak_upstream(
        self, ref: Optional[_UpstreamRef], sequences: Sequence[int]
    ) -> None:
        if ref is None or ref.sink is None or ref.host is None or not sequences:
            return
        if ref.channel is None:
            link = self.network.link(self.host, ref.host)
            ref.channel = DatagramChannel(link, ref.sink)
        for i in range(0, len(sequences), 64):
            ref.channel.send(Message(
                NakRequest(ref.session_id, tuple(sequences[i:i + 64])),
                NAK_WIRE_SIZE,
            ))
        self.recovery_stats.inc("upstream_naks")

    def _close_ref(self, ref: _UpstreamRef) -> None:
        if ref.abandoned:
            # the monitor declared this upstream dead and settled both
            # sides already; a close round-trip would only stall this
            # frame on a host that cannot answer
            self.cache.counters.inc("dead_upstream_closes_skipped")
            return
        self._post_close(ref.url, ref.session_id)

    def _post_close(self, url: str, session_id: int) -> None:
        """Close one upstream replica session. An unreachable upstream
        keeps the pair on the orphan list for the next retry."""
        try:
            # a non-OK answer means the upstream already dropped the
            # session (crash wiped it) — nothing left to close either way
            self.http_client.post(
                f"{url}/control/close", body={"session_id": session_id}
            )
        except HTTPError:
            self._orphan_upstream.append((url, session_id))

    def _reserve(self, url: str, bitrate: float, owner: str) -> Optional[str]:
        """Charge the tree link to ``url`` for ``bitrate``: the reservation
        id, ``None`` without a backbone. Raises :class:`BudgetError` when
        the link cannot take it."""
        if self.backbone is None:
            return None
        return self.backbone.reserve(
            (self.host, urlparse(url).hostname or url), bitrate, owner=owner
        )

    def _release_budget(self, ref: _UpstreamRef) -> None:
        if ref.budget_rid is not None and self.backbone is not None:
            self.backbone.release(ref.budget_rid)
            ref.budget_rid = None

    # ------------------------------------------------------------------
    # fill: replicate a point from sibling / parent / origin
    # ------------------------------------------------------------------

    def prefetch(self, name: str) -> None:
        """Warm the relay: replicate ``name`` before any client asks."""
        self._ensure_local(name)

    def _drop_superseded(self, name: str, old_key: str) -> None:
        """Retire a pre-republish run unless another point still needs it
        (LOD variants can share a deduped run)."""
        for point, key in self._cache_keys.items():
            if point != name and key == old_key:
                return
        self.cache.remove(old_key, counter="superseded_runs_dropped")

    # ------------------------------------------------------------------
    # republish invalidation (pushed by the origin publisher)
    # ------------------------------------------------------------------

    def invalidate_point(self, name: str, cache_key: Optional[str] = None) -> bool:
        """Eagerly drop a stale run after a republish.

        ``cache_key`` (when given) is the *new* authoritative key: a run
        already matching it is fresh and kept. Everything else held for
        the point — the cached run, the local publishing point, an
        in-flight fill of the old generation — is torn down, so the next
        viewer refills the new content instead of riding stale bytes.
        Returns True when anything stale was actually dropped.
        """
        held = self._cache_keys.get(name)
        if held is not None and cache_key is not None and held == cache_key:
            return False
        dropped = False
        fill = self._fills.get(name)
        if fill is not None and not fill.done and (
            cache_key is None or fill.cache_key != cache_key
        ):
            # a fill of the old generation is mid-flight: abort it so the
            # stale-source gate (origin re-describe) restarts it fresh
            fill.attempt_failed = True
            fill.exhausted = True
            self.cache.counters.inc("stale_fill_aborted")
            dropped = True
        if held is not None:
            if self.cache.remove(held):
                dropped = True
            del self._cache_keys[name]
        point = self.points.get(name)
        if point is not None and not point.broadcast:
            self.unpublish(name)
            dropped = True
        if self.directory is not None:
            self.directory.forget_fill(self.name, name)
        if dropped and self.tracer is not None:
            self.tracer.event(
                "cache.invalidate",
                edge=self.name, point=name,
                stale_key=held, fresh_key=cache_key,
            )
        return dropped

    def _serve_stale(self, name: str) -> bool:
        """Publish ``name`` from the cached run, if the disk holds one.

        No upstream is reachable, so no replica session is registered —
        the upstream learns about this replica (if it ever comes back)
        through the ordinary next fill or shutdown path.
        """
        cache_key = self._cache_keys.get(name)
        cached = self.cache.lookup(cache_key) if cache_key is not None else None
        if cached is None:
            return False
        self.publish(name, cached)
        self.cache.counters.inc("stale_serves")
        if self.directory is not None:
            self.directory.record_fill(self.name, name)
        return True

    def _ensure_local(
        self, name: str, token: Optional[FillToken] = None
    ) -> None:
        """Make ``name`` a local publishing point (fill if needed).

        ``token`` is the fill token a *tree* request carried; ``None``
        for viewer-triggered fills. A relay already in the token's path
        refuses — that, plus the hop limit, is the loop protection.
        """
        if self.crashed:
            raise SessionError("server is down")
        self._retry_orphans()
        if token is not None and self.name in token.path:
            self.cache.counters.inc("fill_refused_loop")
            if self.tracer is not None:
                self.tracer.event(
                    "edge.fill_refused",
                    edge=self.name, point=name,
                    reason="loop", path=list(token.path),
                )
            raise PublishError(
                f"relay {self.name}: fill loop refused "
                f"(path {'>'.join(token.path)})"
            )
        if name in self.points:
            return
        fill = self._fills.get(name)
        if fill is not None:
            # a concurrent request for the same point: ride the fill
            # already in flight instead of starting a second one
            self._ride_fill(fill, name)
            return
        if name in self._pending_broadcasts:
            self._ride_broadcast_attach(name)
            return
        self._begin_fill(name, token)

    def _ride_broadcast_attach(self, name: str) -> None:
        """Wait (nested) on another frame's in-flight broadcast attach
        instead of opening a duplicate upstream feed."""
        self.simulator.wait(
            lambda: (
                name not in self._pending_broadcasts
                or name in self.points
                or self.crashed
            ),
            deadline=self.simulator.now + self.FILL_TIMEOUT,
        )
        if name not in self.points:
            raise PublishError(f"broadcast attach of {name!r} failed")

    def _describe_source(
        self, url: str, name: str, token: Optional[FillToken]
    ) -> Optional[Dict[str, Any]]:
        query = "replica=1" if token is None else f"replica=1&{token.query()}"
        try:
            response = self.http_client.get(f"{url}/lod/{name}?{query}")
        except HTTPError:
            return None
        if not response.ok:
            return None
        return response.body

    def _current_parent_url(self) -> Optional[str]:
        """This relay's regional upstream right now, or ``None``.

        Read from the directory's parent slot — the only place the
        topology is stored — so a failover promotion is picked up by
        every leaf without reconfiguration, and a parent marked down (or
        a region fallen flat) yields ``None`` — never a dead upstream.
        """
        if self.is_parent or self.directory is None or self.region is None:
            return None
        pname = self.directory.parent_name(self.region)
        if pname is None or pname == self.name:
            return None  # region fell flat, or we *are* the parent
        if not self.directory.can_serve_fill(pname):
            return None  # down/crashed parent is no upstream at all
        return self.directory.edge_url(pname)

    def _data_sources(
        self, name: str, token: FillToken
    ) -> List[Tuple[str, str]]:
        """Ordered fill plan: siblings holding the run, then the
        regional parent (which absorbs fan-in), then the origin."""
        sources: List[Tuple[str, str]] = []
        if self.directory is not None:
            for peer in self.directory.fill_sources(self.name, name):
                if peer in token.path:
                    continue  # asking it back would only bounce (loop)
                url = self.directory.edge_url(peer)
                if url != self.origin_url:
                    sources.append(("sibling", url))
        parent = self._current_parent_url()
        if parent:
            sources.append(("parent", parent))
        sources.append(("origin", self.origin_url))
        return sources

    def _begin_fill(self, name: str, token: Optional[FillToken]) -> None:
        out_token = (
            token.descend(self.name) if token is not None
            else FillToken((self.name,), self.FILL_HOP_LIMIT)
        )
        # always describe the origin first: the authoritative manifest
        # (cache key, sequence list) is what gates stale replicas out of
        # the fill plan, and a describe is control plane — zero media
        authority = self._describe_source(self.origin_url, name, None)
        source_plan: Optional[List[Tuple[str, str]]] = None
        fallback_parent = self._current_parent_url()
        if authority is None and token is None and fallback_parent:
            # the origin is unreachable *from here* — the regional
            # parent may still reach it, and describing the parent both
            # answers and warms it; its manifest becomes the authority
            authority = self._describe_source(fallback_parent, name, out_token)
            if authority is not None:
                source_plan = [("parent", fallback_parent)]
        if authority is None:
            # nothing upstream can even be described — but if a previous
            # fill left the run on disk, serve stale rather than refuse
            if self._serve_stale(name):
                return
            raise PublishError(
                f"origin describe of {name!r} failed: unreachable or refused"
            )
        # the describe round-trip stepped the simulator re-entrantly: a
        # concurrent open may have published the point (or registered a
        # fill) while this frame was blocked — re-check before acting
        if name in self.points:
            return
        racing = self._fills.get(name)
        if racing is not None:
            self._ride_fill(racing, name)
            return
        header = authority["header"]
        if authority.get("broadcast"):
            if name in self._pending_broadcasts:
                self._ride_broadcast_attach(name)
                return
            self._pending_broadcasts.add(name)
            try:
                self._attach_broadcast(name, header, token)
            finally:
                self._pending_broadcasts.discard(name)
            return
        cache_key = authority["cache_key"]
        # a republish changed the point's content address: remember the
        # old run so the refill (or cache hit below) retires it — the
        # budget must never carry two generations of one point
        prev_key = self._cache_keys.get(name)
        superseded = prev_key if prev_key and prev_key != cache_key else None
        self._cache_keys[name] = cache_key
        cached = self.cache.lookup(cache_key)
        if cached is not None:
            if superseded is not None:
                self._drop_superseded(name, superseded)
            # the run is already on local disk: the origin sees only a
            # control-plane open (zero media egress), kept so the origin
            # still knows one replica session per edge per point.
            # Publish BEFORE the (re-entrant) upstream registration so
            # opens landing inside that round-trip see the point and
            # bail at _ensure_local instead of double-publishing.
            self.publish(name, cached)
            if self.directory is not None:
                self.directory.record_fill(self.name, name)
            try:
                ref = self._open_upstream(
                    self.origin_url, name, self._drop_train
                )
            except (HTTPError, PublishError):
                # origin unreachable/down but the content is local: serve
                # stale rather than refusing viewers
                self.cache.counters.inc("stale_serves")
            else:
                if name in self.points and name not in self._upstream:
                    self._upstream[name] = ref
                else:
                    # the point was released while we were registering:
                    # settle the now-pointless upstream session right away
                    self._close_ref(ref)
            return
        if token is not None:
            # a fill *on behalf of* another relay: only regional parents
            # absorb those. A leaf serves tokened requests from local
            # state (checked above) or refuses — cascades stay finite.
            if not self.is_parent:
                self.cache.counters.inc("fill_refused_cascade")
                raise PublishError(
                    f"relay {self.name}: fill of {name!r} on behalf of "
                    f"{token.path[0]!r} refused (not a regional parent)"
                )
            if token.hops <= 0:
                self.cache.counters.inc("fill_refused_hops")
                raise PublishError(
                    f"relay {self.name}: fill of {name!r} refused — hop "
                    f"limit exhausted (path {'>'.join(token.path)})"
                )
        bitrate = max(float(authority.get("bitrate", 0.0)), 1.0)
        fill = _FillState(name, header, cache_key, tuple(authority["sequences"]))
        fill.supersedes = superseded
        self._fills[name] = fill
        if self.directory is not None:
            # advertise immediately: a sibling missing concurrently finds
            # this in-flight fill and rides it instead of duplicating it
            self.directory.record_fill(self.name, name)
        try:
            plan = source_plan if source_plan is not None else \
                self._data_sources(name, out_token)
            for kind, url in plan:
                if self.crashed or fill.exhausted:
                    break
                if self._fill_from(fill, kind, url, bitrate, out_token):
                    if self.directory is not None and fill.cache_key in self.cache:
                        self.directory.record_fill(self.name, name)
                    return
            fill.exhausted = True
            raise PublishError(
                f"edge fill of {name!r} failed: no upstream source delivered"
            )
        finally:
            self._fills.pop(name, None)
            if not fill.done:
                if self.directory is not None:
                    self.directory.forget_fill(self.name, name)
                # a failed fill must not leave a cache-key claim with no
                # run behind it (e.g. the generation was torn down at the
                # origin mid-fill): the next ensure re-describes fresh
                if (
                    self._cache_keys.get(name) == fill.cache_key
                    and fill.cache_key not in self.cache
                ):
                    del self._cache_keys[name]

    def _fill_from(
        self,
        fill: _FillState,
        kind: str,
        url: str,
        bitrate: float,
        token: FillToken,
    ) -> bool:
        """Attempt one upstream source; True when the fill landed."""
        name = fill.point
        upstream_host = urlparse(url).hostname
        if kind != "origin":
            # verify the source against the origin's authoritative cache
            # key before any media moves: a sibling left holding an old
            # version of a republished run is rejected up front (the
            # assembled-bytes fingerprint gate stays as the second line)
            check = self._describe_source(url, name, token)
            if check is None:
                self.cache.counters.inc("fill_source_unreachable")
                return False
            if check.get("cache_key") != fill.cache_key:
                self.cache.counters.inc("stale_source_rejected")
                if self.tracer is not None:
                    self.tracer.event(
                        "edge.fill_refused",
                        edge=self.name, point=name, source=kind,
                        upstream=upstream_host, reason="stale",
                    )
                return False
            if fill.done or name in self.points:
                return name in self.points  # landed during the describe
        try:
            rid = self._reserve(url, bitrate, f"{self.name}:{name}")
        except BudgetError:
            self.cache.counters.inc("fill_budget_refused")
            if self.tracer is not None:
                self.tracer.event(
                    "edge.fill_refused",
                    edge=self.name, point=name, source=kind,
                    upstream=upstream_host, reason="budget",
                )
            return False
        if self.tracer is not None:
            self.tracer.event(
                "edge.fill_request",
                edge=self.name, point=name, source=kind,
                upstream=upstream_host, path=list(token.path),
                hops=token.hops,
            )
        fill.attempt_failed = False
        try:
            ref = self._open_upstream(
                url, name, functools.partial(self._on_fill_train, fill),
                token=token, budget_rid=rid,
            )
        except (HTTPError, PublishError):
            self.cache.counters.inc("fill_source_refused")
            return False
        fill.session_id = ref.session_id
        self._upstream[name] = ref
        try:
            self._control_at(
                url, "play",
                session_id=ref.session_id,
                burst_factor=self.FILL_BURST,
                burst_seconds=(
                    fill.header.file_properties.duration_ms / 1000.0 + 1.0
                ),
            )
            self._wait_fill(
                fill, self.simulator.now + self.FILL_TIMEOUT, rider=False
            )
        except (HTTPError, PublishError):
            pass  # the play round-trip failed: nothing was awaited
        if not fill.done:
            # a timeout, crash or dry queue fails only *this attempt*;
            # the caller moves to the next source in the plan
            fill.attempt_failed = True
        if fill.done and name in self.points:
            # the burst is over: give the link its bandwidth back — the
            # replica session stays open but is control plane only
            self._release_budget(ref)
            self.cache.counters.inc(f"{kind}_fills")
            return True
        # this source is dead, stale, or incomplete: tear it down and
        # let the caller try the next one. After a local crash the close
        # cannot be sent from here — crash() already orphaned the ref
        # for the heartbeat monitor (or a restart) to settle.
        if self._upstream.get(name) is ref:
            del self._upstream[name]
        self._release_budget(ref)
        if not self.crashed:
            self._close_ref(ref)
        fill.session_id = None
        return False

    @staticmethod
    def _drop_train(_packets: List[DataPacket]) -> None:
        """Deliver sink of a register-only (cache hit) replica session."""

    def _on_fill_train(self, fill: _FillState, packets: List[DataPacket]) -> None:
        if fill.done or fill.exhausted or fill.attempt_failed:
            return
        got = fill.got
        for packet in packets:
            got[packet.sequence] = packet
        if len(got) == len(fill.sequences):
            # completion must happen *here*, in the deliver callback: a
            # nested waiter's _ride_fill (re-entrant simulator stepping)
            # can only proceed once the point is actually published
            self._complete_fill(fill)

    def _complete_fill(self, fill: _FillState) -> None:
        asf = ASFFile(
            header=fill.header,
            packets=[fill.got[s] for s in fill.sequences],
        )
        if asf.fingerprint() != fill.cache_key:
            fill.attempt_failed = True
            self.cache.counters.inc("fill_integrity_failures")
            return
        if fill.supersedes is not None:
            # retire the pre-republish run *before* charging the new one:
            # dedupe by cache key, so the byte budget never counts both
            # generations of the point at once
            self._drop_superseded(fill.point, fill.supersedes)
            fill.supersedes = None
        stored = self.cache.store(fill.cache_key, asf)
        if not stored and self.directory is not None:
            # admission turned the run away: it still serves this fill's
            # viewers (published below) but is not on disk, so stop
            # advertising it as a fill source
            self.directory.forget_fill(self.name, fill.point)
        if fill.point not in self.points and not self.crashed:
            self.publish(fill.point, asf)
        fill.done = True
        self.cache.counters.inc("fills")
        if self.tracer is not None:
            self.tracer.event(
                "edge.fill",
                edge=self.name,
                point=fill.point,
                packets=len(fill.sequences),
            )

    def _wait_fill(
        self, fill: _FillState, deadline: float, *, rider: bool
    ) -> None:
        """Block (nested wait, like ``HTTPClient.fetch``) on a fill.

        The *driver* waits out its current attempt (``done`` or
        ``attempt_failed``); a *rider* — a concurrent request for a point
        someone else is filling — waits out the whole source plan (``done``
        or ``exhausted``) and never mutates the fill. Both send the NAK
        rounds, and a round goes out only on a quiet wire: once
        ``FILL_NAK_INTERVAL`` has passed both since the round began and
        since the inbound link (upstream → this relay) landed the last
        message it accepted (:attr:`Link.landing_horizon`, read again
        whenever the round comes due), capped at the horizon when the round
        began plus the wire time of the fill's own missing packets. So a
        whole-file train still in flight is never re-requested, while
        traffic the link takes later — a live feed from the same upstream —
        delays a round by at most the fill's own bytes and cannot starve
        it. The upstream repairs from its shared packet cache even after
        the burst: FINISHED sessions still answer NAKs. Inside a nested
        frame the driver sits below the rider on the stack and cannot act
        until the rider returns. A local crash or a dry event queue just
        ends the wait; the caller reads the outcome off ``fill``.
        ``deadline`` is read when a round comes due and by the final wait,
        never inside a round: a train already on the wire gets its own
        wire time plus one ``FILL_NAK_INTERVAL`` to land, even past it.
        """
        simulator = self.simulator

        def settled() -> bool:
            return (
                fill.done
                or (fill.exhausted if rider else fill.attempt_failed)
                or self.crashed
            )

        packet_size = fill.header.file_properties.packet_size
        rounds = 0
        while True:
            began = simulator.now
            ref = self._upstream.get(fill.point)
            link = None
            limit = began
            if ref is not None and ref.host is not None:
                link = self.network.link(ref.host, self.host)
                # what the link has taken by now, plus room for the fill's
                # own missing packets: later traffic cannot hold the round
                limit = max(began, link.landing_horizon) + (
                    link.serialization_time(len(fill.missing()) * packet_size)
                )
            due = self._fill_nak_due(link, began, limit)
            while True:
                simulator.wait(
                    lambda: settled() or simulator.now >= due, deadline=due
                )
                if settled():
                    return
                # a wait that stops short of ``due`` ran every event before
                # it: unless the wire took more meanwhile, it is quiet
                later = self._fill_nak_due(link, began, limit)
                if later <= due:
                    break
                due = later
            missing = fill.missing()
            if (
                not missing or rounds >= self.FILL_NAK_ROUNDS
                or simulator.now >= deadline
            ):
                break
            self._nak_upstream(self._upstream.get(fill.point), missing)
            rounds += 1
        simulator.wait(settled, deadline=deadline)

    def _fill_nak_due(
        self, link: Optional[Link], began: float, limit: float
    ) -> float:
        """When a NAK round begun at ``began`` is due: ``FILL_NAK_INTERVAL``
        after both ``began`` and the inbound link's landing horizon, the
        latter capped at ``limit``."""
        quiet = began
        if link is not None:
            quiet = max(quiet, min(link.landing_horizon, limit))
        return quiet + self.FILL_NAK_INTERVAL

    def _ride_fill(self, fill: _FillState, name: str) -> None:
        """Wait on someone else's in-flight fill. The deadline is generous
        enough to span the driver walking its whole source plan."""
        self._wait_fill(
            fill,
            self.simulator.now
            + self.FILL_TIMEOUT * (self.FILL_HOP_LIMIT + 2),
            rider=True,
        )
        if fill.done and name in self.points:
            return
        raise PublishError(f"edge fill of {name!r} failed")

    # -- broadcast passthrough ------------------------------------------

    def _attach_broadcast(
        self, name: str, header, token: Optional[FillToken]
    ) -> None:
        """Republish an upstream broadcast as a local live stream.

        In a relay tree the feed is pulled from the regional parent, so
        it enters each region exactly once and fans out parent →
        children: the origin carries one live session per region, not
        one per edge. The parent's copy of the feed is one shared pacing
        path — every child session rides the same event-driven fan-out.
        """
        if token is not None and not self.is_parent:
            self.cache.counters.inc("fill_refused_cascade")
            raise PublishError(
                f"relay {self.name}: broadcast attach of {name!r} on "
                f"behalf of {token.path[0]!r} refused (not a regional parent)"
            )
        out_token = (
            token.descend(self.name) if token is not None
            else FillToken((self.name,), self.FILL_HOP_LIMIT)
        )
        try:
            self._open_live_leg(
                name, self._current_parent_url() or self.origin_url,
                ASFLiveStream(header), out_token,
            )
        except (HTTPError, PublishError):
            if name in self.points:
                # the play was refused after the point went up: a point
                # with no feed would hand every later viewer a silent
                # session, so retire it (which settles the leg) instead
                self.unpublish(name)
            raise

    def _open_live_leg(
        self, name: str, url: str, stream: ASFLiveStream, token: FillToken
    ) -> _UpstreamRef:
        """Open one live point's upstream leg: the one body behind a
        first attach and a failover re-attach.

        Charges the tree link, opens and registers the replica session,
        publishes ``stream`` unless the point already is (a re-attach
        keeps every viewer's stream), plays, and traces the new feed.
        :class:`BudgetError` propagates (honest admission beats
        oversubscribed multicast); a refused open returns the link
        charge, and a refused play leaves the leg registered for the
        point's unpublish to settle.
        """
        migrated = name in self.points
        rid = self._reserve(
            url, max(float(stream.header.total_bitrate), 1.0),
            f"{self.name}:{name}:live",
        )
        ref = self._open_upstream(
            url, name, functools.partial(self._on_broadcast_train, name, stream),
            token=token, budget_rid=rid,
        )
        self._upstream[name] = ref
        if not migrated:
            self.publish(name, stream)
            self._live_marks[name] = [-1, 0]
        self._control_at(url, "play", session_id=ref.session_id)
        ref.feed = f"{self.name}:{name}#{next(self._feed_ids)}"
        if self.tracer is not None:
            self.tracer.event(
                "live.feed",
                feed=ref.feed,
                edge=self.name,
                region=self.region,
                point=name,
                upstream=ref.host,
                # the one-feed-per-region invariant audits exactly the
                # feeds that cross the region boundary (origin-fed)
                enters_region=url == self.origin_url,
                **({"migrated": True} if migrated else {}),
            )
        return ref

    def _on_broadcast_train(
        self, name: str, stream: ASFLiveStream, packets: List[DataPacket]
    ) -> None:
        point = self.points.get(name)
        if point is None or point.content is not stream:
            return  # a late train of a torn-down leg
        marks = self._live_marks[name]
        ref = self._upstream.get(name)
        for packet in packets:
            # the upstream deliver path is not duplicate-free: a feed
            # migrated after parent failover receives overlapping catch-up
            # history, and the same repair can be forwarded twice — the
            # local stream fans out to every viewer, so it must append each
            # sequence exactly once
            index = self._schedules[name].sequence_index()
            if packet.sequence in index:
                self.cache.counters.inc("live_duplicates_dropped")
                continue
            # a sequence jump past everything in the stream marks packets
            # the upstream never sent us — after a feed migration the
            # successor resumes at its own head, so the crash-to-detection
            # gap shows up here as the first post-attach packet
            # overshooting the contiguous tail.  NAK the hole; repairs
            # cascade up the tree.
            if index and packet.sequence > marks[0] + 1 and ref is not None:
                gap = list(range(marks[0] + 1, packet.sequence))
                self._nak_upstream(ref, gap)
                self.cache.counters.inc("live_gap_naks", len(gap))
            marks[0] = max(marks[0], packet.sequence)
            stream.append([packet])
        # move the history start past packets sent before the horizon —
        # a send-time-bounded deque's eviction, so it only moves forward
        floor = (
            self.simulator.now * 1000.0 - self.live_history_seconds * 1000.0
        )
        history = stream.packets
        while marks[1] < len(history) and history[marks[1]].send_time_ms < floor:
            marks[1] += 1

    def _drop_leg(self, point: str) -> Optional[_UpstreamRef]:
        """Forget ``point``'s upstream leg: its link charge goes back and
        its live feed, if any, ends. The caller settles the session."""
        ref = self._upstream.pop(point, None)
        if ref is None:
            return None
        self._release_budget(ref)
        if ref.feed is not None and self.tracer is not None:
            self.tracer.event(
                "live.feed_end",
                feed=ref.feed,
                edge=self.name,
                region=self.region,
                point=point,
            )
        return ref

    def _serve_live_history(self, session: StreamSession) -> None:
        """Bounded catch-up for a late joiner on a live point: one train
        of the last ``live_history_seconds`` of already-fanned-out
        packets. Future-scheduled packets are excluded — the ordinary
        fan-out will deliver them exactly once."""
        marks = self._live_marks.get(session.point)
        if self.live_history_seconds <= 0.0 or self.crashed or marks is None:
            return
        now_ms = self.simulator.now * 1000.0
        since = now_ms - self.live_history_seconds * 1000.0
        sched = self._schedules[session.point]
        packets: List[DataPacket] = []
        wire_size = 0
        for index in range(marks[1], len(sched.packets)):
            # strictly-past packets only: a packet whose fan-out lands at
            # exactly *now* may still be scheduled for this session, and
            # a missed boundary packet is NAK-recoverable while a
            # duplicate is not filterable downstream
            if not since <= sched.packets[index].send_time_ms < now_ms:
                continue
            entry = sched.entry(index, session.excluded_streams)
            if entry is not None:
                packets.append(entry[0])
                wire_size += entry[1]
        if not packets:
            return
        self._send_train(session, packets, wire_size)
        self.cache.counters.inc("live_catchup_trains")
        self.cache.counters.inc("live_catchup_packets", len(packets))

    # ------------------------------------------------------------------
    # local session lifecycle (coalescing + two-hop teardown)
    # ------------------------------------------------------------------

    def open_session(
        self,
        name: str,
        client_host: str,
        deliver: Callable[[List[DataPacket]], None],
        *,
        replica: bool = False,
        multiplicity: int = 1,
        fill_token: Optional[FillToken] = None,
    ) -> StreamSession:
        if self.crashed:
            raise SessionError("server is down")
        if self.draining and not replica:
            # viewers are refused, but replica opens stay admitted: a
            # drain hands its *upstream* role off by letting successors
            # fill from this edge while it still holds the runs
            raise SessionError("edge is draining")
        self._ensure_local(name, token=fill_token if replica else None)
        return super().open_session(
            name, client_host, deliver, replica=replica,
            multiplicity=multiplicity,
        )

    def close_session(self, session_id: int) -> None:
        session = self.sessions.get(session_id)
        point = session.point
        super().close_session(session_id)
        self._maybe_release_point(point)

    def _maybe_release_point(self, point: str) -> None:
        """Last local client gone: retire the replica and free upstream."""
        if point in self._releasing or point in self._fills:
            return
        if point not in self.points:
            return
        if self.sessions.sessions_for_point(point):
            return
        self.unpublish(point)

    def unpublish(self, name: str) -> None:
        nested = name in self._releasing
        self._releasing.add(name)
        try:
            super().unpublish(name)
        finally:
            if not nested:
                self._releasing.discard(name)
        if not nested:
            self._live_marks.pop(name, None)
            ref = self._drop_leg(name)
            if ref is not None:
                self._close_ref(ref)

    def _retry_orphans(self) -> None:
        if not self._orphan_upstream:
            return
        pending, self._orphan_upstream = self._orphan_upstream, []
        for url, sid in pending:
            self._post_close(url, sid)

    def shutdown(self) -> None:
        """Clean teardown for tests: drain clients, retire points, settle
        upstream orphans — after this no upstream holds anything of ours."""
        for session in list(self.sessions.all()):
            self.close_session(session.session_id)
        for point in list(self.points):
            self.unpublish(point)
        self._retry_orphans()

    # ------------------------------------------------------------------
    # graceful drain with warm session hand-off
    # ------------------------------------------------------------------

    def drain(self, directory: "EdgeDirectory") -> Dict[str, int]:
        """Gracefully decommission: hand live sessions to ring successors.

        The crash path costs each viewer a stall-watchdog timeout plus a
        seek+replay reconnect; a *planned* removal shouldn't. ``drain``
        first stops admitting viewers (the directory reports this edge
        unavailable), then for every streaming or paused session transfers
        the delivery cursor — point, packet-sequence frontier, unspent
        fast-start window, effectively the pacing-group position — to the
        first available successor in :meth:`EdgeDirectory.spill_order`,
        via the successor's ``/control/adopt`` route. The successor opens (and
        QoS-reserves) its own session starting at exactly the next
        unsent packet, the client is re-pointed through its ``relocate``
        callback, and only then is the local session closed (releasing
        this edge's reservation) — no double-reservation window on a
        single link, no gap or overlap in the packet stream, ~0 rebuffer.
        A paused session stays paused on the successor until the viewer
        resumes it there.

        The *upstream* side migrates warm too: adopting a session the
        successor does not hold locally triggers its ordinary fill, and
        because a draining edge still answers **replica** opens (and the
        holder registry still lists it), the successor fills from *this
        edge* over the peer mesh instead of re-filling cold from the
        origin — the draining edge's backbone work is inherited, not
        repeated.

        If the successor refuses or dies mid-transfer the session falls
        back to the crash path: it is closed locally and the client's
        stall watchdog drives an ordinary reconnect. Either way every
        drained session resolves exactly once, an invariant
        :class:`~repro.obs.checker.TraceChecker` audits via the
        ``drain.begin`` / ``session.handoff`` /
        ``session.handoff_fallback`` / ``drain.end`` records.
        """
        if self.crashed:
            raise SessionError("cannot drain a crashed edge")
        if self.draining:
            return {"handoffs": 0, "fallbacks": 0}
        self.draining = True
        candidates = [
            session for session in self.sessions.all()
            if session.active and not session.replica
        ]
        if self.tracer is not None:
            self.tracer.event(
                "drain.begin",
                edge=self.name,
                sessions=[self._sid(s.session_id) for s in candidates],
            )
        handoffs = fallbacks = 0
        for session in candidates:
            if self._handoff(session, directory):
                handoffs += 1
            else:
                fallbacks += 1
        if self.tracer is not None:
            self.tracer.event(
                "drain.end",
                edge=self.name,
                handoffs=handoffs,
                fallbacks=fallbacks,
            )
        # whatever remains (finished/connecting sessions, idle points,
        # upstream replicas) takes the ordinary teardown path
        self.shutdown()
        return {"handoffs": handoffs, "fallbacks": fallbacks}

    def _handoff(self, session: StreamSession, directory: "EdgeDirectory") -> bool:
        """Transfer one session to its ring successor; True on success."""
        # freeze delivery first: leaving the pacing group syncs
        # session.packet_cursor to the group frontier, and nothing may be
        # sent from here while the transfer is in flight
        self._leave_group(session)
        target: Optional[str] = None
        for name in directory.spill_order(f"{session.client_host}|{session.point}"):
            if name != self.name and directory.is_available(name):
                target = name
                break
        response = None
        url = None
        if target is not None and session.relocate is not None:
            url = directory.edge_url(target)
            try:
                response = self.http_client.post(
                    f"{url}/control/adopt",
                    body={
                        "point": session.point,
                        "client_host": session.client_host,
                        "deliver": session.deliver,
                        "relocate": session.relocate,
                        "multiplicity": session.multiplicity,
                        "cursor": session.packet_cursor,
                        # what is left of the fast-start window (freezing
                        # delivery above wrote the remainder back); the
                        # successor grants its own factor over it
                        "burst_window_ms": session._burst_window_ms,
                        "paused": session.state is SessionState.PAUSED,
                    },
                )
            except HTTPError:
                # the successor died mid-transfer: fall back to the
                # crash path rather than stranding the viewer
                response = None
        if response is not None and response.ok:
            body = response.body
            if self.tracer is not None:
                self.tracer.event(
                    "session.handoff",
                    edge=self.name,
                    to_edge=target,
                    session=self._sid(session.session_id),
                    to=body.get("trace_session"),
                    point=session.point,
                )
            session.relocate({
                "url": url,
                "session_id": body["session_id"],
                "recovery_sink": body.get("recovery_sink"),
                "streams": body.get("streams"),
                "selected_video": body.get("selected_video"),
            })
            self.close_session(session.session_id)
            return True
        if self.tracer is not None:
            self.tracer.event(
                "session.handoff_fallback",
                edge=self.name,
                session=self._sid(session.session_id),
                point=session.point,
            )
        self.close_session(session.session_id)
        return False

    def take_upstream_orphans(self) -> List[Tuple[str, int]]:
        """Hand pending orphaned ``(upstream url, session id)`` pairs to
        a settling agent (the heartbeat monitor, at suspicion time) and
        forget them."""
        orphans, self._orphan_upstream = self._orphan_upstream, []
        return orphans

    # ------------------------------------------------------------------
    # region parent failover (downstream side)
    # ------------------------------------------------------------------

    def upstream_crashed(
        self, dead_url: str, *, migrate_to: Optional[str] = None
    ) -> Dict[str, int]:
        """Settle every reference this relay holds *at* a dead upstream.

        The downstream direction of orphan settlement, driven by the
        heartbeat monitor at suspicion time: in-flight fills through the
        dead upstream abort immediately (their drivers re-plan through
        the sibling → origin cascade on their own stack frame), live
        feeds re-attach to ``migrate_to`` — the promoted parent or the
        origin — keeping the local stream and its viewers' clocks
        untouched, and plain replica refs are simply settled (the dead
        upstream's session table died with it, so there is nothing to
        close remotely). ``migrate_to=None`` drops migrated-less live
        points instead; viewers reconnect via their stall watchdogs.
        """
        dead_url = dead_url.rstrip("/")
        out = {
            "fills_aborted": 0, "feeds_migrated": 0,
            "feeds_dropped": 0, "refs_settled": 0,
        }
        if self.crashed:
            return out
        driving: Set[str] = set()
        for point, fill in self._fills.items():
            ref = self._upstream.get(point)
            if ref is not None and ref.url == dead_url and not fill.done:
                # the driver frame owns this ref's teardown: flagging the
                # attempt failed ends its nested fill wait, which
                # releases the budget and moves to the next plan source
                # (skipping the close round-trip — a silent host would
                # stall the driver for a full fetch timeout)
                fill.attempt_failed = True
                ref.abandoned = True
                driving.add(point)
                out["fills_aborted"] += 1
                self.cache.counters.inc("fill_upstream_crashed")
        for point, ref in list(self._upstream.items()):
            if ref.url != dead_url or point in driving:
                continue
            self._drop_leg(point)
            out["refs_settled"] += 1
            if ref.feed is None:
                continue  # register-only replica: the cached copy serves on
            migrated = (
                migrate_to is not None
                and point in self.points
                and self._reattach_live(point, migrate_to)
            )
            if migrated:
                out["feeds_migrated"] += 1
            elif point in self.points:
                out["feeds_dropped"] += 1
                self.unpublish(point)
        return out

    def _reattach_live(self, point: str, new_url: str) -> bool:
        """Re-attach one live feed to a new upstream after the old died.

        Mirrors the ``/control/adopt`` warm-drain contract from the
        other side: the locally published stream — and with it every
        attached viewer's clock, buffer and pacing group — is untouched;
        only the upstream leg is rebuilt. The new upstream's bounded
        live history covers the detection gap as a catch-up train and
        NAK forwarding repairs the rest.
        """
        try:
            ref = self._open_live_leg(
                point, new_url.rstrip("/"), self.points[point].content,
                FillToken((self.name,), self.FILL_HOP_LIMIT),
            )
        except BudgetError:
            self.cache.counters.inc("feed_migration_budget_refused")
            return False
        except (HTTPError, PublishError):
            self.cache.counters.inc("feed_migration_failed")
            return False
        self.cache.counters.inc("live_feeds_migrated")
        # gap repair: the catch-up train (served re-entrantly inside the
        # play round-trip above) covers the new upstream's bounded
        # history, but the detection window may be wider — NAK whatever
        # sequence holes remain so the repair cascades up the tree (the
        # new upstream forwards what it lacks itself) and the local
        # stream stays complete for every attached viewer
        marks = self._live_marks.get(point)
        if marks is not None:  # still published after the round trips
            index = self._schedules[point].sequence_index()
            holes = [
                s for s in range(min(index, default=0), marks[0])
                if s not in index
            ]
            if holes:
                self._nak_upstream(ref, holes)
                self.cache.counters.inc("migration_gap_naks", len(holes))
        return True

    # ------------------------------------------------------------------
    # faults (mirrors the origin MediaServer API)
    # ------------------------------------------------------------------

    def crash(self) -> None:
        if self.crashed:
            return
        for fill in self._fills.values():
            fill.attempt_failed = True
            fill.exhausted = True
        super().crash()
        # the process died before telling its upstreams: those replica
        # sessions are now orphans upstream, settled at restart/shutdown
        # (or by the heartbeat monitor); any backbone reservations and
        # live feeds the process held are gone with it
        for point in list(self._upstream):
            ref = self._drop_leg(point)
            self._orphan_upstream.append((ref.url, ref.session_id))
        # local replicas are process memory; the cache plays the disk, so
        # a restarted edge refills by cache hit instead of origin egress
        for name in list(self.points):
            self._releasing.add(name)
            try:
                super().unpublish(name)
            finally:
                self._releasing.discard(name)
        self._live_marks.clear()

    def restart(self) -> None:
        super().restart()
        self.draining = False
        self._retry_orphans()

    # ------------------------------------------------------------------
    # live catch-up
    # ------------------------------------------------------------------

    def play(
        self,
        session_id: int,
        *,
        start: float = 0.0,
        burst_factor: Optional[float] = None,
        burst_seconds: Optional[float] = None,
    ) -> None:
        """Start delivery at once — the base class's play, which joins a
        stored point's viewers inside one ``join_quantum`` in progress.

        A broadcast joiner additionally receives the bounded live history
        as a catch-up train.
        """
        super().play(
            session_id, start=start, burst_factor=burst_factor,
            burst_seconds=burst_seconds,
        )
        session = self.sessions.get(session_id)
        if session.broadcast:
            # replica sessions get catch-up too: that is how a late-
            # attaching child edge pulls its parent's history down the
            # tree before the live fan-out takes over
            self._serve_live_history(session)

    # ------------------------------------------------------------------
    # NAK forwarding (broadcast holes the relay itself never received)
    # ------------------------------------------------------------------

    def _handle_nak(self, nak: NakRequest) -> None:
        self._nak_forward = []
        try:
            super()._handle_nak(nak)
            pending = self._nak_forward
        finally:
            self._nak_forward = None
        if not pending:
            return
        try:
            session = self.sessions.get(nak.session_id)
        except SessionError:
            return
        upstream = self._upstream.get(session.point)
        if upstream is not None:
            # the repair arrives on the upstream deliver path, lands in
            # the local live history, and fans out to attached clients
            self._nak_upstream(upstream, pending)

    def _repair_entry(
        self, point, session: StreamSession, sequence: int
    ) -> Optional[Tuple[DataPacket, int]]:
        entry = super()._repair_entry(point, session, sequence)
        if entry is None and self._nak_forward is not None and point.broadcast:
            self._nak_forward.append(sequence)
        return entry

    # ------------------------------------------------------------------
    # HTTP control plane (describe proxies unknown points; open carries
    # the fill token)
    # ------------------------------------------------------------------

    def _open_kwargs(self, body: Dict[str, Any]) -> Dict[str, Any]:
        kwargs = super()._open_kwargs(body)
        if kwargs.get("replica"):
            token = FillToken.from_wire(body)
            if token is not None:
                kwargs["fill_token"] = token
        return kwargs

    def _handle_control(self, request: HTTPRequest) -> HTTPResponse:
        # ``invalidate`` is a publisher push, not a session verb: it
        # carries a point + fresh cache key instead of a session_id, so
        # intercept it before the base dispatch parses one
        action = request.path[len("/control/"):]
        if action == "invalidate":
            if self.crashed:
                return HTTPResponse(503, body="server is down")
            body = request.body or {}
            dropped = self.invalidate_point(
                str(body["point"]), body.get("cache_key")
            )
            return HTTPResponse(200, body={"dropped": dropped})
        return super()._handle_control(request)

    def _handle_describe(self, request: HTTPRequest) -> HTTPResponse:
        if self.crashed:
            return HTTPResponse(503, body="server is down")
        name = request.path[len("/lod/"):]
        if name not in self.points:
            token = FillToken.from_wire(request.query)
            try:
                self._ensure_local(name, token=token)
            except (PublishError, SessionError) as exc:
                return HTTPResponse(502, body=f"edge fill failed: {exc}")
            except HTTPError as exc:
                return HTTPResponse(502, body=f"origin unreachable: {exc}")
        return super()._handle_describe(request)


# ----------------------------------------------------------------------
# topology construction
# ----------------------------------------------------------------------

#: every tier link (origin-edge, parent-leaf, edge-edge) the builders lay
BACKBONE_BANDWIDTH = 50_000_000.0
BACKBONE_DELAY = 0.005


def _build_tier(
    network: VirtualNetwork,
    origin: MediaServer,
    regions: Dict[Optional[str], Sequence[str]],
    *,
    cache_bytes: int,
    seed: int,
    port: int,
    pacing_quantum: float,
    join_quantum: float,
    backbone_budget: Optional[BackboneBudget],
    live_history_seconds: float,
    tracer,
) -> Tuple[EdgeDirectory, Dict[str, EdgeRelay], List[EdgeRelay]]:
    """The one tier builder: links, relays, populated directory.

    ``regions`` maps a region to its leaf hosts. A named region gets a
    parent relay its leaves hang under, and its relays consult the
    directory for sibling and parent fills. The ``None`` region has
    neither — its leaves know only the origin, which is the whole flat
    tier.
    """
    origin_url = f"http://{origin.host}:{origin.port}"
    directory = EdgeDirectory(seed=seed)
    parents: Dict[str, EdgeRelay] = {}
    leaves: List[EdgeRelay] = []
    all_relays: List[EdgeRelay] = []
    connected: Set[Tuple[str, str]] = set()

    def connect(a: str, b: str) -> None:
        pair = (a, b) if a <= b else (b, a)
        if a == b or pair in connected:
            return
        connected.add(pair)
        network.connect(
            a, b, bandwidth=BACKBONE_BANDWIDTH, delay=BACKBONE_DELAY
        )

    def relay_on(
        host: str,
        region: Optional[str],
        *,
        name: Optional[str] = None,
        is_parent: bool = False,
        join_quantum: float = 0.0,
    ) -> EdgeRelay:
        # one cache per relay (separate machines, separate disks)
        relay = EdgeRelay(
            network, host,
            origin_url=origin_url, name=name,
            cache=PacketRunCache(max_bytes=cache_bytes),
            port=port,
            pacing_quantum=pacing_quantum, join_quantum=join_quantum,
            region=region, is_parent=is_parent, backbone=backbone_budget,
            live_history_seconds=live_history_seconds, tracer=tracer,
        )
        if region is not None:
            relay.attach_directory(directory)
        all_relays.append(relay)
        return relay

    for region in sorted(regions):
        parent_host = None
        if region is not None:
            parent_host = f"{region}-parent"
            connect(origin.host, parent_host)
            parent = relay_on(
                parent_host, region, name=f"parent-{region}", is_parent=True,
            )
            parents[region] = parent
            directory.add_parent(region, relay=parent)
        for host in regions[region]:
            connect(origin.host, host)
            if parent_host is not None:
                connect(parent_host, host)
            relay = relay_on(host, region, join_quantum=join_quantum)
            leaves.append(relay)
            directory.add_edge(relay.name, relay=relay, region=region)
    # peer mesh: sibling fills and the drain protocol's adopt round-trip
    # run edge-to-edge (never transiting the origin)
    for i, a in enumerate(all_relays):
        for b in all_relays[i + 1:]:
            connect(a.host, b.host)
    return directory, parents, leaves


def build_edge_tier(
    network: VirtualNetwork,
    origin: MediaServer,
    edge_hosts: Sequence[str],
    *,
    cache_bytes: int = 64 * 1024 * 1024,
    seed: int = 0,
    port: int = 8080,
    pacing_quantum: float = 0.0,
    join_quantum: float = 0.0,
    backbone_budget: Optional[BackboneBudget] = None,
    tracer=None,
) -> Tuple[EdgeDirectory, List[EdgeRelay]]:
    """Origin + N edges: backbone links, relays, populated directory.

    Each edge gets its own backbone link to the origin and its own
    :class:`PacketRunCache` (separate machines, separate disks), fills
    from the origin alone and keeps no live history. The returned
    directory places clients; hand it to players (re-route on reconnect)
    and to :meth:`FaultInjector.register_directory
    <repro.net.faults.FaultInjector.register_directory>` (chaos). For
    sibling fills, regional parents and live multicast use
    :func:`build_relay_tree`.
    """
    directory, _, relays = _build_tier(
        network, origin, {None: edge_hosts},
        cache_bytes=cache_bytes, seed=seed, port=port,
        pacing_quantum=pacing_quantum,
        join_quantum=join_quantum, backbone_budget=backbone_budget,
        live_history_seconds=0.0, tracer=tracer,
    )
    return directory, relays


def build_relay_tree(
    network: VirtualNetwork,
    origin: MediaServer,
    regions: Dict[str, Sequence[str]],
    *,
    cache_bytes: int = 64 * 1024 * 1024,
    seed: int = 0,
    port: int = 8080,
    pacing_quantum: float = 0.0,
    join_quantum: float = 0.0,
    live_history_seconds: float = 30.0,
    backbone_budget: Optional[BackboneBudget] = None,
    tracer=None,
) -> Tuple[EdgeDirectory, Dict[str, EdgeRelay], List[EdgeRelay]]:
    """Origin + regional parents + leaf edges: the multi-level tree.

    ``regions`` maps a region name to its leaf edge hosts. Every region
    gets one parent relay (host ``<region>-parent``) linked to the
    origin; leaves link to their parent, to the origin (authority
    describes and last-resort fills), and to each other (sibling fills,
    drain adopts). The directory is attached to every relay, so cache
    misses fill sibling → parent → origin, and broadcast feeds enter
    each region exactly once at the parent.

    Returns ``(directory, {region: parent relay}, leaf relays)``.
    """
    return _build_tier(
        network, origin, regions,
        cache_bytes=cache_bytes, seed=seed, port=port,
        pacing_quantum=pacing_quantum,
        join_quantum=join_quantum, backbone_budget=backbone_budget,
        live_history_seconds=live_history_seconds, tracer=tracer,
    )
