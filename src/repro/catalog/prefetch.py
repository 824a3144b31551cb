"""Scheduled prefetch: warm the tree before the flash crowd lands.

Wave-1 viewers today pay the cold fill at the lecture-start instant;
wave-2 rides the caches. :class:`PrefetchPlanner` moves that cold cost
out of the viewer window: for each scheduled (non-live) lecture it
plans a warm of every region parent — optionally the leaves too — at
``start_time - lead_time``, most popular lectures first, under an
explicit byte budget.

The planner only *plans*; execution (the load harness, or a bench)
calls :meth:`EdgeRelay.prefetch <repro.streaming.edge.EdgeRelay.prefetch>`
per item, which runs the ordinary fill cascade — origin-described,
fingerprint-verified, backbone-budget-charged — and traces a
``prefetch.begin`` / ``prefetch.end`` span per item (plus one
``prefetch.plan`` per planner run) that
:class:`~repro.obs.checker.TraceChecker` audits: spans match, warmed
bytes stay within the declared budget and byte-identical to the origin
(expected vs landed cache key), and nothing prefetches a torn-down
point.

Popularity is the workload's own Zipf regime: catalog order is rank
order (the same convention :func:`repro.load.workload.generate` samples
arrivals with), weighted ``1/(rank+1)^s``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from .index import CatalogIndex


@dataclass(frozen=True)
class PrefetchConfig:
    """Planner knobs (the load harness accepts this as
    ``LoadConfig.prefetch``)."""

    enabled: bool = True
    #: seconds before a lecture's start time its warm fires
    lead_time: float = 5.0
    #: warm leaf edges too (parents only by default — the leaves then
    #: fill intra-region off their warm parent on the first viewer)
    include_leaves: bool = False
    #: warm only the K most popular lectures (None: all scheduled ones)
    top_k: Optional[int] = None
    #: hard ceiling on total warmed bytes per planner run (None: unbounded)
    byte_budget: Optional[int] = None
    #: Zipf skew used for popularity ranking
    zipf_s: float = 1.1


@dataclass(frozen=True)
class PrefetchItem:
    """One planned warm: pull ``point`` to relay ``target`` at ``at``."""

    point: str
    target: str
    at: float
    rank: int
    #: authoritative content key the warm must land (byte-identity audit)
    expect_key: str = ""
    size_bytes: int = 0


class PrefetchPlanner:
    """Turns (catalog schedule × popularity × topology) into a warm plan."""

    def __init__(
        self,
        config: Optional[PrefetchConfig] = None,
        *,
        catalog: Optional[CatalogIndex] = None,
    ) -> None:
        self.config = config if config is not None else PrefetchConfig()
        self.catalog = catalog
        #: lectures dropped from the last plan by the byte budget
        self.budget_skipped = 0

    def popularity(
        self, lectures: Sequence, *, zipf_s: Optional[float] = None
    ) -> List[Tuple[str, float]]:
        """``(name, weight)`` ranked most-popular-first.

        Catalog order *is* rank order — the workload generator samples
        lecture i with weight ``1/(i+1)^s``, so the planner agrees with
        the arrivals by construction.
        """
        s = zipf_s if zipf_s is not None else self.config.zipf_s
        return [
            (spec.name, 1.0 / (i + 1) ** s)
            for i, spec in enumerate(lectures)
        ]

    def plan(
        self,
        lectures: Sequence,
        *,
        parents: Iterable[str],
        leaves: Iterable[str] = (),
    ) -> List[PrefetchItem]:
        """The warm plan for one run.

        ``lectures`` are :class:`~repro.load.workload.LectureSpec`-shaped
        (``name`` / ``start_time`` / ``live``); live simulcasts are never
        prefetched (a broadcast warm would pin the upstream feed with no
        viewer). Items are ordered by (time, popularity rank, target) —
        fully deterministic — and the byte budget cuts whole lectures,
        most popular kept first.
        """
        cfg = self.config
        self.budget_skipped = 0
        if not cfg.enabled:
            return []
        targets = list(parents)
        if cfg.include_leaves:
            targets += list(leaves)
        if not targets:
            return []
        ranked = sorted(
            (
                (rank, spec)
                for rank, spec in enumerate(lectures)
                if not spec.live
            ),
            key=lambda pair: pair[0],
        )
        if cfg.top_k is not None:
            ranked = ranked[: cfg.top_k]
        items: List[PrefetchItem] = []
        spent = 0
        for rank, spec in ranked:
            expect_key = ""
            size = 0
            if self.catalog is not None and spec.name in self.catalog:
                entry = self.catalog.entry(spec.name)
                expect_key = entry.cache_key
                size = entry.size_bytes
            cost = size * len(targets)
            if cfg.byte_budget is not None and spent + cost > cfg.byte_budget:
                self.budget_skipped += 1
                continue
            spent += cost
            at = max(0.0, spec.start_time - cfg.lead_time)
            for target in targets:
                items.append(
                    PrefetchItem(
                        point=spec.name,
                        target=target,
                        at=at,
                        rank=rank,
                        expect_key=expect_key,
                        size_bytes=size,
                    )
                )
        items.sort(key=lambda item: (item.at, item.rank, item.target))
        return items

    def planned_bytes(self, items: Sequence[PrefetchItem]) -> int:
        return sum(item.size_bytes for item in items)
