"""The searchable lecture catalog.

A published variant already carries everything a navigable catalog
needs: its header metadata names the title/level/profile, its script
commands mark every slide change, and its simple index maps timestamps
to packet sequences. :class:`CatalogIndex` folds those into

* a per-lecture **table of contents** (:class:`SlideRef` per SLIDE
  command, each resolved to the packet-run offset playback would seek
  to — so "jump to slide s3" is one catalog lookup, no header parse);
* **deterministic full-text search**: titles and script-command
  parameters are tokenized into an inverted index; results are ranked
  by matched-token weight with lexicographic tie-breaks, so the same
  published grid always yields the same hit list.

The index also records each variant's content address
(:meth:`~repro.asf.stream.ASFFile.fingerprint`) and packed wire size —
what republish invalidation needs to name stale runs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..asf.script_commands import TYPE_SLIDE
from ..asf.stream import ASFFile

_TOKEN_RE = re.compile(r"[a-z0-9]+")

#: search weight of a title token vs a command-parameter token
_TITLE_WEIGHT = 2
_COMMAND_WEIGHT = 1


def tokenize(text: str) -> List[str]:
    """Lowercased alphanumeric tokens, in order."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class SlideRef:
    """One table-of-contents row: a slide and where to seek for it."""

    slide: str
    timestamp_ms: int
    #: first packet sequence of the run that renders this slide's
    #: position (resolved through the ASF simple index — the same value
    #: :meth:`ASFFile.packets_from` would start from)
    packet_sequence: int

    @property
    def timestamp(self) -> float:
        return self.timestamp_ms / 1000.0


@dataclass(frozen=True)
class LectureEntry:
    """Everything the catalog knows about one published variant."""

    point: str
    lecture: str
    title: str
    level: Optional[int]
    profile: str
    duration: float
    cache_key: str
    #: packed wire size — what caching (or prefetching) this run costs
    size_bytes: int
    bitrate: float
    slides: Tuple[SlideRef, ...]


@dataclass(frozen=True)
class SearchHit:
    point: str
    score: int
    matched: Tuple[str, ...]


class CatalogIndex:
    """Searchable index over published lecture variants."""

    def __init__(self) -> None:
        self._entries: Dict[str, LectureEntry] = {}
        # token -> point -> accumulated weight
        self._postings: Dict[str, Dict[str, int]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, point: str) -> bool:
        return point in self._entries

    # ------------------------------------------------------------------
    # building
    # ------------------------------------------------------------------

    def add_variant(
        self, point: str, asf: ASFFile, *, lecture: Optional[str] = None
    ) -> LectureEntry:
        """Index one published variant from its ASF alone.

        Works for LOD grid cells (level/profile metadata present) and
        plain single-variant publishes (metadata absent → defaults).
        """
        header = asf.header
        meta = header.metadata
        index = asf.ensure_index()
        slides = tuple(
            SlideRef(
                slide=cmd.parameter,
                timestamp_ms=cmd.timestamp_ms,
                packet_sequence=index.seek(cmd.timestamp_ms / 1000.0),
            )
            for cmd in sorted(header.script_commands)
            if cmd.type == TYPE_SLIDE
        )
        level = int(meta["level"]) if "level" in meta else None
        entry = LectureEntry(
            point=point,
            lecture=lecture or point,
            title=meta.get("title", point),
            level=level,
            profile=meta.get("profile", ""),
            duration=asf.duration,
            cache_key=asf.fingerprint(),
            size_bytes=len(header.pack()) + asf.data_size(),
            bitrate=header.total_bitrate,
            slides=slides,
        )
        if point in self._entries:
            self._unindex(point)
        self._entries[point] = entry
        self._index_tokens(point, entry.title, _TITLE_WEIGHT)
        for cmd in header.script_commands:
            self._index_tokens(point, cmd.parameter, _COMMAND_WEIGHT)
        return entry

    def add_publish_result(self, result) -> List[LectureEntry]:
        """Index every variant of one :class:`LODPublishResult`."""
        return [
            self.add_variant(
                variant.point, variant.asf, lecture=result.point
            )
            for _, variant in sorted(result.variants.items())
        ]

    def remove(self, point: str) -> bool:
        if point not in self._entries:
            return False
        self._unindex(point)
        del self._entries[point]
        return True

    def _index_tokens(self, point: str, text: str, weight: int) -> None:
        for token in tokenize(text):
            self._postings.setdefault(token, {})
            self._postings[token][point] = (
                self._postings[token].get(point, 0) + weight
            )

    def _unindex(self, point: str) -> None:
        for token in list(self._postings):
            bucket = self._postings[token]
            bucket.pop(point, None)
            if not bucket:
                del self._postings[token]

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------

    def entry(self, point: str) -> LectureEntry:
        if point not in self._entries:
            raise KeyError(f"no catalog entry for {point!r}")
        return self._entries[point]

    def entries(self) -> List[LectureEntry]:
        """Every entry, sorted by point name (deterministic order)."""
        return [self._entries[p] for p in sorted(self._entries)]

    def variants_of(self, lecture: str) -> List[LectureEntry]:
        return [e for e in self.entries() if e.lecture == lecture]

    def toc(self, point: str) -> List[SlideRef]:
        """The slide table of contents of one variant."""
        return list(self.entry(point).slides)

    def seek_to_slide(self, point: str, slide: str) -> SlideRef:
        """Where playback of ``point`` should jump to show ``slide``."""
        for ref in self.entry(point).slides:
            if ref.slide == slide:
                return ref
        raise KeyError(f"variant {point!r} has no slide {slide!r}")

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------

    def search(self, query: str, *, limit: Optional[int] = None) -> List[SearchHit]:
        """Token search over titles and script-command parameters.

        Score is the summed posting weight of every matched query token;
        ties break lexicographically by point, so results are fully
        deterministic for a given published grid.
        """
        tokens = sorted(set(tokenize(query)))
        scores: Dict[str, int] = {}
        matched: Dict[str, List[str]] = {}
        for token in tokens:
            for point, weight in self._postings.get(token, {}).items():
                scores[point] = scores.get(point, 0) + weight
                matched.setdefault(point, []).append(token)
        hits = [
            SearchHit(point, score, tuple(sorted(matched[point])))
            for point, score in scores.items()
        ]
        hits.sort(key=lambda h: (-h.score, h.point))
        return hits[:limit] if limit is not None else hits

    def export(self) -> List[Dict]:
        """JSON-able snapshot (for /catalog-style endpoints and tests)."""
        return [
            {
                "point": e.point,
                "lecture": e.lecture,
                "title": e.title,
                "level": e.level,
                "profile": e.profile,
                "duration": e.duration,
                "cache_key": e.cache_key,
                "size_bytes": e.size_bytes,
                "slides": [
                    {
                        "slide": s.slide,
                        "timestamp_ms": s.timestamp_ms,
                        "packet_sequence": s.packet_sequence,
                    }
                    for s in e.slides
                ],
            }
            for e in self.entries()
        ]
