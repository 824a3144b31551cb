"""The Web Publishing Manager — Figure 5 of the paper.

"User must fill the path of video file (MPEG4) and the directory of the
presented slides", choose the server HTTP port / URL and a bandwidth
profile; the system then produces the synchronized ASF automatically and
publishes it. This module reproduces that workflow end-to-end over the
simulated web:

* :class:`MediaStore` — the "file system" the form's paths point into;
* :class:`WebPublishingManager` — the form handler: validates the fields,
  runs the :class:`~repro.lod.orchestrator.Orchestrator`, publishes the
  result on the :class:`~repro.streaming.server.MediaServer`, and stores
  the content tree for per-level replay;
* an HTTP endpoint (``POST /publish``) so the whole Fig. 5 interaction —
  fill the form in a browser, get back the playback URL — runs over the
  simulated network.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..asf.constants import (
    DEFAULT_PACKET_SIZE,
    DEFAULT_PREROLL_MS,
    STREAM_TYPE_AUDIO,
    STREAM_TYPE_IMAGE,
    STREAM_TYPE_VIDEO,
)
from ..asf.drm import LicenseServer
from ..asf.encoder import EncodeCache, file_header, packetize_file
from ..asf.farm import JOB_AUDIO, JOB_IMAGE, JOB_VIDEO, EncodeFarm, EncodeJob
from ..asf.header import StreamProperties
from ..asf.packets import MediaUnit, concat_unit_lists, units_from_encoded
from ..asf.script_commands import TYPE_SLIDE, TYPE_TREE_LEVEL, ScriptCommand
from ..asf.stream import ASFFile
from ..contenttree.abstractor import Abstractor
from ..contenttree.serialize import tree_from_json
from ..media.codecs import ImageCodec
from ..media.profiles import PROFILE_BY_NAME, BandwidthProfile, get_profile
from ..streaming.server import MediaServer, PublishError
from ..web.http import HTTPClient, HTTPError, HTTPRequest, HTTPResponse, form_decode
from .lecture import Lecture, LectureError, LectureSegment
from .orchestrator import OrchestrationResult, Orchestrator


class PublishFormError(LectureError):
    """Bad or missing publishing-form fields."""


class MediaStore:
    """Named storage standing in for the teacher's disk.

    The Fig. 5 form references media by *path*; the store maps a lecture's
    video path and slide directory to the lecture.
    """

    def __init__(self) -> None:
        self._lectures: Dict[Tuple[str, str], Lecture] = {}

    def register_lecture(self, video_path: str, slide_dir: str, lecture: Lecture) -> None:
        """Register a complete lecture under a (video path, slide dir) pair."""
        self._lectures[(video_path, slide_dir)] = lecture

    def lookup_lecture(self, video_path: str, slide_dir: str) -> Lecture:
        lecture = self._lectures.get((video_path, slide_dir))
        if lecture is not None:
            return lecture
        if all(video != video_path for video, _ in self._lectures):
            raise PublishFormError(f"video path not found: {video_path!r}")
        raise PublishFormError(f"slide directory not found: {slide_dir!r}")


@dataclass
class PublishedLecture:
    """Record of one published lecture."""

    point: str
    url: str
    result: OrchestrationResult
    profile: str


class WebPublishingManager:
    """The Fig. 5 form backend on a media server."""

    REQUIRED_FIELDS = ("video_path", "slide_dir", "point")
    #: the profile a form without one publishes at
    DEFAULT_PROFILE = "dsl-256k"

    def __init__(
        self,
        media_server: MediaServer,
        store: MediaStore,
        *,
        license_server: Optional[LicenseServer] = None,
        tracer=None,
    ) -> None:
        self.media_server = media_server
        self.store = store
        self.license_server = license_server
        self.tracer = tracer  # optional repro.obs.Tracer
        self.published: Dict[str, PublishedLecture] = {}
        media_server.http.route("POST", "/publish", self._handle_publish_form)
        media_server.http.route("GET", "/publish", self._handle_form_page)
        media_server.http.route("GET", "/tree/", self._handle_tree)
        media_server.http.route("GET", "/catalog", self._handle_catalog)
        media_server.http.route("GET", "/", self._handle_catalog_page)

    # ------------------------------------------------------------------
    # programmatic API
    # ------------------------------------------------------------------

    def publish(
        self,
        *,
        video_path: str,
        slide_dir: str,
        point: str,
        profile: Optional[str] = None,
        protect: bool = False,
    ) -> PublishedLecture:
        """Validate, orchestrate, publish; returns the playback record."""
        profile_name = profile or self.DEFAULT_PROFILE
        if profile_name not in PROFILE_BY_NAME:
            raise PublishFormError(
                f"unknown profile {profile_name!r}; choose from "
                f"{sorted(PROFILE_BY_NAME)}"
            )
        if point in self.published or point in self.media_server.points:
            raise PublishFormError(f"publishing point {point!r} already in use")
        lecture = self.store.lookup_lecture(video_path, slide_dir)
        orchestrator = Orchestrator(
            get_profile(profile_name),
            license_server=self.license_server if protect else None,
            tracer=self.tracer,
        )
        result = orchestrator.orchestrate(lecture, file_id=point)
        self.media_server.publish(point, result.asf, description=lecture.title)
        record = PublishedLecture(
            point=point,
            url=self.media_server.url_of(point),
            result=result,
            profile=profile_name,
        )
        self.published[point] = record
        return record

    def content_tree_of(self, point: str):
        if point not in self.published:
            raise PublishFormError(f"nothing published at {point!r}")
        return tree_from_json(self.published[point].result.content_tree_json)

    # ------------------------------------------------------------------
    # HTTP form endpoints (the Fig. 5 web UI)
    # ------------------------------------------------------------------

    def _handle_publish_form(self, request: HTTPRequest) -> HTTPResponse:
        if isinstance(request.body, str):
            fields = form_decode(request.body)
        elif isinstance(request.body, dict):
            fields = {k: str(v) for k, v in request.body.items()}
        else:
            return HTTPResponse(400, body="expected a publish form")
        missing = [f for f in self.REQUIRED_FIELDS if not fields.get(f)]
        if missing:
            return HTTPResponse(400, body=f"missing form fields: {missing}")
        try:
            record = self.publish(
                video_path=fields["video_path"],
                slide_dir=fields["slide_dir"],
                point=fields["point"],
                profile=fields.get("profile") or None,
                protect=fields.get("protect", "").lower() in ("1", "true", "yes"),
            )
        except (PublishFormError, LectureError) as exc:
            return HTTPResponse(400, body=str(exc))
        return HTTPResponse(
            200,
            body={
                "url": record.url,
                "point": record.point,
                "profile": record.profile,
                "duration": record.result.duration,
                "verification_error": record.result.verification_error,
            },
        )

    def _handle_tree(self, request: HTTPRequest) -> HTTPResponse:
        point = request.path[len("/tree/"):]
        if point not in self.published:
            return HTTPResponse(404, body=f"nothing published at {point!r}")
        return HTTPResponse(
            200, body=self.published[point].result.content_tree_json
        )

    def _handle_catalog(self, request: HTTPRequest) -> HTTPResponse:
        return HTTPResponse(200, body=self._catalog_entries())

    def _catalog_entries(self):
        return [
            {
                "point": record.point,
                "url": record.url,
                "title": record.result.lecture.title,
                "duration": record.result.duration,
            }
            for record in self.published.values()
        ]

    # -- human-facing HTML pages (the Fig. 5 browser views) ---------------

    def _handle_form_page(self, request: HTTPRequest) -> HTTPResponse:
        from ..web.pages import render_publish_form

        page = render_publish_form(sorted(PROFILE_BY_NAME))
        return HTTPResponse(200, body=page, headers={"Content-Type": "text/html"})

    def _handle_catalog_page(self, request: HTTPRequest) -> HTTPResponse:
        from ..web.pages import render_catalog

        page = render_catalog(self._catalog_entries())
        return HTTPResponse(200, body=page, headers={"Content-Type": "text/html"})


# ----------------------------------------------------------------------
# Level-on-demand grid publishing (levels × renditions)
# ----------------------------------------------------------------------


@dataclass
class PublishedVariant:
    """One cell of the L×B publish grid: a level at a rendition."""

    point: str
    url: str
    level: int
    profile: str
    asf: ASFFile
    segments: Tuple[str, ...]

    @property
    def duration(self) -> float:
        return self.asf.duration


@dataclass
class LODPublishResult:
    """Everything one grid publish produced, plus its work accounting."""

    point: str
    title: str
    levels: Tuple[int, ...]
    profiles: Tuple[str, ...]
    variants: Dict[Tuple[int, str], PublishedVariant]
    jobs_submitted: int
    encodes_performed: int
    dedup_hits: int
    cache_hits: int
    #: edges that acknowledged a stale-run invalidation push (replace=True
    #: with an edge directory attached; 0 otherwise)
    invalidations_pushed: int = 0

    def variant(self, level: int, profile: str) -> PublishedVariant:
        key = (level, profile)
        if key not in self.variants:
            raise LectureError(
                f"no variant at level {level} / profile {profile!r}; "
                f"published: {sorted(self.variants)}"
            )
        return self.variants[key]


@dataclass
class _VariantPlan:
    """Index bookkeeping tying one grid cell to its slots in the job batch."""

    name: str
    level: int
    profile: BandwidthProfile
    segments: List[LectureSegment]
    video_idx: List[int] = field(default_factory=list)
    audio_idx: List[int] = field(default_factory=list)
    image_idx: List[int] = field(default_factory=list)


class LODPublisher:
    """Publishes the full **levels × renditions** grid of a lecture.

    The paper's system serves "lectures on demand" at multiple abstraction
    levels (§2.3–§2.4) and multiple bandwidths (§2.5). This publisher
    materializes that whole matrix: for every content-tree level ``q`` and
    every rendition profile ``b`` it builds a standalone ASF variant
    containing exactly the level-``q`` segments, re-timed onto a contiguous
    timeline, published at ``{point}-l{q}-{profile}``.

    The expensive part — the codec runs — is **segment-grained**: every
    (segment slice, profile) pair becomes one :class:`~repro.asf.farm.EncodeJob`,
    and the *entire grid* is submitted as a single farm batch. Because the
    level-nesting invariant (:meth:`~repro.contenttree.abstractor.Abstractor.verify_nesting`)
    guarantees level ``q`` is a subset of level ``q+1``, within-batch
    dedup collapses the grid's ~L×B×S nominal jobs down to B×S distinct
    encodes; an attached :class:`~repro.asf.encoder.EncodeCache` extends
    the same reuse across publishes, so republishing after editing one
    slide only encodes that slide's delta. Assembly (timeline rebasing,
    stream numbering, script commands, packetization) happens after the
    batch returns, in a fixed order. With a cache, packetization is
    content-addressed too: each cell's packet run is stored under
    everything its packets read (encode fingerprints, segment names and
    durations, level, profile, stream names) but not the point name or
    title, so a clean republish, a publish under another name or a single
    level after the full grid wraps a fresh header around the packets an
    earlier publish built.
    Every variant keeps its own :class:`~repro.asf.stream.ASFFile` and
    header; only an edited cell packetizes again.

    A publish without ``replace`` that would collide with a published
    point raises :class:`~repro.streaming.server.PublishError` before
    anything is encoded or published.

    ``media_server=None`` skips publication and just builds the variants —
    handy for benchmarks and tests.
    """

    def __init__(
        self,
        media_server: Optional[MediaServer] = None,
        *,
        renditions: Sequence[BandwidthProfile],
        cache: Optional[EncodeCache] = None,
        edge_directory=None,
        catalog=None,
        tracer=None,
    ) -> None:
        renditions = list(renditions)
        if not renditions:
            raise LectureError("grid publishing needs at least one rendition")
        names = [p.name for p in renditions]
        if len(set(names)) != len(names):
            raise LectureError("rendition profiles must have distinct names")
        self.media_server = media_server
        self.renditions = sorted(renditions, key=lambda p: p.total_bitrate)
        self.tracer = tracer  # optional repro.obs.Tracer
        self.cache = cache
        self.farm = EncodeFarm(cache=cache, tracer=tracer)
        #: :class:`~repro.streaming.edge.EdgeDirectory` — when attached,
        #: a ``replace=True`` publish pushes an eager ``invalidate`` to
        #: every edge the holder registry lists for a changed point, so
        #: stale runs drop *now* instead of waiting out their TTL
        self.edge_directory = edge_directory
        #: :class:`~repro.catalog.CatalogIndex` — kept current on every
        #: publish (republish re-indexes, bumping the recorded cache key)
        self.catalog = catalog
        self._image_codec = ImageCodec()

    # ------------------------------------------------------------------

    def publish(
        self,
        lecture: Lecture,
        point: str,
        *,
        levels: Optional[Sequence[int]] = None,
        replace: bool = False,
    ) -> LODPublishResult:
        """Build (and optionally publish) every (level, rendition) variant.

        ``levels`` defaults to every non-trivial tree level (1..highest);
        level 0 is the bare root and has no segments to encode.
        ``replace=True`` unpublishes colliding points first — the
        "republish after editing" workflow; without it, any colliding
        point raises :class:`~repro.streaming.server.PublishError` with
        nothing encoded or published.
        """
        tree = lecture.content_tree()
        abstractor = Abstractor(tree)
        abstractor.verify_nesting()
        if levels is None:
            level_list = list(range(1, tree.highest_level + 1))
        else:
            level_list = sorted(set(levels))
            for q in level_list:
                if not 1 <= q <= tree.highest_level:
                    raise LectureError(
                        f"level {q} outside 1..{tree.highest_level}"
                    )
        if not level_list:
            raise LectureError("no levels to publish")

        chosen_by_level: Dict[int, List[LectureSegment]] = {}
        for q in level_list:
            names = set(abstractor.at_level(q).segments)
            chosen = [s for s in lecture.segments if s.name in names]
            if not chosen:
                raise LectureError(f"level {q} selects no lecture segments")
            chosen_by_level[q] = chosen

        plans = [
            _VariantPlan(f"{point}-l{q}-{profile.name}", q, profile, chosen_by_level[q])
            for q in level_list
            for profile in self.renditions
        ]
        if self.media_server is not None and not replace:
            for plan in plans:
                if plan.name in self.media_server.points:
                    raise PublishError(
                        f"publishing point {plan.name!r} already exists"
                    )

        # One batch for the whole grid, in a fixed deterministic order:
        # (level asc, profile asc) × (videos, audios, images in lecture
        # order). Within-batch dedup collapses shared segments across
        # levels; results arrive in this same order.
        jobs: List[EncodeJob] = []
        for plan in plans:
            for seg in plan.segments:
                clip = lecture.video.cut(seg.start, seg.duration)
                plan.video_idx.append(len(jobs))
                jobs.append(EncodeJob(JOB_VIDEO, clip, profile=plan.profile))
            if lecture.audio is not None:
                for seg in plan.segments:
                    track = lecture.audio.cut(seg.start, seg.duration)
                    plan.audio_idx.append(len(jobs))
                    jobs.append(EncodeJob(JOB_AUDIO, track, profile=plan.profile))
            for seg in plan.segments:
                plan.image_idx.append(len(jobs))
                jobs.append(
                    EncodeJob(JOB_IMAGE, seg.slide, image_codec=self._image_codec)
                )

        span = None
        if self.tracer is not None:
            span = self.tracer.begin(
                "publish",
                point=point,
                levels=len(level_list),
                renditions=len(self.renditions),
                jobs=len(jobs),
            )
        encodes_before = self.farm.encodes_performed
        dedup_before = self.farm.dedup_hits
        cache_before = self.farm.cache_hits
        results = self.farm.encode_batch(jobs)

        variants: Dict[Tuple[int, str], PublishedVariant] = {}
        invalidations_pushed = 0
        for plan in plans:
            asf = self._assemble_variant(lecture, plan, jobs, results)
            name = plan.name
            url = ""
            if self.media_server is not None:
                replaced_key: Optional[str] = None
                if replace and name in self.media_server.points:
                    old = self.media_server.points[name].content
                    if isinstance(old, ASFFile):
                        replaced_key = old.fingerprint()
                    self.media_server.unpublish(name)
                self.media_server.publish(
                    name,
                    asf,
                    description=(
                        f"{lecture.title} — level {plan.level}, "
                        f"{plan.profile.name}"
                    ),
                )
                url = self.media_server.url_of(name)
                if replaced_key is not None and replaced_key != asf.fingerprint():
                    # the republish changed the content address: edges
                    # holding the old run must drop it *now* — the next
                    # viewer refills the new generation instead of riding
                    # stale bytes until the TTL catches up
                    invalidations_pushed += self._push_invalidation(
                        name, asf.fingerprint()
                    )
            variants[(plan.level, plan.profile.name)] = PublishedVariant(
                point=name,
                url=url,
                level=plan.level,
                profile=plan.profile.name,
                asf=asf,
                segments=tuple(s.name for s in plan.segments),
            )

        if self.tracer is not None:
            self.tracer.end(
                span,
                variants=len(variants),
                encodes=self.farm.encodes_performed - encodes_before,
                dedup_hits=self.farm.dedup_hits - dedup_before,
                cache_hits=self.farm.cache_hits - cache_before,
            )
        result = LODPublishResult(
            point=point,
            title=lecture.title,
            levels=tuple(level_list),
            profiles=tuple(p.name for p in self.renditions),
            variants=variants,
            jobs_submitted=len(jobs),
            encodes_performed=self.farm.encodes_performed - encodes_before,
            dedup_hits=self.farm.dedup_hits - dedup_before,
            cache_hits=self.farm.cache_hits - cache_before,
            invalidations_pushed=invalidations_pushed,
        )
        if self.catalog is not None:
            self.catalog.add_publish_result(result)
        return result

    def _push_invalidation(self, name: str, fresh_key: str) -> int:
        """Eager invalidation fan-out: tell every edge the holder
        registry lists for ``name`` that its run is stale. Unreachable
        edges are skipped — their TTL (or the stale-source gate on their
        next fill) is the backstop. Returns acknowledgements."""
        if self.edge_directory is None or self.media_server is None:
            return 0
        holders = self.edge_directory.holders(name)
        if not holders:
            return 0
        client = HTTPClient(self.media_server.network, self.media_server.host)
        pushed = 0
        for holder in holders:
            if not self.edge_directory.can_serve_fill(holder):
                continue
            url = self.edge_directory.edge_url(holder)
            try:
                response = client.post(
                    f"{url}/control/invalidate",
                    body={"point": name, "cache_key": fresh_key},
                )
            except HTTPError:
                continue
            if response.ok:
                pushed += 1
        if self.tracer is not None:
            self.tracer.event(
                "publish.invalidate",
                point=name, cache_key=fresh_key,
                holders=len(holders), pushed=pushed,
            )
        return pushed

    # ------------------------------------------------------------------

    def _assemble_variant(
        self,
        lecture: Lecture,
        plan: _VariantPlan,
        jobs: Sequence[EncodeJob],
        results: Sequence,
    ) -> ASFFile:
        """Merge one grid cell's encoded segments into a standalone ASF.

        Deterministic given the farm results: stream numbers, object
        renumbering and packetization all happen here. With a cache, the
        cell's packet
        run is memoized under :meth:`_run_key`: a hit wraps this publish's
        header around the run an earlier publish built (unit lists,
        packetizer and index skipped).
        """
        starts: List[float] = []
        clock = 0.0
        for seg in plan.segments:
            starts.append(clock)
            clock += seg.duration
        duration = clock
        offsets_ms = [round(t * 1000) for t in starts]
        span = max(duration, 1e-9)

        video_encs = [results[i] for i in plan.video_idx]
        audio_encs = [results[i] for i in plan.audio_idx]
        image_encs = [results[i] for i in plan.image_idx]
        video_name = f"{lecture.video.name}@{plan.profile.name}"
        audio_name = lecture.audio.name if lecture.audio is not None else None
        scaled = plan.profile.configure_video(lecture.video)
        streams = [
            StreamProperties(
                1,
                STREAM_TYPE_VIDEO,
                codec=plan.profile.video_codec,
                bitrate=sum(e.total_size for e in video_encs) * 8 / span,
                name=video_name,
                extra={
                    "width": str(scaled.width),
                    "height": str(scaled.height),
                    "fps": str(scaled.fps),
                    "quality": f"{video_encs[0].quality:.4f}",
                    "level": str(plan.level),
                    "profile": plan.profile.name,
                },
            )
        ]
        if audio_name is not None:
            streams.append(
                StreamProperties(
                    2,
                    STREAM_TYPE_AUDIO,
                    codec=plan.profile.audio_codec,
                    bitrate=sum(e.total_size for e in audio_encs) * 8 / span,
                    name=audio_name,
                    extra={"quality": f"{audio_encs[0].quality:.4f}"},
                )
            )
        slide_number = len(streams) + 1
        streams.append(
            StreamProperties(
                slide_number,
                STREAM_TYPE_IMAGE,
                codec=self._image_codec.name,
                # a slide is one unit carrying its encoded size in bytes
                # (units_from_encoded pads a payload-less run with zeros)
                bitrate=sum(e.total_size for e in image_encs) * 8 / span,
                name="slides",
            )
        )

        commands = [ScriptCommand(0, TYPE_TREE_LEVEL, str(plan.level))]
        commands.extend(
            ScriptCommand(offset, TYPE_SLIDE, seg.name)
            for seg, offset in zip(plan.segments, offsets_ms)
        )
        header = file_header(
            plan.name,
            duration,
            streams,
            sorted(commands),
            packet_size=DEFAULT_PACKET_SIZE,
            preroll_ms=DEFAULT_PREROLL_MS,
            metadata={
                "title": lecture.title,
                "author": lecture.author,
                "level": str(plan.level),
                "profile": plan.profile.name,
                "segments": str(len(plan.segments)),
            },
        )
        key: Optional[tuple] = None
        if self.cache is not None:
            key = self._run_key(plan, jobs, video_name, audio_name)
            cached = self.cache.lookup(key)
            if cached is not None:
                return cached.with_header(header)

        unit_lists = [
            concat_unit_lists(
                [units_from_encoded(1, enc) for enc in video_encs], offsets_ms
            )
        ]
        if audio_name is not None:
            unit_lists.append(
                concat_unit_lists(
                    [units_from_encoded(2, enc) for enc in audio_encs], offsets_ms
                )
            )
        unit_lists.append(
            [
                MediaUnit(
                    slide_number,
                    object_number,
                    offset,
                    True,
                    units_from_encoded(slide_number, enc)[0].data,
                )
                for object_number, (enc, offset) in enumerate(
                    zip(image_encs, offsets_ms)
                )
            ]
        )
        asf = packetize_file(header, unit_lists)
        if key is not None:
            self.cache.store(key, asf)
        return asf

    def _run_key(
        self,
        plan: _VariantPlan,
        jobs: Sequence[EncodeJob],
        video_name: str,
        audio_name: Optional[str],
    ) -> tuple:
        """Everything a grid cell's packets and stream table read, tagged
        ``"run"``: the cell's encode fingerprints in plan order, the
        segments' names and durations, level, profile and stream names.
        The point name and the title and author metadata are header-only
        and left out, so a clean republish and a publish under another
        name share the run."""
        slots = plan.video_idx + plan.audio_idx + plan.image_idx
        return (
            "run",
            tuple(jobs[i].fingerprint() for i in slots),
            tuple((seg.name, seg.duration) for seg in plan.segments),
            plan.level,
            plan.profile.name,
            video_name,
            audio_name,
        )
