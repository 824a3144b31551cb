"""The encoder — equivalent of Windows Media Encoder (paper §2.1, §2.5).

"Windows Media Codecs for creating advance stream format (ASF) content use
compression/decompression algorithms to compress audio and/or video media,
either from live sources or other media formats, to fit on a network's
available bandwidth."

:class:`ASFEncoder` takes media sources plus a
:class:`~repro.media.profiles.BandwidthProfile` and produces either a
stored :class:`~repro.asf.stream.ASFFile` (:meth:`encode_file`) or a
:class:`~repro.asf.stream.ASFLiveStream` fed incrementally
(:meth:`start_live` / :meth:`LiveEncoderSession.capture`). Script commands
(slide changes, annotations) are multiplexed into the output; DRM
protection is applied when a license server is supplied.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..media.codecs import EncodedStream, ImageCodec
from ..media.objects import AudioObject, ImageObject, VideoObject
from ..media.profiles import BandwidthProfile
from ..metrics.counters import get_counters
from .constants import (
    ASFError,
    DEFAULT_PACKET_SIZE,
    DEFAULT_PREROLL_MS,
    FLAG_BROADCAST,
    FLAG_DRM_PROTECTED,
    SCRIPT_STREAM_NUMBER,
    STREAM_TYPE_AUDIO,
    STREAM_TYPE_COMMAND,
    STREAM_TYPE_IMAGE,
    STREAM_TYPE_VIDEO,
)
from .drm import DRMInfo, LicenseServer, scramble
from .farm import JOB_AUDIO, JOB_IMAGE, JOB_VIDEO, EncodeFarm, EncodeJob
from .header import FileProperties, HeaderObject, StreamProperties
from .packets import (
    MediaUnit,
    Packetizer,
    units_from_commands,
    units_from_encoded,
)
from .script_commands import ScriptCommand
from .stream import ASFFile, ASFLiveStream


@dataclass
class EncoderConfig:
    """Knobs of an encoding session."""

    profile: BandwidthProfile
    packet_size: int = DEFAULT_PACKET_SIZE
    preroll_ms: int = DEFAULT_PREROLL_MS
    with_data: bool = False  # carry real synthetic payload bytes
    metadata: Dict[str, str] = field(default_factory=dict)


class EncodeCache:
    """Memoizes encoder outputs at two scopes — encode once, serve many.

    **File-level** entries (:meth:`lookup` / :meth:`store`) are keyed by
    the full encoding fingerprint: sources (frozen descriptors), script
    commands, profile(s), packet size, preroll, payload mode, and metadata.
    Repeated encodes of the same lecture/level (the Abstractor replays
    every level; a catalog republish re-encodes every lecture) return the
    already-built :class:`~repro.asf.stream.ASFFile` instead of re-running
    the codec models and packetizer. Both :meth:`ASFEncoder.encode_file`
    and :meth:`ASFEncoder.encode_file_mbr` (rendition-aware key) consult it.
    The same scope holds grid cells' packet runs for
    :class:`~repro.lod.publisher.LODPublisher` under keys tagged ``"run"``
    (everything the packets read, not the point name or title): a hit's
    file lends its packets and index to a new header
    (:meth:`~repro.asf.stream.ASFFile.with_header`), so a clean republish
    or a publish under another name shares the cell's fragments.
    :attr:`MAX_ENTRIES` bounds files and runs together.

    **Segment-level** entries (:meth:`lookup_segment` / :meth:`store_segment`)
    are content-addressed :class:`~repro.media.codecs.EncodedStream`
    results keyed by :meth:`repro.asf.farm.EncodeJob.fingerprint` — source
    fingerprint, profile, codec + keyframe parameters, payload mode. They
    make republishing a lecture after editing one slide segment, or
    publishing abstraction level k after level k+1, encode only the delta.
    :attr:`MAX_SEGMENT_ENTRIES` bounds them.

    Entries are shared objects — callers must treat cached content as
    immutable published media (the serving stack already does). DRM
    encodes bypass the cache entirely, at both scopes: license
    registration is a side-effecting, per-publish step and protected
    payloads must not leak through a shared cache.

    Hit/miss/eviction and bytes-saved tallies are published to the
    process-global ``encode_cache`` counter bag
    (:func:`repro.metrics.counters.get_counters`) for benches and
    dashboards, alongside the per-instance attributes.
    """

    #: LRU bound on file-scope entries (files and packet runs)
    MAX_ENTRIES = 32
    #: LRU bound on segment-scope entries
    MAX_SEGMENT_ENTRIES = 512

    def __init__(self) -> None:
        self._entries: "OrderedDict[tuple, ASFFile]" = OrderedDict()
        self._segments: "OrderedDict[tuple, EncodedStream]" = OrderedDict()
        self.counters = get_counters("encode_cache")
        self.hits = 0
        self.misses = 0
        self.segment_hits = 0
        self.segment_misses = 0
        self.evictions = 0
        self.bytes_saved = 0

    def __len__(self) -> int:
        """Number of file-level entries (segment entries: :attr:`segment_count`)."""
        return len(self._entries)

    @property
    def segment_count(self) -> int:
        return len(self._segments)

    # -- file scope ----------------------------------------------------

    def lookup(self, key: tuple) -> Optional[ASFFile]:
        cached = self._entries.get(key)
        if cached is None:
            self.misses += 1
            self.counters.inc("file_misses")
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        self.counters.inc("file_hits")
        saved = sum(p.packet_size for p in cached.packets)
        self.bytes_saved += saved
        self.counters.inc("bytes_saved", saved)
        return cached

    def store(self, key: tuple, asf: ASFFile) -> ASFFile:
        self._entries[key] = asf
        self._entries.move_to_end(key)
        while len(self._entries) > self.MAX_ENTRIES:
            self._entries.popitem(last=False)
            self.evictions += 1
            self.counters.inc("file_evictions")
        return asf

    # -- segment scope -------------------------------------------------

    def lookup_segment(self, key: tuple) -> Optional[EncodedStream]:
        cached = self._segments.get(key)
        if cached is None:
            self.segment_misses += 1
            self.counters.inc("segment_misses")
            return None
        self._segments.move_to_end(key)
        self.segment_hits += 1
        self.counters.inc("segment_hits")
        self.bytes_saved += cached.total_size
        self.counters.inc("bytes_saved", cached.total_size)
        return cached

    def store_segment(self, key: tuple, stream: EncodedStream) -> EncodedStream:
        self._segments[key] = stream
        self._segments.move_to_end(key)
        while len(self._segments) > self.MAX_SEGMENT_ENTRIES:
            self._segments.popitem(last=False)
            self.evictions += 1
            self.counters.inc("segment_evictions")
        return stream

    def clear(self) -> None:
        self._entries.clear()
        self._segments.clear()


def file_header(
    file_id: str,
    duration: float,
    streams: List[StreamProperties],
    command_list: List[ScriptCommand],
    *,
    packet_size: int,
    preroll_ms: int,
    metadata: Dict[str, str],
    drm: Optional[DRMInfo] = None,
) -> HeaderObject:
    """The header step of :func:`assemble_asf`: the stream table (the
    command stream appended when there are commands), file properties,
    metadata and the (sorted) script commands."""
    if command_list:
        streams.append(
            StreamProperties(
                SCRIPT_STREAM_NUMBER, STREAM_TYPE_COMMAND, codec="script", name="commands"
            )
        )
    return HeaderObject(
        file_properties=FileProperties(
            file_id=file_id,
            duration_ms=round(duration * 1000),
            packet_size=packet_size,
            preroll_ms=preroll_ms,
            flags=FLAG_DRM_PROTECTED if drm is not None else 0,
        ),
        streams=streams,
        metadata=metadata,
        script_commands=command_list,
        drm=drm,
    )


def packetize_file(header: HeaderObject, unit_lists: List[List[MediaUnit]]) -> ASFFile:
    """The packet-run step of :func:`assemble_asf`: the units and the
    header's script commands packetized on the duration-paced send
    schedule, then indexed.

    The packets read the header's packet size, total bitrate, stream
    numbers and commands, never its file id or metadata: a file whose
    header differs only there can share the run (:meth:`ASFFile.with_header`).
    """
    if header.script_commands:
        unit_lists = [*unit_lists, units_from_commands(header.script_commands)]
    packetizer = Packetizer(
        packet_size=header.file_properties.packet_size,
        bitrate=max(header.total_bitrate, 1.0),
        pacing="duration",
    )
    asf = ASFFile(header=header, packets=packetizer.packetize(unit_lists))
    asf.ensure_index()
    return asf


def assemble_asf(
    file_id: str,
    duration: float,
    streams: List[StreamProperties],
    unit_lists: List[List[MediaUnit]],
    command_list: List[ScriptCommand],
    *,
    packet_size: int,
    preroll_ms: int,
    metadata: Dict[str, str],
    drm: Optional[DRMInfo] = None,
) -> ASFFile:
    """Build a stored, indexed .asf file from numbered streams and units.

    The one tail every stored file goes through: the (sorted) script
    commands become the command stream, the header is written
    (:func:`file_header`), and the units are packetized on the
    duration-paced send schedule (:func:`packetize_file`).
    """
    header = file_header(
        file_id,
        duration,
        streams,
        command_list,
        packet_size=packet_size,
        preroll_ms=preroll_ms,
        metadata=metadata,
        drm=drm,
    )
    return packetize_file(header, unit_lists)


class ASFEncoder:
    """Builds ASF content from media sources under a bandwidth profile.

    Every codec run goes through the encoder's own
    :class:`~repro.asf.farm.EncodeFarm`, which shares ``cache`` so
    segment-level reuse stays on; stream numbering and packetization
    happen here, after the batch returns.
    """

    def __init__(
        self,
        config: EncoderConfig,
        *,
        cache: Optional[EncodeCache] = None,
        tracer=None,
    ) -> None:
        self.config = config
        self.cache = cache
        self.tracer = tracer  # optional repro.obs.Tracer
        self.farm = EncodeFarm(cache=cache, tracer=tracer)
        self._next_stream = itertools.count(1)
        self._image_codec = ImageCodec()

    def _cache_key(
        self,
        file_id: str,
        video: Optional[VideoObject],
        audio: Optional[AudioObject],
        images: Sequence[Tuple[ImageObject, float]],
        commands: Sequence[ScriptCommand],
        ladder: Optional[Sequence[BandwidthProfile]],
    ) -> tuple:
        """Everything that can change the encoded bytes, in one hashable key.

        A ladder (:meth:`encode_file_mbr`) replaces the config profile
        and tags the key ``"mbr"``.
        """
        if ladder is None:
            prefix, rates = (), self.config.profile
        else:
            prefix, rates = ("mbr",), tuple(ladder)
        return prefix + (
            file_id,
            video,
            audio,
            tuple(images),
            tuple(commands),
            rates,
            self.config.packet_size,
            self.config.preroll_ms,
            self.config.with_data,
            tuple(sorted(self.config.metadata.items())),
        )

    # ------------------------------------------------------------------

    def _job(self, kind: str, media, profile: Optional[BandwidthProfile] = None) -> EncodeJob:
        return EncodeJob(
            kind,
            media,
            profile=profile,
            with_data=self.config.with_data,
            image_codec=self._image_codec if kind == JOB_IMAGE else None,
        )

    def _assemble_sources(
        self,
        video: Optional[VideoObject],
        audio: Optional[AudioObject],
        images: Sequence[Tuple[ImageObject, float]],
        encoded: Sequence[EncodedStream],
        profiles: Sequence[BandwidthProfile],
        laddered: bool,
    ) -> Tuple[List[StreamProperties], List[List[MediaUnit]], float]:
        """Turn farm results into (stream table, unit lists, duration).

        ``encoded`` must match the job submission order: one entry per
        video profile in ``profiles``, then audio (at the first profile),
        then one per image. Stream numbers are assigned here, in that
        fixed order.
        """
        streams: List[StreamProperties] = []
        unit_lists: List[List[MediaUnit]] = []
        duration = 0.0
        cursor = iter(encoded)

        if video is not None:
            mbr = len(profiles) > 1
            for rank, video_profile in enumerate(profiles):
                number = next(self._next_stream)
                enc = next(cursor)
                scaled = video_profile.configure_video(video)
                extra = {
                    "width": str(scaled.width),
                    "height": str(scaled.height),
                    "quality": f"{enc.quality:.4f}",
                }
                if mbr:
                    extra.update(
                        mbr_group="video",
                        mbr_rank=str(rank),
                        profile=video_profile.name,
                    )
                    name = f"{video.name}@{video_profile.name}"
                else:
                    extra["fps"] = str(scaled.fps)
                    name = video.name
                streams.append(
                    StreamProperties(
                        number,
                        STREAM_TYPE_VIDEO,
                        codec=video_profile.video_codec,
                        bitrate=enc.bitrate,
                        name=name,
                        extra=extra,
                    )
                )
                unit_lists.append(units_from_encoded(number, enc))
            duration = max(duration, video.duration)

        if audio is not None:
            number = next(self._next_stream)
            enc = next(cursor)
            extra = {} if laddered else {"quality": f"{enc.quality:.4f}"}
            streams.append(
                StreamProperties(
                    number,
                    STREAM_TYPE_AUDIO,
                    codec=profiles[0].audio_codec,
                    bitrate=enc.bitrate,
                    name=audio.name,
                    extra=extra,
                )
            )
            unit_lists.append(units_from_encoded(number, enc))
            duration = max(duration, audio.duration)

        if images:
            number = next(self._next_stream)
            units: List[MediaUnit] = []
            total_size = 0
            for object_number, (image, show_at) in enumerate(images):
                enc = next(cursor)
                unit = units_from_encoded(number, enc)[0]
                units.append(
                    MediaUnit(
                        number,
                        object_number,
                        round(show_at * 1000),
                        True,
                        unit.data,
                    )
                )
                total_size += len(unit.data)
                duration = max(duration, show_at + image.duration)
            span = max(duration, 1e-9)
            streams.append(
                StreamProperties(
                    number,
                    STREAM_TYPE_IMAGE,
                    codec=self._image_codec.name,
                    bitrate=total_size * 8 / span,
                    name="slides",
                )
            )
            unit_lists.append(units)

        return streams, unit_lists, duration

    def _protect_units(
        self, unit_lists: List[List[MediaUnit]], key: str
    ) -> List[List[MediaUnit]]:
        protected = []
        for units in unit_lists:
            protected.append(
                [
                    MediaUnit(
                        u.stream_number,
                        u.object_number,
                        u.timestamp_ms,
                        u.keyframe,
                        scramble(u.data, key),
                    )
                    for u in units
                ]
            )
        return protected

    # ------------------------------------------------------------------

    def encode_file(
        self,
        *,
        file_id: str,
        video: Optional[VideoObject] = None,
        audio: Optional[AudioObject] = None,
        images: Sequence[Tuple[ImageObject, float]] = (),
        commands: Sequence[ScriptCommand] = (),
        license_server: Optional[LicenseServer] = None,
    ) -> ASFFile:
        """Encode sources into a stored, indexed .asf file."""
        if video is None and audio is None and not images:
            raise ASFError("nothing to encode")
        return self._encode(
            file_id, video, audio, images, commands, license_server, None
        )

    def encode_file_mbr(
        self,
        *,
        file_id: str,
        video: VideoObject,
        renditions: List[BandwidthProfile],
        audio: Optional[AudioObject] = None,
        images: Sequence[Tuple[ImageObject, float]] = (),
        commands: Sequence[ScriptCommand] = (),
        license_server: Optional[LicenseServer] = None,
    ) -> ASFFile:
        """Multi-bitrate encoding — Windows Media "Intelligent Streaming".

        The video is encoded once per profile in ``renditions`` into
        separate, mutually exclusive streams (tagged with ``mbr_group`` /
        ``mbr_rank`` in their stream properties); audio rides a single
        stream at the *first* profile's audio settings. A server delivers
        exactly one video rendition per client, picked to fit the client's
        link — see :meth:`repro.streaming.server.MediaServer.open_session`.

        Non-DRM output is memoized in the attached :class:`EncodeCache`
        under a rendition-aware key; per-rendition video encodes are
        independent farm jobs in one batch.
        """
        if not renditions:
            raise ASFError("MBR encoding needs at least one rendition")
        ladder = sorted(renditions, key=lambda p: p.video_bitrate)
        return self._encode(
            file_id, video, audio, images, commands, license_server, ladder
        )

    def _encode(
        self,
        file_id: str,
        video: Optional[VideoObject],
        audio: Optional[AudioObject],
        images: Sequence[Tuple[ImageObject, float]],
        commands: Sequence[ScriptCommand],
        license_server: Optional[LicenseServer],
        ladder: Optional[List[BandwidthProfile]],
    ) -> ASFFile:
        """Cache lookup → farm batch → stream table → :func:`assemble_asf`.

        ``ladder=None`` is a single-rate file at the config profile (the
        only kind that traces ``encode.file``); a ladder encodes the video
        once per profile, lowest rate first.
        """
        command_list = sorted(commands)
        tracer = self.tracer if ladder is None else None
        cache_key: Optional[tuple] = None
        if self.cache is not None and license_server is None:
            cache_key = self._cache_key(
                file_id, video, audio, images, command_list, ladder
            )
            cached = self.cache.lookup(cache_key)
            if cached is not None:
                if tracer is not None:
                    tracer.event("encode.file", file_id=file_id, cached=True)
                return cached
        if tracer is not None:
            tracer.event("encode.file", file_id=file_id, cached=False)
        profiles = ladder or [self.config.profile]
        jobs: List[EncodeJob] = []
        if video is not None:
            jobs.extend(self._job(JOB_VIDEO, video, profile) for profile in profiles)
        if audio is not None:
            jobs.append(self._job(JOB_AUDIO, audio, profiles[0]))
        jobs.extend(self._job(JOB_IMAGE, image) for image, _ in images)
        encoded = self.farm.encode_batch(jobs, use_cache=license_server is None)
        streams, unit_lists, duration = self._assemble_sources(
            video, audio, images, encoded, profiles, ladder is not None
        )
        drm: Optional[DRMInfo] = None
        if license_server is not None:
            key = license_server.register(file_id)
            unit_lists = self._protect_units(unit_lists, key)
            drm = DRMInfo(content_id=file_id)
        asf = assemble_asf(
            file_id,
            duration,
            streams,
            unit_lists,
            command_list,
            packet_size=self.config.packet_size,
            preroll_ms=self.config.preroll_ms,
            metadata=dict(self.config.metadata),
            drm=drm,
        )
        if cache_key is not None:
            self.cache.store(cache_key, asf)
        return asf

    def start_live(
        self,
        *,
        file_id: str,
        streams: Sequence[StreamProperties],
        bitrate: Optional[float] = None,
    ) -> "LiveEncoderSession":
        """Open a live (broadcast) encoding session.

        The caller feeds captured, already-encoded units via
        :meth:`LiveEncoderSession.capture`; packets become available to the
        server in timestamp order.
        """
        header = HeaderObject(
            file_properties=FileProperties(
                file_id=file_id,
                duration_ms=0,
                packet_size=self.config.packet_size,
                preroll_ms=self.config.preroll_ms,
                flags=FLAG_BROADCAST,
            ),
            streams=list(streams),
            metadata=dict(self.config.metadata),
        )
        rate = bitrate or max(header.total_bitrate, 64_000.0)
        return LiveEncoderSession(header, self.config.packet_size, rate)


class LiveEncoderSession:
    """An in-progress live broadcast (paper: "broadcast their encoded
    content in real time")."""

    def __init__(
        self, header: HeaderObject, packet_size: int, bitrate: float
    ) -> None:
        self.stream = ASFLiveStream(header)
        self._packetizer = Packetizer(packet_size=packet_size, bitrate=bitrate)
        self._sequence_base = 0
        self._time_base_ms = 0.0

    def capture(self, units: Sequence[MediaUnit]) -> int:
        """Packetize freshly captured units; returns packets produced."""
        if not units:
            return 0
        packets = self._packetizer.packetize([list(units)])
        # re-sequence/re-pace onto the live timeline
        rebased = []
        for packet in packets:
            packet.sequence += self._sequence_base
            packet.send_time_ms = round(
                self._time_base_ms + packet.send_time_ms
            )
            rebased.append(packet)
        if rebased:
            self._sequence_base = rebased[-1].sequence + 1
            self._time_base_ms = max(
                self._time_base_ms,
                float(max(u.timestamp_ms for u in units)),
            )
        self.stream.append(rebased)
        return len(rebased)

    def send_command(self, command: ScriptCommand) -> None:
        """Inject a live script command (paper: commands "can be added to
        live streams through Windows Media Encoder")."""
        self.capture(units_from_commands([command]))

    def finish(self) -> None:
        self.stream.close()
