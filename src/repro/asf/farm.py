"""The encode farm — reuse-aware encoding for the publish pipeline.

The paper's publishing workflow (§2.1, §2.5) turns one lecture into many
artifacts: one ASF per bandwidth profile ("Intelligent Streaming"
renditions) × one per content-tree abstraction level (§2.3–§2.4, the
Abstractor's multi-length presentations). Every one of those encodes is an
independent, pure function of (source media, profile, codec parameters),
so equal inputs can be encoded once and shared.

Two layers live here:

* :class:`EncodeJob` — a frozen, picklable description of one codec run.
  Its :meth:`~EncodeJob.fingerprint` is a content address: equal
  fingerprints guarantee byte-identical :class:`~repro.media.codecs.EncodedStream`
  outputs, because every codec in :mod:`repro.media.codecs` is a
  deterministic function of its inputs.
* :class:`EncodeFarm` — runs batches of jobs in process, in submission
  order. Stream-number assignment and packetization stay in the caller,
  downstream of the batch.

Reuse happens at two scopes, both before any codec runs:

* **within a batch** — identical fingerprints submitted together are
  encoded once (publishing abstraction level k alongside level k+1 shares
  every common segment);
* **across batches** — when an :class:`~repro.asf.encoder.EncodeCache` is
  attached, its segment-level entries persist results keyed by
  fingerprint, so republishing a lecture after editing one slide segment
  only encodes the delta.

The farm tallies ``jobs``, ``encodes``, ``dedup_hits`` and ``cache_hits``
into the process-global ``encode_farm`` counter bag
(:func:`repro.metrics.counters.get_counters`); each codec run additionally
records ``codec_runs``/``encoded_bytes``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..media.codecs import EncodedStream, ImageCodec, get_codec
from ..media.objects import AudioObject, ImageObject, MediaObject, VideoObject
from ..media.profiles import BandwidthProfile
from ..metrics.counters import get_counters
from .constants import ASFError

JOB_VIDEO = "video"
JOB_AUDIO = "audio"
JOB_IMAGE = "image"


class FarmError(ASFError):
    """Encode-farm misuse."""


@dataclass(frozen=True)
class EncodeJob:
    """One codec run, described by value: picklable, hashable, pure.

    ``kind`` selects the codec path: ``"video"``/``"audio"`` need a
    :class:`~repro.media.profiles.BandwidthProfile`, ``"image"`` an
    :class:`~repro.media.codecs.ImageCodec` (defaults to the standard slide
    compressor).
    """

    kind: str
    media: MediaObject
    profile: Optional[BandwidthProfile] = None
    with_data: bool = False
    image_codec: Optional[ImageCodec] = None

    def __post_init__(self) -> None:
        if self.kind not in (JOB_VIDEO, JOB_AUDIO, JOB_IMAGE):
            raise FarmError(f"unknown job kind {self.kind!r}")
        if self.kind in (JOB_VIDEO, JOB_AUDIO) and self.profile is None:
            raise FarmError(f"{self.kind} job needs a bandwidth profile")

    def _codec_fingerprint(self) -> tuple:
        if self.kind == JOB_VIDEO:
            return get_codec(self.profile.video_codec).fingerprint()
        if self.kind == JOB_AUDIO:
            return get_codec(self.profile.audio_codec).fingerprint()
        return (self.image_codec or ImageCodec()).fingerprint()

    def fingerprint(self) -> tuple:
        """Content address: everything that can change the encoded bytes.

        Source descriptor (the synthetic media's full identity, seed
        included), profile, codec identity + keyframe/GOP parameters, and
        the payload mode.
        """
        return (
            self.kind,
            self.media,
            self.profile,
            self._codec_fingerprint(),
            self.with_data,
        )


def run_encode_job(job: EncodeJob) -> EncodedStream:
    """Execute one job: the codec run behind every farm encode."""
    if job.kind == JOB_VIDEO:
        stream = job.profile.encode_video(job.media, with_data=job.with_data)
    elif job.kind == JOB_AUDIO:
        stream = job.profile.encode_audio(job.media, with_data=job.with_data)
    else:
        stream = (job.image_codec or ImageCodec()).encode(
            job.media, with_data=job.with_data
        )
    bag = get_counters("encode_farm")
    bag.inc("codec_runs")
    bag.inc("encoded_bytes", stream.total_size)
    return stream


class EncodeFarm:
    """Runs independent encode jobs in process, with reuse.

    ``cache`` is an :class:`~repro.asf.encoder.EncodeCache` whose
    segment-level entries persist job results across batches. Pass
    ``use_cache=False`` to :meth:`encode_batch` to bypass it for a batch
    (the encoder does this for DRM publishes, which are contractually
    uncached).
    """

    def __init__(
        self,
        *,
        cache: Optional["EncodeCache"] = None,  # noqa: F821 - forward ref
        tracer=None,
    ) -> None:
        self.cache = cache
        self.counters = get_counters("encode_farm")
        self.tracer = tracer  # optional repro.obs.Tracer
        # per-instance tallies (the registry bag aggregates across farms)
        self.encodes_performed = 0
        self.dedup_hits = 0
        self.cache_hits = 0

    # ------------------------------------------------------------------

    def encode_batch(
        self, jobs: Sequence[EncodeJob], *, use_cache: bool = True
    ) -> List[EncodedStream]:
        """Encode ``jobs``; result ``i`` corresponds to ``jobs[i]``.

        Cache and within-batch dedup are resolved first; only distinct,
        uncached fingerprints reach the codec, in submission order.
        The returned streams are shared objects — treat them as immutable
        published content, exactly like cached ASF files.
        """
        self.counters.inc("jobs", len(jobs))
        span = None
        if self.tracer is not None:
            span = self.tracer.begin("farm.batch", jobs=len(jobs))
        batch_dedup = self.dedup_hits
        batch_cached = self.cache_hits
        results: List[Optional[EncodedStream]] = [None] * len(jobs)
        pending: Dict[tuple, List[int]] = {}
        for i, job in enumerate(jobs):
            key = job.fingerprint()
            if key in pending:
                pending[key].append(i)
                self.dedup_hits += 1
                self.counters.inc("dedup_hits")
                continue
            if use_cache and self.cache is not None:
                cached = self.cache.lookup_segment(key)
                if cached is not None:
                    results[i] = cached
                    self.cache_hits += 1
                    self.counters.inc("cache_hits")
                    continue
            pending[key] = [i]
        unique = [(key, jobs[slots[0]]) for key, slots in pending.items()]
        encoded = [run_encode_job(job) for _, job in unique]
        self.encodes_performed += len(unique)
        self.counters.inc("encodes", len(unique))
        for (key, _), stream in zip(unique, encoded):
            if use_cache and self.cache is not None:
                self.cache.store_segment(key, stream)
            for i in pending[key]:
                results[i] = stream
        if self.tracer is not None:
            self.tracer.end(
                span,
                encodes=len(unique),
                dedup_hits=self.dedup_hits - batch_dedup,
                cache_hits=self.cache_hits - batch_cached,
            )
        return results  # type: ignore[return-value]
