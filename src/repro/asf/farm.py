"""The encode farm — parallel, reuse-aware encoding for the publish pipeline.

The paper's publishing workflow (§2.1, §2.5) turns one lecture into many
artifacts: one ASF per bandwidth profile ("Intelligent Streaming"
renditions) × one per content-tree abstraction level (§2.3–§2.4, the
Abstractor's multi-length presentations). Every one of those encodes is an
independent, pure function of (source media, profile, codec parameters) —
exactly the shape that fans out across worker processes and deduplicates
by content.

Two layers live here:

* :class:`EncodeJob` — a frozen, picklable description of one codec run.
  Its :meth:`~EncodeJob.fingerprint` is a content address: equal
  fingerprints guarantee byte-identical :class:`~repro.media.codecs.EncodedStream`
  outputs, because every codec in :mod:`repro.media.codecs` is a
  deterministic function of its inputs.
* :class:`EncodeFarm` — runs batches of jobs. ``workers=0`` (the default)
  is a strictly serial in-process path that touches **zero**
  multiprocessing machinery, keeping simulator/chaos runs deterministic;
  ``workers=N`` fans the batch across a ``multiprocessing`` pool using the
  pinned ``spawn`` start method (identical semantics on every platform and
  Python version). Results are merged in submission (rank) order, so the
  parallel path is **byte-identical** to the serial one — stream-number
  assignment and packetization stay in the caller, downstream of the merge.

Reuse happens at two scopes, both before any worker is consulted:

* **within a batch** — identical fingerprints submitted together are
  encoded once (publishing abstraction level k alongside level k+1 shares
  every common segment);
* **across batches** — when an :class:`~repro.asf.encoder.EncodeCache` is
  attached, its segment-level entries persist results keyed by
  fingerprint, so republishing a lecture after editing one slide segment
  only encodes the delta.

The farm tallies ``jobs``, ``encodes``, ``dedup_hits``, ``cache_hits`` and
``parallel_batches`` into the process-global ``encode_farm`` counter bag
(:func:`repro.metrics.counters.get_counters`); each codec run additionally
records ``codec_runs``/``encoded_bytes`` *in the process that executed
it*. On the pool path those increments land in spawn children, whose
registry is separate from the parent's — :func:`run_job_with_deltas`
returns each job's counter delta with its result and the parent merges it
(:func:`repro.metrics.counters.merge_snapshot`), so serial and parallel
runs report identical totals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..media.codecs import EncodedStream, ImageCodec, get_codec
from ..media.objects import AudioObject, ImageObject, MediaObject, VideoObject
from ..media.profiles import BandwidthProfile
from ..metrics.counters import (
    Counters,
    counters_snapshot,
    get_counters,
    merge_snapshot,
    snapshot_delta,
)
from .constants import ASFError

#: Pinned multiprocessing start method. ``spawn`` gives identical worker
#: initialization on every platform and Python version (3.9 and 3.12 CI
#: lanes included); ``fork`` would be faster on Linux but inherits parent
#: state, which is exactly the nondeterminism the farm is built to exclude.
START_METHOD = "spawn"

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
    """Execute one job — the worker entry point (top-level for pickling)."""
    if job.kind == JOB_VIDEO:
        stream = job.profile.encode_video(job.media, with_data=job.with_data)
    elif job.kind == JOB_AUDIO:
        stream = job.profile.encode_audio(job.media, with_data=job.with_data)
    else:
        stream = (job.image_codec or ImageCodec()).encode(
            job.media, with_data=job.with_data
        )
    # codec-run accounting happens where the codec runs — in the worker
    # process on the pool path. run_job_with_deltas carries these
    # increments back to the parent registry.
    bag = get_counters("encode_farm")
    bag.inc("codec_runs")
    bag.inc("encoded_bytes", stream.total_size)
    return stream


def run_job_with_deltas(
    job: EncodeJob,
) -> Tuple[EncodedStream, Dict[str, Dict[str, int]]]:
    """Pool entry point: the job's result plus its registry increments.

    ``spawn`` children own a private process-global counter registry, so
    any ``inc`` made while encoding would die with the worker. Snapshot
    before/after (the pool is persistent — workers accumulate state across
    jobs, so the delta must be per-job) and return the difference for the
    parent to :func:`~repro.metrics.counters.merge_snapshot`.
    """
    before = counters_snapshot()
    stream = run_encode_job(job)
    return stream, snapshot_delta(before, counters_snapshot())


class EncodeFarm:
    """Fans independent encode jobs across worker processes, with reuse.

    ``workers=0`` is the deterministic serial fallback: jobs run inline,
    in order, and no multiprocessing module is even imported. ``workers>0``
    lazily builds one persistent ``spawn`` pool (first parallel batch pays
    the worker start-up; later batches reuse it — a publish farm is a
    long-lived service). :meth:`close` tears the pool down; the farm is a
    context manager.

    ``cache`` is an :class:`~repro.asf.encoder.EncodeCache` whose
    segment-level entries persist job results across batches. Pass
    ``use_cache=False`` to :meth:`encode_batch` to bypass it for a batch
    (the encoder does this for DRM publishes, which are contractually
    uncached).
    """

    def __init__(
        self,
        workers: int = 0,
        *,
        cache: Optional["EncodeCache"] = None,  # noqa: F821 - forward ref
        start_method: str = START_METHOD,
        counters: Optional[Counters] = None,
        tracer=None,
    ) -> None:
        if workers < 0:
            raise FarmError("workers must be >= 0")
        self.workers = workers
        self.cache = cache
        self.start_method = start_method
        self.counters = counters if counters is not None else get_counters("encode_farm")
        self.tracer = tracer  # optional repro.obs.Tracer
        self._pool = None
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
        uncached fingerprints reach the codec (serially or on the pool).
        The returned streams are shared objects — treat them as immutable
        published content, exactly like cached ASF files.
        """
        self.counters.inc("jobs", len(jobs))
        span = None
        if self.tracer is not None:
            span = self.tracer.begin(
                "farm.batch", jobs=len(jobs), workers=self.workers
            )
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
        encoded = self._run([job for _, job in unique])
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

    # ------------------------------------------------------------------

    def _run(self, jobs: List[EncodeJob]) -> List[EncodedStream]:
        if self.workers <= 0 or len(jobs) <= 1:
            return [run_encode_job(job) for job in jobs]
        pool = self._ensure_pool()
        self.counters.inc("parallel_batches")
        # Pool.map preserves submission order: worker results are merged in
        # rank order, which is what keeps parallel output byte-identical to
        # the serial path (stream numbering happens in the caller, after).
        # Each result carries the worker's counter delta; merging it here
        # makes parallel runs report the same registry totals as serial.
        streams: List[EncodedStream] = []
        for stream, deltas in pool.map(run_job_with_deltas, jobs, chunksize=1):
            merge_snapshot(deltas)
            streams.append(stream)
        return streams

    def _ensure_pool(self):
        if self._pool is None:
            import multiprocessing

            context = multiprocessing.get_context(self.start_method)
            self._pool = context.Pool(processes=self.workers)
        return self._pool

    @property
    def pool_started(self) -> bool:
        """True once a worker pool exists (never at ``workers=0``)."""
        return self._pool is not None

    def warm_up(self) -> None:
        """Start the pool (if parallel) ahead of the first real batch."""
        if self.workers > 0:
            pool = self._ensure_pool()
            # a no-op round trip proves every worker imported the codebase
            pool.map(_noop, range(self.workers), chunksize=1)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "EncodeFarm":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _noop(value: int) -> int:
    return value


def adopt_farm(
    farm: Optional[EncodeFarm], cache: Optional["EncodeCache"], tracer  # noqa: F821
) -> EncodeFarm:
    """The farm an encoder or publisher runs its codecs on.

    ``None`` becomes a private serial farm; a farm given without its own
    cache or tracer adopts the caller's, so segment-level reuse and
    ``farm.*`` trace records stay on.
    """
    if farm is None:
        return EncodeFarm(0, cache=cache, tracer=tracer)
    if farm.cache is None and cache is not None:
        farm.cache = cache
    if farm.tracer is None and tracer is not None:
        farm.tracer = tracer
    return farm
