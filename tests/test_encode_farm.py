"""EncodeFarm: serial fallback, dedup/cache reuse, and byte-identity.

The hard guarantee under test: a parallel farm produces **byte-identical**
ASF output to the ``workers=0`` serial path, for both the MBR rendition
ladder and the full levels × renditions publish grid. ``workers=0`` must
touch zero multiprocessing machinery.
"""

import os
import pickle

import pytest

from repro.asf import (
    ASFEncoder,
    EncodeCache,
    EncoderConfig,
    EncodeFarm,
    EncodeJob,
    FarmError,
    JOB_AUDIO,
    JOB_IMAGE,
    JOB_VIDEO,
    START_METHOD,
    run_encode_job,
    run_job_with_deltas,
)
from repro.lod import Lecture, LODPublisher
from repro.media import get_profile
from repro.media.objects import AudioObject, ImageObject, VideoObject
from repro.metrics import get_counters


def video_job(seed="v", profile="dsl-256k", **kwargs):
    return EncodeJob(
        JOB_VIDEO,
        VideoObject("talk", 10.0, width=320, height=240, fps=15.0, seed=seed),
        profile=get_profile(profile),
        **kwargs,
    )


def lecture():
    return Lecture.from_slide_durations(
        "farm-talk",
        "Prof",
        [12, 8, 10, 6],
        importances=[0, 1, 0, 1],
        slide_width=160,
        slide_height=120,
    )


@pytest.fixture(scope="module")
def parallel_farm():
    """One shared 2-worker spawn pool for the whole module (spawn start-up
    is the expensive part; a publish farm is a long-lived service)."""
    with EncodeFarm(2) as farm:
        yield farm


class TestEncodeJob:
    def test_unknown_kind_rejected(self):
        with pytest.raises(FarmError):
            EncodeJob("subtitles", VideoObject("v", 1.0))

    def test_av_jobs_need_profile(self):
        with pytest.raises(FarmError):
            EncodeJob(JOB_VIDEO, VideoObject("v", 1.0))
        with pytest.raises(FarmError):
            EncodeJob(JOB_AUDIO, AudioObject("a", 1.0))

    def test_fingerprint_separates_content(self):
        base = video_job().fingerprint()
        assert video_job(seed="other").fingerprint() != base
        assert video_job(profile="lan-1m").fingerprint() != base
        assert video_job(with_data=True).fingerprint() != base

    def test_pickle_round_trip_encodes_identically(self):
        job = video_job()
        clone = pickle.loads(pickle.dumps(job))
        assert clone == job
        assert run_encode_job(clone) == run_encode_job(job)


class TestSerialFallback:
    def test_serial_farm_never_builds_a_pool(self):
        farm = EncodeFarm(0)
        farm.encode_batch([video_job(), video_job(seed="b")])
        assert not farm.pool_started
        farm.warm_up()  # no-op at workers=0
        assert not farm.pool_started

    def test_serial_farm_never_reaches_for_multiprocessing(self, monkeypatch):
        farm = EncodeFarm(0)

        def explode():
            raise AssertionError("workers=0 must not touch multiprocessing")

        monkeypatch.setattr(farm, "_ensure_pool", explode)
        results = farm.encode_batch([video_job(), video_job(seed="b")])
        assert len(results) == 2

    def test_negative_workers_rejected(self):
        with pytest.raises(FarmError):
            EncodeFarm(-1)

    def test_start_method_pinned_to_spawn(self):
        """Byte-identity across platforms/versions leans on ``spawn``; CI
        sets REPRO_EXPECT_START_METHOD to catch accidental fork-dependence."""
        assert START_METHOD == "spawn"
        assert EncodeFarm(0).start_method == "spawn"
        expected = os.environ.get("REPRO_EXPECT_START_METHOD")
        if expected:
            assert START_METHOD == expected


class TestReuse:
    def test_within_batch_dedup(self):
        farm = EncodeFarm(0)
        a, b = video_job(), video_job()
        r1, r2, r3 = farm.encode_batch([a, b, video_job(seed="other")])
        assert r1 is r2
        assert r3 is not r1
        assert farm.encodes_performed == 2
        assert farm.dedup_hits == 1

    def test_cache_reuse_across_batches(self):
        cache = EncodeCache()
        farm = EncodeFarm(0, cache=cache)
        first = farm.encode_batch([video_job()])
        again = farm.encode_batch([video_job()])
        assert again[0] is first[0]
        assert farm.encodes_performed == 1
        assert farm.cache_hits == 1
        assert cache.segment_hits == 1

    def test_use_cache_false_bypasses_segment_cache(self):
        cache = EncodeCache()
        farm = EncodeFarm(0, cache=cache)
        farm.encode_batch([video_job()], use_cache=False)
        farm.encode_batch([video_job()], use_cache=False)
        assert cache.segment_count == 0
        assert (cache.segment_hits, cache.segment_misses) == (0, 0)
        assert farm.encodes_performed == 2

    def test_counters_registry_tallies(self):
        bag = get_counters("encode_farm")
        before = bag.get("encodes")
        EncodeFarm(0).encode_batch([video_job(seed="counted")])
        assert bag.get("encodes") == before + 1


class TestCounterParity:
    """Regression: pool workers used to lose their registry increments.

    ``spawn`` children own a private process-global counter registry, so
    codec-run tallies made inside a worker died with it — a parallel
    publish under-reported ``codec_runs``/``encoded_bytes`` versus the
    identical serial run. The fix returns each job's counter delta with
    its result (:func:`run_job_with_deltas`) and merges it in the parent.
    """

    def batch(self):
        return [video_job(seed=f"parity{i}") for i in range(6)]

    def run_and_delta(self, farm):
        bag = get_counters("encode_farm")
        before = (bag.get("codec_runs"), bag.get("encoded_bytes"))
        streams = farm.encode_batch(self.batch())
        return streams, (
            bag.get("codec_runs") - before[0],
            bag.get("encoded_bytes") - before[1],
        )

    def test_serial_and_four_worker_totals_identical(self):
        serial_streams, serial_delta = self.run_and_delta(EncodeFarm(0))
        with EncodeFarm(4) as farm:
            parallel_streams, parallel_delta = self.run_and_delta(farm)
            assert farm.pool_started
        # the bug: parallel used to report (0, 0) here
        assert serial_delta == parallel_delta
        assert serial_delta[0] == 6
        assert serial_delta[1] == sum(s.total_size for s in serial_streams)
        assert parallel_streams == serial_streams

    def test_run_job_with_deltas_reports_per_job_increment(self):
        stream, deltas = run_job_with_deltas(video_job(seed="delta"))
        farm_delta = deltas["encode_farm"]
        assert farm_delta["codec_runs"] == 1
        assert farm_delta["encoded_bytes"] == stream.total_size


class TestByteIdentity:
    """Parallel output must equal serial output, byte for byte."""

    @staticmethod
    def mbr_sources():
        video = VideoObject("talk", 12.0, width=320, height=240, fps=15.0)
        audio = AudioObject("voice", 12.0, sample_rate=22_050, channels=1)
        images = [
            (ImageObject("s0", 6.0, width=320, height=240, seed="s0"), 0.0),
            (ImageObject("s1", 6.0, width=320, height=240, seed="s1"), 6.0),
        ]
        return video, audio, images

    def mbr_bytes(self, farm):
        video, audio, images = self.mbr_sources()
        config = EncoderConfig(profile=get_profile("dsl-256k"))
        encoder = ASFEncoder(config, farm=farm)
        asf = encoder.encode_file_mbr(
            file_id="L",
            video=video,
            audio=audio,
            images=images,
            renditions=[
                get_profile("modem-56k"),
                get_profile("dsl-256k"),
                get_profile("lan-1m"),
            ],
        )
        return asf.pack()

    def test_mbr_parallel_matches_serial(self, parallel_farm):
        assert self.mbr_bytes(parallel_farm) == self.mbr_bytes(EncodeFarm(0))
        assert parallel_farm.pool_started

    def test_grid_parallel_matches_serial(self, parallel_farm):
        renditions = [get_profile("modem-56k"), get_profile("dsl-256k")]
        serial = LODPublisher(renditions=renditions).publish(lecture(), "p")
        parallel = LODPublisher(
            renditions=renditions, farm=parallel_farm
        ).publish(lecture(), "p")
        assert serial.variants.keys() == parallel.variants.keys()
        assert parallel.encodes_performed == serial.encodes_performed
        for key, variant in serial.variants.items():
            assert parallel.variants[key].asf.pack() == variant.asf.pack(), key
