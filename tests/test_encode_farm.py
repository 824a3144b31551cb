"""EncodeFarm: job fingerprints, dedup/cache reuse and registry tallies."""

import pickle
import sys

import pytest

from repro.asf import (
    EncodeCache,
    EncodeFarm,
    EncodeJob,
    FarmError,
    JOB_AUDIO,
    JOB_VIDEO,
    run_encode_job,
)
from repro.media import get_profile
from repro.media.objects import AudioObject, VideoObject
from repro.metrics import get_counters


def video_job(seed="v", profile="dsl-256k", **kwargs):
    return EncodeJob(
        JOB_VIDEO,
        VideoObject("talk", 10.0, width=320, height=240, fps=15.0, seed=seed),
        profile=get_profile(profile),
        **kwargs,
    )


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
        import multiprocessing

        EncodeFarm().encode_batch([video_job(), video_job(seed="b")])
        assert multiprocessing.active_children() == []

    def test_serial_farm_never_reaches_for_multiprocessing(self, monkeypatch):
        # a None entry in sys.modules makes any import of the module fail
        monkeypatch.setitem(sys.modules, "multiprocessing", None)
        results = EncodeFarm().encode_batch([video_job(), video_job(seed="b")])
        assert len(results) == 2


class TestReuse:
    def test_within_batch_dedup(self):
        farm = EncodeFarm()
        a, b = video_job(), video_job()
        r1, r2, r3 = farm.encode_batch([a, b, video_job(seed="other")])
        assert r1 is r2
        assert r3 is not r1
        assert farm.encodes_performed == 2
        assert farm.dedup_hits == 1

    def test_cache_reuse_across_batches(self):
        cache = EncodeCache()
        farm = EncodeFarm(cache=cache)
        first = farm.encode_batch([video_job()])
        again = farm.encode_batch([video_job()])
        assert again[0] is first[0]
        assert farm.encodes_performed == 1
        assert farm.cache_hits == 1
        assert cache.segment_hits == 1

    def test_use_cache_false_bypasses_segment_cache(self):
        cache = EncodeCache()
        farm = EncodeFarm(cache=cache)
        farm.encode_batch([video_job()], use_cache=False)
        farm.encode_batch([video_job()], use_cache=False)
        assert len(cache._segments) == 0
        assert (cache.segment_hits, cache.segment_misses) == (0, 0)
        assert farm.encodes_performed == 2

    def test_counters_registry_tallies(self):
        bag = get_counters("encode_farm")
        before = bag.get("encodes")
        EncodeFarm().encode_batch([video_job(seed="counted")])
        assert bag.get("encodes") == before + 1
