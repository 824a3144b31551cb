"""TinyLFU admission, TTL expiry, and the re-store double-count fix.

Covers the admission stack bottom-up — sketch, doorkeeper, policy —
then the :class:`PacketRunCache` integration: the admission gate on a
full cache, TTL expiry against a bound clock, and the regression for
the byte-budget double-count a stale-serve refresh used to cause.
Seeded pieces run on seeds 0–2 (the chaos-matrix convention).
"""

import pytest

from repro.asf import ASFEncoder, EncoderConfig, slide_commands
from repro.catalog import CountMinSketch, Doorkeeper, TinyLFUAdmission
from repro.media import AudioObject, ImageObject, VideoObject, get_profile
from repro.metrics.counters import Counters
from repro.streaming.edge import PacketRunCache

PROFILE = get_profile("modem-56k")
SEEDS = [0, 1, 2]


def make_asf(file_id="lec", duration=4.0):
    return ASFEncoder(EncoderConfig(profile=PROFILE)).encode_file(
        file_id=file_id,
        video=VideoObject("talk", duration, width=160, height=120, fps=5),
        audio=AudioObject("voice", duration),
        images=[(ImageObject("s0", duration, width=160, height=120), 0.0)],
        commands=slide_commands([("s0", 0.0)]),
    )


def packed_size(asf):
    return len(asf.header.pack()) + asf.data_size()


@pytest.mark.parametrize("seed", SEEDS)
class TestCountMinSketch:
    def test_estimate_tracks_increments(self, seed):
        sketch = CountMinSketch(width=256, depth=4, seed=seed)
        for _ in range(5):
            sketch.increment("hot")
        assert sketch.estimate("hot") >= 5
        # count-min never under-counts; an unseen key can only collide up
        assert sketch.estimate("cold") <= sketch.estimate("hot")

    def test_counters_saturate_at_four_bits(self, seed):
        sketch = CountMinSketch(width=256, depth=4, seed=seed)
        for _ in range(100):
            sketch.increment("hot")
        assert sketch.estimate("hot") == CountMinSketch.MAX_COUNT

    def test_halve_ages_every_counter(self, seed):
        sketch = CountMinSketch(width=256, depth=4, seed=seed)
        for _ in range(8):
            sketch.increment("hot")
        before = sketch.estimate("hot")
        sketch.halve()
        assert sketch.estimate("hot") == before // 2
        assert sketch.increments == 0

    def test_deterministic_across_instances(self, seed):
        a = CountMinSketch(width=256, depth=4, seed=seed)
        b = CountMinSketch(width=256, depth=4, seed=seed)
        for key in ("x", "y", "x", "z", "x"):
            a.increment(key)
            b.increment(key)
        for key in ("x", "y", "z", "w"):
            assert a.estimate(key) == b.estimate(key)


@pytest.mark.parametrize("seed", SEEDS)
class TestDoorkeeper:
    def test_first_add_is_fresh_second_is_not(self, seed):
        door = Doorkeeper(bits=1024, seed=seed)
        assert door.add("k") is True
        assert "k" in door
        assert door.add("k") is False

    def test_clear_forgets(self, seed):
        door = Doorkeeper(bits=1024, seed=seed)
        door.add("k")
        door.clear()
        assert "k" not in door
        assert door.add("k") is True


@pytest.mark.parametrize("seed", SEEDS)
class TestTinyLFUAdmission:
    def policy(self, seed, **kw):
        kw.setdefault("counters", Counters())
        return TinyLFUAdmission(seed=seed, width=256, **kw)

    def test_doorkeeper_absorbs_one_hit_wonders(self, seed):
        policy = self.policy(seed)
        policy.record_access("once")
        # first sighting lives in the doorkeeper, not the sketch
        assert policy.sketch.estimate("once") == 0
        assert policy.estimate("once") == 1  # doorkeeper boost only

    def test_repeat_accesses_earn_sketch_counters(self, seed):
        policy = self.policy(seed)
        for _ in range(4):
            policy.record_access("hot")
        assert policy.sketch.estimate("hot") >= 3

    def test_admit_prefers_higher_frequency(self, seed):
        policy = self.policy(seed)
        for _ in range(6):
            policy.record_access("hot")
        policy.record_access("cold")
        assert policy.admit("hot", "cold") is True
        # ties (and colder candidates) keep the resident
        assert policy.admit("cold", "hot") is False
        assert policy.admit("never-seen", "never-seen-2") is False

    def test_sample_period_triggers_aging_reset(self, seed):
        counters = Counters()
        policy = self.policy(seed, sample_period=10, counters=counters)
        for _ in range(9):
            policy.record_access("hot")
        peak = policy.sketch.estimate("hot")
        assert counters["sketch_resets"] == 0
        policy.record_access("hot")  # 10th access: window rolls
        assert counters["sketch_resets"] == 1
        assert policy.sketch.estimate("hot") <= max(peak // 2, peak - peak // 2)
        # doorkeeper cleared too: the next access is "fresh" again
        assert "hot" not in policy.doorkeeper


class TestCacheAdmissionGate:
    def build(self, *, seed=0, entries=2):
        counters = Counters()
        runs = {f"run{i}": make_asf(f"run{i}") for i in range(entries + 1)}
        size = packed_size(runs["run0"])
        policy = TinyLFUAdmission(seed=seed, width=256, counters=counters)
        cache = PacketRunCache(
            max_bytes=int(size * entries + size // 2),
            counters=counters,
            admission=policy,
        )
        return cache, counters, policy, runs

    @pytest.mark.parametrize("seed", SEEDS)
    def test_cold_candidate_rejected_when_full(self, seed):
        cache, counters, policy, runs = self.build(seed=seed)
        for name in ("run0", "run1"):
            assert cache.store(runs[name].fingerprint(), runs[name])
            for _ in range(4):
                cache.lookup(runs[name].fingerprint())  # earn frequency
        cold = runs["run2"]
        assert cache.store(cold.fingerprint(), cold) is False
        assert cold.fingerprint() not in cache
        assert counters["admission_rejected"] == 1
        # residents untouched
        assert runs["run0"].fingerprint() in cache
        assert runs["run1"].fingerprint() in cache

    @pytest.mark.parametrize("seed", SEEDS)
    def test_hot_candidate_beats_lru_victim(self, seed):
        cache, counters, policy, runs = self.build(seed=seed)
        for name in ("run0", "run1"):
            cache.store(runs[name].fingerprint(), runs[name])
        hot = runs["run2"]
        for _ in range(6):
            cache.lookup(hot.fingerprint())  # misses, but frequency accrues
        assert cache.store(hot.fingerprint(), hot) is True
        assert hot.fingerprint() in cache
        assert counters["admission_rejected"] == 0

    @pytest.mark.parametrize("seed", SEEDS)
    def test_one_shot_scan_does_not_flush_the_hot_set(self, seed):
        """10 hot keys, then a 50-key one-shot scan through 12 slots: TinyLFU
        keeps the hot set, plain LRU loses it (10/10 vs 0/10, 38 rejections,
        at seeds 0-2 in the retired cache-predict bench, PR 10)."""
        run = make_asf()
        size = packed_size(run)
        hot = [f"scan{i}" for i in range(10)]

        def hot_keys_surviving_a_scan(admission, counters):
            cache = PacketRunCache(
                max_bytes=size * 12 + size // 2,
                counters=counters, admission=admission,
            )
            for key in hot:
                cache.store(key, run)
            for _ in range(6):  # the hot set earns its frequency
                for key in hot:
                    cache.lookup(key)
            for key in (f"scan{i}" for i in range(50)):
                if cache.lookup(key) is None:
                    cache.store(key, run)
            return sum(1 for key in hot if key in cache)

        counters = Counters()
        policy = TinyLFUAdmission(seed=seed, width=1024, counters=counters)
        assert hot_keys_surviving_a_scan(policy, counters) >= 9
        assert counters["admission_rejected"] > 0
        assert hot_keys_surviving_a_scan(None, Counters()) < 5

    def test_store_into_empty_cache_never_consults_admission(self):
        cache, counters, policy, runs = self.build()
        big = runs["run0"]
        assert cache.store(big.fingerprint(), big) is True


class TestTTLExpiry:
    def test_entry_expires_on_lookup_after_ttl(self):
        counters = Counters()
        now = [0.0]
        cache = PacketRunCache(
            max_bytes=10**9, counters=counters, ttl_seconds=30.0
        )
        cache.clock = lambda: now[0]
        asf = make_asf()
        key = asf.fingerprint()
        cache.store(key, asf)
        now[0] = 29.0
        assert cache.lookup(key) is asf
        now[0] = 60.0
        assert cache.lookup(key) is None
        assert key not in cache
        assert counters["ttl_evictions"] == 1
        assert cache.bytes_cached == 0

    def test_lookup_refreshes_lru_not_ttl(self):
        counters = Counters()
        now = [0.0]
        cache = PacketRunCache(
            max_bytes=10**9, counters=counters, ttl_seconds=10.0
        )
        cache.clock = lambda: now[0]
        asf = make_asf()
        cache.store(asf.fingerprint(), asf)
        for t in (4.0, 8.0):
            now[0] = t
            assert cache.lookup(asf.fingerprint()) is asf
        now[0] = 11.0  # TTL counts from the store, not the last hit
        assert cache.lookup(asf.fingerprint()) is None

    def test_restore_resets_ttl(self):
        counters = Counters()
        now = [0.0]
        cache = PacketRunCache(
            max_bytes=10**9, counters=counters, ttl_seconds=10.0
        )
        cache.clock = lambda: now[0]
        asf = make_asf()
        cache.store(asf.fingerprint(), asf)
        now[0] = 9.0
        cache.store(asf.fingerprint(), asf)  # refill lands the same run
        now[0] = 15.0  # 6s after the refresh, 15s after first store
        assert cache.lookup(asf.fingerprint()) is asf


class TestRestoreDoubleCountRegression:
    """A refill landing a key already resident (the stale-serve refresh)
    must freshen the entry, never charge the budget twice."""

    def test_restore_same_key_charges_once(self):
        counters = Counters()
        asf = make_asf()
        size = packed_size(asf)
        cache = PacketRunCache(max_bytes=size * 3, counters=counters)
        key = asf.fingerprint()
        assert cache.store(key, asf)
        assert cache.bytes_cached == size
        for _ in range(3):
            assert cache.store(key, asf)
        assert cache.bytes_cached == size
        assert len(cache) == 1
        assert counters["insertions"] == 1
        assert counters["bytes_inserted"] == size

    def test_restore_refreshes_lru_position(self):
        counters = Counters()
        a, b = make_asf("a"), make_asf("b")
        cache = PacketRunCache(max_bytes=10**9, counters=counters)
        cache.store(a.fingerprint(), a)
        cache.store(b.fingerprint(), b)
        cache.store(a.fingerprint(), a)  # refresh: a becomes MRU
        assert cache.keys() == [b.fingerprint(), a.fingerprint()]

    def test_remove_after_restore_frees_exactly_once(self):
        counters = Counters()
        asf = make_asf()
        size = packed_size(asf)
        cache = PacketRunCache(max_bytes=size * 3, counters=counters)
        key = asf.fingerprint()
        cache.store(key, asf)
        cache.store(key, asf)
        assert cache.remove(key) is True
        assert cache.bytes_cached == 0
        assert cache.remove(key) is False  # second remove is a no-op
        assert cache.bytes_cached == 0
        assert counters["bytes_invalidated"] == size
