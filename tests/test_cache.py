"""The content-addressed artifact cache and the incremental delta path.

Four layers of coverage:

- the binary codec: round-trips, determinism, and rejection of every
  corruption mode (truncation, bit flips, foreign magic/version/kind);
- the store: tier behaviour (memory LRU, disk promotion, eviction),
  corruption-safe load-or-recompute, and the fingerprint-collision
  guard;
- the relation fingerprint: row-permutation invariance, incremental
  update equivalence, and sensitivity to everything that must
  invalidate (values, alignment, schema names, null semantics);
- the differential properties: a cached ``DepMiner.run`` is
  extensionally identical to an uncached one, and ``IncrementalMiner``
  over *any* append sequence equals a cold run on the concatenated
  relation, on both backends, for every python agree algorithm, at
  ``jobs`` 1 and 2.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import (
    ArtifactStore,
    IncrementalMiner,
    PipelineKeys,
    RelationFingerprint,
    fingerprint_relation,
    guard_digest,
    stage_key,
)
from repro.cache.codec import (
    CacheCodecError,
    decode_artifact,
    decode_value,
    encode_artifact,
    encode_value,
)
from repro.core.attributes import Schema
from repro.core.depminer import DepMiner
from repro.core.relation import Relation
from repro.errors import CacheError, ReproError
from repro.obs import MetricsRegistry


def fd_tuples(result):
    return sorted((fd.lhs.mask, fd.rhs_index) for fd in result.fds)


def assert_same_mining(left, right):
    """The artefacts the cache must preserve exactly."""
    assert left.agree_sets == right.agree_sets
    assert left.max_sets == right.max_sets
    assert left.cmax_sets == right.cmax_sets
    assert left.lhs_sets == right.lhs_sets
    assert fd_tuples(left) == fd_tuples(right)


def skip_without_numpy(backend):
    from repro.columnar import numpy_available

    if backend == "columnar" and not numpy_available():
        pytest.skip("columnar backend needs NumPy")


# ---------------------------------------------------------------------------
# codec


class TestCodec:
    @pytest.mark.parametrize("value", [
        None, True, False, 0, 1, -1, 2 ** 200, -(2 ** 200), 3.25, "",
        "héllo", b"\x00\xff", [], [1, [2, "x"]], (1, 2), set(), {1, 2, 3},
        {"a": 1, "b": [True, None]}, {1: "x", "y": 2},
        {"classes": [[0, 1], [2, 5]], "agree": {0b101, 0b011}},
    ])
    def test_round_trip(self, value):
        assert decode_value(encode_value(value)) == value

    def test_round_trip_preserves_container_types(self):
        assert decode_value(encode_value((1, 2))) == (1, 2)
        assert isinstance(decode_value(encode_value((1, 2))), tuple)
        assert isinstance(decode_value(encode_value([1, 2])), list)
        assert isinstance(decode_value(encode_value({1, 2})), set)

    def test_deterministic_bytes(self):
        # Sets and dicts encode sorted, so equal values → equal bytes.
        assert encode_value({3, 1, 2}) == encode_value({2, 3, 1})
        assert encode_value({"b": 1, "a": 2}) == encode_value({"a": 2, "b": 1})

    def test_rejects_unrepresentable(self):
        with pytest.raises(CacheCodecError):
            encode_value(object())

    def test_rejects_trailing_bytes(self):
        with pytest.raises(CacheCodecError):
            decode_value(encode_value(1) + b"\x00")

    def test_artifact_round_trip(self):
        guard = guard_digest(("a", "b"), 10)
        data = encode_artifact("agree", guard, {"agree": {1, 2}})
        assert decode_artifact(data, "agree", guard) == {"agree": {1, 2}}

    @pytest.mark.parametrize("mutate", [
        lambda data: data[:-1],                      # truncated
        lambda data: data[: len(data) // 2],         # heavily truncated
        lambda data: b"NOTMAGIC" + data[8:],         # foreign magic
        lambda data: data[:8] + b"\xff\xff" + data[10:],  # future version
        lambda data: data[:-5] + bytes([data[-5] ^ 0xFF]) + data[-4:],
        lambda data: b"",                            # empty file
    ])
    def test_corruption_raises(self, mutate):
        guard = guard_digest(("a",), 3)
        data = encode_artifact("cover", guard, [1, 2, 3])
        with pytest.raises(CacheCodecError):
            decode_artifact(mutate(data), "cover", guard)

    def test_payload_bitflip_fails_checksum(self):
        guard = guard_digest(("a",), 3)
        data = bytearray(encode_artifact("cover", guard, [7, 8, 9]))
        data[-20] ^= 0x01  # inside the payload, before the checksum
        with pytest.raises(CacheCodecError):
            decode_artifact(bytes(data), "cover", guard)

    def test_kind_mismatch_raises(self):
        guard = guard_digest(("a",), 3)
        data = encode_artifact("agree", guard, [1])
        with pytest.raises(CacheCodecError, match="kind mismatch"):
            decode_artifact(data, "cover", guard)

    def test_guard_mismatch_raises(self):
        data = encode_artifact("agree", guard_digest(("a",), 3), [1])
        with pytest.raises(CacheCodecError, match="guard mismatch"):
            decode_artifact(data, "agree", guard_digest(("a",), 4))


# ---------------------------------------------------------------------------
# store


class TestArtifactStore:
    def test_memory_round_trip_and_counters(self):
        store = ArtifactStore()
        guard = guard_digest(("a",), 2)
        assert store.get("agree", "k1", guard) is None
        store.put("agree", "k1", guard, {"agree": {1}})
        assert store.get("agree", "k1", guard) == {"agree": {1}}
        assert store.stats["cache.miss"] == 1
        assert store.stats["cache.memory_hit"] == 1
        assert store.stats["cache.put"] == 1

    def test_metrics_registry_mirrors_counters(self):
        store = ArtifactStore()
        metrics = MetricsRegistry()
        guard = guard_digest(("a",), 2)
        store.get("agree", "k", guard, metrics=metrics)
        store.put("agree", "k", guard, [1], metrics=metrics)
        store.get("agree", "k", guard, metrics=metrics)
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["cache.miss"] == 1
        assert snapshot["counters"]["cache.hit"] == 1
        assert snapshot["counters"]["cache.put"] == 1

    def test_lru_eviction(self):
        store = ArtifactStore(max_memory_entries=2)
        guard = guard_digest(("a",), 2)
        store.put("agree", "k1", guard, [1])
        store.put("agree", "k2", guard, [2])
        store.get("agree", "k1", guard)      # k1 becomes most recent
        store.put("agree", "k3", guard, [3])  # evicts k2
        assert store.get("agree", "k2", guard) is None
        assert store.get("agree", "k1", guard) == [1]
        assert store.get("agree", "k3", guard) == [3]
        assert store.stats["cache.evict"] == 1

    def test_disk_tier_survives_new_store(self, tmp_path):
        guard = guard_digest(("a", "b"), 5)
        ArtifactStore(cache_dir=tmp_path).put("cover", "kk", guard, {"x": 1})
        fresh = ArtifactStore(cache_dir=tmp_path)
        assert fresh.get("cover", "kk", guard) == {"x": 1}
        assert fresh.stats["cache.disk_hit"] == 1
        # The payload was promoted into memory: second hit skips disk.
        assert fresh.get("cover", "kk", guard) == {"x": 1}
        assert fresh.stats["cache.disk_hit"] == 1
        assert fresh.stats["cache.memory_hit"] == 1

    def test_corrupted_disk_entry_is_a_miss_and_deleted(self, tmp_path):
        guard = guard_digest(("a",), 2)
        store = ArtifactStore(cache_dir=tmp_path)
        store.put("agree", "kk", guard, [1, 2])
        (path,) = tmp_path.glob("*.rpc")
        path.write_bytes(path.read_bytes()[:-7])  # truncate
        fresh = ArtifactStore(cache_dir=tmp_path)
        assert fresh.get("agree", "kk", guard) is None
        assert fresh.stats["cache.disk_corrupt"] == 1
        assert not path.exists()

    def test_garbage_disk_file_is_a_miss(self, tmp_path):
        guard = guard_digest(("a",), 2)
        (tmp_path / "agree-kk.rpc").write_bytes(b"not an artefact at all")
        store = ArtifactStore(cache_dir=tmp_path)
        assert store.get("agree", "kk", guard) is None
        assert store.stats["cache.disk_corrupt"] == 1

    def test_collision_guard_memory_tier(self):
        # Same (kind, key) but a different relation shape: the guard
        # refuses to surface the foreign artefact.
        store = ArtifactStore()
        store.put("agree", "same-key", guard_digest(("a", "b"), 10), [1])
        other = guard_digest(("a", "b"), 11)
        assert store.get("agree", "same-key", other) is None
        assert store.stats["cache.guard_reject"] == 1

    def test_collision_guard_disk_tier(self, tmp_path):
        store = ArtifactStore(cache_dir=tmp_path)
        store.put("agree", "same-key", guard_digest(("a",), 10), [1])
        fresh = ArtifactStore(cache_dir=tmp_path)
        assert fresh.get("agree", "same-key", guard_digest(("b",), 10)) is None
        assert fresh.stats["cache.guard_reject"] == 1

    def test_invalidate_and_clear(self, tmp_path):
        guard = guard_digest(("a",), 2)
        store = ArtifactStore(cache_dir=tmp_path)
        store.put("agree", "k1", guard, [1])
        store.put("cover", "k2", guard, [2])
        store.invalidate("agree", "k1")
        assert store.get("agree", "k1", guard) is None
        assert store.get("cover", "k2", guard) == [2]
        store.clear()
        assert store.get("cover", "k2", guard) is None
        assert not list(tmp_path.glob("*.rpc"))

    def test_negative_capacity_rejected(self):
        with pytest.raises(CacheError):
            ArtifactStore(max_memory_entries=-1)

    def test_memory_only_put_never_encodes(self, tmp_path, monkeypatch):
        import repro.cache.store as store_module

        encoded = []
        encode = store_module.encode_artifact

        def spy(kind, guard, payload):
            encoded.append(kind)
            return encode(kind, guard, payload)

        monkeypatch.setattr(store_module, "encode_artifact", spy)
        guard = guard_digest(("a",), 1)
        store = ArtifactStore()
        store.put("agree", "k", guard, {"agree": {1}, "stats": {}})
        assert encoded == []
        assert store.get("agree", "k", guard) == {"agree": {1}, "stats": {}}
        ArtifactStore(cache_dir=tmp_path).put("agree", "k", guard, [1])
        assert encoded == ["agree"]   # the disk tier still encodes

    @pytest.mark.parametrize("backend", ["python", "columnar"])
    def test_pipeline_payloads_round_trip_through_disk(self, backend,
                                                      tmp_path, monkeypatch):
        """Every payload a cold run and an append publish survives the
        disk codec unchanged — the representability a memory-only put
        no longer checks."""
        skip_without_numpy(backend)
        published = []
        put = ArtifactStore.put

        def recording_put(self, kind, key, guard, payload, **kwargs):
            published.append((kind, key, guard, payload))
            put(self, kind, key, guard, payload, **kwargs)

        monkeypatch.setattr(ArtifactStore, "put", recording_put)
        rows = TestCachedDepMiner.rows(10, 50)
        incremental = IncrementalMiner(
            Relation.from_rows(Schema.of_width(5), rows[:40]),
            miner=DepMiner(backend=backend, build_armstrong="none",
                           cache=ArtifactStore(cache_dir=tmp_path)),
        )
        incremental.append(rows[40:])
        monkeypatch.undo()
        assert [kind for kind, *_ in published] == \
            ["agree", "cover", "agree", "cover"]
        fresh = ArtifactStore(cache_dir=tmp_path)
        for kind, key, guard, payload in published:
            assert fresh.get(kind, key, guard) == payload, kind
        assert fresh.stats["cache.disk_hit"] == len(published)


# ---------------------------------------------------------------------------
# fingerprint


class TestFingerprint:
    def relation(self, rows, names=("a", "b", "c")):
        return Relation.from_rows(Schema(list(names)), rows)

    def test_row_permutation_invariance(self):
        rows = [(1, 2, 3), (4, 5, 6), (1, 5, 3), (7, 7, 7)]
        key = fingerprint_relation(self.relation(rows))
        assert fingerprint_relation(self.relation(rows[::-1])) == key
        assert fingerprint_relation(
            self.relation([rows[2], rows[0], rows[3], rows[1]])
        ) == key

    def test_multiplicity_matters(self):
        once = self.relation([(1, 2, 3), (4, 5, 6)])
        twice = self.relation([(1, 2, 3), (1, 2, 3), (4, 5, 6)])
        assert fingerprint_relation(once) != fingerprint_relation(twice)

    def test_column_alignment_matters(self):
        # Same column multisets, different row alignment → different FDs
        # → must be a different key.
        left = self.relation([(1, 10, 0), (2, 20, 0)])
        right = self.relation([(1, 20, 0), (2, 10, 0)])
        assert fingerprint_relation(left) != fingerprint_relation(right)

    def test_schema_names_matter(self):
        rows = [(1, 2, 3)]
        assert fingerprint_relation(self.relation(rows)) != \
            fingerprint_relation(self.relation(rows, names=("x", "y", "z")))

    def test_value_types_matter(self):
        assert fingerprint_relation(self.relation([(1, 2, 3)])) != \
            fingerprint_relation(self.relation([("1", 2, 3)]))

    def test_null_semantics_matter(self):
        relation = self.relation([(1, None, 3)])
        assert fingerprint_relation(relation, nulls_equal=True) != \
            fingerprint_relation(relation, nulls_equal=False)

    def test_incremental_equals_batch(self):
        schema = Schema(["a", "b"])
        rows = [(i % 3, i % 2) for i in range(10)]
        batch = RelationFingerprint(schema)
        batch.update_rows(rows)
        piecewise = RelationFingerprint(schema)
        piecewise.update_rows(rows[:4])
        piecewise.update_rows(rows[4:7])
        piecewise.update_rows(rows[7:])
        assert batch.key == piecewise.key
        assert batch.num_rows == piecewise.num_rows == 10

    def test_copy_is_independent(self):
        schema = Schema(["a"])
        fingerprint = RelationFingerprint(schema)
        fingerprint.update_rows([(1,)])
        clone = fingerprint.copy()
        clone.update_rows([(2,)])
        assert clone.key != fingerprint.key

    def test_arity_checked(self):
        fingerprint = RelationFingerprint(Schema(["a", "b"]))
        with pytest.raises(ValueError):
            fingerprint.update_rows([(1,)])

    def test_codes_path_no_numpy_needed(self):
        # fingerprint_from_codes is pure Python: plain list codes work.
        from repro.cache.fingerprint import fingerprint_from_codes

        schema = Schema(["a", "b"])
        relation = self.relation([(1, "x"), (2, "x"), (1, "y")],
                                 names=("a", "b"))
        codes = [[0, 1, 0], [0, 0, 1]]
        uniques = [[1, 2], ["x", "y"]]
        assert fingerprint_from_codes(codes, uniques, schema) == \
            fingerprint_relation(relation)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_fingerprint_from_codes_equals_row_fingerprint(self, data):
        """The satellite property: hashing through a factorized
        (codes, uniques) view equals the row-level fingerprint, and
        stays row-permutation invariant, under both null semantics."""
        from repro.cache.fingerprint import fingerprint_from_codes

        width = data.draw(st.integers(1, 4), label="width")
        num_rows = data.draw(st.integers(0, 12), label="rows")
        value_pool = [None, "x", "y", "01", "1", 1, 2, 1.5, ""]
        rows = data.draw(
            st.lists(
                st.tuples(*[st.sampled_from(value_pool)] * width),
                min_size=num_rows, max_size=num_rows,
            ),
            label="rows_data",
        )
        nulls_equal = data.draw(st.booleans(), label="nulls_equal")
        schema = Schema.of_width(width)
        relation = Relation.from_rows(schema, rows)
        codes, uniques = [], []
        for attribute in range(width):
            encoder, column_codes, column_uniques = {}, [], []
            for value in relation.column(attribute):
                if value is None and not nulls_equal:
                    code = len(column_uniques)  # fresh per null cell
                    column_uniques.append(None)
                else:
                    code = encoder.get(value)
                    if code is None:
                        code = len(column_uniques)
                        encoder[value] = code
                        column_uniques.append(value)
                column_codes.append(code)
            codes.append(column_codes)
            uniques.append(column_uniques)
        expected = fingerprint_relation(relation, nulls_equal)
        assert fingerprint_from_codes(
            codes, uniques, schema, nulls_equal=nulls_equal
        ) == expected
        # Row-permutation invariance carries over to the codes path.
        permutation = data.draw(
            st.permutations(range(num_rows)), label="perm"
        )
        shuffled = [
            [column[row] for row in permutation] for column in codes
        ]
        assert fingerprint_from_codes(
            shuffled, uniques, schema, nulls_equal=nulls_equal
        ) == expected

    def test_stage_keys_depend_on_config(self):
        key = "deadbeef" * 4
        assert stage_key(key, "agree", algorithm="couples") != \
            stage_key(key, "agree", algorithm="identifiers")
        assert stage_key(key, "agree", algorithm="couples") != \
            stage_key(key, "cover", algorithm="couples")
        # keyword order never matters
        assert stage_key(key, "agree", a=1, b=2) == stage_key(key, "agree",
                                                              b=2, a=1)

    def test_pipeline_keys_for_miner(self):
        key = "deadbeef" * 4
        couples = PipelineKeys.for_miner(key, DepMiner())
        identifiers = PipelineKeys.for_miner(
            key, DepMiner(agree_algorithm="identifiers")
        )
        assert couples.agree != identifiers.agree
        assert couples.cover != identifiers.cover

    #: Stage keys of the paper example under the default python and
    #: columnar miners.  Caches on disk are addressed by these digests;
    #: a change here cold-starts every existing cache directory.
    GOLDEN_KEYS = {
        "python": ("8a516d4100af20cb6c689732e4f4e605",
                   "280ef0c64e40106aaa6a1a0027ed382a"),
        "columnar": ("8114bfc51aaad4e4411410ecd9a8a6d5",
                     "f896ea0c3eb108377b61cdb01c6f4338"),
    }

    @pytest.mark.parametrize("backend", sorted(GOLDEN_KEYS))
    def test_stage_keys_are_pinned(self, backend):
        from repro.datasets import paper_example_relation

        # Stage keys fold in jobs; the golden keys are jobs=1 miners',
        # whatever default the suite runs with.
        miner = DepMiner(backend=backend, jobs=1)
        keys = PipelineKeys.for_miner(
            fingerprint_relation(paper_example_relation(),
                                 miner.nulls_equal),
            miner,
        )
        assert (keys.agree, keys.cover) == self.GOLDEN_KEYS[backend]


# ---------------------------------------------------------------------------
# cached DepMiner runs


class TestCachedDepMiner:
    @staticmethod
    def rows(seed, count, width=5, values=4):
        import random

        rng = random.Random(seed)
        return [
            tuple(rng.randrange(values) for _ in range(width))
            for _ in range(count)
        ]

    def test_cold_warm_uncached_identical(self, tmp_path):
        schema = Schema.of_width(5)
        relation = Relation.from_rows(schema, self.rows(0, 40))
        plain = DepMiner(build_armstrong="none").run(relation)
        store = ArtifactStore(cache_dir=tmp_path)
        miner = DepMiner(build_armstrong="none", cache=store)
        cold = miner.run(relation)
        warm = miner.run(relation)
        assert_same_mining(plain, cold)
        assert_same_mining(plain, warm)
        assert store.stats["cache.hit"] == 1        # the cover bundle
        assert store.stats["cache.put"] == 2        # agree/cover

    def test_full_hit_counter_emitted(self):
        relation = Relation.from_rows(Schema.of_width(4), self.rows(1, 30, width=4))
        store = ArtifactStore()
        metrics = MetricsRegistry()
        miner = DepMiner(build_armstrong="none", cache=store,
                         metrics=metrics)
        miner.run(relation)
        assert "cache.full_hit" not in metrics.snapshot()["counters"]
        miner.run(relation)
        assert metrics.snapshot()["counters"]["cache.full_hit"] == 1

    def test_row_permutation_is_a_full_hit(self, tmp_path):
        rows = self.rows(2, 35)
        schema = Schema.of_width(5)
        store = ArtifactStore(cache_dir=tmp_path)
        first = DepMiner(build_armstrong="none", cache=store).run(
            Relation.from_rows(schema, rows)
        )
        shuffled = DepMiner(build_armstrong="none", cache=store).run(
            Relation.from_rows(schema, rows[::-1])
        )
        assert_same_mining(first, shuffled)
        assert store.stats["cache.hit"] == 1

    def test_agree_tier_reused_across_transversal_methods(self):
        relation = Relation.from_rows(Schema.of_width(4), self.rows(3, 30, width=4))
        store = ArtifactStore()
        DepMiner(build_armstrong="none", cache=store).run(relation)
        berge = DepMiner(build_armstrong="none", cache=store,
                         transversal_algorithm="berge")
        result = berge.run(relation)
        # cover key differs (method folded in) but ag(r) is shared.
        plain = DepMiner(build_armstrong="none",
                         transversal_algorithm="berge").run(relation)
        assert_same_mining(plain, result)
        assert store.stats["cache.hit"] == 1   # the shared ag(r)
        assert store.stats["cache.miss"] == 3  # 2 cold + berge's cover

    def test_armstrong_rebuilt_on_full_hit(self):
        relation = Relation.from_rows(Schema.of_width(4), self.rows(4, 25, width=4))
        store = ArtifactStore()
        miner = DepMiner(cache=store)
        first = miner.run(relation)
        second = miner.run(relation)
        assert (first.armstrong is None) == (second.armstrong is None)
        if first.armstrong is not None:
            assert first.armstrong_size == second.armstrong_size
        assert_same_mining(first, second)

    def test_corrupted_cache_recomputes_correctly(self, tmp_path):
        relation = Relation.from_rows(Schema.of_width(5), self.rows(5, 40))
        plain = DepMiner(build_armstrong="none").run(relation)
        store = ArtifactStore(cache_dir=tmp_path)
        DepMiner(build_armstrong="none", cache=store).run(relation)
        for path in tmp_path.glob("*.rpc"):
            data = bytearray(path.read_bytes())
            data[len(data) // 2] ^= 0xFF
            path.write_bytes(bytes(data))
        fresh = ArtifactStore(cache_dir=tmp_path)
        result = DepMiner(build_armstrong="none", cache=fresh).run(relation)
        assert_same_mining(plain, result)
        assert fresh.stats["cache.disk_corrupt"] >= 1
        assert fresh.stats["cache.hit"] == 0

    def test_run_on_partitions_never_consults_cache(self):
        from repro.partitions.database import StrippedPartitionDatabase

        relation = Relation.from_rows(Schema.of_width(4), self.rows(6, 20, width=4))
        store = ArtifactStore()
        miner = DepMiner(build_armstrong="none", cache=store)
        spdb = StrippedPartitionDatabase.from_relation(relation)
        miner.run_on_partitions(spdb, relation=relation)
        assert store.stats["cache.hit"] == store.stats["cache.miss"] == 0


class TestOneCacheProtocol:
    """Both backends go through the one cached ``DepMiner.run``.

    Cold → warm → row-shuffled → another transversal method, all on one
    store: the ordered ``cache.lookup`` stages and the store counters
    pin the protocol — cover, then agree, on either backend.
    """

    COLD_STAGES = {
        "python": ["cover", "agree"],
        "columnar": ["cover", "agree"],
    }

    def mine(self, store, rows, backend, **options):
        from repro.obs import Tracer

        tracer = Tracer()
        metrics = MetricsRegistry()
        result = DepMiner(
            backend=backend, build_armstrong="none", cache=store,
            tracer=tracer, metrics=metrics, **options
        ).run(Relation.from_rows(Schema.of_width(5), rows))
        stages = [span.attrs["stage"] for span in tracer.find("cache.lookup")]
        full_hits = metrics.snapshot()["counters"].get("cache.full_hit", 0)
        return result, stages, full_hits

    @pytest.mark.parametrize("backend", sorted(COLD_STAGES))
    def test_cold_warm_shuffled_berge(self, backend):
        skip_without_numpy(backend)
        rows = TestCachedDepMiner.rows(7, 60)
        plain = DepMiner(build_armstrong="none").run(
            Relation.from_rows(Schema.of_width(5), rows)
        )
        store = ArtifactStore()
        cold_stages = self.COLD_STAGES[backend]

        cold, stages, full_hits = self.mine(store, rows, backend)
        assert stages == cold_stages
        assert full_hits == 0
        assert store.stats["cache.hit"] == 0
        assert store.stats["cache.miss"] == len(cold_stages)
        assert store.stats["cache.put"] == len(cold_stages)

        for label, replay in (("warm", rows), ("shuffled", rows[::-1])):
            result, stages, full_hits = self.mine(store, replay, backend)
            assert stages == ["cover"], label
            assert full_hits == 1, label
            assert_same_mining(plain, result)
        assert store.stats["cache.hit"] == 2
        assert store.stats["cache.put"] == len(cold_stages)

        berge, stages, full_hits = self.mine(
            store, rows, backend, transversal_algorithm="berge"
        )
        assert stages == ["cover", "agree"]   # ag(r) shared, cover not
        assert full_hits == 0
        assert store.stats["cache.hit"] == 3
        assert store.stats["cache.miss"] == len(cold_stages) + 1
        assert store.stats["cache.put"] == len(cold_stages) + 1
        for result in (cold, berge):
            assert_same_mining(plain, result)


# ---------------------------------------------------------------------------
# incremental mining


MINER_CONFIGS = [
    pytest.param("python", "couples", 1, id="couples-serial"),
    pytest.param("python", "identifiers", 1, id="identifiers-serial"),
    pytest.param("python", "couples", 2, id="couples-sharded"),
    pytest.param("python", "identifiers", 2, id="identifiers-sharded"),
    pytest.param("columnar", "couples", 1, id="columnar-serial"),
    pytest.param("columnar", "couples", 2, id="columnar-sharded"),
]

small_rows = st.lists(
    st.tuples(*[st.integers(min_value=0, max_value=2)] * 4),
    min_size=0, max_size=10,
)


class TestIncrementalMiner:
    @pytest.mark.parametrize("backend,algorithm,jobs", MINER_CONFIGS)
    @settings(max_examples=12, deadline=None)
    @given(base=small_rows, batches=st.lists(small_rows, min_size=1,
                                             max_size=3), data=st.data())
    def test_append_equals_cold_run(self, backend, algorithm, jobs, base,
                                    batches, data):
        skip_without_numpy(backend)
        schema = Schema.of_width(4)
        incremental = IncrementalMiner(
            Relation.from_rows(schema, base), build_armstrong="none",
            backend=backend, agree_algorithm=algorithm, jobs=jobs,
        )
        rows = list(base)
        for batch in batches:
            result = incremental.append(batch)
            rows += batch
            cold = DepMiner(
                build_armstrong="none", backend=backend,
                agree_algorithm=algorithm,
            ).run(Relation.from_rows(schema, rows))
            assert_same_mining(cold, result)
            assert incremental.num_rows == len(rows)

    @pytest.mark.parametrize("backend", ["python", "columnar"])
    @settings(max_examples=10, deadline=None)
    @given(base=small_rows, batch=small_rows)
    def test_append_with_nulls_sql_semantics(self, backend, base, batch):
        skip_without_numpy(backend)
        # Mix in None values and run under NULL <> NULL semantics.
        def with_nulls(rows):
            return [
                tuple(None if v == 2 else v for v in row) for row in rows
            ]

        schema = Schema.of_width(4)
        base, batch = with_nulls(base), with_nulls(batch)
        incremental = IncrementalMiner(
            Relation.from_rows(schema, base), build_armstrong="none",
            backend=backend, nulls_equal=False,
        )
        result = incremental.append(batch)
        cold = DepMiner(build_armstrong="none", backend=backend,
                        nulls_equal=False).run(
            Relation.from_rows(schema, base + batch)
        )
        assert_same_mining(cold, result)

    def test_empty_append_is_a_no_op(self):
        relation = Relation.from_rows(
            Schema.of_width(3), [(0, 1, 2), (0, 1, 0)]
        )
        incremental = IncrementalMiner(relation, build_armstrong="none")
        before = incremental.result
        assert incremental.append([]) is before

    def test_bad_arity_rejected(self):
        incremental = IncrementalMiner(
            Relation.from_rows(Schema.of_width(3), [(0, 1, 2)]),
            build_armstrong="none",
        )
        with pytest.raises(ReproError):
            incremental.append([(1, 2)])

    def test_miner_and_options_are_exclusive(self):
        relation = Relation.from_rows(Schema.of_width(2), [(0, 1)])
        with pytest.raises(ReproError):
            IncrementalMiner(relation, miner=DepMiner(), jobs=2)

    def test_delta_couples_metric(self):
        metrics = MetricsRegistry()
        relation = Relation.from_rows(
            Schema.of_width(3), [(0, 1, 2), (0, 1, 0), (1, 0, 2)]
        )
        incremental = IncrementalMiner(
            relation, build_armstrong="none", metrics=metrics
        )
        incremental.append([(0, 0, 0)])
        counters = metrics.snapshot()["counters"]
        assert counters["incremental.rows_appended"] == 1
        assert "incremental.delta_couples" in counters

    def test_appends_publish_for_future_cold_runs(self, tmp_path):
        store = ArtifactStore(cache_dir=tmp_path)
        base = [(0, 1, 2), (0, 1, 0), (1, 2, 2)]
        extra = [(2, 2, 2), (0, 1, 2)]
        schema = Schema.of_width(3)
        incremental = IncrementalMiner(
            Relation.from_rows(schema, base),
            miner=DepMiner(build_armstrong="none", cache=store),
        )
        result = incremental.append(extra)
        fresh = ArtifactStore(cache_dir=tmp_path)
        cold = DepMiner(build_armstrong="none", cache=fresh).run(
            Relation.from_rows(schema, base + extra)
        )
        assert_same_mining(cold, result)
        assert fresh.stats["cache.hit"] == 1
        assert fresh.stats["cache.miss"] == 0

    def test_armstrong_built_from_grown_relation(self):
        schema = Schema.of_width(3)
        incremental = IncrementalMiner(
            Relation.from_rows(schema, [(0, 1, 2), (1, 1, 2)])
        )
        result = incremental.append([(0, 2, 0), (2, 0, 1)])
        cold = DepMiner().run(
            Relation.from_rows(
                schema, [(0, 1, 2), (1, 1, 2), (0, 2, 0), (2, 0, 1)]
            )
        )
        assert_same_mining(cold, result)
        assert (result.armstrong is None) == (cold.armstrong is None)


class TestIncrementalDerivation:
    """An append re-derives only the attributes whose maximal sets its
    added agree sets move (Lemma 3); every case still equals a cold run
    on the grown relation, on both backends."""

    BACKENDS = pytest.mark.parametrize("backend", ["python", "columnar"])

    @staticmethod
    def rederived(metrics):
        return metrics.snapshot()["counters"].get(
            "incremental.rederived_attributes")

    def grow(self, backend, schema, base, batches,
             build_armstrong="none", max_lhs_size=None, **options):
        """Append each batch and check it against a cold run; returns
        the last result and each append's re-derived attribute count."""
        skip_without_numpy(backend)
        metrics = MetricsRegistry()
        shared = dict(backend=backend, build_armstrong=build_armstrong,
                      max_lhs_size=max_lhs_size)
        incremental = IncrementalMiner(
            Relation.from_rows(schema, base), metrics=metrics, **shared,
            **options
        )
        rows, counts = list(base), []
        for batch in batches:
            before = self.rederived(metrics) or 0
            result = incremental.append(batch)
            counts.append(self.rederived(metrics) - before)
            rows += batch
            cold = DepMiner(**shared).run(Relation.from_rows(schema, rows))
            assert_same_mining(cold, result)
        return result, counts

    @BACKENDS
    def test_duplicate_rows_rederive_nothing(self, backend):
        base = [(0, 1, 2), (0, 2, 2), (1, 1, 0)]
        result, counts = self.grow(
            backend, Schema.of_width(3), base, [[base[0]], base[1:]]
        )
        assert counts == [0, 0]
        assert Schema.of_width(3).universe_mask in result.agree_sets

    @BACKENDS
    def test_row_adding_the_empty_agree_set(self, backend):
        base = [(0, 0, 0), (0, 1, 1), (1, 0, 1)]   # no disjoint couple
        result, counts = self.grow(
            backend, Schema.of_width(3), base, [[(2, 2, 2)]]
        )
        assert 0 in result.agree_sets
        assert counts == [0]    # ∅ is under every non-empty max set

    @BACKENDS
    @pytest.mark.parametrize("batch", [[(1, 2)], [(1, 0)]],
                             ids=["to-empty", "to-non-empty"])
    def test_row_breaking_a_constant_column(self, backend, batch):
        schema = Schema.of_width(2)
        base = [(0, 0), (0, 1)]                    # attribute 0 constant
        result, counts = self.grow(backend, schema, base, [batch])
        assert result.max_sets[0] != []
        assert counts == [1]

    @BACKENDS
    def test_lane_boundary_relation(self, backend):
        from tests.oracle import wide_lane_boundary_relation

        relation = wide_lane_boundary_relation(num_rows=20, seed=3)
        rows = list(relation.rows())
        result, _counts = self.grow(
            backend, relation.schema, rows[:12], [rows[12:16], rows[16:]]
        )
        assert any(mask >> 63 and mask & 1 for mask in result.agree_sets)

    @BACKENDS
    def test_max_lhs_size(self, backend):
        rows = TestCachedDepMiner.rows(5, 60, width=6, values=3)
        self.grow(backend, Schema.of_width(6), rows[:30],
                  [rows[30:40], rows[40:]], max_lhs_size=2)

    @BACKENDS
    def test_jobs_2_appends_in_process(self, backend):
        from repro.obs import Tracer

        tracer = Tracer()
        rows = TestCachedDepMiner.rows(6, 50)
        _result, counts = self.grow(
            backend, Schema.of_width(5), rows[:30], [rows[30:40], rows[40:]],
            jobs=2, tracer=tracer,
        )
        assert sum(counts) >= 1
        lhs_spans = [span for span in tracer.find("lhs")
                     if "rederived" in span.attrs]
        assert len(lhs_spans) == 2
        assert not any(span.attrs.get("fused_cmax") for span in lhs_spans)

    @BACKENDS
    def test_aborted_tail_leaves_its_masks_to_the_next_append(self,
                                                              backend):
        from repro.obs import ProgressAborted

        skip_without_numpy(backend)
        schema = Schema.of_width(3)
        base = [(0, 0, 0), (0, 1, 1)]              # attribute 0 constant
        armed = {"abort": False}
        incremental = IncrementalMiner(
            Relation.from_rows(schema, base), backend=backend,
            build_armstrong="none",
            progress=lambda *_: not armed["abort"],
        )
        armed["abort"] = True
        with pytest.raises(ProgressAborted):
            incremental.append([(1, 0, 5)])        # breaks attribute 0
        armed["abort"] = False
        result = incremental.append([(0, 0, 0)])   # adds nothing new
        cold = DepMiner(backend=backend, build_armstrong="none").run(
            Relation.from_rows(schema, base + [(1, 0, 5), (0, 0, 0)])
        )
        assert_same_mining(cold, result)

    @BACKENDS
    def test_mutating_a_handed_out_result_changes_no_append(self, backend):
        skip_without_numpy(backend)
        schema = Schema.of_width(6)
        rows = TestCachedDepMiner.rows(11, 40, width=6, values=4)
        incremental = IncrementalMiner(
            Relation.from_rows(schema, rows[:20]), backend=backend,
            build_armstrong="none",
        )
        # a batch, the same batch again (moves nothing), then a new one
        for start in (20, 20, 30):
            handed_out = incremental.result
            handed_out.fds.clear()
            for family in (handed_out.max_sets, handed_out.cmax_sets,
                           handed_out.lhs_sets):
                for masks in family.values():
                    masks.append(schema.universe_mask)
            handed_out.max_sets.clear()
            handed_out.agree_sets.clear()
            result = incremental.append(rows[start:start + 10])
            cold = DepMiner(backend=backend, build_armstrong="none").run(
                incremental.relation()
            )
            assert_same_mining(cold, result)
            assert result.fds

    @BACKENDS
    def test_unchanged_cover_still_rebuilds_armstrong(self, backend):
        skip_without_numpy(backend)
        schema = Schema.of_width(3)
        base = [(1, 0, 1), (2, 1, 1), (1, 1, 1), (2, 0, 2), (0, 1, 0)]
        batch = [(4, 2, 4)]     # only ∅ with every row: already in ag(r)
        # Proposition 1 fails on the base's domains, holds on the grown
        before = DepMiner(backend=backend).run(
            Relation.from_rows(schema, base))
        cold = DepMiner(backend=backend).run(
            Relation.from_rows(schema, base + batch))
        assert before.armstrong is None and cold.armstrong is not None
        result, counts = self.grow(
            backend, schema, base, [batch], build_armstrong="real-world"
        )
        assert counts == [0]
        assert sorted(result.armstrong.rows()) == sorted(cold.armstrong.rows())

    @BACKENDS
    def test_spans_and_metrics_keep_their_shape(self, backend):
        from repro.obs import Tracer

        skip_without_numpy(backend)
        tracer = Tracer()
        metrics = MetricsRegistry()
        base = [(0, 1, 2), (0, 2, 2), (1, 1, 0)]
        incremental = IncrementalMiner(
            Relation.from_rows(Schema.of_width(3), base), backend=backend,
            build_armstrong="none", tracer=tracer, metrics=metrics,
        )
        mark = tracer.mark()
        result = incremental.append([base[0]])
        assert {"cmax", "lhs", "fd_output"} <= set(result.phase_seconds)
        for name in ("depminer.derive", "cmax", "lhs", "fd_output"):
            (span,) = tracer.find(name, since=mark)
            assert span.attrs["rederived"] == 0, name
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["incremental.rederived_attributes"] == 0
        assert snapshot["gauges"]["fd.count"] == len(result.fds)
        assert "cmax.edges" in snapshot["gauges"]


class TestLeanAppend:
    """An append publishes the grown relation's ``agree`` and ``cover``
    artefacts only; a later cold run on the grown data still hits."""

    @pytest.mark.parametrize("backend", ["python", "columnar"])
    def test_append_publishes_agree_and_cover_only(self, backend,
                                                   monkeypatch):
        from repro.partitions.partition import StrippedPartition

        skip_without_numpy(backend)
        schema = Schema.of_width(5)
        rows = TestCachedDepMiner.rows(8, 60)
        store = ArtifactStore()
        incremental = IncrementalMiner(
            Relation.from_rows(schema, rows[:40]),
            miner=DepMiner(backend=backend, build_armstrong="none",
                           cache=store),
        )
        built = []
        init = StrippedPartition.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(StrippedPartition, "__init__", counting_init)
        for start in (40, 50):
            puts = store.stats["cache.put"]
            result = incremental.append(rows[start:start + 10])
            assert store.stats["cache.put"] - puts == 2
        assert built == []   # no stripped partition on either backend
        monkeypatch.undo()

        metrics = MetricsRegistry()
        cold = DepMiner(backend=backend, build_armstrong="none",
                        cache=store, metrics=metrics).run(
            incremental.relation()
        )
        assert metrics.snapshot()["counters"].get("cache.full_hit") == 1
        assert fd_tuples(cold) == fd_tuples(result)
        assert fd_tuples(cold) == fd_tuples(
            DepMiner(backend=backend, build_armstrong="none").run(
                Relation.from_rows(schema, rows)
            )
        )


class TestRegistrationFingerprint:
    """An ``IncrementalMiner`` built on a fingerprinted
    ``CodedRelation`` starts from a copy of the ingest's fingerprint
    instead of digesting every row again."""

    @pytest.mark.parametrize("ingest_nulls_equal", [True, False],
                             ids=["same-nulls", "other-nulls"])
    def test_ingest_fingerprint_is_reused(self, tmp_path, monkeypatch,
                                          ingest_nulls_equal):
        pytest.importorskip("numpy")
        from repro.columnar.ingest import ingest_csv

        rows = TestCachedDepMiner.rows(9, 50, width=4)
        path = tmp_path / "relation.csv"
        path.write_text("a,b,c,d\n" + "\n".join(
            ",".join("" if value == 3 else str(value) for value in row)
            for row in rows
        ) + "\n")
        coded = ingest_csv(path, nulls_equal=ingest_nulls_equal,
                           fingerprint=True)
        ingest_key = coded.fingerprint_key()
        initial_key = fingerprint_relation(coded.to_relation())

        folded = []
        update_columns = RelationFingerprint.update_columns

        def counting_update_columns(self, columns):
            folded.append(len(columns))
            update_columns(self, columns)

        monkeypatch.setattr(RelationFingerprint, "update_columns",
                            counting_update_columns)
        incremental = IncrementalMiner(
            coded, miner=DepMiner(backend="columnar", build_armstrong="none",
                                  cache=ArtifactStore()),
        )
        registered_key = incremental.relation_key
        incremental.append([(0, 1, None, 2), (1, 1, 1, 1)])
        assert folded == []
        monkeypatch.undo()

        assert registered_key == initial_key
        assert incremental.relation_key == fingerprint_relation(
            incremental.relation()
        )
        assert coded.fingerprint_key() == ingest_key
