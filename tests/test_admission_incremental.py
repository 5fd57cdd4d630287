"""Incremental admission engine: snapshots, release paths, engine switch.

The bit-identity of incremental decisions against the batch oracle lives
in the fuzz harness (``admission_incremental_equiv`` over randomized
admit/release/check interleavings); these tests pin the parts fuzzing
reaches only by accident — the release-path regressions from the issue
(double release, never-admitted release, admit-after-release staleness),
engine resolution precedence, and the canonical-signature key contract.
"""

import os
import random
import uuid

import pytest

from repro.admission import AdmissionController, AdmissionPolicy
from repro.admission_incremental import (
    AdmissionEngine,
    IncrementalAdmissionController,
    build_admission_controller,
    resolve_engine,
    set_default_engine,
)
from repro.analysis.pdp import PDPAnalysis, PDPVariant
from repro.analysis.ttp import TTPAnalysis
from repro.cache.keys import chained_prefix_keys, set_signature
from repro.errors import AdmissionError, ConfigurationError
from repro.network.standards import fddi_ring, ieee_802_5_ring, paper_frame_format
from repro.obs import metrics
from repro.units import mbps, milliseconds

FRAME = paper_frame_format()


def pdp_pair(n=8, bandwidth=16.0, policy=AdmissionPolicy.EXACT):
    """(incremental, scalar-oracle) controllers over identical analyses."""

    def analysis():
        return PDPAnalysis(
            ieee_802_5_ring(mbps(bandwidth), n_stations=n),
            FRAME,
            PDPVariant.MODIFIED,
        )

    return (
        IncrementalAdmissionController(analysis(), policy),
        AdmissionController(analysis(), policy),
    )


def ttp_incremental(n=8, bandwidth=100.0, policy=AdmissionPolicy.EXACT):
    analysis = TTPAnalysis(fddi_ring(mbps(bandwidth), n_stations=n), FRAME)
    return IncrementalAdmissionController(analysis, policy)


class TestReleasePaths:
    """The regressions named in the issue, on the incremental engine."""

    def test_double_release_raises_then_idempotent_noop(self):
        ctrl, _ = pdp_pair()
        decision = ctrl.request(milliseconds(50), 8000)
        assert decision.admitted
        assert ctrl.release(decision.stream_id).released
        with pytest.raises(AdmissionError):
            ctrl.release(decision.stream_id)
        again = ctrl.release(decision.stream_id, idempotent=True)
        assert not again.released  # recorded no-op, state untouched
        assert ctrl.admitted_count == 0

    def test_release_never_admitted_stream(self):
        ctrl, _ = pdp_pair()
        with pytest.raises(AdmissionError):
            ctrl.release(777)
        assert ctrl.release(777, idempotent=True).released is False

    def test_failed_release_does_not_invalidate_snapshot(self):
        ctrl, _ = pdp_pair()
        assert ctrl.request(milliseconds(50), 8000).admitted
        version = ctrl._base_version
        with pytest.raises(AdmissionError):
            ctrl.release(999)
        ctrl.release(999, idempotent=True)
        assert ctrl._base_version == version

    def test_admit_after_release_sees_fresh_snapshot(self):
        """A release must not leave the next admit reading stale levels."""
        ctrl, oracle = pdp_pair(n=4, bandwidth=1.0)
        streams = [(milliseconds(30), 8000.0), (milliseconds(40), 6000.0)]
        ids = []
        for period, bits in streams:
            d, o = ctrl.request(period, bits), oracle.request(period, bits)
            assert d.admitted == o.admitted
            ids.append(d.stream_id)
        # Warm the snapshot, drop a stream, then re-check: the verdict
        # must match a fresh oracle over the reduced population, not the
        # pre-release snapshot.
        probe = (milliseconds(10), 500_000.0)
        assert ctrl.check(*probe).admitted == oracle.check(*probe).admitted
        ctrl.release(ids[0])
        oracle.release(ids[0])
        d, o = ctrl.check(*probe), oracle.check(*probe)
        assert d.admitted == o.admitted
        assert ctrl.request(*probe).admitted == oracle.request(*probe).admitted

    def test_churn_interleaving_matches_oracle(self):
        ctrl, oracle = pdp_pair(n=6, bandwidth=4.0)
        catalogue = [
            (milliseconds(8), 1024.0),
            (milliseconds(16), 4096.0),
            (milliseconds(32), 16384.0),
            (milliseconds(64), 65536.0),
        ]
        live = []
        for step, (period, bits) in enumerate(catalogue * 3):
            d, o = ctrl.request(period, bits), oracle.request(period, bits)
            assert (d.admitted, d.reason) == (o.admitted, o.reason)
            if d.admitted:
                live.append(d.stream_id)
            if step % 2 and live:
                sid = live.pop(0)
                assert ctrl.release(sid).released
                assert oracle.release(sid).released

    def test_ttp_release_then_admit(self):
        ctrl = ttp_incremental(n=4)
        first = ctrl.request(milliseconds(50), 8000)
        assert first.admitted
        second = ctrl.request(milliseconds(100), 4000)
        assert second.admitted
        ctrl.release(first.stream_id)
        with pytest.raises(AdmissionError):
            ctrl.release(first.stream_id)
        assert ctrl.request(milliseconds(50), 8000).admitted


class TestEngineResolution:
    """Explicit arg > process default > environment > auto."""

    def setup_method(self):
        set_default_engine(None)

    def teardown_method(self):
        set_default_engine(None)
        os.environ.pop("REPRO_ADMISSION_ENGINE", None)

    def test_default_is_auto(self):
        assert resolve_engine() is AdmissionEngine.AUTO

    def test_explicit_beats_default_and_env(self):
        set_default_engine("incremental")
        os.environ["REPRO_ADMISSION_ENGINE"] = "incremental"
        assert resolve_engine("scalar") is AdmissionEngine.SCALAR

    def test_process_default_beats_env(self):
        os.environ["REPRO_ADMISSION_ENGINE"] = "incremental"
        set_default_engine("scalar")
        assert resolve_engine() is AdmissionEngine.SCALAR

    def test_env_beats_auto(self):
        os.environ["REPRO_ADMISSION_ENGINE"] = "scalar"
        assert resolve_engine() is AdmissionEngine.SCALAR

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_engine("vectorized")
        with pytest.raises(ConfigurationError):
            set_default_engine("nope")

    def test_build_controller_classes(self):
        analysis = PDPAnalysis(
            ieee_802_5_ring(mbps(16.0), n_stations=4), FRAME, PDPVariant.MODIFIED
        )
        scalar = build_admission_controller(analysis, engine="scalar")
        assert type(scalar) is AdmissionController
        assert scalar.engine_name == "scalar"
        for engine in ("incremental", "auto", None):
            built = build_admission_controller(analysis, engine=engine)
            assert isinstance(built, IncrementalAdmissionController)
            assert built.engine_name == "incremental"


class TestCanonicalSignatures:
    def test_set_signature_is_permutation_invariant(self):
        pairs = [(0.032, 512.0), (0.008, 1024.0), (0.032, 64.0)]
        assert set_signature(pairs) == set_signature(reversed(list(pairs)))
        assert set_signature(pairs) == [
            [0.008, 1024.0],
            [0.032, 64.0],
            [0.032, 512.0],
        ]

    def test_set_signature_keeps_multiplicity(self):
        once = set_signature([(0.008, 64.0)])
        twice = set_signature([(0.008, 64.0), (0.008, 64.0)])
        assert len(twice) == 2 and twice != once

    def test_chained_prefix_keys_match_prefix_sets(self):
        """Key ``i`` of a chain equals the chain built from the prefix
        alone — a population reached by any history shares its keys."""
        seed = {"admission_level": 1, "signature": "sig"}
        pairs = set_signature([(0.064, 256.0), (0.008, 512.0), (0.016, 64.0)])
        whole = chained_prefix_keys(seed, pairs)
        for i in range(1, len(pairs) + 1):
            assert chained_prefix_keys(seed, pairs[:i]) == whole[:i]

    def test_chained_prefix_keys_separate_seeds_and_pairs(self):
        pairs = set_signature([(0.064, 256.0)])
        a = chained_prefix_keys({"signature": "a"}, pairs)
        b = chained_prefix_keys({"signature": "b"}, pairs)
        assert a != b
        # Field vs record boundaries must not alias: (1.0, 21.0) is not
        # (12.0, 1.0) even though the digit streams could be confused.
        x = chained_prefix_keys({"signature": "a"}, [[1.0, 21.0]])
        y = chained_prefix_keys({"signature": "a"}, [[12.0, 1.0]])
        assert x != y


class TestSnapshotMechanics:
    def test_decision_cache_is_bypassed(self):
        ctrl, _ = pdp_pair()
        assert ctrl._cache_key(object(), object()) is None

    def test_promotion_skips_rebuild_on_admit(self):
        ctrl, _ = pdp_pair()
        assert ctrl.request(milliseconds(50), 8000).admitted
        # The committed candidate's verdicts became the new snapshot:
        # versions agree, so the next decision rebuilds nothing.
        assert ctrl._snap_version == ctrl._base_version
        assert ctrl._pdp_level_ok  # carried over, not cleared

    def test_release_invalidates_lazily(self):
        ctrl, _ = pdp_pair()
        d = ctrl.request(milliseconds(50), 8000)
        ctrl.release(d.stream_id)
        # Bumped but not rebuilt yet …
        assert ctrl._snap_version != ctrl._base_version
        # … and the next decision rebuilds before answering.
        assert ctrl.check(milliseconds(50), 8000).admitted
        assert ctrl._snap_version == ctrl._base_version


class TestWarmRepeatCacheHits:
    """A replayed decision sequence must be served from the result cache.

    One admit/release/check sequence runs twice, each time on a fresh
    controller, over the same retained content-addressed cache.  The
    replay admits its starting population in reverse order, so the scalar
    engine's second pass only hits if :func:`set_signature` ignores
    admission order (the ``(period, payload)`` multiset is all either
    criterion depends on).
    """

    BASE = [(0.032, 16384.0), (0.064, 32768.0), (0.128, 65536.0), (0.256, 8192.0)]
    MIXES = {"check_heavy": (0.05, 0.05), "churn_heavy": (0.40, 0.30)}

    @staticmethod
    def _ops(mix: str, n_ops: int = 160, seed: int = 7) -> list[tuple]:
        admit_fraction, release_fraction = TestWarmRepeatCacheHits.MIXES[mix]
        rng = random.Random(seed)
        catalogue = [
            (
                rng.choice([0.008, 0.016, 0.032, 0.064, 0.128, 0.256]),
                float(rng.randrange(8192, 65536, 1024)),
            )
            for _ in range(32)
        ]
        ops: list[tuple] = []
        for _ in range(n_ops):
            roll = rng.random()
            period_s, payload_bits = rng.choice(catalogue)
            if roll < release_fraction:
                ops.append(("release", rng.randrange(1 << 30)))
            elif roll < release_fraction + admit_fraction:
                ops.append(("admit", period_s, payload_bits))
            else:
                ops.append(("check", period_s, payload_bits))
        return ops

    @classmethod
    def _replay(cls, engine: str, namespace: str, ops, base) -> list:
        analysis = PDPAnalysis(
            ieee_802_5_ring(mbps(16.0), n_stations=40),
            FRAME,
            PDPVariant.MODIFIED,
        )
        ctrl = build_admission_controller(
            analysis,
            AdmissionPolicy.EXACT,
            cache_namespace=namespace,
            engine=engine,
        )
        for period_s, payload_bits in base:
            assert ctrl.request(period_s, payload_bits).admitted
        admitted: list[int] = []
        decisions: list = []
        for op in ops:
            if op[0] == "check":
                decisions.append(ctrl.check(op[1], op[2]).admitted)
            elif op[0] == "admit":
                decision = ctrl.request(op[1], op[2])
                decisions.append(decision.admitted)
                if decision.admitted:
                    admitted.append(decision.stream_id)
            elif admitted:
                stream_id = admitted.pop(op[1] % len(admitted))
                decisions.append(ctrl.release(stream_id).released)
        return decisions

    @staticmethod
    def _counts(namespace: str) -> tuple[float, float]:
        snap = metrics.snapshot(prefix=f"cache.{namespace}.")
        return (
            snap.get(f"cache.{namespace}.hits", {}).get("value", 0.0),
            snap.get(f"cache.{namespace}.misses", {}).get("value", 0.0),
        )

    @pytest.mark.parametrize("mix", ["check_heavy", "churn_heavy"])
    @pytest.mark.parametrize("engine", ["scalar", "incremental"])
    def test_second_pass_is_identical_and_hit_dominated(self, engine, mix):
        metrics.enable()
        namespace = f"warm-repeat-{engine}-{mix}-{uuid.uuid4().hex}"
        ops = self._ops(mix)
        cold = self._replay(engine, namespace, ops, self.BASE)
        hits_before, misses_before = self._counts(namespace)
        warm = self._replay(engine, namespace, ops, self.BASE[::-1])
        hits_after, misses_after = self._counts(namespace)
        hits = hits_after - hits_before
        misses = misses_after - misses_before
        assert warm == cold
        assert any(cold) and not all(cold), "sequence must decide both ways"
        assert hits > misses, (hits, misses)
