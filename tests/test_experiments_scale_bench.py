"""Scale measurements: columnar throughput + streaming MC efficiency.

Exercises :mod:`repro.experiments.scale_bench` at toy sizes; these tests
pin the machinery (determinism, eval accounting), not the performance
claims themselves (the verify scale guard does that at real sizes).
"""

from __future__ import annotations

import pytest

from repro.experiments.config import PaperParameters
from repro.experiments.scale_bench import ScaleBenchResult, run_scale_bench


@pytest.fixture(scope="module")
def result():
    return run_scale_bench(
        PaperParameters(),
        n_streams=4000,
        baseline_streams=64,
        distinct_periods=16,
        bandwidth_mbps=10.0,
        mc_streams=6,
        mc_eps=0.02,
        mc_chunk_sets=8,
        mc_min_chunks=2,
        mc_max_sets=512,
        mc_strata=4,
    )


class TestRunScaleBench:
    def test_pipelines_produce_real_verdicts(self, result):
        """Both pipelines must run the full exact analyses: real boolean
        verdicts and a finite TTP saturation scale.  (At thousands of
        stations the TTP scale is legitimately 0.0 — per-station frame
        overheads alone exceed TTRT − δ — which is exactly the regime the
        paper's Figure 1 tails show, so only finiteness is pinned.)"""
        assert result.n_streams == 4000
        assert result.baseline_streams == 64
        assert isinstance(result.columnar_schedulable, bool)
        assert isinstance(result.object_schedulable, bool)
        assert 0.0 <= result.columnar_ttp_scale < float("inf")
        assert 0.0 < result.object_ttp_scale < float("inf")

    def test_throughput_fields_consistent(self, result):
        assert result.columnar_seconds > 0 and result.object_seconds > 0
        assert result.columnar_streams_per_sec == pytest.approx(
            result.n_streams / result.columnar_seconds
        )
        assert result.speedup == pytest.approx(
            result.columnar_streams_per_sec / result.object_streams_per_sec
        )

    def test_mc_estimates_converged_and_agree(self, result):
        assert result.naive.converged and result.vr.converged
        assert result.naive.eps == result.vr.eps == 0.02
        assert result.vr.evaluations <= result.naive.evaluations
        assert result.mc_eval_ratio == pytest.approx(
            result.naive.evaluations / result.vr.evaluations
        )
        tolerance = result.naive.half_width + result.vr.half_width
        assert abs(result.naive.mean - result.vr.mean) <= tolerance

    def test_deterministic_given_parameters(self, result):
        twin = run_scale_bench(
            PaperParameters(),
            n_streams=4000,
            baseline_streams=64,
            distinct_periods=16,
            bandwidth_mbps=10.0,
            mc_streams=6,
            mc_eps=0.02,
            mc_chunk_sets=8,
            mc_min_chunks=2,
            mc_max_sets=512,
            mc_strata=4,
        )
        assert twin.columnar_schedulable == result.columnar_schedulable
        assert twin.columnar_ttp_scale == result.columnar_ttp_scale
        assert twin.object_ttp_scale == result.object_ttp_scale
        assert twin.naive.chunk_means == result.naive.chunk_means
        assert twin.vr.chunk_means == result.vr.chunk_means

    def test_result_is_frozen(self, result):
        assert isinstance(result, ScaleBenchResult)
        with pytest.raises(AttributeError):
            result.n_streams = 1
