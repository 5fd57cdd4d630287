"""The loss-sweep experiment: table shape, monotone degradation."""

from repro.experiments.loss_sweep import (
    DEFAULT_LOSS_FRACTIONS,
    DEFAULT_RECOVERY_S,
    loss_figure,
    loss_sweep,
)

FRACTIONS = (0.0, 0.01, 0.05)


def run_small(fast_params, jobs=1):
    return loss_sweep(
        fast_params.scaled_down(n_stations=8, monte_carlo_sets=4),
        16.0,
        loss_fractions=FRACTIONS,
        recovery_time_s=1e-3,
        jobs=jobs,
    )


class TestLossSweep:
    def test_table_shape_and_axis(self, fast_params):
        result = run_small(fast_params)
        assert len(result.rows) == len(FRACTIONS)
        assert [row[0] for row in result.rows] == list(FRACTIONS)
        # The rate axis is loss_fraction / recovery_time.
        assert [row[1] for row in result.rows] == [0.0, 10.0, 50.0]

    def test_breakdown_positive_and_monotone_non_increasing(self, fast_params):
        result = run_small(fast_params)
        for column in ("IEEE 802.5", "FDDI"):
            values = [float(v) for v in result.column(column)]
            assert values[0] > 0.0, "fault-free baseline must be schedulable"
            assert all(
                a >= b - 1e-9 for a, b in zip(values, values[1:])
            ), (column, values)

    def test_deterministic_across_jobs(self, fast_params):
        sequential = run_small(fast_params, jobs=1)
        parallel = run_small(fast_params, jobs=2)
        assert sequential.rows == parallel.rows

    def test_figure_renders(self, fast_params):
        result = run_small(fast_params)
        figure = loss_figure(result)
        assert "breakdown utilization vs loss fraction" in figure
        assert "IEEE 802.5" in figure and "FDDI" in figure

    def test_default_fractions_include_baseline(self):
        assert DEFAULT_LOSS_FRACTIONS[0] == 0.0
        assert all(
            a < b
            for a, b in zip(DEFAULT_LOSS_FRACTIONS, DEFAULT_LOSS_FRACTIONS[1:])
        )
        assert DEFAULT_RECOVERY_S > 0.0
