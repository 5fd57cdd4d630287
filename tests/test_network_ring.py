"""RingNetwork: latency components, Θ, and derivation helpers."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.network.ring import RingNetwork
from repro.units import SPEED_OF_LIGHT, mbps


def make_ring(**overrides) -> RingNetwork:
    defaults = dict(
        n_stations=100,
        station_spacing_m=100.0,
        station_bit_delay=4.0,
        token_bits=24.0,
        bandwidth_bps=mbps(10),
        velocity_factor=0.75,
    )
    defaults.update(overrides)
    return RingNetwork(**defaults)


class TestValidation:
    def test_rejects_no_stations(self):
        with pytest.raises(ConfigurationError):
            make_ring(n_stations=0)

    def test_rejects_negative_spacing(self):
        with pytest.raises(ConfigurationError):
            make_ring(station_spacing_m=-1.0)

    def test_rejects_negative_bit_delay(self):
        with pytest.raises(ConfigurationError):
            make_ring(station_bit_delay=-1.0)

    def test_rejects_negative_token(self):
        with pytest.raises(ConfigurationError):
            make_ring(token_bits=-1.0)

    def test_rejects_zero_bandwidth(self):
        with pytest.raises(ConfigurationError):
            make_ring(bandwidth_bps=0.0)

    def test_rejects_bad_velocity(self):
        with pytest.raises(ConfigurationError):
            make_ring(velocity_factor=0.0)

    @pytest.mark.parametrize(
        "field",
        [
            "station_spacing_m",
            "station_bit_delay",
            "token_bits",
            "bandwidth_bps",
            "velocity_factor",
        ],
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ConfigurationError, match="got"):
            make_ring(**{field: value})


class TestGeometry:
    def test_ring_length(self):
        assert make_ring().ring_length_m == 10_000.0

    def test_single_station_ring(self):
        assert make_ring(n_stations=1).ring_length_m == 100.0


class TestLatencyComponents:
    def test_propagation_delay(self):
        ring = make_ring()
        expected = 10_000.0 / (0.75 * SPEED_OF_LIGHT)
        assert ring.propagation_delay_s == pytest.approx(expected)

    def test_station_latency_scales_inverse_bandwidth(self):
        slow = make_ring(bandwidth_bps=mbps(1))
        fast = make_ring(bandwidth_bps=mbps(100))
        assert slow.station_latency_s == pytest.approx(100 * fast.station_latency_s)

    def test_station_latency_value(self):
        # 100 stations x 4 bits at 10 Mbps = 40 microseconds.
        assert make_ring().station_latency_s == pytest.approx(40e-6)

    def test_token_time(self):
        # 24 bits at 10 Mbps = 2.4 microseconds.
        assert make_ring().token_time == pytest.approx(2.4e-6)

    def test_walk_time_is_sum(self):
        ring = make_ring()
        assert ring.walk_time == pytest.approx(
            ring.propagation_delay_s + ring.station_latency_s
        )

    def test_theta_is_walk_plus_token(self):
        ring = make_ring()
        assert ring.theta == pytest.approx(ring.walk_time + ring.token_time)

    def test_latency_bits(self):
        # Q = token + n * per-station delay = 24 + 400.
        assert make_ring().latency_bits == 424.0

    def test_theta_decomposition_eq_14(self):
        """Θ = P + Q / BW — the decomposition behind equation (14)."""
        ring = make_ring()
        assert ring.theta == pytest.approx(
            ring.propagation_delay_s + ring.latency_bits / ring.bandwidth_bps
        )


class TestDerivation:
    def test_with_bandwidth_changes_only_bandwidth(self):
        ring = make_ring()
        faster = ring.with_bandwidth(mbps(100))
        assert faster.bandwidth_bps == mbps(100)
        assert faster.n_stations == ring.n_stations
        assert faster.propagation_delay_s == ring.propagation_delay_s

    def test_with_stations(self):
        bigger = make_ring().with_stations(200)
        assert bigger.n_stations == 200
        assert bigger.ring_length_m == 20_000.0

    def test_transmission_time(self):
        assert make_ring().transmission_time(1000) == pytest.approx(1e-4)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            make_ring().n_stations = 5


class TestAsymptotics:
    @given(bw=st.floats(min_value=1e5, max_value=1e12))
    def test_theta_bounded_below_by_propagation(self, bw):
        """Θ can never shrink below the propagation delay — the physical
        fact that drives the PDP's high-bandwidth collapse."""
        ring = make_ring(bandwidth_bps=bw)
        assert ring.theta >= ring.propagation_delay_s

    def test_theta_decreases_with_bandwidth(self):
        thetas = [make_ring(bandwidth_bps=mbps(b)).theta for b in (1, 10, 100, 1000)]
        assert thetas == sorted(thetas, reverse=True)

    def test_theta_converges_to_propagation(self):
        ring = make_ring(bandwidth_bps=1e15)
        assert ring.theta == pytest.approx(ring.propagation_delay_s, rel=1e-3)
