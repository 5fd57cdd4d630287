"""The physical ring model (Section 3.1 of the paper).

A :class:`RingNetwork` captures everything about the ring that the
schedulability analyses need:

* ``W_T`` — the *token walk time*: signal propagation once around the ring
  plus the per-station ring/buffer latency.
* ``Θ`` (:attr:`RingNetwork.theta`) — ``W_T`` plus the time to transmit the
  token itself.  This is the effective cost of passing the token once
  around the ring, and it is the quantity that stops shrinking as bandwidth
  grows (propagation delay is bandwidth independent), which drives the
  paper's headline non-monotonicity for the priority driven protocol.

The model is deliberately frozen: analyses for different bandwidths are
produced with :meth:`RingNetwork.with_bandwidth`, which keeps sweep code
free of mutation bugs.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.units import propagation_delay, transmission_time

__all__ = ["RingNetwork"]


@dataclass(frozen=True)
class RingNetwork:
    """Physical parameters of a token ring and the latencies derived from them.

    Attributes:
        n_stations: number of stations on the ring (``n``).
        station_spacing_m: distance between neighbouring stations (``d``),
            in meters; the ring circumference is ``n * d``.
        station_bit_delay: per-station ring/buffer latency, in bits
            (4 bits for IEEE 802.5 interfaces, 75 for FDDI in the paper).
        token_bits: length of the token frame, in bits.
        bandwidth_bps: link bandwidth ``BW``, bits per second.
        velocity_factor: signal speed as a fraction of c (0.75 in the paper).
    """

    n_stations: int
    station_spacing_m: float
    station_bit_delay: float
    token_bits: float
    bandwidth_bps: float
    velocity_factor: float = 0.75

    def __post_init__(self) -> None:
        if self.n_stations < 1:
            raise ConfigurationError(
                f"a ring needs at least one station, got {self.n_stations!r}"
            )
        for name, value in (
            ("station spacing", self.station_spacing_m),
            ("station bit delay", self.station_bit_delay),
            ("token length", self.token_bits),
        ):
            if not (value >= 0 and math.isfinite(value)):
                raise ConfigurationError(
                    f"{name} must be finite and non-negative, got {value!r}"
                )
        if not (self.bandwidth_bps > 0 and math.isfinite(self.bandwidth_bps)):
            raise ConfigurationError(
                f"bandwidth must be finite and positive, got {self.bandwidth_bps!r}"
            )
        if not 0.0 < self.velocity_factor <= 1.0:
            raise ConfigurationError(
                f"velocity factor must be in (0, 1], got {self.velocity_factor!r}"
            )

    # -- geometry -------------------------------------------------------------

    @property
    def ring_length_m(self) -> float:
        """Circumference of the ring in meters (``n * d``)."""
        return self.n_stations * self.station_spacing_m

    # -- latency components -----------------------------------------------------

    @property
    def propagation_delay_s(self) -> float:
        """One-lap signal propagation delay; bandwidth independent."""
        return propagation_delay(self.ring_length_m, self.velocity_factor)

    @property
    def station_latency_s(self) -> float:
        """Total per-station ring/buffer latency for one lap, in seconds.

        Each station delays the bit stream by ``station_bit_delay`` bit
        times, so the total shrinks as ``1/BW``.
        """
        return transmission_time(
            self.n_stations * self.station_bit_delay, self.bandwidth_bps
        )

    @property
    def token_time(self) -> float:
        """Time to transmit the token frame itself."""
        return transmission_time(self.token_bits, self.bandwidth_bps)

    # -- aggregate latencies -----------------------------------------------------

    @property
    def walk_time(self) -> float:
        """``W_T``: ring + buffer latency plus propagation delay, one lap."""
        return self.propagation_delay_s + self.station_latency_s

    @property
    def theta(self) -> float:
        """``Θ = W_T +`` token transmission time (Section 3.1)."""
        return self.walk_time + self.token_time

    @property
    def latency_bits(self) -> float:
        """``Q``: token length plus ring latency, expressed in bits.

        This is the bandwidth-dependent part of ``Θ`` as used in the
        paper's equation (14): ``Θ = P + Q / BW`` with ``P`` the constant
        propagation delay.
        """
        return self.token_bits + self.n_stations * self.station_bit_delay

    # -- derivation helpers --------------------------------------------------------

    def with_bandwidth(self, bandwidth_bps: float) -> "RingNetwork":
        """Return a copy of this ring at a different bandwidth."""
        return dataclasses.replace(self, bandwidth_bps=bandwidth_bps)

    def with_stations(self, n_stations: int) -> "RingNetwork":
        """Return a copy of this ring with a different station count."""
        return dataclasses.replace(self, n_stations=n_stations)

    def transmission_time(self, size_bits: float) -> float:
        """Time to clock ``size_bits`` onto this ring's medium."""
        return transmission_time(size_bits, self.bandwidth_bps)
