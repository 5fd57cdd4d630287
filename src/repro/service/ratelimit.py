"""Per-client token-bucket rate limiting for the admission service.

Classic token bucket: a client's bucket refills at ``rate_per_s`` tokens
per second up to ``burst``; each request spends one token; an empty
bucket reports how long until the next token so the server can answer
429 with an honest ``Retry-After``.

Time is always passed in explicitly (monotonic seconds) — the limiter
never reads a clock itself, which keeps it exactly testable and lets the
server share one ``loop.time()`` read across the request path.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.errors import ConfigurationError

__all__ = ["TokenBucket", "ClientRateLimiter"]


class TokenBucket:
    """One client's bucket.  ``try_acquire`` returns 0.0 on success or
    the seconds until a token will be available."""

    __slots__ = ("rate", "burst", "tokens", "updated")

    def __init__(self, rate_per_s: float, burst: float, now: float):
        if not rate_per_s > 0:  # also rejects NaN
            raise ConfigurationError(
                f"rate_per_s must be positive, got {rate_per_s!r}"
            )
        if not burst >= 1:  # also rejects NaN
            raise ConfigurationError(f"burst must be at least 1, got {burst!r}")
        self.rate = float(rate_per_s)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.updated = now

    def try_acquire(self, now: float) -> float:
        """Spend one token, refilling for the elapsed time first."""
        elapsed = max(0.0, now - self.updated)
        self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
        self.updated = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return 0.0
        return (1.0 - self.tokens) / self.rate


class ClientRateLimiter:
    """A bounded pool of per-client buckets (LRU-evicted).

    ``rate_per_s <= 0`` disables limiting entirely: :meth:`check` always
    grants.  The client key is whatever the server extracts from the
    request (the ``X-Client-Id`` header, else the peer address); an
    evicted idle client simply starts over with a full bucket.
    """

    def __init__(
        self,
        rate_per_s: float,
        burst: float = 50.0,
        max_clients: int = 1024,
    ):
        self._rate = float(rate_per_s)
        self._burst = float(burst)
        self._max_clients = max(int(max_clients), 1)
        self._buckets: "OrderedDict[str, TokenBucket]" = OrderedDict()

    @property
    def enabled(self) -> bool:
        """Whether any limiting is in force."""
        return self._rate > 0

    @property
    def rate_per_s(self) -> float:
        """The configured per-client sustained rate."""
        return self._rate

    def check(self, client: str, now: float) -> float:
        """0.0 = request granted; otherwise seconds to wait (429)."""
        if not self.enabled:
            return 0.0
        bucket = self._buckets.get(client)
        if bucket is None:
            bucket = TokenBucket(self._rate, self._burst, now)
            self._buckets[client] = bucket
            while len(self._buckets) > self._max_clients:
                self._buckets.popitem(last=False)
        else:
            self._buckets.move_to_end(client)
        return bucket.try_acquire(now)
