"""Network profiles: the emulated testing conditions of the paper.

Kaleidoscope's controlled environment lets an experimenter pick the "speed"
at which web objects load, emulating network profiles. Each profile carries a
round-trip time and downlink/uplink bandwidths and can convert a transfer
size into seconds, which both the simulated HTTP layer and the page-load
schedule recorder use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.errors import ValidationError


@dataclass(frozen=True)
class NetworkProfile:
    """An emulated access-network condition."""

    name: str
    rtt_ms: float
    downlink_kbps: float
    uplink_kbps: float

    def __post_init__(self):
        if self.rtt_ms < 0:
            raise ValidationError(f"rtt_ms must be >= 0, got {self.rtt_ms}")
        if self.downlink_kbps <= 0 or self.uplink_kbps <= 0:
            raise ValidationError("bandwidths must be positive")

    def download_seconds(self, size_bytes: int) -> float:
        """Time to download ``size_bytes``: one RTT + serialization delay."""
        if size_bytes < 0:
            raise ValidationError(f"size must be >= 0, got {size_bytes}")
        serialization = (size_bytes * 8.0) / (self.downlink_kbps * 1000.0)
        return self.rtt_ms / 1000.0 + serialization

    def request_seconds(self, request_bytes: int, response_bytes: int) -> float:
        """Round-trip request/response exchange time."""
        up = (request_bytes * 8.0) / (self.uplink_kbps * 1000.0)
        down = (response_bytes * 8.0) / (self.downlink_kbps * 1000.0)
        return self.rtt_ms / 1000.0 + up + down

    def degraded(
        self, latency_factor: float = 1.0, bandwidth_factor: float = 1.0
    ) -> "NetworkProfile":
        """A derived profile under degraded conditions (congestion, partial
        outage): RTT multiplied by ``latency_factor``, both bandwidths scaled
        by ``bandwidth_factor`` (must be in (0, 1])."""
        if latency_factor < 1.0:
            raise ValidationError("latency_factor must be >= 1")
        if not 0.0 < bandwidth_factor <= 1.0:
            raise ValidationError("bandwidth_factor must be in (0, 1]")
        return NetworkProfile(
            name=f"{self.name}-degraded",
            rtt_ms=self.rtt_ms * latency_factor,
            downlink_kbps=self.downlink_kbps * bandwidth_factor,
            uplink_kbps=self.uplink_kbps * bandwidth_factor,
        )


# Presets roughly matching common emulation targets (Chrome DevTools /
# WebPageTest naming conventions).
PROFILES: Dict[str, NetworkProfile] = {
    "fiber": NetworkProfile("fiber", rtt_ms=4, downlink_kbps=100_000, uplink_kbps=100_000),
    "cable": NetworkProfile("cable", rtt_ms=28, downlink_kbps=5_000, uplink_kbps=1_000),
    "dsl": NetworkProfile("dsl", rtt_ms=50, downlink_kbps=1_500, uplink_kbps=384),
    "4g": NetworkProfile("4g", rtt_ms=70, downlink_kbps=9_000, uplink_kbps=9_000),
    "3g": NetworkProfile("3g", rtt_ms=150, downlink_kbps=1_600, uplink_kbps=768),
    "3g-slow": NetworkProfile("3g-slow", rtt_ms=400, downlink_kbps=400, uplink_kbps=400),
    "2g": NetworkProfile("2g", rtt_ms=800, downlink_kbps=280, uplink_kbps=256),
}


def get_profile(name: str) -> NetworkProfile:
    """Look up a preset by name."""
    try:
        return PROFILES[name.lower()]
    except KeyError:
        known = ", ".join(sorted(PROFILES))
        raise ValidationError(f"unknown network profile {name!r}; known: {known}") from None
