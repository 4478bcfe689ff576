"""Network substrate: profiles, simulated HTTP, and resource fetching.

Kaleidoscope's core server is a NodeJS web server; the browser extension
downloads integrated webpages and uploads responses over HTTP/Ajax. This
package reproduces that exchange over a deterministic simulated network whose
"network profiles" (latency/bandwidth presets) also drive the page-load
timing discussion in the paper: the aggregator's local replay removes
networking discrepancy among participants, and these profiles are what it
removes.
"""

from repro.net.profiles import NetworkProfile, PROFILES, get_profile
from repro.net.http import IDEMPOTENCY_HEADER, Request, Response, Router, HttpServer
from repro.net.simnet import Client, SimulatedNetwork
from repro.net.fetch import FetchedResource, StaticResourceMap
from repro.net.faults import (
    CircuitBreaker,
    CircuitBreakerConfig,
    FaultPlan,
    FaultRule,
    OutageWindow,
    RetryPolicy,
)
from repro.net.overload import (
    AdmissionController,
    AdmissionDecision,
    LoadSignal,
    OverloadConfig,
    RateLimiter,
)

__all__ = [
    "NetworkProfile",
    "PROFILES",
    "get_profile",
    "IDEMPOTENCY_HEADER",
    "Request",
    "Response",
    "Router",
    "HttpServer",
    "Client",
    "SimulatedNetwork",
    "FetchedResource",
    "StaticResourceMap",
    "CircuitBreaker",
    "CircuitBreakerConfig",
    "FaultPlan",
    "FaultRule",
    "OutageWindow",
    "RetryPolicy",
    "AdmissionController",
    "AdmissionDecision",
    "LoadSignal",
    "OverloadConfig",
    "RateLimiter",
]
