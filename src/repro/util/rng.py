"""Deterministic random-number plumbing.

Every stochastic component in the reproduction receives randomness explicitly.
The helpers here derive independent, reproducible streams from a single root
seed so that, e.g., the worker-arrival process and the judgment noise of a
campaign do not share (and therefore perturb) one another's stream.

Streams are derived by hashing the root seed together with a string *label*,
which keeps derivations stable across refactorings: adding a new consumer with
a new label never shifts the draws seen by existing consumers.
"""

from __future__ import annotations

import hashlib
import math
import random
import sys
from bisect import bisect_right
from typing import Optional, Sequence

import numpy as np

_MASK_64 = (1 << 64) - 1


def spawn_seed(root_seed: int, label: str) -> int:
    """Derive a 64-bit child seed from ``root_seed`` and a string ``label``.

    The derivation is a SHA-256 hash, so child seeds are statistically
    independent for distinct labels and stable across platforms and Python
    versions (unlike ``hash()``).
    """
    payload = f"{root_seed}:{label}".encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "little") & _MASK_64


def derive_rng(root_seed: int, label: str) -> np.random.Generator:
    """Return a numpy Generator seeded from ``(root_seed, label)``."""
    return np.random.default_rng(spawn_seed(root_seed, label))


def roster_stream(root_entropy: int, index: int) -> np.random.Generator:
    """Roster slot ``index``'s generator, the one seeded by
    ``np.random.SeedSequence(root_entropy).spawn(slots)[index]`` for any
    ``slots`` past ``index``, derived without spawning its siblings."""
    return np.random.default_rng(
        np.random.SeedSequence(root_entropy, spawn_key=(index,))
    )


#: Roster slots whose generators :class:`RosterStreams` builds together.
ROSTER_STREAM_BATCH = 4096


class RosterStreams:
    """Each roster slot's generator: slot ``i`` gets the one seeded by
    ``np.random.SeedSequence(root_entropy).spawn(slots)[i]``.

    The generators are built :data:`ROSTER_STREAM_BATCH` slots at a time,
    when a slot of the batch is first asked for, and only the latest batch
    is held: a roster of at most one batch builds its streams together as
    a whole-roster ``spawn`` would, and a million-slot roster holds one
    batch of generators (~1.5 KB each), not one per slot. Each slot's
    generator is meant to be drawn from by one participant, once.
    """

    def __init__(self, root_entropy: int, slots: int):
        self.root_entropy = root_entropy
        self.slots = slots
        self._first = -1
        self._batch: list = []

    def __getitem__(self, index: int) -> np.random.Generator:
        first = index - index % ROSTER_STREAM_BATCH
        if first != self._first:
            # spawn() numbers its children from n_children_spawned on.
            root = np.random.SeedSequence(self.root_entropy, n_children_spawned=first)
            size = min(ROSTER_STREAM_BATCH, self.slots - first)
            self._batch = [np.random.default_rng(child) for child in root.spawn(size)]
            self._first = first
        return self._batch[index - first]


def derive_random(root_seed: int, label: str) -> random.Random:
    """Return a stdlib ``random.Random`` seeded from ``(root_seed, label)``."""
    return random.Random(spawn_seed(root_seed, label))


def draw_prefix(seed: int, salt: str) -> bytes:
    """The leading ``f"{seed}|{salt}|"`` bytes of :func:`stable_uniform`'s
    hashed input. A caller that draws many tokens under one salt builds it
    once; it is bytes, not a hasher, so its holder still pickles."""
    return f"{seed}|{salt}|".encode("utf-8")


#: Bound once: :func:`prefixed_uniform` runs several times per simulated
#: request on a lossy network.
_blake2b = hashlib.blake2b
_from_bytes = int.from_bytes


def prefixed_uniform(prefix: bytes, tail: bytes) -> float:
    """The stable uniform in [0, 1) whose hashed input is ``prefix + tail``."""
    return _from_bytes(_blake2b(prefix + tail, digest_size=8).digest(), "big") / 2.0**64


def stable_uniform(seed: int, salt: str, token: str) -> float:
    """A stable uniform in [0, 1) for one ``(seed, salt, token)`` triple.

    The 8-byte blake2b digest of ``f"{seed}|{salt}|{token}"``, scaled to
    [0, 1): a pure function of its arguments, never a draw from a shared
    stream. Fault rules, admission lotteries and fleet chaos all draw
    through it (or through its :func:`prefixed_uniform` form).
    """
    return prefixed_uniform(draw_prefix(seed, salt), f"{token}".encode("utf-8"))


class SeedSequenceFactory:
    """Hands out labelled child RNGs derived from one root seed.

    The factory remembers which labels were used so duplicate requests for the
    same label return *fresh* streams (suffixed with an occurrence counter)
    rather than silently aliasing — two workers asking for ``"behavior"`` must
    not act identically.
    """

    def __init__(self, root_seed: int):
        self.root_seed = int(root_seed)
        self._counts: dict[str, int] = {}

    def _next_label(self, label: str) -> str:
        count = self._counts.get(label, 0)
        self._counts[label] = count + 1
        if count == 0:
            return label
        return f"{label}#{count}"

    def rng(self, label: str) -> np.random.Generator:
        """Return a fresh numpy Generator for ``label``."""
        return derive_rng(self.root_seed, self._next_label(label))

    def random(self, label: str) -> random.Random:
        """Return a fresh stdlib Random for ``label``."""
        return derive_random(self.root_seed, self._next_label(label))

    def seed(self, label: str) -> int:
        """Return a fresh integer child seed for ``label``."""
        return spawn_seed(self.root_seed, self._next_label(label))

    def child(self, label: str) -> "SeedSequenceFactory":
        """Return a sub-factory rooted at a child seed."""
        return SeedSequenceFactory(self.seed(label))


def coerce_rng(
    rng: Optional[np.random.Generator], seed: Optional[int] = None
) -> np.random.Generator:
    """Normalize the common ``rng=None, seed=None`` signature.

    Priority: an explicit generator wins; otherwise a seed (or 0) is used.
    """
    if rng is not None:
        return rng
    return np.random.default_rng(0 if seed is None else seed)


# -- categorical draws ---------------------------------------------------------
#
# ``Generator.choice(options, p=weights)`` with no ``size`` draws one double
# ``u`` and returns ``options[i]`` for the first ``i`` with ``u < cdf[i]``,
# where ``cdf = p.cumsum(); cdf /= cdf[-1]``. The helpers below make exactly
# that draw (same double, same index, same stream position) without numpy's
# per-call cost of converting ``options`` and validating ``p``, which is
# tens of microseconds inside a running campaign.

#: numpy's tolerance on a probability vector's sum (``Generator.choice``).
_SUM_TOLERANCE = math.sqrt(sys.float_info.epsilon)


def _check_weights(weights: Sequence[float], size: int) -> None:
    """Raise ``ValueError`` wherever ``Generator.choice(size options,
    p=weights)`` does: no options, a length mismatch, a NaN, a negative
    weight, or a (Kahan-summed, as numpy sums) total off 1 by more than
    the square root of the float64 epsilon."""
    if size == 0:
        raise ValueError("options cannot be empty")
    if len(weights) != size:
        raise ValueError("options and weights must have the same length")
    total = float(weights[0])
    carry = 0.0
    for weight in weights[1:]:
        y = float(weight) - carry
        t = total + y
        carry = (t - total) - y
        total = t
    if math.isnan(total):
        raise ValueError("weights contain NaN")
    if any(weight < 0 for weight in weights):
        raise ValueError("weights must be non-negative")
    if abs(total - 1.0) > _SUM_TOLERANCE:
        raise ValueError(f"weights must sum to 1, got {total!r}")


class Categorical:
    """A constant categorical distribution, drawn like
    ``Generator.choice(options, p=weights)``.

    Build it once (at import, for a module's weight table); the weights are
    validated as numpy validates them and the normalized CDF is computed
    with numpy's own ``cumsum``.
    """

    __slots__ = ("options", "cdf")

    def __init__(self, options: Sequence, weights: Sequence[float]):
        self.options = tuple(options)
        _check_weights(weights, len(self.options))
        cdf = np.asarray(weights, dtype=np.float64).cumsum()
        cdf /= cdf[-1]
        self.cdf = tuple(cdf.tolist())

    def draw(self, rng: np.random.Generator):
        """One option; consumes one ``rng.random()`` double."""
        return self.options[bisect_right(self.cdf, rng.random())]


def categorical(rng: np.random.Generator, options: Sequence, weights: Sequence[float]):
    """``Generator.choice(options, p=weights)`` for weights known only per
    call: same validation, same double consumed, same option returned."""
    _check_weights(weights, len(options))
    running = 0.0
    cdf = []
    for weight in weights:
        running += weight
        cdf.append(running)
    return options[bisect_right([c / running for c in cdf], rng.random())]
