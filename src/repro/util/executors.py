"""Executor selection and sizing for the participant fan-out.

The campaign's roster pipeline can run a roster three ways —
``serial`` (inline), ``thread`` (a :class:`~concurrent.futures.
ThreadPoolExecutor`) or ``process`` (a :class:`~concurrent.futures.
ProcessPoolExecutor`) — all concluding bit-identically for a fixed seed
because every participant simulates on an independent RNG substream and
results merge back in roster order. This module holds the shared sizing
arithmetic so the campaign, the fan-out runtime and the scaling benchmark
agree on it:

* :func:`effective_pool_size` caps the worker count at the pending roster
  (``parallelism=8`` with 3 pending participants must not spawn idle
  workers);
* :func:`chunk_indices` splits the pending roster into contiguous batches
  that amortize process spawn + pickle overhead while still giving the pool
  enough tasks to balance load;
* :func:`available_cpus` is the honest core count (CPU affinity aware) the
  benchmarks record so results are interpretable across machines.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from typing import List, Optional, Sequence

from repro.errors import ValidationError

#: The executor modes the campaign accepts (re-exported by
#: :mod:`repro.core.config` as ``EXECUTOR_MODES``).
EXECUTOR_SERIAL = "serial"
EXECUTOR_THREAD = "thread"
EXECUTOR_PROCESS = "process"
EXECUTOR_MODES = (EXECUTOR_SERIAL, EXECUTOR_THREAD, EXECUTOR_PROCESS)

#: Auto-chunking aims for this many tasks per pool worker: enough slack for
#: load balancing without paying per-task pickle overhead per participant.
_TASKS_PER_WORKER = 4


def validate_executor_mode(mode: str) -> str:
    """Return ``mode`` if valid; raise :class:`ValidationError` otherwise."""
    if mode not in EXECUTOR_MODES:
        raise ValidationError(
            f"executor must be one of {EXECUTOR_MODES}, got {mode!r}"
        )
    return mode


def available_cpus() -> int:
    """CPUs actually usable by this process (affinity-aware, >= 1)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # platforms without sched_getaffinity
        return max(1, os.cpu_count() or 1)


def effective_pool_size(requested: int, pending: int) -> int:
    """Workers to actually spawn: never more than the pending roster."""
    if requested < 1:
        raise ValidationError(f"parallelism must be >= 1, got {requested}")
    return max(1, min(requested, pending))


def resolve_chunk_size(
    pending: int, pool_size: int, chunk_size: Optional[int] = None
) -> int:
    """Participants per pool task.

    An explicit ``chunk_size`` wins; otherwise aim for
    ``_TASKS_PER_WORKER`` tasks per worker so a slow chunk can be overlapped
    by the rest of the pool.
    """
    if chunk_size is not None:
        if chunk_size < 1:
            raise ValidationError(f"chunk_size must be >= 1, got {chunk_size}")
        return chunk_size
    if pending <= 0:
        return 1
    return max(1, math.ceil(pending / (pool_size * _TASKS_PER_WORKER)))


def chunk_indices(
    indices: Sequence[int], pool_size: int, chunk_size: Optional[int] = None
) -> List[List[int]]:
    """Split ``indices`` into contiguous chunks, preserving order.

    The chunk sequence is deterministic for a given roster and sizing, which
    keeps the merge order (and therefore every derived artifact) independent
    of pool scheduling.
    """
    size = resolve_chunk_size(len(indices), pool_size, chunk_size)
    items = list(indices)
    return [items[i:i + size] for i in range(0, len(items), size)]


def process_context() -> multiprocessing.context.BaseContext:
    """The multiprocessing context for the process executor.

    ``fork`` is preferred where available: the fan-out spec is shipped to
    workers via initializer args, which fork inherits for free instead of
    pickling per worker. Everything shipped is picklable regardless, so the
    ``spawn`` fallback (macOS/Windows) behaves identically, just slower to
    start.
    """
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()
