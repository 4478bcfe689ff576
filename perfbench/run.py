#!/usr/bin/env python3
"""Repository benchmark: campaign workloads measured end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload paper-fontsize --seed 1 --seconds 38 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps each
layer's public entry point (see ``layers.py``) and prints the per-layer
metrics with the measured tracing overhead. The workloads are defined in
``workloads.py`` and described in ``WORKLOADS.md``.

The workload runs in a fresh child process, so its peak RSS and set-up
time are its own. The child runs one campaign per input set of a fixed
pool, starting at the one the seed names, until ``--seconds`` is used up,
repeats the first input set, and reports medians over the repetitions
(percentiles over their pooled samples). Timings are in reference seconds
(see ``SpeedClock``): CPU time scaled by the speed of a fixed probe loop
measured around every interval, so the host's drifting CPU speed cancels
out. A run is correct only when every
repetition passes the accounting invariants and the workload's checks, and
every repetition of an input set concludes with the same digest. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; per-repetition details land in
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

#: Input sets every run draws from. Repetition ``k`` of a run with seed
#: ``s`` measures input set ``(s + k) % INPUT_POOL``, so a run of at least
#: ``INPUT_POOL`` repetitions measures the whole pool, and runs with other
#: seeds differ in the order of their inputs, not in the inputs. Input
#: sets cost up to 2x one another (on ``adaptive-close`` a Bradley-Terry
#: refit takes 4-24 ms depending on the answers); a few campaigns of
#: independent inputs per run would make figures vary by seed.
INPUT_POOL = 4
#: Untraced repetitions a timed run makes at least, whatever ``--seconds``:
#: the whole pool, then the first input set again.
MIN_REPETITIONS = INPUT_POOL + 1
#: Set-ups built and discarded after each untraced repetition, so a run
#: has several set-up samples per repetition.
EXTRA_SETUPS_PER_REPETITION = 3
#: Extra ``Campaign.conclude`` calls on each finished untraced repetition.
EXTRA_CONCLUDES_PER_REPETITION = 2
#: The child must finish well inside the 180 s a run may take.
CHILD_TIMEOUT_S = 170
#: Iterations of the speed probe loop (see ``probe_seconds``).
PROBE_ITERATIONS = 4000
#: Probe time at the reference speed: timings are reported as the seconds
#: they would take on a machine that runs the probe loop this fast.
PROBE_REFERENCE_S = 0.002
#: Wall seconds of campaign between two speed probes.
PROBE_INTERVAL_S = 0.03


def load_spec() -> dict:
    """The benchmark's definition: workload names and metric units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def units(spec: dict, section: str) -> dict:
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0 (it seeds numpy generators)")
    return value


def parse_args(spec: dict, argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--seed", type=non_negative_int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "smoke"), default="full",
        help="campaign sizes; 'smoke' is the tiny pass the smoke test runs",
    )
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- parent: one fresh child process per run ----------------------------------


def run_child(args) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--scale", args.scale,
    ]
    try:
        completed = subprocess.run(command, cwd=ROOT, env=env, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: workload did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 3
    return completed.returncode


# -- child: repetitions, metrics, report --------------------------------------


def calibration_seconds() -> dict:
    """Wall times of two fixed loops: the machine's speed at this moment.

    ``cpu_s`` is an arithmetic loop that stays in cache; ``alloc_s`` builds
    and drops batches of small dicts, the kind of work a campaign does, and
    slows more when neighbours contend for caches and memory. The batches
    stay small so the loop never raises the run's peak RSS.
    """
    start = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i * i
    middle = time.perf_counter()
    for _ in range(30):
        rows = [{"i": i, "s": str(i)} for i in range(10_000)]
        del rows
    return {"cpu_s": middle - start, "alloc_s": time.perf_counter() - middle}


#: Lookup table of the speed probe, built once.
_PROBE_TABLE = {f"k{i}": i for i in range(512)}


def _probe_step(table, i: int) -> int:
    return table[f"k{i & 511}"] * 3 % 7


def stamp() -> Tuple[float, float]:
    """Wall and CPU seconds now."""
    return time.perf_counter(), time.process_time()


def probe_seconds() -> float:
    """CPU time of a fixed interpreter loop: string formatting, dict
    lookups, calls and arithmetic, about 1 ms on a 2-CPU VM.

    It allocates no container, so it never moves the garbage collector's
    schedule for the campaign around it.
    """
    table = _PROBE_TABLE
    step = _probe_step
    start = time.process_time()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += step(table, i)
    return time.process_time() - start


class SpeedClock:
    """Times intervals in wall seconds and in reference seconds.

    Every campaign runs serially and never waits (no sleep, no fsync), so
    its wall time is CPU work plus the time the host takes the CPU away.
    Reference seconds leave out the second part and steady the first:
    an interval's CPU seconds (which the kernel counts without stolen
    time), scaled by ``PROBE_REFERENCE_S`` over the mean CPU time of the
    speed probes run just before and just after it. The host's CPU speed
    drifts: the probe flips between two speeds about 2x apart within a
    second, and whole minutes run slow. A reference second is thus a
    second on a machine that runs the probe in ``PROBE_REFERENCE_S``.
    Probe time falls between intervals, never in them. With
    ``probing=False`` the scale is 1 and reference seconds are CPU seconds.
    """

    def __init__(self, probing: bool = True) -> None:
        self.probing = probing
        self.probes: List[float] = []
        self._last_probe = PROBE_REFERENCE_S
        self._began = stamp()

    def _probe(self) -> float:
        if not self.probing:
            return PROBE_REFERENCE_S
        seconds = probe_seconds()
        self.probes.append(seconds)
        return seconds

    def start(self) -> None:
        self._last_probe = self._probe()
        self._began = stamp()

    def elapsed(self) -> float:
        """Wall seconds in the open interval."""
        return time.perf_counter() - self._began[0]

    def split(self) -> Tuple[float, float, float]:
        """Close the open interval and open the next one.

        Returns the closed interval's wall seconds, its reference seconds,
        and the scale from its CPU seconds to reference seconds.
        """
        wall, cpu = stamp()
        probe = self._probe()
        scale = PROBE_REFERENCE_S / ((self._last_probe + probe) / 2)
        self._last_probe = probe
        began, self._began = self._began, stamp()
        return wall - began[0], (cpu - began[1]) * scale, scale


def median(values) -> float:
    return float(statistics.median(list(values)))


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    index = max(0, min(len(ordered) - 1, int(round(fraction * len(ordered))) - 1))
    return ordered[index]


def run_repetition(workload, seed: int, scale: str, tracer=None, probing: bool = True) -> dict:
    """One seeded campaign: untimed inputs, timed set-up, timed run, checks."""
    from workloads import conclusion_digest, invariant_problems

    inputs = workload.inputs(seed, scale)
    judge = inputs.judge
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT)
    # A traced repetition probes nothing: probe time would land in a span.
    clock = SpeedClock(probing=probing and tracer is None)
    try:
        gc.collect()
        if tracer is not None:
            tracer.install()
            judge = tracer.wrap("crowd.judge", judge, "crowd.judge.calls")
        clock.start()
        campaign = workload.setup(inputs, scale, workdir)
        setup_wall, setup_ref, _ = clock.split()

        # Wall and reference seconds of the run call, summed over its
        # intervals; the (wall, CPU) gaps of the open interval wait for
        # its scale.
        run_s = {"wall": 0.0, "ref": 0.0}
        running = [False]
        pending = []
        gaps = {"wall": [], "ref": []}
        last = [None]

        def close_interval() -> Tuple[float, float]:
            wall, ref, scale = clock.split()
            gaps["wall"].extend(wall_gap for wall_gap, _ in pending)
            gaps["ref"].extend(cpu_gap * scale for _, cpu_gap in pending)
            pending.clear()
            if running[0]:
                run_s["wall"] += wall
                run_s["ref"] += ref
            return wall, ref

        def checkpoint(_campaign):
            now = stamp()
            if last[0] is not None:
                pending.append((now[0] - last[0][0], now[1] - last[0][1]))
            if clock.elapsed() >= PROBE_INTERVAL_S:
                close_interval()
                now = stamp()
            last[0] = now
            if tracer is not None:
                tracer.participant += 1

        campaign.checkpoint_hook = checkpoint
        conclude = campaign.conclude
        conclude_s = {"wall": [], "ref": []}
        conclude_calls = []

        def timed_conclude(*args, **kwargs):
            conclude_calls.append((args, kwargs))
            if running[0]:
                close_interval()
            else:
                clock.start()
            try:
                return conclude(*args, **kwargs)
            finally:
                wall, ref = close_interval()
                conclude_s["wall"].append(wall)
                conclude_s["ref"].append(ref)

        campaign.conclude = timed_conclude
        run = workload.run
        if tracer is not None:
            tracer.participant = 0
            run = functools.partial(tracer.call, "campaign", None, workload.run)
        clock.start()
        running[0] = True
        result = run(campaign, inputs, judge)
        close_interval()
        running[0] = False
        if tracer is not None:
            # Before the checks: the digest's own Bradley-Terry fit is not
            # part of the campaign.
            tracer.uninstall()

        uploaded = result.participants
        lost = len(campaign.lost_uploads)
        problems = invariant_problems(campaign, result) + workload.checks(campaign, result, scale)
        digest = conclusion_digest(campaign, result)
        if tracer is None:
            # Conclude the finished campaign again: more conclude samples per
            # run, and concluding twice must not change the conclusion.
            args, kwargs = conclude_calls[0]
            for _ in range(EXTRA_CONCLUDES_PER_REPETITION):
                if conclusion_digest(campaign, campaign.conclude(*args, **kwargs)) != digest:
                    problems.append("concluding again changed the conclusion digest")
        rep = {
            "traced": tracer is not None,
            "setup_s": {"wall": setup_wall, "ref": setup_ref},
            "run_s": run_s,
            "conclude_s": conclude_s,
            "recruited": uploaded + lost,
            "uploaded": uploaded,
            "lost": lost,
            "kept": result.quality_report.kept_count,
            "participants_per_s": {
                kind: (uploaded + lost) / seconds for kind, seconds in run_s.items()
            },
            "probes_s": clock.probes,
            "gaps_s": gaps,
            "digest": digest,
            "problems": problems,
        }
        if tracer is not None:
            rep["layers"] = layer_metrics(tracer, campaign, result)
        close = getattr(campaign.database, "close", None)
        if close is not None:
            close()
        return rep
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)


def layer_metrics(tracer, campaign, result) -> dict:
    """Per-layer counts, self times and ratios of one traced repetition."""
    self_s = tracer.self_seconds()
    counts = tracer.counts
    stats = campaign.network.stats
    stats_fn = getattr(campaign.database, "stats", None)
    store = stats_fn() if stats_fn is not None else {"wal_records": 0, "wal_bytes": 0}
    cache = campaign.artifacts
    hits, misses = (cache.hits, cache.misses) if cache is not None else (0, 0)
    uploads = result.participants

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    fits = counts["btmodel.fits"]
    metrics = {
        "aggregator.self_s": self_s.get("aggregator", 0.0),
        "crowd.judge.calls": counts["crowd.judge.calls"],
        "crowd.judge.self_s": self_s.get("crowd.judge", 0.0),
        "extension.self_s": self_s.get("extension", 0.0),
        "render.calls": hits + misses,
        "render.builds": misses,
        "render.hit_ratio": ratio(hits, hits + misses),
        "render.self_s": self_s.get("render", 0.0),
        "net.client.requests": counts["net.client.requests"],
        "net.client.self_s": self_s.get("net.client", 0.0),
        "net.exchanges": counts["net.exchanges"],
        "net.exchange.self_s": self_s.get("net.exchange", 0.0),
        "net.retry_ratio": ratio(counts["net.exchanges"], counts["net.client.requests"]),
        "net.faults_injected": stats.faults_injected,
        "overload.decisions": counts["overload.decisions"],
        "overload.self_s": self_s.get("overload", 0.0),
        "overload.shed": stats.shed_responses,
        "server.requests": counts["server.requests"],
        "server.errors": counts["server.errors"],
        "server.self_s": self_s.get("server", 0.0),
        "storage.calls": counts["storage.calls"],
        "storage.self_s": self_s.get("storage", 0.0),
        "storage.docs_examined": counts["storage.docs_examined"],
        "storage.docs_examined_per_upload": ratio(counts["storage.docs_examined"], uploads),
        "store.calls": counts["store.calls"],
        "store.self_s": self_s.get("store", 0.0),
        "store.wal_records": store["wal_records"],
        "store.wal_bytes": store["wal_bytes"],
        "store.replay_rows": counts["store.replay_rows"],
        "store.replay_s": self_s.get("store.replay", 0.0),
        "stream.ingests": counts["stream.ingests"],
        "stream.ingest.self_s": self_s.get("stream.ingest", 0.0),
        "stream.conclude.self_s": self_s.get("stream.conclude", 0.0),
        "quality.calls": counts["quality.calls"],
        "quality.self_s": self_s.get("quality", 0.0),
        "quality.kept_ratio": ratio(result.quality_report.kept_count, uploads),
        "analysis.self_s": self_s.get("analysis", 0.0),
        "btmodel.fits": fits,
        "btmodel.self_s": self_s.get("btmodel", 0.0),
        "btmodel.ms_per_fit": ratio(self_s.get("btmodel", 0.0) * 1e3, fits),
        "scheduling.serves": counts["scheduling.serves"],
        "scheduling.reports": counts["scheduling.reports"],
        "scheduling.self_s": self_s.get("scheduling", 0.0),
        "scheduling.answers_per_serve": ratio(
            counts["scheduling.reports"], counts["scheduling.serves"]
        ),
        "campaign.self_s": self_s.get("campaign", 0.0),
    }
    return metrics


def measure(args) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "calibration_before": calibration_seconds(),
    }
    # Warm imports and lazy module state on a throwaway tiny campaign.
    run_repetition(workload, args.seed, "smoke")

    tracer_factory = None
    if args.trace:
        from layers import LayerTracer

        tracer_factory = LayerTracer
    reps = []
    setups = []
    # Seconds the last repetition took; the loop starts no repetition it
    # expects to end past ``--seconds``.
    last_s = 0.0
    began = time.perf_counter()

    def repetition(index: int, traced: bool) -> None:
        nonlocal last_s
        tracer = tracer_factory() if traced else None
        seed = input_seed(args.seed, index)
        rep_began = time.perf_counter()
        # A traced run compares untraced with traced repetitions in plain
        # wall time, so neither probes.
        rep = run_repetition(workload, seed, args.scale, tracer, probing=not args.trace)
        rep["input"] = seed
        reps.append(rep)
        if tracer is not None:
            tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json.gz")
        else:
            setups.append(rep["setup_s"])
            # Spread the set-up samples over the run, like the repetitions.
            for _ in range(EXTRA_SETUPS_PER_REPETITION):
                setups.append(time_setup_only(workload, seed, args.scale))
        last_s = time.perf_counter() - rep_began

    def time_left(repetitions: int) -> bool:
        return time.perf_counter() - began + repetitions * last_s <= args.seconds

    index = 0
    if args.trace:
        # Each input runs untraced, then traced: the pair gives the tracing
        # overhead on equal work, and the two digests must agree.
        while True:
            repetition(index, traced=False)
            repetition(index, traced=True)
            index += 1
            if not time_left(2):
                break
    else:
        # Inputs in pool order, then the first input once more: its digest
        # must repeat. At least MIN_REPETITIONS repetitions in all.
        while True:
            repetition(index, traced=False)
            index += 1
            if index + 1 >= MIN_REPETITIONS and not time_left(2):
                break
        repetition(0, traced=False)
    provenance["calibration_after"] = calibration_seconds()
    probes = [probe for rep in reps for probe in rep["probes_s"]]
    if probes:
        provenance["probe_s"] = {
            "median": median(probes), "min": min(probes), "max": max(probes),
            "count": len(probes),
        }
    provenance["measured_s"] = time.perf_counter() - began
    return {"provenance": provenance, "reps": reps, "setups": setups}


def input_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th input set a run with ``seed`` measures."""
    return (seed + index) % INPUT_POOL


def time_setup_only(workload, seed: int, scale: str) -> dict:
    inputs = workload.inputs(seed, scale)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-setup-", dir=OUT)
    clock = SpeedClock()
    try:
        gc.collect()
        clock.start()
        campaign = workload.setup(inputs, scale, workdir)
        wall, ref, _ = clock.split()
        close = getattr(campaign.database, "close", None)
        if close is not None:
            close()
        return {"wall": wall, "ref": ref}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def participants_per_s(reps) -> float:
    return (
        sum(rep["recruited"] for rep in reps)
        / sum(rep["run_s"]["wall"] for rep in reps)
    )


def end_to_end(run: dict, untraced: list, kind: str, correct: bool) -> dict:
    """End-to-end metrics from the ``kind`` ("ref" or "wall") timings.

    Rates and conclude times are medians over repetitions, each of its own
    input set, so one costly input moves them little. Percentiles pool
    every repetition's samples: a campaign has only about ten samples
    beyond its own p99.
    """
    recruited = sum(rep["recruited"] for rep in untraced)
    gaps = [gap for rep in untraced for gap in rep["gaps_s"][kind]]
    return {
        "setup_s": median(setup[kind] for setup in run["setups"]),
        "participants_per_s": median(rep["participants_per_s"][kind] for rep in untraced),
        "participant_ms.p50": percentile(gaps, 0.50) * 1e3,
        "participant_ms.p99": percentile(gaps, 0.99) * 1e3,
        "conclude_s": median(t for rep in untraced for t in rep["conclude_s"][kind]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "upload_success_ratio": (
            sum(rep["uploaded"] for rep in untraced) / recruited if correct else 0.0
        ),
    }


def summarize(args, run: dict, spec: dict) -> dict:
    reps = run["reps"]
    untraced = [rep for rep in reps if not rep["traced"]]
    traced = [rep for rep in reps if rep["traced"]]
    digests = {}
    for rep in reps:
        digests.setdefault(rep["input"], set()).add(rep["digest"])
    problems = sorted({p for rep in reps for p in rep["problems"]})
    for index, seen in sorted(digests.items()):
        if len(seen) > 1:
            problems.append(f"input {index}: digest differs between repetitions: {sorted(seen)}")
    correct = not problems
    attempted = sum(rep["recruited"] for rep in reps)
    failed = sum(rep["lost"] for rep in reps) if correct else attempted

    if args.trace:
        wanted = units(spec, "per_layer")
        values = {
            name: median([rep["layers"][name] for rep in traced])
            for name in wanted
            if not name.startswith("trace.")
        }
        plain = participants_per_s(untraced)
        with_spans = participants_per_s(traced)
        values["trace.participants_per_s.untraced"] = plain
        values["trace.participants_per_s.traced"] = with_spans
        values["trace.overhead_ratio"] = plain / with_spans
        wall = None
    else:
        wanted = units(spec, "end_to_end")
        values = end_to_end(run, untraced, "ref", correct)
        wall = end_to_end(run, untraced, "wall", correct)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in wanted.items()
        },
        "wall_metrics": wall,
        "problems": problems,
        "digests": {index: sorted(seen) for index, seen in sorted(digests.items())},
    }


def child_main(args, spec: dict) -> int:
    sys.path.insert(0, str(BENCH_DIR))
    run = measure(args)
    summary = summarize(args, run, spec)
    for rep in run["reps"]:
        gaps = rep.pop("gaps_s")
        rep["samples"] = len(gaps["wall"])
        for kind, samples in gaps.items():
            rep[f"participant_ms.p50.{kind}"] = percentile(samples, 0.50) * 1e3
            rep[f"participant_ms.p99.{kind}"] = percentile(samples, 0.99) * 1e3
    record = {**run, "summary": summary}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.scale}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for index, seen in summary["digests"].items():
        for digest in seen:
            print(f"digest {args.workload} seed={args.seed} input={index}: {digest}")
    for problem in summary["problems"]:
        print(f"problem: {problem}")
    print("provenance " + json.dumps(run["provenance"], sort_keys=True))
    reps = run["reps"]
    print(
        f"repetitions: {len(reps)} ({sum(rep['traced'] for rep in reps)} traced), "
        f"samples per repetition: {[rep['samples'] for rep in reps]}"
    )
    print(json.dumps({key: summary[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


def main(argv=None) -> int:
    spec = load_spec()
    args = parse_args(spec, argv)
    if args.child:
        return child_main(args, spec)
    return run_child(args)


if __name__ == "__main__":
    raise SystemExit(main())
