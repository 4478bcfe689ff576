"""The determinism contract, checked over the whole configuration matrix.

One seed must give one conclusion whatever executed the crowd. A cell is a
semantic configuration (scheduler x faults x load) run on an execution
configuration (executor x store x crash). Each semantic configuration's
reference is its inline, memory-store, uninterrupted run, and every other
execution of it must reproduce that reference's
:func:`~repro.core.conclusion.conclusion_digest`. The full product runs:
3 x 2 x 2 semantic configurations times 2 x 2 x 2 executions, 96 cells.

Run as a script, the module checks every cell and prints one
``digest <cell> <sha>`` line per reference cell, so two runs under
different ``PYTHONHASHSEED`` values can be compared byte for byte::

    PYTHONPATH=src python tests/test_determinism_matrix.py
"""

import functools
import itertools
import json
import sys

import pytest

from repro.core.campaign import Campaign
from repro.core.conclusion import conclusion_digest
from repro.core.config import CampaignConfig
from repro.core.extension import make_utility_judge
from repro.core.parameters import Question, TestParameters, WebpageSpec
from repro.core.scheduling import SchedulerConfig
from repro.crowd.judgment import ThurstoneChoiceModel
from repro.crowd.workers import FIGURE_EIGHT_TRUSTWORTHY_MIX, generate_population
from repro.html.parser import parse_html
from repro.net.faults import FaultPlan, RetryPolicy
from repro.net.overload import OverloadConfig

SEED = 9
PAGES = ("p0", "p1", "p2", "p3")
PARTICIPANTS = 12

SCHEDULERS = ("full", "merge", "adaptive")
FAULTS = ("clean", "chaos")
LOADS = ("steady", "flash")
EXECUTORS = ("inline", "process")
STORES = ("memory", "sharded-streaming")
RUNS = ("straight", "crash-resume")

SEMANTIC = list(itertools.product(SCHEDULERS, FAULTS, LOADS))
EXECUTION = list(itertools.product(EXECUTORS, STORES, RUNS))
REFERENCE = ("inline", "memory", "straight")


def semantic_config(scheduler, faults, load):
    settings = dict(
        seed=SEED,
        scheduler=scheduler,
        scheduler_config=SchedulerConfig(seed=SEED, session_pairs=2),
        artifact_cache=None,
    )
    if faults == "chaos":
        settings.update(
            fault_plan=FaultPlan.lossy(
                seed=SEED, drop_rate=0.08, error_rate=0.04, latency_rate=0.05
            ),
            retry_policy=RetryPolicy(max_attempts=3, backoff_base_seconds=0.3),
            dropout_rate=0.1,
        )
    if load == "flash":
        settings.update(
            arrival="flash",
            overload=OverloadConfig(
                capacity_rps=0.5, burst=4.0, queue_limit=8, protected=True,
                seed=SEED,
            ),
        )
    return CampaignConfig(**settings)


def execution_config(config, executor, store):
    return config.replace(
        parallelism=1 if executor == "inline" else 2, store=store
    )


def new_campaign(config):
    campaign = Campaign(config=config)
    campaign.prepare(
        TestParameters(
            test_id="matrix",
            test_description="determinism matrix cell",
            participant_num=PARTICIPANTS,
            question=[Question("q1", "Which looks better?")],
            webpages=[WebpageSpec(web_path=p, web_page_load=1000) for p in PAGES],
        ),
        {
            p: parse_html(f"<html><body><p>{p} body text</p></body></html>")
            for p in PAGES
        },
    )
    return campaign


def roster():
    return generate_population(
        PARTICIPANTS, FIGURE_EIGHT_TRUSTWORTHY_MIX, seed=SEED
    )


def judge():
    return make_utility_judge(
        {"p0": 0.0, "p1": 0.4, "p2": 0.8, "p3": 1.2, "__contrast__": -5.0},
        ThurstoneChoiceModel(),
    )


class Crash(Exception):
    pass


def crash_at_half(campaign):
    """Checkpoint hook: die at the first checkpoint that has settled at
    least half the roster (stored or recorded lost)."""
    stored = campaign.server.uploaded_worker_ids("matrix")
    if len(stored) + len(campaign.lost_uploads) >= PARTICIPANTS // 2:
        raise Crash()


def run_cell(semantic, execution):
    """One cell's ``(campaign, result)``."""
    executor, store, run = execution
    config = execution_config(semantic_config(*semantic), executor, store)
    workers = roster()
    campaign = new_campaign(config)
    if run == "straight":
        return campaign, campaign.run_with_workers(workers, judge())
    campaign.checkpoint_hook = crash_at_half
    with pytest.raises(Crash):
        campaign.run_with_workers(workers, judge())
    checkpoint = json.loads(json.dumps(campaign.resume_state()))
    resumed = new_campaign(config)
    return resumed, resumed.run_with_workers(
        workers, judge(), resume_from=checkpoint
    )


@functools.lru_cache(maxsize=None)
def cell_digest(semantic, execution):
    return conclusion_digest(*run_cell(semantic, execution))


def cell_name(semantic, execution=REFERENCE):
    return "/".join(semantic + execution)


@pytest.mark.parametrize(
    "execution",
    [e for e in EXECUTION if e != REFERENCE],
    ids=lambda execution: "-".join(execution),
)
@pytest.mark.parametrize(
    "semantic", SEMANTIC, ids=lambda semantic: "-".join(semantic)
)
def test_cell_matches_reference(semantic, execution):
    assert cell_digest(semantic, execution) == cell_digest(semantic, REFERENCE)


def test_axes_change_the_run():
    """Each semantic axis is live: the twelve references all differ, and
    the flash crowd drives the protected server to reject uploads."""
    digests = {cell_digest(semantic, REFERENCE) for semantic in SEMANTIC}
    assert len(digests) == len(SEMANTIC)
    campaign, _ = run_cell(("full", "clean", "flash"), REFERENCE)
    assert campaign.network.stats.rejections > 0
    assert campaign.lost_uploads


def main() -> int:
    diverged = []
    for semantic in SEMANTIC:
        reference = cell_digest(semantic, REFERENCE)
        for execution in EXECUTION:
            if cell_digest(semantic, execution) != reference:
                diverged.append(cell_name(semantic, execution))
        print(f"digest {cell_name(semantic)} {reference}")
    for name in diverged:
        print(f"diverged {name}", file=sys.stderr)
    return 1 if diverged else 0


if __name__ == "__main__":
    sys.exit(main())
