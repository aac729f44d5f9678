"""Parallel campaign engine: fan trial slots out over a process pool.

Campaign trials are independent by construction (each slot owns a
deterministic RNG stream, see ``repro.fi.campaign``), so a campaign
parallelises perfectly.  The engine is the campaign round driver with a
pool round executor: the parent schedules each round as checkpoint
groups, workers run contiguous chunks of groups on a ``multiprocessing``
pool, and the ``SlotResult`` stream folds back into a ``CampaignResult``
in the parent.  ``jobs=1`` and ``jobs=N`` are bit-identical — both
execute the same per-slot streams and the aggregate sorts by slot index.

Workers never receive simulator state: injector candidate sets are keyed by
``id()`` and would not survive pickling.  Instead each worker rebuilds the
injector from an :class:`InjectorSpec` (workload registry name + tool +
options) and caches it per process — workloads compile deterministically
from source, so rebuild-in-worker is correct.  The fault model travels the
same way: ``CampaignConfig.fault_model`` is a registry spec string, and
each worker's ``prepare_campaign`` resolves it locally, so model identity
never depends on pickled object state.  On platforms with ``fork``
the parent builds, goldens and profiles the injector *before* the pool is
created, so workers inherit those caches and perform no redundant
whole-program runs at all; the pool is re-forked when a spec it has not
inherited shows up.
"""

from __future__ import annotations

import atexit
import functools
import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import FaultInjectionError
from repro.fi.base import BaseInjector
from repro.fi.campaign import (
    CampaignConfig, CampaignResult, CampaignSetup, LocalRounds, SlotGroup,
    SlotResult, no_recording, prepare_campaign, run_campaign, run_groups,
)
from repro.fi.llfi import LLFIInjector, LLFIOptions
from repro.fi.pinfi import PINFIInjector, PINFIOptions
from repro.obs import recording

#: Chunks handed out per worker; >1 smooths load imbalance between chunks
#: (individual injection runs vary in length — crashes are short).
_CHUNKS_PER_JOB = 4


@dataclass(frozen=True)
class InjectorSpec:
    """Everything needed to rebuild an injector from scratch in a worker."""

    workload: str
    tool: str  # "LLFI" | "PINFI"
    llfi_options: Optional[LLFIOptions] = None
    pinfi_options: Optional[PINFIOptions] = None

    def key(self) -> str:
        return repr(self)

    def build(self) -> BaseInjector:
        from repro.workloads import build
        built = build(self.workload)
        if self.tool == "LLFI":
            injector: BaseInjector = LLFIInjector(built.module,
                                                  self.llfi_options)
        elif self.tool == "PINFI":
            injector = PINFIInjector(built.program, self.pinfi_options)
        else:
            raise FaultInjectionError(f"unknown tool {self.tool!r}")
        injector.workload_name = self.workload
        return injector


#: Per-process injector cache (parent and workers alike). With a forked
#: pool, entries built in the parent before the fork are inherited.
_INJECTORS: Dict[str, BaseInjector] = {}


def injector_for_spec(spec: InjectorSpec) -> BaseInjector:
    key = spec.key()
    injector = _INJECTORS.get(key)
    if injector is None:
        injector = spec.build()
        _INJECTORS[key] = injector
    return injector


def forget_workload(workload: str) -> None:
    """Evict every cached injector for a workload (parent process only).

    Needed when a workload name is reused with different source — e.g.
    the differential fuzzer registers each generated program under a
    temporary name. The pool warm-set is reset too, so a later parallel
    campaign re-forks rather than trusting stale inherited caches."""
    stale = [key for key, inj in _INJECTORS.items()
             if inj.workload_name == workload
             or f"workload={workload!r}" in key]
    for key in stale:
        del _INJECTORS[key]
    if stale and _POOL is not None:
        shutdown_pool()


def _run_chunk(task: Tuple[InjectorSpec, str, CampaignConfig, int,
                           List[SlotGroup]]
               ) -> Tuple[List[SlotResult], List[dict], Optional[dict]]:
    """Worker entry point: run one chunk of scheduled groups through the
    group executor (:func:`~repro.fi.campaign.run_groups`).  Groups are
    atomic — a batch group's lanes fork from the one sweep this worker
    runs — so results are independent of the chunk layout.

    Returns the slot results, the batch records and, when the campaign
    traces, a chunk record (worker PID, slot indices, wall time, recorder
    counters) for the run manifest.  Workers never write manifests
    themselves — the parent merges chunk records deterministically."""
    spec, category, config, round_no, groups = task
    injector = injector_for_spec(spec)
    t0 = time.perf_counter()
    with recording() if config.tracing else no_recording() as rec:
        setup = prepare_campaign(injector, category, config)
        slots, batches = run_groups(injector, category, setup, config,
                                    round_no, groups)
    if not config.tracing:
        return slots, batches, None
    info = {"worker": os.getpid(),
            "slots": [i for group in groups for i in group.indices],
            "wall_s": round(time.perf_counter() - t0, 6),
            "counters": rec.counters_snapshot()}
    if batches:
        info["batches"] = [group.id for group in groups]
    return slots, batches, info


def _warm_key(spec_key: str, injector: BaseInjector) -> str:
    """What a forked worker must have inherited to skip redundant work:
    the built injector (with its golden/profiling memos) *and* its
    checkpoint store for the requested stride policy."""
    return f"{spec_key}|ckpt={injector.checkpoint_request}"


# -- pool management -----------------------------------------------------------

_POOL = None
_POOL_JOBS = 0
#: Spec keys the parent had built when the current pool forked (workers
#: inherited them); an unseen spec forces a cheap re-fork so workers never
#: redo golden/profiling runs the parent already has.
_POOL_WARM: Set[str] = set()


def _pool_context():
    methods = multiprocessing.get_all_start_methods()
    method = "fork" if "fork" in methods else None
    return multiprocessing.get_context(method)


def shutdown_pool() -> None:
    """Tear down the worker pool (tests; atexit)."""
    global _POOL, _POOL_JOBS, _POOL_WARM
    if _POOL is not None:
        _POOL.terminate()
        _POOL.join()
    _POOL = None
    _POOL_JOBS = 0
    _POOL_WARM = set()


atexit.register(shutdown_pool)


def _get_pool(jobs: int, spec_key: str):
    global _POOL, _POOL_JOBS, _POOL_WARM
    if _POOL is not None and (_POOL_JOBS != jobs
                              or spec_key not in _POOL_WARM):
        shutdown_pool()
    if _POOL is None:
        _POOL = _pool_context().Pool(processes=jobs)
        _POOL_JOBS = jobs
        _POOL_WARM = {_warm_key(key, injector)
                      for key, injector in _INJECTORS.items()}
    return _POOL


def resolve_jobs(jobs: Optional[int]) -> int:
    """<=0 or None means one worker per CPU."""
    if jobs is None or jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def _chunk_groups(groups: List[SlotGroup], jobs: int,
                  ) -> List[List[SlotGroup]]:
    """Split scheduled groups into contiguous chunks, balancing by slot
    count (batch groups vary in size: the last group of a bucket is a
    remainder).  Contiguity matters: groups arrive bucket-ordered, so a
    contiguous chunk spans few checkpoint buckets and its worker reuses
    few snapshot decodes.  Groups are never split — a batch group's
    lanes must share one sweep in one worker process."""
    total = sum(len(group.indices) for group in groups)
    nchunks = max(1, min(len(groups), jobs * _CHUNKS_PER_JOB))
    target = -(-total // nchunks)  # ceil
    chunks: List[List[SlotGroup]] = []
    current: List[SlotGroup] = []
    current_slots = 0
    for group in groups:
        if current and current_slots >= target:
            chunks.append(current)
            current, current_slots = [], 0
        current.append(group)
        current_slots += len(group.indices)
    if current:
        chunks.append(current)
    return chunks


class _PoolRounds(LocalRounds):
    """Round executor that schedules each round in the parent and fans
    its groups out over the worker pool in contiguous chunks."""

    def __init__(self, spec: InjectorSpec, jobs: int,
                 injector: BaseInjector, category: str,
                 setup: CampaignSetup, config: CampaignConfig) -> None:
        super().__init__(injector, category, setup, config)
        self.spec = spec
        self.jobs = jobs
        # Created after preparation, so a freshly forked pool inherits
        # the parent's golden, profiling and checkpoint caches.
        self.pool = _get_pool(jobs, _warm_key(spec.key(), injector))

    def __call__(self, round_no: int, indices: range) -> List[SlotResult]:
        groups = self.schedule(round_no, indices)
        tasks = [(self.spec, self.category, self.config, round_no, chunk)
                 for chunk in _chunk_groups(groups, self.jobs)]
        slots: List[SlotResult] = []
        for chunk_slots, batches, info in self.pool.map(_run_chunk, tasks):
            slots.extend(chunk_slots)
            self.batches.extend(batches)
            if info is not None:
                self.counters.append(info.pop("counters"))
                info["chunk"] = len(self.chunks)
                self.chunks.append(info)
        return slots


def run_parallel_campaign(spec: InjectorSpec, category: str,
                          config: Optional[CampaignConfig] = None,
                          jobs: Optional[int] = None) -> CampaignResult:
    """Run one (tool, category) campaign, fanned out over ``jobs`` workers.

    ``jobs`` defaults to ``config.jobs``; 1 runs in-process (no pool).
    This is :func:`~repro.fi.campaign.run_campaign` with the pool round
    executor: the parent prepares the campaign (build + golden + profile
    + checkpoints — a forked pool inherits those caches, so workers skip
    them), schedules each round as groups, and the workers run contiguous
    chunks of them.  The stop decision is evaluated in the parent on the
    full slot prefix after every round, so the result is bit-identical
    for every job count."""
    config = config or CampaignConfig()
    jobs = resolve_jobs(config.jobs if jobs is None else jobs)
    injector = injector_for_spec(spec)
    if jobs <= 1 or config.trials <= 1:
        return run_campaign(injector, category, config)
    return run_campaign(injector, category, config,
                        executor=functools.partial(_PoolRounds, spec, jobs))
