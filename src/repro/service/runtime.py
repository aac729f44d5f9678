"""Service runtime: execute campaign requests and shards against a store.

Three layers, all built on the campaign invariants proven in
:mod:`repro.fi.campaign`:

* **prep artifacts** — an injector's preparation work (the golden run and
  the one-pass per-category profiling counts) depends only on (workload,
  tool, injector options), never on the campaign cell.  After any run the
  pair is persisted content-addressed under the request's
  :meth:`~repro.service.request.CampaignRequest.prep_ref`; before any run
  it is adopted back (:meth:`BaseInjector.adopt_prep`), so overlapping
  campaigns against one SQLite store simulate each golden run exactly
  once.  Checkpoint snapshots are deliberately *not* persisted: they
  reference live IR/machine objects (see :mod:`repro.vm.snapshot`) and
  are in-process accelerators only.

* :func:`run_request` — the cache-through entry point: store hit, else
  prime, run through the parallel engine, persist prep + result.

* :func:`run_shard` / :func:`run_request_sharded` — the shard protocol.
  A shard executes an arbitrary subset of one round's slot indices and
  returns a JSON payload (slots + the setup scalars + prep accounting).
  The coordinator merges payloads with :func:`merge_shard_payloads`,
  evaluates the Wilson-CI stop decision at each round barrier exactly
  like a local run, and aggregates with
  :func:`~repro.fi.campaign.merged_result` — so the sharded result is
  bit-identical to ``jobs=1`` by construction.
  :func:`run_request_sharded` is the in-process reference implementation
  of that protocol (the HTTP server runs the same loop over claimed
  store shards).
"""

from __future__ import annotations

import os
import time
from typing import Callable, List, Optional, Sequence, Tuple

from repro.errors import FaultInjectionError
from repro.fi.base import BaseInjector
from repro.fi.campaign import (
    CampaignConfig, CampaignResult, PrepStats, SlotResult,
    build_run_manifest, merge_slot_shards, merged_result, prep_delta,
    prepare_campaign, run_rounds, run_slot_subset, slot_from_json,
    slot_to_json, snapshot_prep, write_campaign_manifest,
)
from repro.fi.engine import injector_for_spec, run_parallel_campaign
from repro.service.request import CampaignRequest, split_shard_indices
from repro.service.store import CampaignStore, as_store
from repro.vm.result import ExecutionResult

#: Schema of prep artifacts and shard payloads; bump on any field change.
PREP_SCHEMA_VERSION = 1
SHARD_SCHEMA_VERSION = 1


def prep_ref(request: CampaignRequest) -> str:
    """The store ref of a request's shared preparation artifact (the
    method, re-exported as the service-level function)."""
    return request.prep_ref()


def _golden_to_json(golden: ExecutionResult) -> dict:
    # Only completed goldens are ever persisted, so ``trap`` is None by
    # construction and the payload stays pure JSON.
    return {"status": golden.status, "output": golden.output,
            "instructions": golden.instructions,
            "exit_value": golden.exit_value}


def _golden_from_json(data: dict) -> ExecutionResult:
    return ExecutionResult(status=data["status"], trap=None,
                           output=data["output"],
                           instructions=data["instructions"],
                           exit_value=data["exit_value"])


def persist_prep(injector: BaseInjector, store: CampaignStore,
                 request: CampaignRequest) -> None:
    """Publish the injector's memoised preparation work to the store.

    Call after a campaign (the memos are then warm, so this performs no
    runs).  A no-op on stores without artifact support and for goldens
    that did not complete."""
    golden = injector.golden_cached()
    if not golden.completed:
        return
    store.put_artifact(request.prep_ref(), {
        "schema": PREP_SCHEMA_VERSION,
        "golden": _golden_to_json(golden),
        "counts": injector.dynamic_counts(),
    })


def prime_injector(injector: BaseInjector, store: CampaignStore,
                   request: CampaignRequest) -> bool:
    """Adopt the request's prep artifact into the injector's memos, if
    the store has one.  Returns True when the injector was primed — its
    next ``prepare_campaign`` then performs zero whole-program runs."""
    payload = store.get_artifact(request.prep_ref())
    if payload is None or payload.get("schema") != PREP_SCHEMA_VERSION:
        return False
    injector.adopt_prep(_golden_from_json(payload["golden"]),
                        payload["counts"])
    return True


def run_request(request: CampaignRequest,
                store: Optional[CampaignStore] = None,
                config: Optional[CampaignConfig] = None,
                stats: Optional[dict] = None) -> CampaignResult:
    """Cache-through execution of one campaign request.

    Store hit returns immediately; otherwise the request runs through the
    parallel engine under ``config``'s accelerator knobs (identity fields
    always come from the request — see
    :meth:`CampaignRequest.to_config`), and both the result and the prep
    artifact are persisted.  ``stats``, when given, receives ``cached`` /
    ``primed`` / ``prep_executions`` — the run accounting the dedup tests
    and the service's job records are built on."""
    store = as_store(store)
    if stats is None:
        stats = {}
    cached = store.get_result(request)
    if cached is not None:
        stats.update(cached=True, primed=False, prep_executions=0)
        return cached
    injector = injector_for_spec(request.injector_spec())
    primed = prime_injector(injector, store, request)
    run_config = request.to_config(like=config)
    # Prepare before the engine run so ``stats`` isolates the preparation
    # cost (the memoised setup is what the engine reuses anyway).
    baseline = snapshot_prep(injector)
    prepare_campaign(injector, request.category, run_config)
    prep = prep_delta(injector, baseline)
    result = run_parallel_campaign(request.injector_spec(),
                                   request.category, run_config)
    persist_prep(injector, store, request)
    store.put_result(request, result)
    stats.update(cached=False, primed=primed,
                 prep_executions=prep.executions)
    return result


# -- the shard protocol --------------------------------------------------------

def run_shard(request: CampaignRequest, indices: Sequence[int],
              store: Optional[CampaignStore] = None,
              config: Optional[CampaignConfig] = None) -> dict:
    """Worker side: execute one shard — a subset of slot indices — and
    return its JSON payload.

    The worker primes its injector from the store's prep artifact when
    one exists (first worker in publishes it for the rest), prepares the
    campaign, and runs exactly the per-slot streams a local run would run
    at these indices.  The payload carries the slots, the setup scalars
    the coordinator needs to aggregate without a live injector, and the
    prep accounting that proves dedup."""
    injector = injector_for_spec(request.injector_spec())
    primed = False
    if store is not None:
        primed = prime_injector(injector, store, request)
    run_config = request.to_config(like=config)
    baseline = snapshot_prep(injector)
    t0 = time.perf_counter()
    setup = prepare_campaign(injector, request.category, run_config)
    prep = prep_delta(injector, baseline)
    if store is not None:
        persist_prep(injector, store, request)
    slots = run_slot_subset(injector, request.category, setup, run_config,
                            indices)
    return {
        "schema": SHARD_SCHEMA_VERSION,
        "tool": request.tool,
        "category": request.category,
        "indices": list(indices),
        "slots": [slot_to_json(slot) for slot in slots],
        "candidates": setup.candidates,
        "golden_instructions": setup.golden.instructions,
        "primed": primed,
        "prep_executions": prep.executions,
        "prep_instructions": prep.instructions,
        "worker": os.getpid(),
        "wall_s": round(time.perf_counter() - t0, 6),
    }


def shard_record(payload: dict, round_no: int, shard_no: int) -> dict:
    """Manifest ``shard`` record of one shard payload (schema v6: worker
    attribution plus the shard's own preparation accounting)."""
    return {"round": round_no, "shard": shard_no,
            "worker": payload["worker"],
            "slots": list(payload["indices"]),
            "wall_s": payload["wall_s"],
            "primed": payload["primed"],
            "prep_executions": payload["prep_executions"],
            "prep_instructions": payload["prep_instructions"]}


def merge_shard_payloads(payloads: Sequence[dict],
                         ) -> Tuple[List[SlotResult], int, int]:
    """Coordinator side: validate and merge shard payloads into
    (index-ordered slots, dynamic candidates, golden instructions).

    Every payload must agree on the setup scalars — a mismatch means the
    shards did not run the same campaign cell and the merge would be
    silently wrong, so it is a hard error."""
    if not payloads:
        raise FaultInjectionError("no shard payloads to merge")
    scalars = {(p.get("schema"), p["candidates"], p["golden_instructions"])
               for p in payloads}
    if len(scalars) != 1:
        raise FaultInjectionError(
            f"shard payloads disagree on campaign setup: {sorted(scalars)}")
    schema, candidates, golden_instructions = next(iter(scalars))
    if schema != SHARD_SCHEMA_VERSION:
        raise FaultInjectionError(
            f"unsupported shard payload schema {schema!r}: this build "
            f"reads schema {SHARD_SCHEMA_VERSION}")
    slots = merge_slot_shards([[slot_from_json(s) for s in p["slots"]]
                               for p in payloads])
    return slots, candidates, golden_instructions


class ShardRounds:
    """Round executor of the shard protocol: partition the round's slot
    indices into ``shards`` pieces, hand them to ``dispatch(round_no,
    partitions)`` — which returns one payload per partition, or None to
    abandon the campaign — and merge the payloads.  Keeps the manifest
    ``shard`` records and the setup scalars the final aggregate needs."""

    def __init__(self, shards: int,
                 dispatch: Callable[[int, List[List[int]]],
                                    Optional[List[dict]]]) -> None:
        self.shards = shards
        self.dispatch = dispatch
        self.records: List[dict] = []
        self.candidates: Optional[int] = None
        self.golden_instructions: Optional[int] = None

    def __call__(self, round_no: int,
                 indices: range) -> Optional[List[SlotResult]]:
        partitions = split_shard_indices(indices, self.shards)
        payloads = self.dispatch(round_no, partitions)
        if payloads is None:
            return None
        self.records += [shard_record(p, round_no, i)
                         for i, p in enumerate(payloads)]
        slots, self.candidates, self.golden_instructions = \
            merge_shard_payloads(payloads)
        return slots

    def result(self, request: CampaignRequest,
               slots: List[SlotResult]) -> CampaignResult:
        return merged_result(request.tool, request.category, slots,
                             self.candidates, self.golden_instructions)


def run_request_sharded(request: CampaignRequest, shards: int,
                        store: Optional[CampaignStore] = None,
                        config: Optional[CampaignConfig] = None,
                        ) -> CampaignResult:
    """Reference implementation of the round-barrier shard protocol,
    entirely in-process: the campaign round driver
    (:func:`~repro.fi.campaign.run_rounds`) with a :class:`ShardRounds`
    executor that runs each shard through :func:`run_shard` — the HTTP
    coordinator runs the same driver over claimed store shards.
    Bit-identical to a local ``jobs=1`` run for any shard count
    (asserted by ``tests/service/test_shard_merge.py``).

    When the config traces (``trace_dir``), a schema-v6 run manifest is
    written with one ``shard`` record per executed shard and a
    ``service`` header block — the observability trail of a sharded
    run."""
    run_config = request.to_config(like=config)
    t0 = time.perf_counter()
    executor = ShardRounds(shards, lambda round_no, partitions: [
        run_shard(request, part, store=store, config=config)
        for part in partitions])
    slots, rounds = run_rounds(run_config, executor)
    result = executor.result(request, slots)
    if run_config.trace_dir:
        # The shard runner is in-process, so the (memoised) injector and
        # setup are at hand; prep cost is the sum the shards reported.
        injector = injector_for_spec(request.injector_spec())
        setup = prepare_campaign(injector, request.category, run_config)
        prep = PrepStats(
            executions=sum(s["prep_executions"] for s in executor.records),
            instructions=sum(s["prep_instructions"]
                             for s in executor.records))
        manifest = build_run_manifest(
            injector, request.category, run_config, setup, slots,
            result, prep, wall_s=time.perf_counter() - t0, rounds=rounds,
            shards=executor.records, service={"shards": shards})
        write_campaign_manifest(manifest, run_config.trace_dir)
    return result
