"""Shard-merge identity: any partition of a campaign's trial indices,
merged through the round-barrier shard protocol, is byte-identical to
the unsharded local run — including under Wilson-CI early stopping.
This is the invariant that makes the job-queue service a pure
accelerator."""

import pytest

from repro.errors import FaultInjectionError
from repro.fi import CampaignConfig
from repro.fi.campaign import SlotResult, merge_slot_shards
from repro.fi.engine import run_parallel_campaign, shutdown_pool
from repro.service import CampaignRequest
from repro.service.runtime import (
    merge_shard_payloads, run_request_sharded, run_shard,
)

WORKLOAD = "libquantumm"
TRIALS = 8
SEED = 61


def _local(request: CampaignRequest) -> str:
    return run_parallel_campaign(request.injector_spec(), request.category,
                                 request.to_config()).to_json()


class TestShardIdentity:
    @pytest.mark.parametrize("shards", [1, 2, 5])
    def test_any_partition_matches_local(self, shards, built_workloads):
        req = CampaignRequest(workload=WORKLOAD, tool="LLFI",
                              category="all", trials=TRIALS, seed=SEED)
        sharded = run_request_sharded(req, shards)
        assert sharded.to_json() == _local(req)

    def test_pinfi_partition_matches_local(self, built_workloads):
        req = CampaignRequest(workload=WORKLOAD, tool="PINFI",
                              category="all", trials=TRIALS, seed=SEED)
        assert run_request_sharded(req, 3).to_json() == _local(req)

    def test_adaptive_partition_matches_local(self, built_workloads):
        """Early stopping decides at round barriers on the merged prefix,
        so the stopped sharded campaign equals the stopped local one —
        same n_stop, same result bytes."""
        req = CampaignRequest(workload=WORKLOAD, tool="LLFI",
                              category="all", trials=40, seed=SEED,
                              ci_margin=0.3, round_size=10)
        sharded = run_request_sharded(req, 2)
        local = _local(req)
        assert sharded.to_json() == local
        assert sharded.trials < 40  # the margin stops well before 40

    def test_single_shard_payload_round_trips(self, built_workloads):
        req = CampaignRequest(workload=WORKLOAD, tool="LLFI",
                              category="all", trials=4, seed=SEED)
        payload = run_shard(req, range(4))
        slots, candidates, golden = merge_shard_payloads([payload])
        assert [s.index for s in slots] == [0, 1, 2, 3]
        assert candidates > 0 and golden > 0


class TestExecutorMatrix:
    """Every round executor — in-process groups (jobs=1), pool chunks
    (jobs=2) and in-process shards — batched or not, early-stopped or
    not, equals the scalar reference: jobs=1, no checkpoints, no
    batching, no compilation, one shard."""

    @pytest.fixture(scope="class", autouse=True)
    def _pool_teardown(self):
        yield
        shutdown_pool()

    # 0.3 stops after the second of three rounds.
    @pytest.mark.parametrize("ci_margin", [0.0, 0.3])
    @pytest.mark.parametrize("batch", [0, 4])
    @pytest.mark.parametrize("executor", ["jobs1", "jobs2", "shards2"])
    def test_executor_matches_scalar_reference(self, executor, batch,
                                               ci_margin, built_workloads):
        req = CampaignRequest(workload=WORKLOAD, tool="LLFI",
                              category="arithmetic", trials=12, seed=SEED,
                              ci_margin=ci_margin, round_size=4)
        reference = run_parallel_campaign(
            req.injector_spec(), req.category,
            req.to_config(like=CampaignConfig(no_compile=True)), jobs=1)
        accel = CampaignConfig(checkpoint_stride=-1, batch=batch)
        if executor == "shards2":
            result = run_request_sharded(req, 2, config=accel)
        else:
            result = run_parallel_campaign(
                req.injector_spec(), req.category,
                req.to_config(like=accel), jobs=int(executor[-1]))
        assert result.to_json(include_records=True) == \
            reference.to_json(include_records=True)


class TestMergeValidation:
    def test_overlapping_shards_rejected(self):
        a = [SlotResult(index=0, trial=None, not_activated=0),
             SlotResult(index=1, trial=None, not_activated=0)]
        b = [SlotResult(index=1, trial=None, not_activated=0)]
        with pytest.raises(FaultInjectionError) as err:
            merge_slot_shards([a, b])
        assert "two shards" in str(err.value)

    def test_disagreeing_setup_scalars_rejected(self, built_workloads):
        req = CampaignRequest(workload=WORKLOAD, tool="LLFI",
                              category="all", trials=4, seed=SEED)
        payload = run_shard(req, range(2))
        other = dict(payload, candidates=payload["candidates"] + 1)
        with pytest.raises(FaultInjectionError) as err:
            merge_shard_payloads([payload, other])
        assert "disagree" in str(err.value)

    def test_empty_merge_rejected(self):
        with pytest.raises(FaultInjectionError):
            merge_shard_payloads([])

    def test_wrong_payload_schema_rejected(self, built_workloads):
        req = CampaignRequest(workload=WORKLOAD, tool="LLFI",
                              category="all", trials=4, seed=SEED)
        payload = dict(run_shard(req, range(2)), schema=99)
        with pytest.raises(FaultInjectionError) as err:
            merge_shard_payloads([payload])
        assert "schema" in str(err.value)
