"""Tests of the benchmark's own arithmetic and bookkeeping.

    python -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import sys
import types

import pytest

from perfbench import inputs, run
from perfbench.spans import Tracer, instrument
from perfbench.stats import (
    failed_share, median, self_times, tail, tail_rank, union_length,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# -- tail percentile rule ------------------------------------------------------

@pytest.mark.parametrize("n, rank", [(11, 1), (20, 10), (60, 50), (100, 90)])
def test_tail_rank_leaves_ten_samples_beyond(n, rank):
    assert tail_rank(n) == rank
    assert n - tail_rank(n) == 10


@pytest.mark.parametrize("n", [0, 1, 10])
def test_tail_rank_needs_more_than_ten_samples(n):
    assert tail_rank(n) is None


def test_tail_value_percentile_and_count():
    values = [float(v) for v in range(100, 0, -1)]  # unsorted on purpose
    assert tail(values) == (90.0, 90.0, 100)
    # 60 samples: rank 50 stands for the 83rd percentile.
    assert tail([float(v) for v in range(1, 61)]) == (50.0, 83.0, 60)
    # 11 samples: the smallest is the only one with ten beyond it.
    assert tail([5.0] + [9.0] * 10) == (5.0, 9.0, 11)


def test_tail_of_small_sample_is_the_maximum():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    with pytest.raises(ValueError):
        tail([])


def test_median():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
    with pytest.raises(ValueError):
        median([])


# -- failed_share --------------------------------------------------------------

def test_failed_share():
    assert failed_share(10, 0) == 0.0
    assert failed_share(10, 2) == 0.2
    assert failed_share(4, 4) == 1.0
    assert failed_share(0, 0) == 0.0


@pytest.mark.parametrize("attempted, failed", [(2, 3), (-1, 0), (1, -1)])
def test_failed_share_rejects_bad_counts(attempted, failed):
    with pytest.raises(ValueError):
        failed_share(attempted, failed)


# -- self time from nested spans -----------------------------------------------

def test_union_length_merges_overlaps():
    assert union_length([]) == 0.0
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4.0
    assert union_length([(0, 10), (2, 3)]) == 10.0


def test_self_time_subtracts_direct_children_only():
    spans = [
        (0.0, 10.0, None),  # 0: root
        (1.0, 4.0, 0),      # 1: child
        (2.0, 3.0, 1),      # 2: grandchild
        (5.0, 7.0, 0),      # 3: child
    ]
    assert self_times(spans) == [5.0, 2.0, 1.0, 2.0]


def test_self_time_counts_overlapping_children_once_and_clips():
    spans = [
        (0.0, 10.0, None),
        (1.0, 5.0, 0),     # children on two threads overlap in [3, 5]
        (3.0, 6.0, 0),
        (8.0, 12.0, 0),    # runs past its parent: clipped to [8, 10]
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 2.0)


def test_tracer_table_and_uncovered_time():
    tracer = Tracer()
    tracer.spans = [
        ["op", 0.0, 4.0, None, "a", "main"],
        ["layer", 1.0, 3.0, 0, "a", "main"],
        ["op", 6.0, 9.0, None, "b", "main"],
        ["layer", 6.0, 9.0, 2, "b", "main"],
    ]
    rows, uncovered = tracer.table(0.0, 10.0)
    assert rows["op"] == {"count": 2, "total_s": 7.0, "self_s": 2.0}
    assert rows["layer"] == {"count": 2, "total_s": 5.0, "self_s": 5.0}
    assert uncovered == 3.0


def test_instrument_records_nested_spans_and_restores():
    module = types.ModuleType("fakeprog.mod")

    def inner(x):
        return x + 1

    def outer(x):
        return module.inner(x) * 2

    module.inner, module.outer = inner, outer
    sys.modules[module.__name__] = module
    try:
        tracer = Tracer()
        tracer.op = "op1"
        with instrument(tracer, [("inner", inner, None),
                                 ("outer", outer, None)], [],
                        module_prefix="fakeprog"):
            assert module.outer(1) == 4
        assert module.inner is inner and module.outer is outer
    finally:
        del sys.modules[module.__name__]
    names = [(s[0], s[3], s[4]) for s in tracer.spans]
    assert names == [("outer", None, "op1"), ("inner", 0, "op1")]


# -- inputs and the benchmark definition ---------------------------------------

def test_inputs_repeat_for_a_seed():
    assert inputs.service_ops(7) == inputs.service_ops(7)
    assert inputs.service_ops(7) != inputs.service_ops(8)
    assert len(set(inputs.grid_cells())) == 60


def test_service_hits_only_resubmit_completed_cells():
    done = set()
    ops = inputs.service_ops(3)
    for op in ops:
        if op.kind == "fresh":
            assert op.cell not in done
            done.add(op.cell)
        else:
            assert op.cell in done
    kinds = [op.kind for op in ops]
    assert kinds.count("fresh") == 36 and kinds.count("hit") == 18
    assert set(op.cell for op in ops) == set(inputs.service_cells())
    # Each pair's first fresh job is the same at every seed.
    firsts = []
    for seed in (3, 4):
        seen = {}
        for op in inputs.service_ops(seed):
            seen.setdefault((op.cell.workload, op.cell.tool), op.cell)
        firsts.append(seen)
    assert firsts[0] == firsts[1]


def test_benchmark_json_matches_the_metrics_printed():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == ["grid", "service",
                                                      "fuzz"]
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == run.PER_LAYER
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
