"""Compiled checkpoint recording equals scalar recording.

A recording run (the stride -1 golden + profiling + checkpoint pass)
compiles every segment that retires before the next checkpoint boundary,
counts candidates per compiled block, and leaves each capture to the
scalar loop; at the IR tier it also hands every call into a defined
function to the scalar loop, so a boundary inside a callee still sees
the caller's exact resume position and counts.  These tests pin that:
every ``Checkpoint`` — snapshot fields and per-category counts — and the
run result equal the ``compile_enabled=False`` recording's, on both
engines, for the six paper workloads and for generated programs, and
``count_all_categories`` equals the scalar recording's final counts.
"""

import pytest

from repro.backend import compile_module
from repro.errors import FaultInjectionError
from repro.fi import LLFIInjector, PINFIInjector
from repro.minic import compile_source
from repro.testing.progen import generate_program
from repro.vm.result import ExecutionResult
from repro.vm.snapshot import CheckpointStore
from repro.workloads import build, workload_names

#: Fixed strides beside golden//20 (the stride -1 policy).  Stride 1 makes
#: every boundary a capture, so no segment may compile past one.
STRIDES = (1, 97, 463)
#: Instruction budgets.  Each capture copies the memory image, so the
#: fixed strides record a prefix of a paper workload's run, and stride 1
#: a shorter one everywhere (the run ends as a hang at the budget, on
#: both paths alike).
WHOLE_RUN = 10 ** 8
PREFIX_BUDGET = 6000
DENSE_BUDGET = 60
GEN_SEEDS = range(20140623, 20140643)


def _canonical(snapshot):
    """A snapshot as comparable data: IR frame values are compared by
    ``repr`` (a NaN is not equal to itself) and frames by position."""
    state = snapshot.state
    if "frames" in state:
        state = (tuple((f.function.name, id(f.block), f.index, f.saved_sp,
                        sorted((k, repr(v)) for k, v in f.values.items()))
                       for f in state["frames"]), state["stack_sp"])
    return (snapshot.executed, snapshot.call_depth, snapshot.memory,
            snapshot.heap, snapshot.output, state)


def _record(make, stride, budget, compiled):
    injector = make()
    injector.compile_enabled = compiled
    store = CheckpointStore(stride)
    result, counts = injector._counted_run(budget, store=store)
    checkpoints = [(_canonical(c.snapshot), c.counts)
                   for c in store.checkpoints]
    return injector, result, counts, checkpoints


def _assert_recordings_equal(make, stride, budget):
    """Compiled vs scalar recording at one stride; returns the compiled
    injector, the scalar run's counts and its checkpoints."""
    inj, result, counts, ckpts = _record(make, stride, budget, True)
    _, s_result, s_counts, s_ckpts = _record(make, stride, budget, False)
    assert result == s_result
    assert len(ckpts) == len(s_ckpts)
    for i, (got, want) in enumerate(zip(ckpts, s_ckpts)):
        assert got == want, f"checkpoint {i} (stride {stride}) differs"
    if result.completed:
        # A hang inside a compiled segment stops its count at the
        # segment start; only completed runs have final counts.
        assert counts == s_counts
    return inj, s_counts, s_ckpts


def _makers(module, program):
    return (lambda: LLFIInjector(module), lambda: PINFIInjector(program))


def _check_program(make, prefix_budget):
    golden = make().golden()
    assert golden.completed
    stride = max(1, golden.instructions // 20)
    inj, scalar_counts, _ = _assert_recordings_equal(make, stride,
                                                     WHOLE_RUN)
    assert inj.compiled_blocks > 0
    assert make().count_all_categories() == scalar_counts
    for stride in STRIDES:
        budget = DENSE_BUDGET if stride == 1 else prefix_budget
        _assert_recordings_equal(make, stride, budget)


@pytest.mark.parametrize("workload", workload_names())
@pytest.mark.parametrize("tool", ["LLFI", "PINFI"])
def test_workload_recordings(workload, tool):
    built = build(workload)
    make = _makers(built.module, built.program)[tool == "PINFI"]
    _check_program(make, PREFIX_BUDGET)


@pytest.mark.parametrize("seed", GEN_SEEDS)
def test_generated_program_recordings(seed):
    module = compile_source(generate_program(seed))
    program = compile_module(module)
    for make in _makers(module, program):
        # Generated programs are small: record them whole.
        _check_program(make, WHOLE_RUN)


#: The caller's loop body is one straight line around a call into a
#: recursive (so never inlined) callee that retires most instructions.
CALLEE_SRC = """
long work(long n) {
    long s = 0;
    long i;
    for (i = 0; i < n; i++) { s = s + i * 3; }
    if (n > 9) { s = s + work(n - 3); }
    return s;
}
int main() {
    long t = 5;
    int r;
    for (r = 0; r < 6; r++) {
        t = t * 3 + 7;
        t = t ^ (t >> 2);
        t = t + work(12 + r);
        t = t - r;
    }
    print_long(t);
    return 0;
}
"""


def test_boundary_inside_a_callee_of_a_compiled_caller():
    """The recording run dispatches main's loop body compiled up to the
    call; boundaries inside ``work`` must still see main's frame at its
    pending call, and the candidates main retired before it."""
    module = compile_source(CALLEE_SRC)
    make = _makers(module, compile_module(module))[0]
    from_main = 0
    for stride in (7, 19, 41):
        inj, _, ckpts = _assert_recordings_equal(make, stride, WHOLE_RUN)
        assert inj.compiled_blocks > 0
        for (_, _, _, _, _, (frames, _)), _ in ckpts:
            if [f[0] for f in frames] == ["main", "work"]:
                from_main += 1
    assert from_main > 0, "no boundary landed in a callee of main"


def test_recording_must_reproduce_the_golden_run():
    """A memoised golden run that the recording run does not reproduce
    (here: a stale persisted artifact) is an error, not a silent
    mismatch between golden and checkpoints."""
    module = compile_source(CALLEE_SRC)
    inj = LLFIInjector(module)
    golden = inj.golden()
    counts = inj.count_all_categories()
    stale = ExecutionResult(golden.status, golden.trap,
                            golden.output + "1", golden.instructions + 1,
                            golden.exit_value)
    inj.adopt_prep(stale, counts)
    inj.configure_checkpoints(-1)
    with pytest.raises(FaultInjectionError,
                       match="diverged from the golden run: instructions"):
        inj.ensure_checkpoints()
    fresh = LLFIInjector(module)
    fresh.configure_checkpoints(-1)
    assert fresh.ensure_checkpoints() is not None
