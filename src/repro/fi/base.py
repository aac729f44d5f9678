"""BaseInjector: the shared injector surface and memoization.

Both fault injectors — LLFI over the IR interpreter and PINFI over the
SimX86 simulator — follow the paper's three-step workflow (select,
profile, inject) and share everything that is not engine-specific:

* the memoised **golden run** (``golden_cached``) and **per-category
  profiling pass** (``dynamic_counts``), so a grid of campaigns performs
  one of each per injector instead of one per (tool, category) cell;
* **candidate counting** (:meth:`_counted_run`): one
  :class:`~repro.vm.counter.CandidateCounter` over the per-category
  candidate sets, which the engine advances per compiled block (a
  memoised count vector) or per scalar instruction (one lookup) — no
  hook call per candidate;
* the **checkpoint policy** (``configure_checkpoints`` /
  ``ensure_checkpoints``): the recording run doubles as golden + profiling
  pass and its :class:`~repro.vm.snapshot.CheckpointStore` lets every
  injection run skip its fault-free prefix.  It runs compiled wherever a
  segment retires before the next checkpoint boundary, and it is checked
  against the memoised golden run when there is one;
* **run accounting** (``executions``, ``instructions_simulated``,
  ``ckpt_restores``, ``ckpt_instructions_skipped``), mirrored into the
  active :mod:`repro.obs` recorder.

Subclasses provide the engine plumbing: :meth:`_engine` (an engine over
the injector's program), the per-category candidate id-sets
(``_candidate_ids``) and :meth:`run_with_fault` (one injection run).
Campaign, engine and experiment code type against this ABC only.
"""

from __future__ import annotations

import random
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Set, Tuple

from repro.errors import FaultInjectionError
from repro.fi.categories import CATEGORIES
from repro.fi.fault import FaultModel, FaultRecord
from repro.obs import get_recorder
from repro.vm.batch import BatchStats
from repro.vm.counter import CandidateCounter
from repro.vm.result import ExecutionResult
from repro.vm.snapshot import CheckpointStore


@dataclass
class BatchRequest:
    """One trial slot's first injection attempt, as a batch lane: its
    campaign slot index, the first-draw dynamic instance ``k``, and the
    slot's live RNG stream (already past the ``k`` draw; the injection
    hook consumes it next, then any redraws continue on it — exactly the
    scalar consumption order)."""

    index: int
    k: int
    rng: random.Random


@dataclass
class FirstAttempt:
    """The completed first attempt of a batched trial slot, with the
    accounting the scalar path would have observed for it."""

    k: int
    result: ExecutionResult
    record: Optional[FaultRecord]
    activated: bool
    #: Instructions this attempt actually simulated (suffix only).
    instructions: int
    #: Checkpoint/fork restores it performed (0 or 1).
    restores: int
    #: Prefix instructions it skipped (checkpoint or fork boundary).
    skipped: int
    wall_s: float


class BaseInjector(ABC):
    """Common machinery of the LLFI and PINFI injectors."""

    #: Tool name as it appears in campaign results ("LLFI" / "PINFI").
    name: str = "?"
    #: Per-engine default instruction budget for preparation runs.
    default_max_instructions: int = 50_000_000

    def __init__(self) -> None:
        #: Whole-program executions performed through this injector
        #: (golden + profiling + injection runs); campaign perf accounting.
        self.executions = 0
        #: Instructions actually simulated in this process (a resumed run
        #: contributes only what it executed past its checkpoint).
        self.instructions_simulated = 0
        #: Injection runs that resumed from a golden checkpoint.
        self.ckpt_restores = 0
        #: Golden-prefix instructions skipped via checkpoint restores.
        self.ckpt_instructions_skipped = 0
        #: Requested checkpoint stride: 0 = off, <0 = auto (~N/20 of the
        #: golden instruction count), >0 = explicit instruction stride.
        self.checkpoint_request = 0
        #: Batched-execution accounting: sweeps run, shared (sweep)
        #: instructions, forked lanes, detached lanes.
        self.batch_sweeps = 0
        self.batch_shared_instructions = 0
        self.batch_lanes = 0
        self.batch_detached = 0
        #: Block-compiled execution (repro.vm.blockcache): enabled unless
        #: the campaign's ``--no-compile`` escape hatch turns it off.
        self.compile_enabled = True
        #: Basic blocks dispatched through compiled closures / through the
        #: scalar fallback loop, summed over every engine run.
        self.compiled_blocks = 0
        self.fallback_blocks = 0
        #: Workload registry name, when built from an ``InjectorSpec``.
        self.workload_name: Optional[str] = None
        #: category -> id()s of its static injection candidates.
        self._candidate_ids: Dict[str, Set[int]] = {}
        self._checkpoints: Optional[CheckpointStore] = None
        self._checkpoints_request = 0
        self._golden_result: Optional[ExecutionResult] = None
        self._dynamic_counts: Optional[Dict[str, int]] = None

    @property
    def tool_name(self) -> str:
        """The tool this injector models (alias of :attr:`name`)."""
        return self.name

    # -- engine plumbing (subclass responsibility) ---------------------------
    @abstractmethod
    def _engine(self, hook, max_instructions: int, hook_filter=None,
                **kwargs):
        """A fresh engine over the injector's program (``kwargs`` go to
        the engine constructor; compilation follows
        :attr:`compile_enabled`)."""

    def static_candidate_count(self, category: str) -> int:
        """Number of static injection candidates for a category."""
        return len(self._candidate_ids[category])

    @abstractmethod
    def run_with_fault(self, category: str, k: int, rng: random.Random,
                       model: Optional[FaultModel] = None,
                       max_instructions: Optional[int] = None,
                       ) -> Tuple[ExecutionResult, Optional[FaultRecord], bool]:
        """One injection run at dynamic instance ``k`` under ``model``
        (default: the paper's single bit flip; see the registry in
        :mod:`repro.fi.fault` for the other models); returns
        (result, fault record, activated?).  Models must be stateless —
        one instance serves every trial slot — and their RNG consumption
        per firing must depend only on (model, target width), never on
        the value being corrupted, or jobs=1 ≡ jobs=N breaks."""

    def _run(self, engine) -> ExecutionResult:
        """Run ``engine`` to completion and fold its block counters in."""
        result = engine.run()
        self._absorb_compile(engine)
        return result

    def _counted_run(self, max_instructions: int,
                     categories: Sequence[str] = CATEGORIES,
                     store: Optional[CheckpointStore] = None,
                     ) -> Tuple[ExecutionResult, Dict[str, int]]:
        """One run counting the dynamic candidates of ``categories``;
        when ``store`` is given, record checkpoints (annotated with the
        live counts) into it at its stride."""
        counter = CandidateCounter([self._candidate_ids[c]
                                    for c in categories])

        def counts() -> Dict[str, int]:
            return dict(zip(categories, counter.totals))

        kwargs = {}
        if store is not None:
            kwargs = dict(
                checkpoint_stride=store.stride,
                checkpoint_sink=lambda snap: store.record(snap, counts()))
        result = self._run(self._engine(None, max_instructions,
                                        counter=counter, **kwargs))
        return result, counts()

    # -- compiled execution --------------------------------------------------
    def _compile_subject(self):
        """The program object compiled blocks are cached against (the IR
        module for LLFI, the machine program for PINFI); None when the
        subclass has no compiled engine."""
        return None

    def _absorb_compile(self, engine) -> None:
        """Fold one engine's compiled/fallback block counters into the
        injector totals (and zero them, so a reused engine is not double
        counted)."""
        compiled = getattr(engine, "compiled_blocks", 0)
        fallback = getattr(engine, "fallback_blocks", 0)
        if compiled:
            self.compiled_blocks += compiled
            engine.compiled_blocks = 0
        if fallback:
            self.fallback_blocks += fallback
            engine.fallback_blocks = 0

    def compile_stats(self) -> Dict[str, object]:
        """Compile-time + dispatch statistics for the run manifest."""
        stats: Dict[str, object] = {
            "enabled": bool(self.compile_enabled),
            "blocks_compiled": 0,
            "superinstructions": 0,
            "compile_wall_s": 0.0,
            "compiled_blocks": self.compiled_blocks,
            "fallback_blocks": self.fallback_blocks,
        }
        subject = self._compile_subject()
        if subject is not None:
            from repro.vm.blockcache import peek_cache
            cache = peek_cache(subject)
            if cache is not None:
                stats.update(cache.stats())
        return stats

    # -- run accounting ------------------------------------------------------
    def _account_run(self, result: ExecutionResult, skipped: int = 0) -> None:
        """Book one whole-program run: local counters plus the active
        observability recorder (a no-op singleton unless tracing)."""
        self.executions += 1
        simulated = result.instructions - skipped
        self.instructions_simulated += simulated
        if skipped:
            self.ckpt_restores += 1
            self.ckpt_instructions_skipped += skipped
        rec = get_recorder()
        if rec.enabled:
            rec.incr(f"injector.{self.name}.runs")
            rec.incr(f"injector.{self.name}.instructions", simulated)
            if skipped:
                rec.incr(f"injector.{self.name}.ckpt_restores")
                rec.incr(f"injector.{self.name}.ckpt_skipped", skipped)

    def _account_batch_sweep(self, instructions: int) -> None:
        """Book one batch sweep: its instructions are simulated once on
        behalf of every lane in the group (they belong to no single
        trial; manifests carry them in per-group batch records)."""
        self.batch_sweeps += 1
        self.batch_shared_instructions += instructions
        self.instructions_simulated += instructions
        rec = get_recorder()
        if rec.enabled:
            rec.incr(f"injector.{self.name}.batch_sweeps")
            rec.incr(f"injector.{self.name}.batch_shared", instructions)

    def _account_batch_lane(self, result: ExecutionResult,
                            fork_skipped: int) -> None:
        """Book one forked lane: an ordinary run whose skipped prefix is
        its fork boundary (a restore from the sweep instead of from a
        recorded checkpoint)."""
        self._account_run(result, skipped=fork_skipped)
        self.batch_lanes += 1
        rec = get_recorder()
        if rec.enabled:
            rec.incr(f"injector.{self.name}.batch_lanes")

    # -- batched execution ---------------------------------------------------
    def _scalar_first(self, category: str, request: BatchRequest,
                      model: Optional[FaultModel],
                      max_instructions: Optional[int]) -> FirstAttempt:
        """One scalar first attempt, with the counter deltas it caused
        (the detach path of batched execution — byte-identical to what
        ``run_trial_slot`` would have done itself)."""
        t0 = time.perf_counter()
        instructions0 = self.instructions_simulated
        restores0 = self.ckpt_restores
        skipped0 = self.ckpt_instructions_skipped
        result, record, activated = self.run_with_fault(
            category, request.k, request.rng, model=model,
            max_instructions=max_instructions)
        return FirstAttempt(
            k=request.k, result=result, record=record, activated=activated,
            instructions=self.instructions_simulated - instructions0,
            restores=self.ckpt_restores - restores0,
            skipped=self.ckpt_instructions_skipped - skipped0,
            wall_s=time.perf_counter() - t0)

    def run_batch(self, category: str, requests: Sequence[BatchRequest],
                  model: Optional[FaultModel] = None,
                  max_instructions: Optional[int] = None,
                  ) -> Tuple[Dict[int, FirstAttempt], BatchStats]:
        """Run one (category, checkpoint-bucket) group's first attempts.

        Engine-specific subclasses fork the lanes from a shared sweep
        (:mod:`repro.vm.batch`); this base implementation is the fully
        detached case — every lane runs the scalar path — so batching is
        safe on any injector."""
        firsts = {r.index: self._scalar_first(category, r, model,
                                              max_instructions)
                  for r in requests}
        self.batch_detached += len(requests)
        stats = BatchStats(lanes=len(requests), detached=len(requests))
        stats.lane_instructions = sum(f.instructions
                                      for f in firsts.values())
        return firsts, stats

    # -- golden + profiling (memoised) ---------------------------------------
    def golden(self, max_instructions: Optional[int] = None
               ) -> ExecutionResult:
        """Fault-free reference run."""
        result = self._run(self._engine(
            None, max_instructions or self.default_max_instructions))
        self._account_run(result)
        return result

    def golden_cached(self) -> ExecutionResult:
        """Memoised golden run: one per injector, not one per campaign."""
        if self._golden_result is None:
            self._golden_result = self.golden()
        return self._golden_result

    def adopt_prep(self, golden: ExecutionResult,
                   counts: Dict[str, int]) -> None:
        """Prime the golden/profiling memos from a persisted preparation
        artifact (see :mod:`repro.service.runtime`): a primed injector
        performs zero whole-program preparation runs, which is how the
        SQLite store dedups golden work across campaigns.  Existing memos
        win — an injector that already ran its own golden is the ground
        truth, the artifact is just its replica."""
        if self._golden_result is None:
            self._golden_result = golden
        if self._dynamic_counts is None:
            self._dynamic_counts = dict(counts)

    def dynamic_counts(self) -> Dict[str, int]:
        """Memoised per-category dynamic counts from one shared profiling
        pass (replaces a ``count_dynamic_candidates`` run per category)."""
        if self._dynamic_counts is None:
            self._dynamic_counts = self.count_all_categories()
        return self._dynamic_counts

    def count_all_categories(self, max_instructions: Optional[int] = None
                             ) -> Dict[str, int]:
        """Dynamic candidate counts for every category in one run
        (each tool's side of the paper's Table IV)."""
        return self._profile(CATEGORIES, max_instructions)

    def count_dynamic_candidates(self, category: str,
                                 max_instructions: Optional[int] = None
                                 ) -> int:
        """Profiling run: N, the dynamic candidate-instance count of one
        category."""
        return self._profile((category,), max_instructions)[category]

    def _profile(self, categories: Sequence[str],
                 max_instructions: Optional[int]) -> Dict[str, int]:
        result, counts = self._counted_run(
            max_instructions or self.default_max_instructions, categories)
        self._account_run(result)
        if not result.completed:
            raise FaultInjectionError(
                f"profiling run did not complete: {result.status}")
        return counts

    # -- checkpoints ---------------------------------------------------------
    def configure_checkpoints(self, stride: int) -> None:
        """Set the checkpoint policy: 0 disables resume-from-checkpoint,
        <0 picks a stride of ~1/20 of the golden instruction count, >0 is
        an explicit instruction stride."""
        self.checkpoint_request = stride

    def ensure_checkpoints(self, max_instructions: Optional[int] = None
                           ) -> Optional[CheckpointStore]:
        """Record golden-run checkpoints (memoised per requested policy).

        The recording run executes the whole program once while counting
        every category, so it doubles as the golden run and the profiling
        pass: with an explicit stride a fresh injector makes one
        preparation run instead of two.  When a golden run is already
        memoised (stride -1 needs one to size the stride) the recording
        must reproduce it exactly, or :class:`FaultInjectionError` is
        raised.
        """
        request = self.checkpoint_request
        if request == 0:
            return None
        if self._checkpoints is not None \
                and self._checkpoints_request == request:
            return self._checkpoints
        stride = request if request > 0 else \
            max(1, self.golden_cached().instructions // 20)
        store = CheckpointStore(stride)
        result, counts = self._counted_run(
            max_instructions or self.default_max_instructions, store=store)
        self._account_run(result)
        if not result.completed:
            raise FaultInjectionError(
                f"checkpoint recording run did not complete: {result.status}")
        golden = self._golden_result
        if golden is None:
            self._golden_result = result
        else:
            diverged = _divergence(golden, result)
            if diverged:
                raise FaultInjectionError(
                    f"checkpoint recording run diverged from the golden "
                    f"run: {diverged}")
        if self._dynamic_counts is None:
            self._dynamic_counts = counts
        self._checkpoints = store
        self._checkpoints_request = request
        return store

    def _resume_from_checkpoint(self, engine, hook, category: str,
                                k: int) -> int:
        """Restore the latest golden checkpoint strictly before dynamic
        instance ``k`` into ``engine`` (if any), sync the injection hook's
        candidate count, and return the skipped instruction count.

        Memory is restored from the store's shared decoded image of the
        snapshot: the store expands each snapshot once and every trial in
        its (category, checkpoint) bucket copies from that decode instead
        of re-deriving the full region contents per trial."""
        store = self.ensure_checkpoints()
        if store is None:
            return 0
        checkpoint = store.best_for(category, k)
        if checkpoint is None:
            return 0
        engine.restore(checkpoint.snapshot,
                       memory_images=store.decoded_memory(checkpoint))
        hook.count = checkpoint.counts[category]
        return checkpoint.snapshot.executed


def _divergence(golden: ExecutionResult, run: ExecutionResult) -> str:
    """How ``run`` differs from ``golden`` in what a fault-free run must
    reproduce (status, output, exit value, instruction count); empty
    when it does not."""
    diffs = [f"{name} {a!r} != {b!r}" for name, a, b in (
        ("status", golden.status, run.status),
        ("exit value", golden.exit_value, run.exit_value),
        ("instructions", golden.instructions, run.instructions))
        if a != b]
    if golden.output != run.output:
        diffs.append(f"output differs ({len(golden.output)} vs "
                     f"{len(run.output)} chars)")
    return "; ".join(diffs)
