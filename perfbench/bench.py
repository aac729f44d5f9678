"""The three workloads, each driven through the program's default public
entry points.  Timing is taken here, around those calls; the program
itself is unchanged.

A run is: set-up samples (timed, median reported), then whole passes
over the workload's operation list until ``--seconds`` of pass time has
accrued.  Each pass starts from fresh state — a new empty store, new
injectors and block caches, new service processes — and that reset is
not timed.  Correctness checks run after the timed passes.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from typing import Dict, List, Optional, Tuple

from perfbench import inputs, reference
from perfbench.spans import Tracer

RUN_PY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
SETUP_SAMPLES = 5


class Outcome:
    """What the timed passes of one run produced."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.work = 0
        self.elapsed = 0.0
        self.passes = 0
        self.latencies: List[float] = []
        #: Service only: fresh jobs from submit until fetched, and
        #: re-submissions likewise.
        self.client_latencies: List[float] = []
        self.hit_latencies: List[float] = []
        #: Per-layer values gathered outside the spans (manifests, store).
        self.layer: Dict[str, float] = {}
        #: Per pass, the counts that must repeat exactly at one seed.
        self.pass_counts: List[Dict[str, int]] = []
        self.notes: List[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        self.failures.append(what)

    def add(self, name: str, value: float) -> None:
        self.layer[name] = self.layer.get(name, 0) + value


def _probe_in_child(workload: str) -> float:
    """Run :func:`probe_setup` in a fresh interpreter (imports included)
    and return the seconds it reports."""
    proc = subprocess.run([sys.executable, RUN_PY, "--probe-setup", workload],
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def probe_setup(workload: str) -> float:
    """The set-up phase of ``grid`` (imports plus building all six
    workloads) or ``fuzz`` (imports), in this fresh interpreter."""
    t0 = time.perf_counter()
    if workload == "grid":
        from repro.experiments.common import campaign_cell  # noqa: F401
        from repro.workloads import build
        for name in inputs.WORKLOADS:
            build(name)
    elif workload == "fuzz":
        from repro.testing.fuzz import fuzz_one  # noqa: F401
    else:
        raise ValueError(f"no set-up probe for {workload!r}")
    return time.perf_counter() - t0


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir

    def setup_samples(self) -> List[float]:
        return [_probe_in_child(self.name) for _ in range(SETUP_SAMPLES)]

    def prepare(self) -> None:
        """The benchmark process's own set-up (not timed)."""

    def fresh(self, traced: bool) -> None:
        """Reset to fresh state before a pass (not timed)."""

    def run_pass(self, out: Outcome, tracer: Optional[Tracer]) -> None:
        raise NotImplementedError

    def end_pass(self, out: Outcome, traced: bool,
                 wall: float) -> Dict[str, int]:
        """Collect what a pass left behind, stop its processes and return
        the pass's counts that must repeat exactly at one seed."""
        return {}

    def verify(self, out: Outcome) -> None:
        """Correctness checks, after the timed passes."""

    def close(self) -> None:
        """Stop anything still running."""

    def methods(self) -> list:
        """Workload-specific instrumented methods (see spans.instrument)."""
        return []

    def not_measured(self) -> Dict[str, str]:
        """Per-layer metric -> why this workload cannot report it."""
        return {}


def _op(tracer: Optional[Tracer], op_id: str):
    if tracer is not None:
        tracer.op = op_id


def _span(tracer: Optional[Tracer], name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


# -- grid ----------------------------------------------------------------------

class GridWorkload(Workload):
    """The paper's grid through ``campaign_cell`` into an empty
    ``DirectoryStore``, at the experiments CLI defaults (stride -1,
    batch 0, compiled) and a fixed ``jobs``."""

    name = "grid"

    def prepare(self) -> None:
        from repro.workloads import build, workload_names
        if tuple(workload_names()) != inputs.WORKLOADS:
            raise RuntimeError(f"workload registry changed: "
                               f"{workload_names()} != {inputs.WORKLOADS}")
        self.built = {name: build(name) for name in inputs.WORKLOADS}
        self.cells = inputs.grid_cells()
        self.results: List[Tuple[inputs.Cell, object]] = []

    def fresh(self, traced: bool) -> None:
        from repro.fi.engine import forget_workload, shutdown_pool
        from repro.service.store import DirectoryStore
        from repro.vm.blockcache import invalidate_cache
        shutdown_pool()
        for name, built in self.built.items():
            forget_workload(name)
            invalidate_cache(built.module)
            invalidate_cache(built.program)
        self.store = DirectoryStore(tempfile.mkdtemp(dir=self.workdir))
        self.trace_dir = (tempfile.mkdtemp(dir=self.workdir)
                          if traced else None)

    def run_pass(self, out: Outcome, tracer: Optional[Tracer]) -> None:
        from repro.experiments.common import campaign_cell
        from repro.fi import CampaignConfig
        config = CampaignConfig(trials=inputs.GRID_TRIALS,
                                seed=inputs.CAMPAIGN_SEED,
                                jobs=inputs.GRID_JOBS, checkpoint_stride=-1,
                                batch=0, trace_dir=self.trace_dir)
        for i, cell in enumerate(self.cells):
            _op(tracer, f"cell{i}:{cell.key()}")
            out.attempted += 1
            t0 = time.perf_counter()
            try:
                with _span(tracer, "grid.cell"):
                    result = campaign_cell(cell.workload, cell.tool,
                                           cell.category, config,
                                           store=self.store)
            except Exception as exc:
                out.fail(f"{cell.key()}: {type(exc).__name__}: {exc}")
                continue
            out.latencies.append(time.perf_counter() - t0)
            out.work += cell.trials
            self.results.append((cell, result))

    def end_pass(self, out: Outcome, traced: bool,
                 wall: float) -> Dict[str, int]:
        from repro.fi import InjectorSpec
        from repro.fi.engine import injector_for_spec, shutdown_pool
        # Reaps the pool workers, so their peak RSS is counted.
        shutdown_pool()
        # Trials run in the pool, so everything the parent's injectors
        # simulated is preparation: golden, profiling and recording runs.
        counts = {"fi.prep_instructions": sum(
            injector_for_spec(InjectorSpec(w, t)).instructions_simulated
            for w, t in {(c.workload, c.tool) for c in self.cells})}
        if traced:
            counts.update(self._read_manifests(out))
        return counts

    def _read_manifests(self, out: Outcome) -> Dict[str, int]:
        from repro.obs import read_manifest
        trial_wall = trial_instr = runs = activated = 0
        skipped = compiled = fallback = 0
        chunk_wall = engine_wall = 0.0
        for entry in sorted(os.listdir(self.trace_dir)):
            manifest = read_manifest(os.path.join(self.trace_dir, entry))
            trial_wall += sum(t["wall_s"] for t in manifest.trials)
            trial_instr += manifest.total_trial_instructions()
            runs += sum(t["runs"] for t in manifest.trials)
            activated += manifest.summary["activated"]
            skipped += manifest.total_skipped()
            compiled += manifest.summary["compile"]["compiled_blocks"]
            fallback += manifest.summary["compile"]["fallback_blocks"]
            chunk_wall += sum(c["wall_s"] for c in manifest.chunks)
            engine_wall += manifest.summary["wall_s"]
        out.add("vm.trial_run_s", trial_wall)
        out.add("_trial_instructions", trial_instr)
        out.add("_injection_runs", runs)
        out.add("_activated", activated)
        out.add("_ckpt_skipped", skipped)
        out.add("_compiled_blocks", compiled)
        out.add("_fallback_blocks", fallback)
        out.add("_chunk_wall", chunk_wall)
        out.add("_engine_wall", engine_wall * inputs.GRID_JOBS)
        return {"vm.trial_instructions": trial_instr,
                "fi.injection_runs": runs}

    def verify(self, out: Outcome) -> None:
        refs = reference.references(
            inputs.distinct([c for c, _ in self.results]), self.workdir)
        for cell, result in self.results:
            if reference.result_digest(result) != refs[cell.key()]["full"]:
                out.fail(f"digest mismatch: grid cell {cell.key()}")

    def close(self) -> None:
        from repro.fi.engine import shutdown_pool
        shutdown_pool()

    def not_measured(self) -> Dict[str, str]:
        why = "the grid never enters the campaign service"
        return {name: why for name in SERVICE_LAYER} | {
            "testing.progen_s": "the grid runs no generated programs",
        }


# -- service -------------------------------------------------------------------

SERVICE_LAYER = ("service.submit_s", "service.queue_wait_s",
                 "service.shard_wall_s", "service.coord_overhead_s",
                 "service.polls_per_job", "service.worker_busy_share",
                 "service.prep_runs", "service.hit_p50_s",
                 "service.hit_tail_s")


def _children() -> List[int]:
    me = str(os.getpid())
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[1] == me:
            pids.append(int(entry))
    return pids


def _has_open(pid: int, path: str) -> bool:
    try:
        fds = os.listdir(f"/proc/{pid}/fd")
    except OSError:
        return False
    for fd in fds:
        try:
            if os.readlink(f"/proc/{pid}/fd/{fd}") == path:
                return True
        except OSError:
            continue
    return False


class ServiceWorkload(Workload):
    """An in-process ``CampaignServer`` with spawned workers over a fresh
    SQLite store, driven by one closed-loop client through
    ``repro.service.client`` (submit, wait, fetch; client defaults)."""

    name = "service"

    def prepare(self) -> None:
        self.ops = inputs.service_ops(self.seed)
        self.server = None
        self.fetched: List[Tuple[inputs.Cell, object]] = []
        self.pickups: Dict[int, float] = {}

    def _start(self):
        """Start a server plus workers on a new store and return once the
        HTTP API answers and every worker has the store open."""
        from repro.service.client import ServiceError, health
        from repro.service.server import CampaignServer
        path = os.path.join(tempfile.mkdtemp(dir=self.workdir), "store.db")
        server = CampaignServer(path, workers=inputs.SERVICE_WORKERS).start()
        deadline = time.monotonic() + 60
        while True:
            if time.monotonic() > deadline:
                server.stop()
                raise RuntimeError("service did not come up within 60 s")
            try:
                health(server.address)
            except ServiceError:
                time.sleep(0.005)
                continue
            ready = [pid for pid in _children() if _has_open(pid, path)]
            if len(ready) >= inputs.SERVICE_WORKERS:
                return server
            time.sleep(0.005)

    def setup_samples(self) -> List[float]:
        samples = []
        for _ in range(SETUP_SAMPLES):
            t0 = time.perf_counter()
            server = self._start()
            samples.append(time.perf_counter() - t0)
            server.stop()
        return samples

    def fresh(self, traced: bool) -> None:
        self.server = self._start()
        self.jobs: List[Tuple[str, int, float]] = []
        self.pickups = {}

    def run_pass(self, out: Outcome, tracer: Optional[Tracer]) -> None:
        from repro.service.client import fetch, submit, wait
        from repro.service.request import CampaignRequest
        address = self.server.address
        for i, op in enumerate(self.ops):
            cell = op.cell
            _op(tracer, f"job{i}:{op.kind}:{cell.key()}")
            request = CampaignRequest(workload=cell.workload, tool=cell.tool,
                                      category=cell.category,
                                      trials=cell.trials, seed=cell.seed)
            out.attempted += 1
            t0 = time.perf_counter()
            try:
                with _span(tracer, "service.job"):
                    reply = submit(address, request,
                                   shards=inputs.SERVICE_SHARDS)
                    job = wait(address, reply["job"])
                    if job["state"] != "done":
                        raise RuntimeError(f"job {reply['job']} "
                                           f"{job['state']}: {job['error']}")
                    result = fetch(address, reply["job"])
            except Exception as exc:
                out.fail(f"{op.kind} {cell.key()}: "
                         f"{type(exc).__name__}: {exc}")
                continue
            latency = time.perf_counter() - t0
            if op.kind == "fresh":
                # The job's turnaround on the service's own clock: the
                # client's 0.2 s poll interval would otherwise round every
                # latency up to a step, and a 10 % slower host moved the
                # median a whole step (0.62 s to 0.83 s).
                out.latencies.append(job["finished"] - job["submitted"])
                out.client_latencies.append(latency)
                out.work += cell.trials
            else:
                out.hit_latencies.append(latency)
                if not job["cached"]:
                    out.notes.append(f"re-submission of {cell.key()} was "
                                     f"not served from the store")
            self.jobs.append((op.kind, reply["job"], t0, latency))
            self.fetched.append((cell, result))

    def end_pass(self, out: Outcome, traced: bool,
                 wall: float) -> Dict[str, int]:
        try:
            prep_runs = 0
            shard_wall = coord = 0.0
            for kind, job_id, t0, latency in self.jobs:
                shards = self.server.store.shards_for(job_id)
                prep_runs += sum(s["payload"]["prep_executions"]
                                 for s in shards if s["payload"])
                shard_wall += sum(s["wall_s"] or 0.0 for s in shards)
                rounds: Dict[int, float] = {}
                for s in shards:
                    rounds[s["round"]] = max(rounds.get(s["round"], 0.0),
                                             s["wall_s"] or 0.0)
                if kind == "fresh":
                    coord += latency - sum(rounds.values())
                if traced and job_id in self.pickups:
                    out.add("service.queue_wait_s",
                            self.pickups[job_id] - t0)
            if traced:
                out.add("service.shard_wall_s", shard_wall)
                out.add("service.coord_overhead_s", coord)
                out.add("_busy", shard_wall)
                out.add("_busy_capacity", inputs.SERVICE_WORKERS * wall)
            return {"service.prep_runs": prep_runs}
        finally:
            self.close()

    def methods(self) -> list:
        from repro.service.store import SQLiteStore

        def picked_up(args):
            self.pickups.setdefault(args[1], time.perf_counter())

        return [("service.job_state", SQLiteStore, "set_job_state",
                 picked_up)]

    def verify(self, out: Outcome) -> None:
        refs = reference.references(
            inputs.distinct([c for c, _ in self.fetched]), self.workdir)
        for cell, result in self.fetched:
            if (reference.result_digest(result)
                    != refs[cell.key()]["fetched"]):
                out.fail(f"digest mismatch: service cell {cell.key()}")

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def not_measured(self) -> Dict[str, str]:
        workers = ("service workers run campaigns without tracing (the "
                   "service accepts no trace knob), so no manifest exists")
        return {
            "vm.trial_run_s": workers, "vm.trial_instructions": workers,
            "vm.host_mips": workers, "vm.fallback_share": workers,
            "vm.ckpt_skipped_share": workers, "fi.injection_runs": workers,
            "fi.activated_share": workers, "fi.engine_idle_share": workers,
            "vm.block_compile_s": "blocks compile in worker processes",
            "fi.prep_s": "preparation runs in worker processes",
            "fi.prep_instructions": "preparation runs in worker processes",
            "vm.snapshot_capture_s": "service runs use stride 0",
            "testing.progen_s": "the service runs no generated programs",
        }


# -- fuzz ----------------------------------------------------------------------

class FuzzWorkload(Workload):
    """``repro.testing.fuzz.fuzz_one`` over a fixed range of generator
    seeds with the default ``OracleConfig`` (no campaign checks)."""

    name = "fuzz"

    def prepare(self) -> None:
        self.seeds = inputs.fuzz_seeds()

    def run_pass(self, out: Outcome, tracer: Optional[Tracer]) -> None:
        from repro.testing.fuzz import fuzz_one
        from repro.testing.oracle import OracleConfig
        for program_seed in self.seeds:
            _op(tracer, f"program{program_seed}")
            out.attempted += 1
            t0 = time.perf_counter()
            with _span(tracer, "fuzz.program"):
                divergences = fuzz_one(program_seed, OracleConfig())
            out.latencies.append(time.perf_counter() - t0)
            out.work += 1
            if divergences:
                out.fail("; ".join(d.describe() for d in divergences))

    def not_measured(self) -> Dict[str, str]:
        why = "the oracle runs no campaigns without campaign checks"
        return {name: why for name in (
            "vm.trial_run_s", "vm.trial_instructions", "vm.host_mips",
            "vm.fallback_share", "vm.ckpt_skipped_share",
            "fi.injection_runs", "fi.activated_share",
            "fi.engine_idle_share", "fi.prep_s", "fi.prep_instructions",
            "store.get_s", "store.put_s")} | {
            name: "the fuzz workload never enters the campaign service"
            for name in SERVICE_LAYER}


WORKLOADS = {w.name: w for w in (GridWorkload, ServiceWorkload, FuzzWorkload)}

