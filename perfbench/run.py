"""End-to-end benchmark of the fault-injection stack, with per-layer
attribution.  See ``perfbench/README.md``.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 15 --trace 0

Prints a human-readable report, then, as the last line of standard
output, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``).  Exits non-zero when any operation failed,
any result digest differs from the scalar reference, or a deterministic
count did not repeat.

Run from the root of a full checkout: the program is imported from
``src/``, and every file the run writes stays under
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from contextlib import nullcontext

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(ROOT, "perfbench", "results")

#: name -> (unit, better); kept equal to BENCHMARK.json by the tests.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "work_per_s": ("1/s", "higher"),
    "op_p50_s": ("s", "lower"),
    "op_tail_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

PER_LAYER = {
    "minic.compile_s": ("s", "lower"),
    "ir.pipeline_s": ("s", "lower"),
    "backend.compile_s": ("s", "lower"),
    "testing.progen_s": ("s", "lower"),
    "vm.snapshot_capture_s": ("s", "lower"),
    "vm.block_compile_s": ("s", "lower"),
    "vm.trial_run_s": ("s", "lower"),
    "vm.trial_instructions": ("count", "lower"),
    "vm.host_mips": ("Minstr/s", "higher"),
    "vm.fallback_share": ("ratio", "lower"),
    "vm.ckpt_skipped_share": ("ratio", "higher"),
    "fi.prep_s": ("s", "lower"),
    "fi.prep_instructions": ("count", "lower"),
    "fi.injection_runs": ("count", "lower"),
    "fi.activated_share": ("ratio", "higher"),
    "fi.engine_idle_share": ("ratio", "lower"),
    "store.get_s": ("s", "lower"),
    "store.put_s": ("s", "lower"),
    "service.submit_s": ("s", "lower"),
    "service.queue_wait_s": ("s", "lower"),
    "service.shard_wall_s": ("s", "lower"),
    "service.coord_overhead_s": ("s", "lower"),
    "service.polls_per_job": ("count", "lower"),
    "service.worker_busy_share": ("ratio", "higher"),
    "service.prep_runs": ("count", "lower"),
    "service.hit_p50_s": ("s", "lower"),
    "service.hit_tail_s": ("s", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
    "trace.uncovered_s": ("s", "lower"),
}

#: Span name -> the per-layer self-time metric it feeds.
SPAN_METRICS = {
    "minic.compile": "minic.compile_s",
    "ir.pipeline": "ir.pipeline_s",
    "backend.compile": "backend.compile_s",
    "testing.progen": "testing.progen_s",
    "vm.snapshot_capture": "vm.snapshot_capture_s",
    "vm.block_compile": "vm.block_compile_s",
    "fi.prep": "fi.prep_s",
    "store.get": "store.get_s",
    "store.put": "store.put_s",
    "service.submit": "service.submit_s",
}

DETERMINISTIC = ("vm.trial_instructions", "fi.prep_instructions",
                 "fi.injection_runs", "service.prep_runs")


def _instrumented(tracer, workload):
    """The public calls spans are recorded around."""
    # Import every module that binds one of these names first, so that
    # all of its bindings are wrapped.
    import repro.experiments.common  # noqa: F401
    import repro.service.server  # noqa: F401
    import repro.testing.fuzz  # noqa: F401
    import repro.testing.oracle  # noqa: F401
    import repro.vm.asmsim  # noqa: F401
    import repro.vm.irinterp  # noqa: F401
    from repro.backend.compiler import compile_module
    from repro.fi.campaign import prepare_campaign
    from repro.ir.passes.manager import run_default_pipeline
    from repro.minic.compiler import compile_source
    from repro.service import client
    from repro.service.store import DirectoryStore, SQLiteStore
    from repro.testing.progen import generate_program
    from repro.vm.blockcache import compile_asm_segment, compile_ir_segment
    from repro.vm.snapshot import capture_memory

    from perfbench.spans import instrument
    functions = [
        ("minic.compile", compile_source, None),
        ("ir.pipeline", run_default_pipeline, None),
        ("backend.compile", compile_module, None),
        ("testing.progen", generate_program, None),
        ("vm.snapshot_capture", capture_memory, None),
        ("vm.block_compile", compile_ir_segment, None),
        ("vm.block_compile", compile_asm_segment, None),
        ("fi.prep", prepare_campaign, None),
        ("service.submit", client.submit, None),
        ("service.poll", client.poll, None),
        ("service.fetch", client.fetch, None),
    ]
    methods = [(name, cls, attr, None)
               for cls in (DirectoryStore, SQLiteStore)
               for name, attr in (("store.get", "get_result"),
                                  ("store.put", "put_result"))]
    return instrument(tracer, functions, methods + workload.methods())


def measure(workload, out, seconds: float, tracer=None) -> tuple:
    """Whole passes until ``seconds`` of pass time; returns the first
    and last pass's (start, end) for the uncovered-time account."""
    window = None
    while out.passes == 0 or out.elapsed < seconds:
        workload.fresh(traced=tracer is not None)
        scope = (_instrumented(tracer, workload) if tracer is not None
                 else nullcontext())
        with scope:
            t0 = time.perf_counter()
            workload.run_pass(out, tracer)
            t1 = time.perf_counter()
        window = (t0 if window is None else window[0], t1)
        out.elapsed += t1 - t0
        out.passes += 1
        out.pass_counts.append(
            workload.end_pass(out, tracer is not None, t1 - t0))
    return window


def peak_rss_mb() -> float:
    """Peak RSS of this process or any child it has reaped (KiB on
    Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def source_digest() -> str:
    """Digest of the program and benchmark sources: counts are only
    comparable between runs of the same code."""
    h = hashlib.sha256()
    for top in (os.path.join(SRC, "repro"), os.path.join(ROOT, "perfbench")):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "results")
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()


def check_counts(workload: str, seed: int, pass_counts) -> list:
    """Deterministic counts must agree between the passes of this run and
    with every earlier run of the same code at the same seed (kept in
    ``perfbench/results/counts.json``).  Returns the mismatches."""
    problems = []
    merged: dict = {}
    for counts in pass_counts:
        for name, value in counts.items():
            if name in merged and merged[name] != value:
                problems.append(f"{name} differs between passes: "
                                f"{merged[name]} != {value}")
            merged.setdefault(name, value)
    path = os.path.join(RESULTS, "counts.json")
    try:
        with open(path) as f:
            history = json.load(f)
    except (OSError, ValueError):
        history = {}
    key = f"{workload}|{seed}|{source_digest()}"
    seen = history.setdefault(key, {})
    for name, value in merged.items():
        if name in seen and seen[name] != value:
            problems.append(f"{name} = {value} but an earlier run at seed "
                            f"{seed} counted {seen[name]}")
        seen.setdefault(name, value)
    tmp = path + f".{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(history, f, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return problems


def end_to_end(setup_samples, out, rss_mb) -> dict:
    from perfbench.stats import median, tail
    return {
        "setup_s": median(setup_samples),
        "work_per_s": out.work / out.elapsed,
        "op_p50_s": median(out.latencies),
        "op_tail_s": tail(out.latencies)[0],
        "peak_rss_mb": rss_mb,
    }


def per_layer(out, tracer, window, untraced_elapsed) -> tuple:
    from perfbench.stats import median, tail
    rows, uncovered = tracer.table(*window)
    values = {name: 0.0 for name in PER_LAYER}
    for span_name, metric in SPAN_METRICS.items():
        values[metric] = rows.get(span_name, {}).get("self_s", 0.0)
    layer = out.layer
    counts = out.pass_counts[-1]
    for name in DETERMINISTIC:
        values[name] = counts.get(name, 0)
    trial_s = layer.get("vm.trial_run_s", 0.0)
    instr = layer.get("_trial_instructions", 0)
    runs = layer.get("_injection_runs", 0)
    blocks = layer.get("_compiled_blocks", 0) + layer.get("_fallback_blocks",
                                                          0)
    values.update({
        "vm.trial_run_s": trial_s,
        "vm.host_mips": instr / trial_s / 1e6 if trial_s else 0.0,
        "vm.fallback_share": (layer.get("_fallback_blocks", 0) / blocks
                              if blocks else 0.0),
        "vm.ckpt_skipped_share": (
            layer.get("_ckpt_skipped", 0)
            / (layer.get("_ckpt_skipped", 0) + instr) if instr else 0.0),
        "fi.activated_share": (layer.get("_activated", 0) / runs
                               if runs else 0.0),
        "fi.engine_idle_share": (
            1.0 - layer["_chunk_wall"] / layer["_engine_wall"]
            if layer.get("_engine_wall") else 0.0),
        "service.queue_wait_s": layer.get("service.queue_wait_s", 0.0),
        "service.shard_wall_s": layer.get("service.shard_wall_s", 0.0),
        "service.coord_overhead_s": layer.get("service.coord_overhead_s",
                                              0.0),
        "service.worker_busy_share": (
            layer["_busy"] / layer["_busy_capacity"]
            if layer.get("_busy_capacity") else 0.0),
        "trace.overhead_share": out.elapsed / untraced_elapsed - 1.0,
        "trace.uncovered_s": uncovered,
    })
    polls = rows.get("service.poll", {}).get("count", 0)
    jobs = len(out.latencies) + len(out.hit_latencies)
    if polls:
        values["service.polls_per_job"] = polls / jobs
    if out.hit_latencies:
        values["service.hit_p50_s"] = median(out.hit_latencies)
        values["service.hit_tail_s"] = tail(out.hit_latencies)[0]
    return values, rows, uncovered


def _latency_line(label: str, samples) -> str:
    from perfbench.stats import median, tail
    if not samples:
        return f"  {label}: no samples"
    value, pct, n = tail(samples)
    return (f"  {label}: p50 {median(samples):.4f} s, "
            f"p{pct:.0f} {value:.4f} s (n={n})")


def report(args, workload, setup_samples, out, metrics, problems,
           layer_rows=None, uncovered=None) -> None:
    from perfbench.stats import failed_share
    print(f"perfbench {args.workload} seed={args.seed} "
          f"trace={args.trace}: {out.passes} pass(es), "
          f"{out.elapsed:.2f} s timed, {out.work} {UNITS[args.workload]}")
    print(f"  setup samples: "
          + ", ".join(f"{s:.4f}" for s in setup_samples) + " s")
    print(f"  operations: {out.attempted} attempted, {out.failed} failed, "
          f"failed_share {failed_share(out.attempted, out.failed):.4f}")
    print(_latency_line(OP_NAMES[args.workload], out.latencies))
    if args.workload == "service":
        fresh, hits = len(out.latencies), len(out.hit_latencies)
        print(f"  mix: {fresh} fresh submissions (writes), {hits} "
              f"re-submissions (store hits)")
        print(_latency_line("fresh job, submit until fetched",
                            out.client_latencies))
        print(_latency_line("hit, submit until fetched", out.hit_latencies))
        pairs = len({(op.cell.workload, op.cell.tool) for op in workload.ops})
        print(f"  preparation runs in workers: "
              f"{out.pass_counts[-1].get('service.prep_runs', 0)} per pass "
              f"for {pairs} distinct (workload, tool) pairs")
    if layer_rows is not None:
        print(f"  {'span':<22}{'count':>9}{'total s':>11}{'self s':>11}")
        for name, row in sorted(layer_rows.items()):
            print(f"  {name:<22}{row['count']:>9}{row['total_s']:>11.4f}"
                  f"{row['self_s']:>11.4f}")
        print(f"  {'(no span)':<22}{'':>9}{'':>11}{uncovered:>11.4f}")
        for name, why in sorted(workload.not_measured().items()):
            print(f"  {name}: not measured here: {why}")
    for name, value in metrics.items():
        unit = (END_TO_END.get(name) or PER_LAYER[name])[0]
        print(f"  {name:<28}{value:>16.6f} {unit}")
    for note in sorted(set(out.notes)):
        print(f"  note: {note}")
    for failure in out.failures[:20]:
        print(f"  FAILED: {failure}")
    for problem in problems:
        print(f"  COUNT MISMATCH: {problem}")


UNITS = {"grid": "trial slots", "service": "trial slots (fresh jobs)",
         "fuzz": "programs"}
OP_NAMES = {"grid": "cell latency",
            "service": "fresh job, submitted until done (service clock)",
            "fuzz": "program latency"}


def run(args) -> int:
    from perfbench.bench import WORKLOADS, Outcome
    from perfbench.spans import Tracer
    os.makedirs(RESULTS, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-",
                               dir=RESULTS)
    # Libraries that create temporary files keep them in the checkout.
    os.environ["TMPDIR"] = workdir
    tempfile.tempdir = workdir
    workload = WORKLOADS[args.workload](args.seed, workdir)
    tracer = Tracer() if args.trace else None
    try:
        setup_samples = workload.setup_samples()
        if tracer is not None:
            # The parent's own set-up (the grid builds its workloads
            # here) is traced: the frontend spans come from it.
            with _instrumented(tracer, workload):
                workload.prepare()
        else:
            workload.prepare()
        untraced = Outcome()
        measure(workload, untraced, args.seconds)
        rss = peak_rss_mb()
        if tracer is None:
            out = untraced
            metrics = end_to_end(setup_samples, out, rss)
            layer_rows = uncovered = None
        else:
            out = Outcome()
            window = measure(workload, out, args.seconds, tracer)
            metrics, layer_rows, uncovered = per_layer(
                out, tracer, window, untraced.elapsed)
            out.pass_counts = untraced.pass_counts + out.pass_counts
            out.attempted += untraced.attempted
            out.failed += untraced.failed
            out.failures += untraced.failures
        workload.verify(out)
    finally:
        workload.close()
    problems = check_counts(args.workload, args.seed, out.pass_counts)
    if tracer is not None:
        tracer.write(os.path.join(
            RESULTS, f"spans-{args.workload}-{args.seed}.jsonl"))
    shutil.rmtree(workdir, ignore_errors=True)
    report(args, workload, setup_samples, out, metrics, problems,
           layer_rows, uncovered)
    units = END_TO_END if tracer is None else PER_LAYER
    correct = out.failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": units[name][0]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 perfbench/run.py",
        description="end-to-end benchmark with per-layer attribution")
    parser.add_argument("--workload", choices=("grid", "service", "fuzz"))
    parser.add_argument("--seed", type=int, default=20140623)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="minimum pass time to measure; passes are "
                             "never cut short")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: also run a traced pass and print the "
                             "per-layer metrics instead")
    parser.add_argument("--probe-setup", choices=("grid", "fuzz"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--write-reference", action="store_true",
                        help="recompute the committed reference digests "
                             "(scalar configuration) of the grid's and the "
                             "service's cells")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources under {SRC}; run from the "
              f"root of a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    if args.probe_setup:
        from perfbench.bench import probe_setup
        print(probe_setup(args.probe_setup))
        return 0
    if args.write_reference:
        from perfbench import inputs, reference
        os.makedirs(RESULTS, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=RESULTS) as workdir:
            count = reference.write_committed(
                inputs.grid_cells() + inputs.service_cells(), workdir)
        print(f"wrote {count} reference digests to "
              f"{reference.REFERENCE_FILE}")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
