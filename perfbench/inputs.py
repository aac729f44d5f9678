"""The benchmark's inputs, generated from ``--seed`` alone.

* ``grid`` — the paper's grid (6 workloads x {LLFI, PINFI} x 5
  categories) at a fixed trial count and campaign seed, visited
  workload-major, LLFI before PINFI.
* ``service`` — 36 fresh cells, three fixed categories per (workload,
  tool) pair, the pairs interleaved by the seed; after every second
  fresh job one
  re-submission of a cell drawn by the seed from those already
  completed.  The cells are fixed so that their digests can be
  committed: the scalar reference (minutes of work) never runs inside
  a benchmark run.  Three cells per pair keep the jobs that pay a
  pair's first preparation in the workers to a third; with two, half
  the jobs did, and the median job latency jumped between the two
  groups from seed to seed (24 % spread over ten seeds).
* ``fuzz`` — a fixed range of generator seeds, in order.  A seeded
  order was tried and dropped: the fuzz process's heap grows over a pass,
  so a program's latency depends on how late it runs, and the median
  program latency moved by 15-25 % between orders of the same programs.

Only the service's inputs depend on the seed; the grid and fuzz inputs
are fixed, so their spread between seeds is run-to-run noise alone.

Import-light on purpose: nothing here imports the program.
"""

from __future__ import annotations

import random
from typing import Dict, List, NamedTuple, Sequence, Tuple

#: The paper's six workloads (``repro.workloads.workload_names()``).
WORKLOADS = ("bzip2m", "hmmerm", "libquantumm", "mcfm", "oceanm",
             "raytracem")
TOOLS = ("LLFI", "PINFI")
#: ``repro.fi.categories.CATEGORIES``.
CATEGORIES = ("arithmetic", "cast", "cmp", "load", "all")

CAMPAIGN_SEED = 20140623
#: Eight trials make a warm grid cell mostly trial execution; at four
#: the median cell latency (~0.18 s, mostly dispatch) spread 23 % over
#: ten seeds against 12 % for throughput.
GRID_TRIALS = 8
SERVICE_TRIALS = 4
#: Worker processes for the grid, fixed rather than read from the host.
GRID_JOBS = 2

SERVICE_SHARDS = 2
SERVICE_WORKERS = 2
SERVICE_CATEGORIES_PER_PAIR = 3

FUZZ_BASE_SEED = 20140623
FUZZ_PROGRAMS = 40


class Cell(NamedTuple):
    workload: str
    tool: str
    category: str
    trials: int
    seed: int

    def key(self) -> str:
        return (f"{self.workload}/{self.tool}/{self.category}"
                f"/t{self.trials}/s{self.seed}")


def _rng(workload: str, seed: int) -> random.Random:
    # A string seed is hashed with SHA-512 by ``random``: stable across
    # interpreters and independent of PYTHONHASHSEED.
    return random.Random(f"perfbench:{workload}:{seed}")


def _pairs() -> List[Tuple[str, str]]:
    return [(w, t) for w in WORKLOADS for t in TOOLS]


def grid_cells() -> List[Cell]:
    return [Cell(w, t, c, GRID_TRIALS, CAMPAIGN_SEED)
            for w, t in _pairs() for c in CATEGORIES]


class ServiceOp(NamedTuple):
    kind: str  # "fresh" | "hit"
    cell: Cell


def service_cells() -> List[Cell]:
    """Per pair, a rotating window of the categories, so each category
    appears about equally often."""
    return [Cell(w, t, CATEGORIES[(i + j) % len(CATEGORIES)],
                 SERVICE_TRIALS, CAMPAIGN_SEED)
            for i, (w, t) in enumerate(_pairs())
            for j in range(SERVICE_CATEGORIES_PER_PAIR)]


def service_ops(seed: int) -> List[ServiceOp]:
    rng = _rng("service", seed)
    cells = service_cells()
    # The seed interleaves the pairs; within a pair the cells keep their
    # order, so the job that pays the pair's first preparation in the
    # workers is the same at every seed (a seeded choice spread the
    # tail job latency by 31 % over five seeds).
    slots = [(cell.workload, cell.tool) for cell in cells]
    rng.shuffle(slots)
    queues: Dict[Tuple[str, str], List[Cell]] = {}
    for cell in cells:
        queues.setdefault((cell.workload, cell.tool), []).append(cell)
    fresh = [queues[pair].pop(0) for pair in slots]
    ops: List[ServiceOp] = []
    for i, cell in enumerate(fresh):
        ops.append(ServiceOp("fresh", cell))
        if i % 2:
            ops.append(ServiceOp("hit", rng.choice(fresh[:i + 1])))
    return ops


def fuzz_seeds() -> List[int]:
    return list(range(FUZZ_BASE_SEED, FUZZ_BASE_SEED + FUZZ_PROGRAMS))


def distinct(cells: Sequence[Cell]) -> List[Cell]:
    return sorted(set(cells))
