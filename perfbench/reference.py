"""Correctness gate: result digests from the scalar reference config.

Every ``grid`` cell and every fetched ``service`` result is hashed as
``CampaignResult.to_json(include_records=True)`` and compared with the
digest of the same cell run under the scalar reference configuration —
block compilation off, checkpoint stride 0, batching off, one job.
Accelerators are bit-identical to it by construction, so any difference
is a bug.

The service returns results in their stored form, which carries no
per-trial records (``CampaignResult.to_json()``), so a fetched result is
compared with the reference put through that same round trip.

The grid's and the service's cells are the same at every seed, and
their digests are committed in ``reference_digests.json`` (regenerate
with ``python3 perfbench/run.py --write-reference``).  A cell missing
from that file — after a change to the inputs — is computed here, in
two spawned processes, outside the timed region.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, Iterable, List

from perfbench.inputs import Cell

REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference_digests.json")
REFERENCE_PROCESSES = 2


def digest(data: dict) -> str:
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def result_digest(result) -> str:
    return digest(result.to_json(include_records=True))


def fetched_digest(result) -> str:
    """Digest of ``result`` as the service hands it out."""
    from repro.fi import CampaignResult
    return result_digest(CampaignResult.from_json(result.to_json()))


def _reference_chunk(cells: List[Cell], workdir: str
                     ) -> Dict[str, Dict[str, str]]:
    from repro.experiments.common import campaign_cell
    from repro.fi import CampaignConfig
    from repro.service.store import DirectoryStore
    out = {}
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        store = DirectoryStore(tmp)
        for cell in cells:
            config = CampaignConfig(trials=cell.trials, seed=cell.seed,
                                    jobs=1, checkpoint_stride=0, batch=0,
                                    no_compile=True)
            result = campaign_cell(cell.workload, cell.tool, cell.category,
                                   config, store=store)
            out[cell.key()] = {"full": result_digest(result),
                               "fetched": fetched_digest(result)}
    return out


def compute(cells: Iterable[Cell], workdir: str
            ) -> Dict[str, Dict[str, str]]:
    """Reference digests of ``cells``, computed in spawned processes.
    Cells of one (workload, tool) pair share a process, and so one
    golden run."""
    groups: Dict[tuple, List[Cell]] = {}
    for cell in sorted(set(cells)):
        groups.setdefault((cell.workload, cell.tool), []).append(cell)
    if not groups:
        return {}
    chunks: List[List[Cell]] = [[] for _ in range(REFERENCE_PROCESSES)]
    for group in sorted(groups.values(), key=len, reverse=True):
        min(chunks, key=len).extend(group)
    chunks = [chunk for chunk in chunks if chunk]
    out: Dict[str, Dict[str, str]] = {}
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=len(chunks),
                             mp_context=context) as pool:
        futures = [pool.submit(_reference_chunk, chunk, workdir)
                   for chunk in chunks]
        for future in futures:
            out.update(future.result())
    return out


def load_committed() -> Dict[str, Dict[str, str]]:
    with open(REFERENCE_FILE) as f:
        return json.load(f)["cells"]


def references(cells: Iterable[Cell], workdir: str
               ) -> Dict[str, Dict[str, str]]:
    """Committed digests where the file has them, computed otherwise."""
    cells = list(cells)
    committed = load_committed()
    known = {c.key(): committed[c.key()] for c in cells
             if c.key() in committed}
    known.update(compute([c for c in cells if c.key() not in known],
                         workdir))
    return known


def write_committed(cells: Iterable[Cell], workdir: str) -> int:
    digests = compute(cells, workdir)
    with open(REFERENCE_FILE, "w") as f:
        json.dump({"config": "scalar reference: no_compile, "
                             "checkpoint_stride 0, batch 0, jobs 1",
                   "cells": digests}, f, indent=1, sort_keys=True)
        f.write("\n")
    return len(digests)
