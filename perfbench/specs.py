"""Workload definitions shared by the orchestrator (``run.py``) and the
workload processes (``worker.py``).

This module imports nothing from ``repro``: the orchestrator never loads the
program it measures, so a broken program fails inside a worker, where it is
counted, and never inside the harness.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Dict, List, Optional

WORKLOADS = ("suite_cold", "llc_sweep", "chunked_long", "serve_overlap")

#: The seven server workloads of the suite (checked against
#: ``repro.workloads.suite.WORKLOAD_NAMES`` by every worker).
SUITE_WORKLOADS = (
    "oltp_db2",
    "oltp_oracle",
    "dss_qry2",
    "dss_qry17",
    "media_streaming",
    "web_frontend",
    "web_search",
)

#: Workload-generation seeds the benchmark draws from.  ``--seed n`` gives
#: operation ``i`` of a run the seed ``SEED_POOL[(n + i) % len(SEED_POOL)]``,
#: so each run mixes several trace instances and every instance has a
#: reference digest in ``reference.json``.
SEED_POOL = (0, 1, 2, 3, 4, 5, 6, 7)

#: The library's default seed, and one seed outside the pool that no
#: benchmark tuning used; both are pinned in ``reference.json``.
#: ``--seed 101`` runs every operation on the held-out seed.
DEFAULT_SEED = 0
HELD_OUT_SEED = 101

#: Sizes of each workload.  ``full`` is the benchmark; ``tiny`` runs the
#: same code paths in seconds, for the benchmark's own tests.
CONFIGS: Dict[str, Dict[str, Dict[str, object]]] = {
    "full": {
        "suite_cold": {"workloads": None, "num_cores": None, "blocks_per_core": None},
        "llc_sweep": {"values": None},
        "chunked_long": {
            "workloads": ["oltp_db2"],
            "engines": ["none", "shift"],
            "num_cores": 4,
            "blocks_per_core": 300_000,
            "chunk_blocks": 1000,
        },
        "serve_overlap": {
            "workloads": list(SUITE_WORKLOADS),
            "engines": ["none", "shift"],
            "trace_seeds": 3,
            "repeats_per_new": 4,
            "poll_interval_s": 0.01,
        },
    },
    "tiny": {
        "suite_cold": {
            "workloads": ["oltp_db2", "web_search"],
            "num_cores": 4,
            "blocks_per_core": 4000,
        },
        "llc_sweep": {"values": [512, 1024]},
        "chunked_long": {
            "workloads": ["oltp_db2"],
            "engines": ["none", "shift"],
            "num_cores": 2,
            "blocks_per_core": 6000,
            "chunk_blocks": 1000,
        },
        "serve_overlap": {
            "workloads": ["oltp_db2", "web_search"],
            "engines": ["none", "shift"],
            "trace_seeds": 1,
            "repeats_per_new": 4,
            "poll_interval_s": 0.01,
        },
    },
}


def pool_seed(seed: int, index: int) -> int:
    """The pool seed ``index`` places after ``seed``."""
    return SEED_POOL[(seed + index) % len(SEED_POOL)]


def op_seed(seed: int, index: int) -> int:
    """The workload seed of operation ``index`` of a run with ``--seed seed``:
    the held-out seed itself, any other seed mapped onto the pool."""
    return seed if seed == HELD_OUT_SEED else pool_seed(seed, index)


def experiment_kwargs(workload: str, size: str, seed: int) -> Dict[str, object]:
    """Keyword arguments of the ``run_experiment``/``run_sweep`` call of
    one operation, minus the backend and caches."""
    config = CONFIGS[size]
    suite = config["suite_cold"]
    if workload == "suite_cold":
        return {"system": "scaled", "seed": seed, **suite}
    if workload == "llc_sweep":
        # The sweep covers the same workloads, cores and trace length as
        # the suite, so the tiny sweep stays tiny.
        return {
            "axis": "llc",
            "values": config["llc_sweep"]["values"],
            "system": "scaled",
            "seed": seed,
            **suite,
        }
    if workload == "chunked_long":
        chunked = dict(config["chunked_long"])
        chunked.pop("chunk_blocks")
        chunked["engines"] = tuple(chunked["engines"])
        return {"system": "scaled", "seed": seed, **chunked}
    raise ValueError(f"{workload} is not a batch workload")


def serve_jobs(seed: int, size: str) -> List[Dict[str, object]]:
    """The client's job sequence for ``serve_overlap``.

    Every (trace seed, workload) pair of the session is introduced by
    exactly one *new* job, which names it plus one pair already seen at
    that trace seed; each new job is followed by ``repeats_per_new`` jobs
    naming only seen pairs.  So the share of jobs that simulate is fixed
    at ``1 / (1 + repeats_per_new)`` whatever the seed; the seed picks the
    trace seeds (``seed`` and the pool seeds after it), the order and which
    seen workloads a job names.  Jobs use
    the ``suite_cold`` system, so their rows are checked against the
    suite's reference rows.
    """
    config = CONFIGS[size]["serve_overlap"]
    suite = CONFIGS[size]["suite_cold"]
    rng = random.Random(seed)
    # The session's own seed comes first, so a held-out session serves it.
    trace_seeds = [seed] + [pool_seed(seed, j) for j in range(1, int(config["trace_seeds"]))]
    fresh = [(t, w) for t in trace_seeds for w in config["workloads"]]
    rng.shuffle(fresh)
    seen: Dict[int, List[str]] = {t: [] for t in trace_seeds}
    jobs: List[Dict[str, object]] = []

    def job(names: List[str], trace_seed: int, new: bool) -> Dict[str, object]:
        params: Dict[str, object] = {
            "workloads": names,
            "engines": list(config["engines"]),
            "seed": trace_seed,
        }
        for key in ("num_cores", "blocks_per_core"):
            if suite[key] is not None:
                params[key] = suite[key]
        return {"params": params, "new": new}

    for trace_seed, name in fresh:
        others = seen[trace_seed]
        jobs.append(job([name] + ([rng.choice(others)] if others else []), trace_seed, True))
        others.append(name)
        for _ in range(int(config["repeats_per_new"])):
            pick = rng.choice([t for t in trace_seeds if seen[t]])
            count = rng.randint(1, min(3, len(seen[pick])))
            jobs.append(job(rng.sample(seen[pick], count), pick, False))
    return jobs


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def canonical_digest(payload: object) -> str:
    """Digest of a JSON value in the reports' canonical layout."""
    return digest(json.dumps(payload, sort_keys=True, indent=2))


def row_digests(row: Dict[str, object]) -> Dict[str, object]:
    """Per-row digests of an experiment report row.

    An outcome depends only on its own engine and the row's baseline, so a
    served job that names a subset of the engines is checked piece by piece
    against the full suite's reference rows.
    """
    baseline = {key: value for key, value in row.items() if key != "outcomes"}
    return {
        "baseline": canonical_digest(baseline),
        "outcomes": {
            engine: canonical_digest(outcome) for engine, outcome in row["outcomes"].items()
        },
    }


def check_served_report(
    report: Dict[str, object], params: Dict[str, object], rows_ref: Dict[str, object]
) -> Optional[str]:
    """None if a served report matches the reference rows, else the reason."""
    rows = report.get("rows", [])
    names = [row.get("workload") for row in rows]
    if names != params["workloads"]:
        return f"rows {names} do not match the requested workloads {params['workloads']}"
    engines = set(params["engines"]) - {"none"}
    for row in rows:
        expected = rows_ref.get(row["workload"])
        if expected is None:
            return f"no reference row for {row['workload']}"
        if set(row.get("outcomes", {})) != engines:
            return (f"{row['workload']}: outcomes {sorted(row.get('outcomes', {}))} "
                    f"do not match the requested engines {sorted(engines)}")
        got = row_digests(row)
        if got["baseline"] != expected["baseline"]:
            return f"{row['workload']}: baseline digest differs from the reference"
        for engine, value in got["outcomes"].items():
            if expected["outcomes"].get(engine) != value:
                return f"{row['workload']}/{engine}: outcome digest differs from the reference"
    return None
