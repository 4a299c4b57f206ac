"""Rebuild pool.json: every operation a workload can draw, with its digest.

    python3 perfbench/build_pool.py

Runs each candidate operation once, in this process, and records the
SHA-256 of its byte-stable report (the text ``weylift`` would print) and its
time.  The times only decide the grouping: corpus seeds are sorted by cost
and paired with a neighbour of similar cost, and a seed with no such
neighbour forms a group of its own, so that every benchmark seed draws the
same amount of work.

The digests are the benchmark's reference reports.  Rebuilding the pool on
a later commit accepts whatever that commit prints; do it only to re-baseline
on purpose, never to make a failing gate pass.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from time import perf_counter

import jobs

ROOT = jobs.HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from weylift import parser  # noqa: E402
from weylift.endo import generate_corpus  # noqa: E402
from weylift.scalars import FieldParams  # noqa: E402
from weylift.weyl import AlgebraParams  # noqa: E402

CORPUS_SEEDS = range(100)
LIFT_MAP_SEEDS = range(80)
# The one corpus seed of over 4 s (an oracle op): on its own it would be
# most of a corpus pass.
CORPUS_LEFT_OUT = {"corpus:p5:n1:s46"}


def coefficient_groups(prefix: str, p: int) -> list[str]:
    return [f"{prefix}:c{c}" for c in range(1, p)]


def plan() -> dict:
    """Workload -> list of groups of operation ids (maps filled in later).

    A pass over a workload is kept to about 5-8 s so that one run holds
    several passes; the heaviest operations (etale p=7 i>=4 lift at 2-5 s
    each, bkk p=3 j=2 trace-check at 9 s, etale p=31 i=1 analyze at 8 s)
    are therefore left out.
    """
    lift = [coefficient_groups(f"lift:etale:p5:i{i}", 5) for i in range(5)]
    lift += [coefficient_groups(f"lift:etale:p7:i{i}", 7) for i in range(4)]
    for p in (3, 5):
        lift += [coefficient_groups(f"lift:bkk:p{p}:j{j}", p) for j in range(p)]
    trace = [coefficient_groups(f"trace:bkk:p3:j{j}", 3) for j in range(2)]
    trace += [["trace:identity:p3:n2"], ["trace:fourier:p3:n2"]]
    for p in (3, 5):
        trace += [coefficient_groups(f"trace:etale:p{p}:i{i}", p) for i in range(p)]
    large = []
    for p in (17, 23, 31):
        large += [[f"large_p:identity:p{p}"], [f"large_p:fourier:p{p}"]]
        large += [coefficient_groups(f"large_p:etale:p{p}:i{i}", p) for i in (0, 1)]
    large.remove(coefficient_groups("large_p:etale:p31:i1", 31))
    return {"corpus": [], "lift": lift, "trace": trace, "large_p": large}


def pair_by_cost(ids: list[str], cost: dict) -> list[list[str]]:
    """Groups of one or two ids whose costs are close, in seed order."""
    ranked = sorted(ids, key=lambda i: -cost[i])
    groups = []
    k = 0
    while k < len(ranked):
        a = ranked[k]
        if k + 1 < len(ranked):
            b = ranked[k + 1]
            if cost[a] - cost[b] <= max(0.02, 0.25 * cost[a]):
                groups.append([a, b])
                k += 2
                continue
        groups.append([a])
        k += 1
    order = [jobs.parse_id(i)["s"] for i in ids]
    return sorted(groups, key=lambda g: min(order.index(jobs.parse_id(i)["s"]) for i in g))


def run_op(pool: dict, op_id: str) -> tuple[str, float]:
    workload = jobs.parse_id(op_id)["workload"]
    arg = jobs.prepare(pool, op_id)
    t0 = perf_counter()
    report, code = jobs.call(workload, arg)
    text = jobs.report_text(report)
    secs = perf_counter() - t0
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    problems = jobs.gate(op_id, report, code, digest, digest)
    if problems:
        raise SystemExit(f"{op_id}: {problems}")
    return digest, secs


def main() -> int:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    pool = {"recorded_at": commit, "workloads": plan(), "specs": {}, "digests": {}, "costs": {}}
    for p, n in ((3, 1), (3, 2)):
        alg = AlgebraParams(n, FieldParams(p))
        for s in LIFT_MAP_SEEDS:
            images = generate_corpus(alg, 1, seed=s)[0].images
            text = jobs.spec_text(p, n, [parser.format_elem(u) for u in images])
            pool["specs"][f"lift:map:p{p}:n{n}:s{s}"] = text

    def record(ids):
        for op_id in ids:
            digest, secs = run_op(pool, op_id)
            pool["digests"][op_id] = digest
            pool["costs"][op_id] = round(secs, 4)
            print(f"{op_id} {secs:.3f}", file=sys.stderr, flush=True)

    for workload in ("lift", "trace", "large_p"):
        record([i for group in pool["workloads"][workload] for i in group])
    maps = []
    for p, n in ((3, 1), (3, 2)):
        ids = [f"lift:map:p{p}:n{n}:s{s}" for s in LIFT_MAP_SEEDS]
        record(ids)
        maps += pair_by_cost(ids, pool["costs"])
    pool["workloads"]["lift"] += maps
    for p, n in ((3, 2), (5, 1)):
        ids = [f"corpus:p{p}:n{n}:s{s}" for s in CORPUS_SEEDS]
        record(ids)
        groups = pair_by_cost([i for i in ids if i not in CORPUS_LEFT_OUT], pool["costs"])
        pool["workloads"]["corpus"] += groups
    with open(jobs.POOL_PATH, "w", encoding="utf-8") as fh:
        json.dump(pool, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
