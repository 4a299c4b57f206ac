"""Job lists for the perfbench workloads, and the per-operation gate.

Every workload is an ordered list of groups taken from ``pool.json``.  A
group holds operations of (nearly) equal cost: the members of one family at
every coefficient c in F_p^*, or corpus seeds of neighbouring measured cost.
The benchmark seed picks one member per group, so a seed changes the inputs
but not the amount of work.

An operation id names its input completely:

    corpus:p5:n1:s46           run_corpus(5, 1, count=1, seed=46)
    lift:etale:p7:i6:c3        run(spec, ["lift"]) on z2 -> z2 + 3 z1^6 z2^7
    lift:map:p3:n2:s64         run(spec, ["lift"]) on a corpus map (text in pool)
    trace:bkk:p3:j2:c1         run(spec, ["trace-check"]) on the bkk family
    large_p:fourier:p31        run(spec, ["analyze", "gamma"]) on the swap

This module imports weylift only inside the functions that run an
operation, so the controller can use it without paying the program's
import cost.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
POOL_PATH = HERE / "pool.json"

WORKLOADS = ("corpus", "lift", "trace", "large_p")

TASKS = {
    "lift": ["lift"],
    "trace": ["trace-check"],
    "large_p": ["analyze", "gamma"],
}

# A handful of cheap operations per workload for the smoke test.  Each list
# still leaves the layer the full workload is about on top of the profile.
TINY = {
    "corpus": ["corpus:p5:n1:s87", "corpus:p3:n2:s13", "corpus:p3:n2:s0"],
    "lift": ["lift:etale:p5:i3:c1", "lift:etale:p5:i4:c2", "lift:map:p3:n1:s0"],
    "trace": ["trace:etale:p5:i3:c1", "trace:etale:p3:i2:c2"],
    "large_p": ["large_p:identity:p17", "large_p:etale:p17:i0:c1"],
}


def load_pool() -> dict:
    with open(POOL_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def select(pool: dict, workload: str, seed: int, tiny: bool = False) -> list[str]:
    """The workload's operation ids for this seed, in run order."""
    if tiny:
        return list(TINY[workload])
    rng = random.Random(f"perfbench:{workload}:{seed}")
    return [rng.choice(group) for group in pool["workloads"][workload]]


def parse_id(op_id: str) -> dict:
    """Split an operation id into its fields; numeric fields become ints."""
    workload, kind, *rest = op_id.split(":")
    fields = {"workload": workload, "kind": kind}
    if workload == "corpus":
        rest = [kind] + rest
        fields["kind"] = "corpus"
    for part in rest:
        fields[part[0]] = int(part[1:])
    return fields


def spec_text(p: int, n: int, images: list[str]) -> str:
    return f"p = {p}\nn = {n}\n" + "".join(
        f"phi.{k + 1} = {src}\n" for k, src in enumerate(images)
    )


def family_spec(f: dict) -> str:
    """Spec text of a generated (non-corpus) operation.

    The family monomials are written in normal order; z2^p and z3 commute
    with everything they are multiplied by, so the text parses to exactly
    endo.etale_family / endo.bkk_family with coefficient c.
    """
    kind, p = f["kind"], f["p"]
    if kind == "etale":
        mono = f"{f['c']}*" + (f"z1^{f['i']}*" if f["i"] else "") + f"z2^{p}"
        return spec_text(p, 1, ["z1", f"z2 + {mono}"])
    if kind == "bkk":
        mono = f"{f['c']}*z2^{p}" + (f"*z3^{f['j']}" if f["j"] else "")
        return spec_text(p, 2, [f"z1 + {mono}", "z2", "z3", "z4"])
    n = f.get("n", 1)
    if kind == "identity":
        return spec_text(p, n, [f"z{k + 1}" for k in range(2 * n)])
    if kind == "fourier":
        swap = [f"{p - 1}*z{n + k + 1}" for k in range(n)] + [f"z{k + 1}" for k in range(n)]
        return spec_text(p, n, swap)
    raise ValueError(f"no generated spec for {kind!r}")


def op_spec(pool: dict, op_id: str) -> str:
    if op_id in pool["specs"]:
        return pool["specs"][op_id]
    return family_spec(parse_id(op_id))


def prepare(pool: dict, op_id: str):
    """The operation's input: (p, n, seed) for corpus, else the parsed spec."""
    f = parse_id(op_id)
    if f["workload"] == "corpus":
        return f["p"], f["n"], f["s"]
    from weylift import parser

    return parser.parse_spec_text(op_spec(pool, op_id))


def call(workload: str, arg) -> tuple[dict, int]:
    """Run one operation through the CLI entry point; (report, exit code)."""
    from weylift import cli

    if workload == "corpus":
        p, n, s = arg
        return cli.run_corpus(p, n, 1, s, None, False)
    return cli.run(arg, TASKS[workload])


def report_text(report: dict) -> str:
    """The report exactly as ``weylift`` prints it (byte-stable)."""
    return json.dumps(report, indent=2) + "\n"


def expected_liftable(f: dict) -> bool | None:
    """Verdict fixed by theory: etale lifts iff i < p-1 and bkk is obstructed
    iff j = p-1 (endo.py docstrings); identity and the symplectic swap are
    linear automorphisms and lift.  None where no verdict is known up front."""
    kind = f["kind"]
    if kind == "etale":
        return f["i"] < f["p"] - 1
    if kind == "bkk":
        return f["j"] != f["p"] - 1
    if kind in ("identity", "fourier"):
        return True
    return None


def gate(op_id: str, report: dict, code: int, digest: str, want_digest: str | None) -> list[str]:
    """Correctness problems of one finished operation; empty means it passed."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if want_digest is None:
        problems.append("no recorded digest for this operation")
    elif digest != want_digest:
        problems.append("report digest differs from the recorded one")
    verdicts = []
    if "entries" in report:
        for entry in report["entries"]:
            verdicts.append([entry["liftable"], entry["poisson"], entry["symmetric"]])
        if report.get("all_consistent") is not True:
            problems.append("corpus not consistent")
    else:
        row = []
        if "analyze" in report:
            row += [report["analyze"]["liftable"], report["analyze"]["poisson"]]
        if "gamma" in report:
            row.append(report["gamma"]["symmetric"])
        if "lift" in report:
            row.append(report["lift"]["liftable"])
        if row:
            verdicts.append(row)
        if "trace_check" in report and report["trace_check"].get("agree") is not True:
            problems.append("trace check did not agree")
    for row in verdicts:
        if len(set(row)) != 1:
            problems.append(f"verdicts disagree: {row}")
    want = expected_liftable(parse_id(op_id))
    if want is not None:
        for row in verdicts:
            if row and row[0] != want:
                problems.append(f"liftable={row[0]}, theory says {want}")
    return problems
