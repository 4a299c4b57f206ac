"""Command line driver: spec parsing, analysis pipeline, JSON reports.

Subcommands: validate, analyze, lift, gamma, trace-check, corpus, selftest.
Reports go to stdout (or --json-out FILE) as JSON with a "schema": 1 field;
human-readable progress goes to stderr.  Output is byte-identical across
runs for the same inputs unless --timings is given.

Exit codes: 0 success; 2 invalid input or invalid endomorphism; 3 resource
limit; 4 internal inconsistency (a theorem-backed cross-check failed,
which always indicates a bug).
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
import time

from . import center as C
from . import cohomology as coh
from . import diffeq as DQ
from . import trivialization as TV
from .endo import DEFAULT_BUDGET, Endo, generate_corpus
from .errors import (
    InternalInconsistency,
    NoSolution,
    NotClosed,
    ParseError,
    RelationViolation,
    ResourceLimit,
    WeyliftError,
)
from .parser import KNOWN_TASKS, SpecFile, format_elem, load_spec
from .scalars import FieldParams
from .weyl import AlgebraParams, SparseElem, WeylElem


# ---------------------------------------------------------------------------
# serialization


def _scalar(digits: tuple) -> int | list:
    return digits[0] if len(digits) == 1 else list(digits)


def ser_elem(f: SparseElem) -> list:
    """[exponents, coefficient] per term, sorted by exponents, read off the
    residues: a coefficient of k is an int (m = 1) or its m residues, one of
    W_2(k) its Witt components [a1, a2] = [b1, b2^p] (ResidueRing.split)."""
    res, p = f.ctx.res, f.alg.field.p
    out = []
    for e, r in sorted(f._items()):
        if f.ring == "w2":
            b1, b2 = res.split(r)
            c = [_scalar(res.digits(b1)), _scalar(res.digits(res.k.pow(b2, p)))]
        else:
            c = _scalar(res.digits(r))
        out.append([list(e), c])
    return out


def ser_matrix(M) -> list:
    return [[ser_elem(c) for c in row] for row in M]


def field_block(field: FieldParams) -> dict:
    return {"p": field.p, "m": field.m, "modulus": list(field.modulus or [])}


# ---------------------------------------------------------------------------
# pipeline


@functools.cache
def _seeded_samples(alg: AlgebraParams, seed: int) -> tuple[WeylElem, ...]:
    """trace-check's six seeded random sums of 1-3 monomials, each summed as
    residues mod p (an integer's residue for every m, as in
    AlgebraParams.const) in one dict and packed once.  They depend only on
    the algebra and the seed, so they are drawn once per (algebra, seed),
    memoised by value as weyl's set-ups are."""
    p = alg.field.p
    rng = random.Random(("trace", seed, p, alg.n).__repr__())
    samples = []
    for _ in range(6):
        coeffs: dict = {}
        for _ in range(rng.randint(1, 3)):
            exps = tuple(rng.randint(0, p - 1) for _ in range(alg.nvars))
            coeffs[exps] = (coeffs.get(exps, 0) + rng.randint(1, p - 1)) % p
        samples.append(alg.from_items(coeffs.items()))
    return tuple(samples)


def _trace_samples(e: Endo, seed: int) -> list[WeylElem]:
    """trace-check's samples: 1, a top element and the six seeded sums."""
    alg = e.alg
    p = alg.field.p
    # Only take the product of image powers while its degree bound stays
    # small; otherwise the plain top monomial stands in.  The ad chain of
    # the expansion side does not need the bound; it stays so that the
    # sample set, and with it the work a trace-check does, is fixed per map.
    if e.deg * (p - 1) * alg.nvars <= 10:
        top = alg.const(1)
        for i in range(alg.nvars):
            top = top * e.u(i) ** (p - 1)
    else:
        top = alg.from_items([((p - 1,) * alg.nvars, 1)])
    return [alg.const(1), top, *_seeded_samples(alg, seed)]


def run(spec: SpecFile, tasks: list[str], budget: int | None = None, seed: int = 0,
        timings: bool = False) -> tuple[dict, int]:
    """Execute the requested tasks; returns (report, exit_code)."""
    started = time.monotonic()
    clocks: dict = {}
    if budget is None:
        budget = spec.budget if spec.budget is not None else DEFAULT_BUDGET
    order = [t for t in KNOWN_TASKS if t in tasks]
    report: dict = {
        "schema": 1,
        "tool": "weylift",
        "params": {"n": spec.n, "field": field_block(spec.field)},
        "tasks": order,
    }
    endo = spec.endo()
    # validation always runs first; a violating endomorphism is invalid input
    try:
        endo.validate()
        if "validate" in order:
            report["validate"] = {"valid": True}
    except RelationViolation as ex:
        report["validate"] = {
            "valid": False,
            "violation": {"i": ex.i + 1, "j": ex.j + 1, "residual": ser_elem(ex.residual)},
        }
        return report, 2
    analysis = None
    gamma_sol = None

    def need_analysis():
        nonlocal analysis
        if analysis is None:
            t0 = time.monotonic()
            analysis = endo.analyze(budget)
            clocks["analyze"] = time.monotonic() - t0
        return analysis

    def need_gamma():
        nonlocal gamma_sol
        if gamma_sol is None:
            t0 = time.monotonic()
            gamma_sol = DQ.gamma_solution(endo)
            clocks["gamma"] = time.monotonic() - t0
        return gamma_sol

    if "analyze" in order:
        rep = need_analysis()
        report["analyze"] = {
            "degree": rep.degree,
            "C": ser_matrix(rep.C),
            "liftable": rep.liftable,
            "poisson": rep.poisson,
            "etale": rep.etale,
            "injective_certified": rep.injective_certified,
            "tsuchimoto_bound_met": rep.tsuchimoto_bound_met,
            "term_counts": rep.term_counts,
        }
    if "gamma" in order:
        sol = need_gamma()
        if not DQ.check_matrix_id(endo, sol):
            raise InternalInconsistency("the Jacobian matrix identity fails")
        report["gamma"] = {
            "gamma": [ser_elem(g) for g in sol.gamma],
            "f": [ser_elem(f) for f in sol.f],
            "symmetric": sol.symmetric,
        }
    if "lift" in order:
        t0 = time.monotonic()
        outcome = coh.construct_lift(endo)
        clocks["lift"] = time.monotonic() - t0
        if isinstance(outcome, coh.Lift):
            report["lift"] = {
                "liftable": True,
                "v": [ser_elem(v) for v in outcome.v],
                "Phi": [ser_elem(f) for f in outcome.Phi],
                "verified": True,
            }
        else:
            report["lift"] = {
                "liftable": False,
                "C": ser_matrix(outcome.C),
                "harmonic": [
                    [i + 1, j + 1, ser_elem(g)] for (i, j), g in sorted(outcome.harmonic.items())
                ],
            }
        if report["lift"]["liftable"] != need_analysis().liftable:
            raise InternalInconsistency("lift construction disagrees with the obstruction matrix")
    if "trace-check" in order:
        t0 = time.monotonic()
        samples = _trace_samples(endo, seed)
        for f in samples:
            via_trace = TV.trace_top_coefficient(endo, f)
            via_expansion = coh.top_coefficient(endo, f)
            if via_trace != via_expansion:
                raise InternalInconsistency("trace route disagrees with the expansion route")
        clocks["trace-check"] = time.monotonic() - t0
        report["trace_check"] = {"samples": len(samples), "agree": True}
    # the pipeline gate: every computed liftability verdict must agree
    if analysis is not None and gamma_sol is not None:
        if not (analysis.liftable == analysis.poisson == gamma_sol.symmetric):
            raise InternalInconsistency(
                "liftable, Poisson, and symmetry verdicts disagree"
            )
    if timings:
        clocks["total"] = time.monotonic() - started
        report["timings"] = {k: round(v, 6) for k, v in sorted(clocks.items())}
    return report, 0


# ---------------------------------------------------------------------------
# corpus and selftest


def run_corpus(p: int, n: int, count: int, seed: int, budget: int | None,
               timings: bool) -> tuple[dict, int]:
    field = FieldParams(p)
    alg = AlgebraParams(n, field)
    started = time.monotonic()
    entries = []
    for endo in generate_corpus(alg, count, seed=seed):
        rep = endo.analyze(budget if budget is not None else DEFAULT_BUDGET)
        sol = DQ.gamma_solution(endo)
        if not C.mat_eq(endo.obstruction_C, endo.obstruction_C_oracle):
            raise InternalInconsistency("obstruction oracle mismatch in corpus run")
        if not (rep.liftable == rep.poisson == sol.symmetric):
            raise InternalInconsistency("corpus verdicts disagree")
        if not endo.check_theorem_idjac():
            raise InternalInconsistency("Jacobian identity fails in corpus run")
        entries.append(
            {
                "images": [format_elem(u) for u in endo.images],
                "degree": endo.deg,
                "liftable": rep.liftable,
                "poisson": rep.poisson,
                "etale": rep.etale,
                "symmetric": sol.symmetric,
            }
        )
    report = {
        "schema": 1,
        "tool": "weylift",
        "corpus": {"p": p, "n": n, "count": count, "seed": seed},
        "entries": entries,
        "all_consistent": True,
    }
    if timings:
        report["timings"] = {"total": round(time.monotonic() - started, 6)}
    return report, 0


def run_selftest(timings: bool) -> tuple[dict, int]:
    from . import selftest as ST

    started = time.monotonic()
    results = ST.run_fixtures()
    ok = all(r["ok"] for r in results)
    report = {
        "schema": 1,
        "tool": "weylift",
        "fixtures": results,
        "all_ok": ok,
    }
    if timings:
        report["timings"] = {"total": round(time.monotonic() - started, 6)}
    return report, 0 if ok else 4


# ---------------------------------------------------------------------------
# entry point


def _emit(report: dict, json_out: str | None) -> None:
    text = json.dumps(report, indent=2) + "\n"
    if json_out:
        with open(json_out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _summary(report: dict) -> str:
    bits = []
    if "validate" in report:
        bits.append(f"valid={report['validate']['valid']}")
    if "analyze" in report:
        a = report["analyze"]
        bits.append(
            f"liftable={a['liftable']} poisson={a['poisson']} etale={a['etale']}"
        )
    if "gamma" in report:
        bits.append(f"symmetric={report['gamma']['symmetric']}")
    if "lift" in report:
        bits.append(f"lift={'yes' if report['lift']['liftable'] else 'obstructed'}")
    if "trace_check" in report:
        bits.append(f"trace samples={report['trace_check']['samples']} ok")
    if "all_consistent" in report:
        bits.append(f"corpus consistent over {len(report.get('entries', []))} endos")
    if "all_ok" in report:
        bits.append("selftest " + ("ok" if report["all_ok"] else "FAILED"))
    return "; ".join(bits) if bits else "done"


def positive_int(text: str) -> int:
    """argparse type for counts and budgets: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="weylift",
        description="Decide and construct lifts of Weyl algebra endomorphisms to length-two Witt vectors.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, needs_input=True, budgeted=True):
        if needs_input:
            sp.add_argument("--input", required=True, help="endomorphism spec file")
            sp.add_argument(
                "--task",
                help="comma-separated extra tasks to run alongside the subcommand",
            )
        if budgeted:
            sp.add_argument("--budget", type=positive_int, help="term-count guardrail override")
            sp.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
        sp.add_argument("--json-out", help="write the JSON report to this file")
        sp.add_argument(
            "--timings",
            action="store_true",
            help="include wall-clock timings (report is then not byte-stable)",
        )

    for name in ("validate", "analyze", "lift", "gamma", "trace-check"):
        common(sub.add_parser(name, help=f"run the {name} task"))
    cp = sub.add_parser("corpus", help="generate and analyze a random corpus")
    common(cp, needs_input=False)
    cp.add_argument("--p", type=int, required=True, help="field characteristic")
    cp.add_argument("--n", type=int, required=True, help="number of symplectic pairs")
    cp.add_argument("--count", type=positive_int, default=10, help="number of endomorphisms")
    stp = sub.add_parser("selftest", help="run the built-in worked examples")
    common(stp, needs_input=False, budgeted=False)  # fixed examples: no budget, no seed
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        if args.command == "corpus":
            report, code = run_corpus(
                args.p, args.n, args.count, args.seed, args.budget, args.timings
            )
        elif args.command == "selftest":
            report, code = run_selftest(args.timings)
        else:
            spec = load_spec(args.input)
            tasks = {args.command}
            if args.task:
                for t in args.task.split(","):
                    t = t.strip()
                    if t and t not in KNOWN_TASKS:
                        raise ParseError(f"unknown task {t!r}", 1, 1)
                    if t:
                        tasks.add(t)
            elif spec.tasks:
                tasks.update(spec.tasks)
            report, code = run(
                spec, sorted(tasks), budget=args.budget, seed=args.seed, timings=args.timings
            )
        _emit(report, args.json_out)
        print(_summary(report), file=sys.stderr)
        return code
    except OSError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except ResourceLimit as ex:
        print(f"resource limit: {ex}", file=sys.stderr)
        return 3
    except (InternalInconsistency, NotClosed, NoSolution) as ex:
        print(f"internal inconsistency: {ex}", file=sys.stderr)
        return 4
    except WeyliftError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
