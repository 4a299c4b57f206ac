"""Command line behavior: report schema, exit codes, and byte determinism."""

from __future__ import annotations

import codecs
import gc
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from weylift.cli import main, run, run_corpus
from weylift.parser import KNOWN_TASKS, load_spec

SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_analyze_bkk_report(capsys):
    code, out, err = _run(
        capsys, ["analyze", "--input", str(SPEC_DIR / "bkk_p3.spec"), "--task", "analyze"]
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["schema"] == 1
    assert rep["params"]["field"]["p"] == 3 and rep["params"]["n"] == 2
    ana = rep["analyze"]
    assert ana["liftable"] is False and ana["poisson"] is False
    C = ana["C"]
    assert C[0][3] == [[[0, 0, 0, 0], 2]]
    assert C[3][0] == [[[0, 0, 0, 0], 1]]
    for i in range(4):
        for j in range(4):
            if (i, j) not in ((0, 3), (3, 0)):
                assert C[i][j] == []


def test_full_pipeline_and_gate(capsys):
    code, out, err = _run(
        capsys,
        [
            "gamma",
            "--input",
            str(SPEC_DIR / "bkk_p3.spec"),
            "--task",
            "validate,analyze,lift,trace-check",
        ],
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["validate"]["valid"] is True
    assert rep["gamma"]["gamma"] == [[], [], [[[0, 1, 0, 0], 1]], []]
    assert rep["gamma"]["symmetric"] is False
    assert rep["lift"]["liftable"] is False
    assert rep["lift"]["harmonic"] == [[1, 4, [[[0, 0, 0, 0], 2]]]]
    assert rep["trace_check"]["agree"] is True
    assert rep["trace_check"]["samples"] == 8


def test_lift_on_liftable_input(capsys):
    code, out, err = _run(capsys, ["lift", "--input", str(SPEC_DIR / "etale_i0.spec")])
    assert code == 0
    rep = json.loads(out)
    assert rep["lift"]["liftable"] is True
    assert rep["lift"]["verified"] is True
    assert rep["lift"]["Phi"]  # 2n images with W_2 coefficients [a1, a2]
    for img in rep["lift"]["Phi"]:
        for exps, coeff in img:
            assert len(coeff) == 2


def test_bkk_p5_trace_check_finishes(capsys):
    """The largest shipped trace-check; its expansion side is one ad chain
    per sample."""
    start = time.perf_counter()
    code, out, err = _run(capsys, ["trace-check", "--input", str(SPEC_DIR / "bkk_p5.spec")])
    assert time.perf_counter() - start < 30
    assert code == 0
    assert json.loads(out)["trace_check"] == {"samples": 8, "agree": True}


@pytest.mark.parametrize("p", [101, 211, 1009])
def test_trace_check_at_p101(capsys, tmp_path, p):
    """z2 -> z2 + z2^p: the trace side reads the monomials, no p x p matrices,
    and the expansion side reads its one coefficient with one ad chain (a full
    expansion per sample took 27 s at p = 211 on a 2-CPU Xeon)."""
    spec = _write(tmp_path, "e.spec", f"p = {p}\nn = 1\nphi.1 = z1\nphi.2 = z2 + z2^{p}\n")
    start = time.perf_counter()
    code, out, err = _run(capsys, ["trace-check", "--input", spec])
    assert time.perf_counter() - start < 10
    assert code == 0
    assert json.loads(out)["trace_check"] == {"samples": 8, "agree": True}


def test_trace_gate_exits_4(capsys, monkeypatch):
    """A trace route off by one fails the trace-vs-expansion check: exit 4."""
    from weylift import center as C
    from weylift import cli

    trace = cli.TV.trace_top_coefficient

    def off_by_one(e, f):
        return trace(e, f) + e.alg.const(1, var="y")

    monkeypatch.setattr(cli.TV, "trace_top_coefficient", off_by_one)
    code, out, err = _run(capsys, ["trace-check", "--input", str(SPEC_DIR / "bkk_p3.spec")])
    assert code == 4
    assert "internal inconsistency" in err and "trace route disagrees" in err


def _trace_samples_by_terms(e, seed):
    """trace-check's samples built one WeylElem per drawn monomial and
    chained with +: the reference for the packed cli._trace_samples."""
    import random

    alg = e.alg
    p = alg.field.p
    rng = random.Random(("trace", seed, p, alg.n).__repr__())
    if e.deg * (p - 1) * alg.nvars <= 10:
        top = alg.const(1)
        for i in range(alg.nvars):
            top = top * e.u(i) ** (p - 1)
    else:
        top = alg.monomial((p - 1,) * alg.nvars, alg.field.one, "k")
    samples = [alg.const(1), top]
    for _ in range(6):
        f = alg.const(0)
        for _ in range(rng.randint(1, 3)):
            exps = tuple(rng.randint(0, p - 1) for _ in range(alg.nvars))
            f = f + alg.monomial(exps, alg.field.from_int(rng.randint(1, p - 1)), "k")
        samples.append(f)
    return samples


def test_trace_samples_equal_the_term_by_term_construction():
    """Seeds 0-3 on every shipped spec (F_9 and n = 2 included) and on
    corpus maps at p in {2, 3, 5, 7}, n in {1, 2}.  At p = 2 every
    coefficient is 1, so a monomial drawn twice cancels and must drop."""
    from weylift import cli
    from weylift.endo import generate_corpus
    from weylift.scalars import FieldParams
    from weylift.weyl import AlgebraParams

    maps = [load_spec(path).endo() for path in sorted(SPEC_DIR.glob("*.spec"))]
    assert len(maps) >= 9
    for p in (2, 3, 5, 7):
        for n in (1, 2):
            maps.extend(generate_corpus(AlgebraParams(n, FieldParams(p)), 3, 11))
    checked = emptied = 0
    for e in maps:
        for seed in range(4):
            got, want = cli._trace_samples(e, seed), _trace_samples_by_terms(e, seed)
            assert [f.terms for f in got] == [f.terms for f in want]
            checked += 1
            emptied += sum(not f for f in want[2:])
    assert checked == 4 * len(maps)
    assert emptied >= 1  # some samples' draws cancelled to 0


def test_verdict_gate_exits_4(capsys, monkeypatch):
    """A symmetry verdict flipped against the obstruction matrix: exit 4."""
    import dataclasses

    from weylift import cli

    solve = cli.DQ.gamma_solution

    def flipped(e):
        sol = solve(e)
        return dataclasses.replace(sol, symmetric=not sol.symmetric)

    monkeypatch.setattr(cli.DQ, "gamma_solution", flipped)
    argv = ["gamma", "--input", str(SPEC_DIR / "bkk_p3.spec"), "--task", "analyze"]
    code, out, err = _run(capsys, argv)
    assert code == 4
    assert "internal inconsistency" in err and "verdicts disagree" in err


def test_lift_of_degree_13_etale_map(capsys, tmp_path):
    """z2 -> z2 + z2^13 at p = 13: a degree-13 lift through the CLI."""
    spec = _write(tmp_path, "e13.spec", "p = 13\nn = 1\nphi.1 = z1\nphi.2 = z2 + z2^13\n")
    start = time.perf_counter()
    code, out, err = _run(capsys, ["lift", "--input", spec])
    assert time.perf_counter() - start < 30
    assert code == 0
    lift = json.loads(out)["lift"]
    assert lift["liftable"] is True and lift["verified"] is True


@pytest.mark.parametrize(
    "images", [["z1", "z2"], ["32748*z3", "32748*z4", "z1", "z2"]], ids=["identity", "swap"]
)
def test_lift_at_p32749_finishes(capsys, tmp_path, images):
    """The identity (n = 1) and the swap z_l -> -z_{n+l}, z_{n+l} -> z_l
    (n = 2) at p = 32749: exit 3 under the default budget, a verified lift
    under a raised one, both within 10 s."""
    text = f"p = 32749\nn = {len(images) // 2}\n"
    text += "".join(f"phi.{i} = {u}\n" for i, u in enumerate(images, 1))
    spec = _write(tmp_path, "big.spec", text)
    start = time.perf_counter()
    code, out, err = _run(capsys, ["lift", "--input", spec])
    assert code == 3 and "budget" in err
    code, out, err = _run(capsys, ["lift", "--input", spec, "--budget", "1" + "0" * 40])
    assert time.perf_counter() - start < 10
    assert code == 0
    lift = json.loads(out)["lift"]
    assert lift["liftable"] is True and lift["verified"] is True


def test_invalid_endomorphism_exits_2(capsys, tmp_path):
    bad = _write(tmp_path, "bad.spec", "p = 3\nn = 1\nphi.1 = z1\nphi.2 = z1\n")
    code, out, err = _run(capsys, ["validate", "--input", bad])
    assert code == 2
    rep = json.loads(out)
    assert rep["validate"]["valid"] is False
    v = rep["validate"]["violation"]
    assert (v["i"], v["j"]) == (1, 2)
    assert v["residual"] == [[[0, 0], 1]]


def test_syntax_error_exits_2(capsys, tmp_path):
    bad = _write(tmp_path, "syn.spec", "p = 3\nn = 1\nphi.1 = z1 +\nphi.2 = z2\n")
    code, out, err = _run(capsys, ["validate", "--input", bad])
    assert code == 2
    assert err == "error: line 3, col 13: expected a generator, integer, or parenthesis\n"
    # a superscript is a digit to str.isdigit but not to int()
    bad = _write(tmp_path, "sup.spec", "p = 3\nn = 1\nphi.1 = z1\u00b2\nphi.2 = z2\n")
    code, out, err = _run(capsys, ["validate", "--input", bad])
    assert code == 2
    assert err == "error: line 3, col 11: unexpected character '\u00b2'\n"


def test_deep_nesting_exits_2(capsys, tmp_path):
    deep = "(" * 3000 + "z1" + ")" * 3000
    bad = _write(tmp_path, "deep.spec", f"p = 3\nn = 1\nphi.1 = {deep}\nphi.2 = z2\n")
    code, out, err = _run(capsys, ["validate", "--input", bad])
    assert code == 2
    assert err == "error: line 3, col 209: parentheses nested deeper than 200\n"


def test_missing_file_exits_2(capsys, tmp_path):
    code, out, err = _run(capsys, ["analyze", "--input", str(tmp_path / "nope.spec")])
    assert code == 2


def test_invalid_utf8_exits_2(capsys, tmp_path):
    bad = tmp_path / "bytes.spec"
    bad.write_bytes(b"p = 3\nn = 1\n# comment\nphi.1 = z1\nphi.2 = z2 \xff\n")
    for task in ("validate", "analyze"):
        code, out, err = _run(capsys, [task, "--input", str(bad)])
        assert code == 2
        assert err == "error: line 5, col 12: invalid UTF-8 byte 0xff\n"


@pytest.mark.parametrize("drop_comment", [False, True])
def test_bom_spec_reports_like_its_copy(capsys, tmp_path, drop_comment):
    """A leading UTF-8 byte order mark, as some editors write, changes
    nothing: before a comment line, and before a first line p = 3."""
    text = (SPEC_DIR / "identity_p3.spec").read_bytes()
    if drop_comment:
        text = text.split(b"\n", 1)[1]
    plain, bom = tmp_path / "plain.spec", tmp_path / "bom.spec"
    plain.write_bytes(text)
    bom.write_bytes(codecs.BOM_UTF8 + text)
    want = _run(capsys, ["validate", "--input", str(plain)])
    assert want[0] == 0
    assert _run(capsys, ["validate", "--input", str(bom)]) == want


@pytest.mark.parametrize(
    "data,where",
    [
        (b"p = 3\nn = 1\n# comment\nphi.1 = z1\nphi.2 = z2 \xff\n", "line 5, col 12"),
        (b"p = 3\nn\xff", "line 2, col 2"),
        (b"p = 3\xff\n", "line 1, col 6"),
    ],
    ids=["line-5", "line-2", "line-1"],
)
def test_invalid_utf8_after_bom_keeps_its_position(capsys, tmp_path, data, where):
    """The bad byte is placed as in the same file without the mark."""
    want = f"error: {where}: invalid UTF-8 byte 0xff\n"
    for prefix in (b"", codecs.BOM_UTF8):
        bad = tmp_path / "bytes.spec"
        bad.write_bytes(prefix + data)
        assert _run(capsys, ["validate", "--input", str(bad)]) == (2, "", want)


def test_budget_exits_3(capsys):
    code, out, err = _run(
        capsys, ["analyze", "--input", str(SPEC_DIR / "bkk_p3.spec"), "--budget", "10"]
    )
    assert code == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--input", str(SPEC_DIR / "etale_i0.spec"), "--budget", "-5"],
        ["analyze", "--input", str(SPEC_DIR / "etale_i0.spec"), "--budget", "0"],
        ["corpus", "--p", "3", "--n", "1", "--count", "-3"],
        ["corpus", "--p", "3", "--n", "1", "--count", "0"],
    ],
)
def test_nonpositive_budget_or_count_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "must be positive" in capsys.readouterr().err


def test_unknown_task_exits_2(capsys):
    code, out, err = _run(
        capsys, ["analyze", "--input", str(SPEC_DIR / "etale_i0.spec"), "--task", "fly"]
    )
    assert code == 2


def test_reports_are_byte_identical(capsys):
    argv = ["gamma", "--input", str(SPEC_DIR / "etale_i1.spec"), "--task", "validate,analyze,lift"]
    code1, out1, _ = _run(capsys, argv)
    code2, out2, _ = _run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "timings" not in json.loads(out1)


def test_timings_flag_adds_section(capsys):
    code, out, _ = _run(
        capsys, ["analyze", "--input", str(SPEC_DIR / "etale_i0.spec"), "--timings"]
    )
    assert code == 0
    assert "timings" in json.loads(out)


def test_json_out_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = _run(
        capsys,
        ["analyze", "--input", str(SPEC_DIR / "etale_i0.spec"), "--json-out", str(target)],
    )
    assert code == 0
    assert out == ""
    rep = json.loads(target.read_text())
    assert rep["schema"] == 1


def test_corpus_subcommand_deterministic(capsys):
    argv = ["corpus", "--p", "3", "--n", "1", "--count", "8", "--seed", "7"]
    code1, out1, _ = _run(capsys, argv)
    code2, out2, _ = _run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    rep = json.loads(out1)
    assert len(rep["entries"]) == 8
    assert rep["all_consistent"] is True
    for entry in rep["entries"]:
        assert entry["liftable"] == entry["poisson"] == entry["symmetric"]


# SHA-256 of each stdout report.  Reports are byte-stable across commits, so
# a change to these bytes must be deliberate and re-recorded here.
GOLDEN_SPEC_DIGESTS = {
    "bkk_p3": {
        ("analyze", "gamma", "lift"): "7af37f925c3a83754666f4029acf21d96f1668484cbd5c060c5f1789873bbfd5",
        ("trace-check",): "94726357ff900a4ae63f4e447eb02f331bca71ef9c263bc29d045cea9a56d564",
    },
    "bkk_p5": {
        ("analyze", "gamma"): "982549f967f2b28a6a7d3d4bce2f771ab4701121683c0eb5b924c43a3c455180",
        ("lift",): "aab91bccaeec12606ac9dcb5beba96e9def42254329f70a39434b3f33d6f3cc4",
        ("trace-check",): "48253ebff12e94b266bb6af204ff30fdeae3664e181bb4f94b4c0ecea3e7dadd",
    },
    # over F_9: coefficients serialize as lists of m = 2 residues
    "etale_f9": {
        ("analyze", "gamma", "lift"): "63de9eee21ad755afc771c32b68ad990c1e72bf1a04a6f47cb5fff13d8496ef6",
    },
    "etale_i0": {
        ("analyze", "gamma", "lift"): "07f9c9160c7cf6d5e477b04679d830ddb28753ca12dda042f4bbf3c5bfdfbd1e",
        ("trace-check",): "4187a46d126653f4fe21cfc5da7f323e0f7548aeb169e055605cd9a9e620dd88",
    },
    "etale_i1": {
        ("analyze", "gamma", "lift"): "11d4e851ddc3ff95fb4687ad457934d0e71498509324704656809e620337e3cb",
        ("trace-check",): "5817257519bbdc8879547505c6181078fbaf4cba39da1d31849ed52319accf74",
    },
    "etale_i2": {
        ("analyze", "gamma", "lift"): "c7aa3192a9741f5ec9905842713e074cb9057ee9260d32245fa5a2c186c1061f",
        ("trace-check",): "1779d8a6054e0e4317ceecce28d42e024102ac08850cc0d95bd19504e5ac8793",
    },
    # p = 31, i = p - 1: obstructed, with ad chains of p - 1 = 30 steps
    "etale_p31": {
        ("analyze", "gamma", "lift"): "eb17f4ddf6617a7715e13efa11704cf13248fb6ff9eae26205105df465109245",
        ("trace-check",): "4b57360cdabf68eef050f17fb28a1b4487e97aed1269310d5afc3af1106a71e5",
    },
    "fourier_p3": {
        ("analyze", "gamma", "lift"): "810a1cc56048bcd2ba3de196aa315f975c402dc2c89cbbf857c4dfeb4a2e98cf",
        ("trace-check",): "63f80640484944c39d2fc78f8749826f9c8dd1a7817c0b4cb3873a926dde461c",
    },
    # a p = 3, n = 2 corpus map, the family that dominates perfbench's lift
    # workload; its corrections v have 40-88 terms
    "map_p3_n2": {
        ("analyze", "gamma", "lift"): "b6f6d3d39ae918a9cefff8c3310cc993b21f5d519f1c9fc626169377cc8e5860",
    },
    "identity_p3": {
        ("analyze", "gamma", "lift", "trace-check"): (
            "839ca9117883d16632d841774b1919f9f0ff14df1c8a08d6fe3ecf1c6acf6605"
        ),
    },
}
# (p, n, count) of ``corpus --seed 7``; the n = 2 corpus carries the largest
# W_2 commutators of the oracle
GOLDEN_CORPUS_DIGESTS = {
    (3, 1, 15): "d19336d7bfab931a398361510f5dea27599282b97f1c99c4ca39747bd4215180",
    (5, 1, 15): "8e7a1b53563ccf3d2af37f126cf2fb09c308c6876a01813a1805b0ee1b6c2036",
    (5, 2, 4): "e4bc964cb9ae7c020167bea5e63d5f00bd13a161742ab2a2a7239cfc6e26c728",
    (2, 1, 15): "ecacd7bf3049ff43e850a8801fbeb40641cb1ea6c06593860d8c28ad9d266bee",
    (3, 2, 10): "ca9824b64538f3e20e88fd9362633f76af75e824d6c3c8cb617814c835bc318e",
}


def _digest(capsys, argv) -> str:
    code, out, _ = _run(capsys, argv)
    assert code == 0
    return hashlib.sha256(out.encode()).hexdigest()


def test_golden_report_digests(capsys):
    """Every shipped spec under every subcommand, and two fixed corpora, report
    byte for byte what they did when the digests were recorded."""
    _check_golden_digests(capsys)


def test_reports_do_not_depend_on_product_term_order(capsys, monkeypatch):
    """The Weyl kernel's output order is not part of any report: with every
    product and every commutator emitting its terms in reverse, all golden
    digests still match."""
    from weylift import weyl

    contract = weyl._contract

    def reversed_contract(A, B, bracket=False):
        out = contract(A, B, bracket)
        return weyl.WeylElem(out.alg, out.ring, dict(reversed(out.terms.items())))

    monkeypatch.setattr(weyl, "_contract", reversed_contract)
    _check_golden_digests(capsys)


def test_corpus_with_vanishing_w2_pairs():
    """corpus p = 5, n = 2, seed 7: when the oracle took W_2 p-th powers,
    most of their W_2 term pairs were two multiples of p (769,560 of 799,839
    in one product).  Visiting them took about 6 s on a 2-CPU Xeon, skipping
    them about 1 s.  The report is byte for byte what it was before the skip
    and before the oracle stopped taking W_2 powers."""
    start = time.perf_counter()
    report, code = run_corpus(5, 2, count=4, seed=7, budget=None, timings=False)
    assert time.perf_counter() - start < 5
    assert code == 0
    text = json.dumps(report, indent=2) + "\n"
    want = "e4bc964cb9ae7c020167bea5e63d5f00bd13a161742ab2a2a7239cfc6e26c728"
    assert hashlib.sha256(text.encode()).hexdigest() == want


@pytest.mark.parametrize("p, n", [(3, 2), (5, 1)])
def test_corpus_takes_one_p_th_power_per_image(monkeypatch, p, n):
    """The center images and the W_2 oracle share one p-th power over k of
    each image; the oracle takes no W_2 power."""
    from weylift.weyl import WeylElem

    rings = []
    p_power = WeylElem.p_power

    def counted(self):
        rings.append(self.ring)
        return p_power(self)

    monkeypatch.setattr(WeylElem, "p_power", counted)
    _, code = run_corpus(p, n, 5, 7, None, False)
    assert code == 0
    assert rings == ["k"] * (5 * 2 * n)


def test_runs_leave_no_reference_cycles():
    """A pipeline run and a corpus run leave nothing for the cyclic collector:
    the expansion's peel, its Horner step and Endo.power are plain calls, not
    self-referencing closures, whose function-cell cycles kept every
    intermediate alive until the collector ran.  etale_i0's lift runs the
    peel (the identity's obstruction 2-form is zero); the corpus's
    compositions fill the power cache through apply, its one reader."""
    specs = [load_spec(SPEC_DIR / f"{name}.spec") for name in ("identity_p3", "etale_i0")]
    gc.collect()
    gc.disable()
    try:
        assert run(specs[0], list(KNOWN_TASKS))[1] == 0
        assert run(specs[1], ["lift"])[1] == 0
        assert run_corpus(3, 2, 4, 7, None, False)[1] == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


def _check_golden_digests(capsys) -> None:
    assert sorted(GOLDEN_SPEC_DIGESTS) == sorted(p.stem for p in SPEC_DIR.glob("*.spec"))
    for name, by_command in GOLDEN_SPEC_DIGESTS.items():
        for commands, want in by_command.items():
            for command in commands:
                argv = [command, "--input", str(SPEC_DIR / f"{name}.spec")]
                assert _digest(capsys, argv) == want, argv
    for (p, n, count), want in GOLDEN_CORPUS_DIGESTS.items():
        argv = ["corpus", "--p", str(p), "--n", str(n), "--count", str(count), "--seed", "7"]
        assert _digest(capsys, argv) == want, argv


def test_selftest_subcommand(capsys):
    code, out, err = _run(capsys, ["selftest"])
    assert code == 0
    rep = json.loads(out)
    assert rep["all_ok"] is True
    assert [f["name"] for f in rep["fixtures"]] == [
        "witt-ring",
        "normal-order",
        "bkk",
        "etale-family",
        "obstruction-witness",
        "trace",
        "parser",
    ]


def test_selftest_takes_no_budget_or_seed(capsys):
    """selftest runs fixed examples: it takes only --json-out and --timings."""
    for flag in ("--budget", "--seed"):
        with pytest.raises(SystemExit) as exc:
            main(["selftest", flag, "5"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_console_script_entry():
    r = subprocess.run(
        [sys.executable, "-m", "weylift.cli", "validate", "--input", str(SPEC_DIR / "identity_p3.spec")],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0
    assert json.loads(r.stdout)["validate"]["valid"] is True


def test_module_entry_from_source_tree():
    """python -m weylift runs the CLI with only the source tree on the path."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    r = subprocess.run(
        [sys.executable, "-m", "weylift", "validate", "--input", str(SPEC_DIR / "identity_p3.spec")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["validate"]["valid"] is True


_IMPORT_PROBE = """
import importlib, pkgutil, sys
before = set(sys.modules)
import weylift
for info in pkgutil.iter_modules(weylift.__path__):
    importlib.import_module("weylift." + info.name)
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(sorted(loaded - set(sys.stdlib_module_names) - {"weylift"}))
"""


def test_library_imports_only_the_standard_library():
    """Every weylift module imports under python -S, pulling in no third-party module."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    r = subprocess.run(
        [sys.executable, "-S", "-c", _IMPORT_PROBE],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"
