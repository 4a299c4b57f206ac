"""Expression grammar, deterministic printing, and endomorphism spec files."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from weylift.endo import bkk_family, etale_family, fourier, identity_endo
from weylift.errors import ParseError, UnknownVariable, WeyliftError
from weylift.parser import (
    MAX_NESTING,
    SpecFile,
    format_coeff,
    format_elem,
    load_spec,
    parse_expr,
    parse_spec_text,
)
from weylift.scalars import FieldParams, Witt2
from weylift.weyl import AlgebraParams, WeylElem

SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"


def _rand_elem(alg, rng, max_deg=5, max_terms=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_deg) for _ in range(alg.nvars))
        terms[exps] = alg.field.from_int(rng.randint(1, alg.field.p - 1))
    return WeylElem(alg, "k", terms)


def test_round_trip_500_random_elements():
    cells = [(3, 1), (3, 2), (5, 1), (2, 2), (7, 1)]
    count = 0
    for p, n in cells:
        alg = AlgebraParams(n, FieldParams(p))
        rng = random.Random(("roundtrip", p, n).__repr__())
        for _ in range(100):
            f = _rand_elem(alg, rng)
            printed = format_elem(f)
            assert parse_expr(alg, printed) == f
            # printing is deterministic
            assert format_elem(f) == printed
            count += 1
    assert count == 500


def test_grammar_examples(a1_f3):
    one = a1_f3.field.one
    two = a1_f3.field.from_int(2)
    assert parse_expr(a1_f3, "z1") == a1_f3.gen(0)
    assert parse_expr(a1_f3, "z1*z2") == a1_f3.monomial((1, 1))
    assert parse_expr(a1_f3, "z2*z1") == a1_f3.gen(0) * a1_f3.gen(1) + a1_f3.const(1)
    assert parse_expr(a1_f3, "z1^2") == a1_f3.monomial((2, 0))
    assert parse_expr(a1_f3, "2") == WeylElem(a1_f3, "k", {(0, 0): two})
    assert parse_expr(a1_f3, "2^2") == WeylElem(a1_f3, "k", {(0, 0): one})  # 4 = 1 mod 3
    assert parse_expr(a1_f3, "(z1+z2)^2") == (a1_f3.gen(0) + a1_f3.gen(1)) ** 2
    assert parse_expr(a1_f3, "z1 - z1").is_zero()
    assert parse_expr(a1_f3, "1 - 2*z1") == a1_f3.const(1) - a1_f3.gen(0).scale(two)


def test_grammar_precedence(a1_f3):
    # '^' binds tighter than '*', which binds tighter than '+'
    assert parse_expr(a1_f3, "z1*z2^2") == a1_f3.monomial((1, 2))
    assert parse_expr(a1_f3, "z1+z2*z1^2") != (a1_f3.gen(0) + a1_f3.gen(1)) * a1_f3.monomial((2, 0))


def test_juxtaposition_is_an_error(a1_f3):
    with pytest.raises(ParseError):
        parse_expr(a1_f3, "z1 z2")
    with pytest.raises(ParseError):
        parse_expr(a1_f3, "2 z1")


def test_unknown_variable_indices(a1_f3):
    with pytest.raises(UnknownVariable):
        parse_expr(a1_f3, "z0")
    with pytest.raises(UnknownVariable):
        parse_expr(a1_f3, "z3")  # n=1 has only z1, z2


def test_error_positions(a1_f3):
    with pytest.raises(ParseError) as exc:
        parse_expr(a1_f3, "z1 + + z2")
    assert exc.value.col == 6
    with pytest.raises(ParseError):
        parse_expr(a1_f3, "(z1 + z2")
    with pytest.raises(ParseError):
        parse_expr(a1_f3, "")
    with pytest.raises(ParseError):
        parse_expr(a1_f3, "z1^")
    # str.isdigit accepts superscripts and circled digits, which int() cannot read
    for src, col, msg in (
        ("z1\u00b2", 3, "unexpected character '\u00b2'"),
        ("z\u00b2", 1, "generator needs an index, like z1"),
        ("\u2460*z1", 1, "unexpected character '\u2460'"),
    ):
        with pytest.raises(ParseError) as exc:
            parse_expr(a1_f3, src)
        assert (exc.value.line, exc.value.col, exc.value.message) == (1, col, msg)


def test_nesting_depth_is_bounded(a1_f3):
    """200 nested parentheses parse; the 201st raises a ParseError at its
    own position instead of exhausting the interpreter's stack."""
    assert parse_expr(a1_f3, "(" * MAX_NESTING + "z1" + ")" * MAX_NESTING) == a1_f3.gen(0)
    with pytest.raises(ParseError) as exc:
        parse_expr(a1_f3, "z2 + " + "(" * 3000 + "z1" + ")" * 3000)
    assert (exc.value.line, exc.value.col) == (1, 6 + MAX_NESTING)


def test_format_coeff_accepts_only_field_elements():
    """A Witt vector also stores residues in coeffs; it has no literal and raises."""
    field = FieldParams(3)
    assert format_coeff(field.from_int(2)) == "2"
    for c in (field.w2_from_int(2), Witt2(field.one, field.one), 2):
        with pytest.raises(WeyliftError):
            format_coeff(c)


def test_spec_files_parse_to_intended_images():
    f3 = FieldParams(3)
    f5 = FieldParams(5)
    a1 = AlgebraParams(1, f3)
    a2 = AlgebraParams(2, f3)
    b2 = AlgebraParams(2, f5)
    expectations = {
        "bkk_p3.spec": bkk_family(a2, 2, f3.one).images,
        "bkk_p5.spec": bkk_family(b2, 4, f5.one).images,
        "etale_i0.spec": etale_family(a1, 0, f3.one).images,
        "etale_i1.spec": etale_family(a1, 1, f3.one).images,
        "etale_i2.spec": etale_family(a1, 2, f3.one).images,
        "identity_p3.spec": identity_endo(a2).images,
        "fourier_p3.spec": fourier(a1).images,
    }
    for name, images in expectations.items():
        sf = load_spec(str(SPEC_DIR / name))
        e = sf.endo()
        assert e.images == images, name


def test_spec_text_minimal():
    sf = parse_spec_text("p = 3\nn = 1\nphi.1 = z1\nphi.2 = z2\n")
    assert sf.field.p == 3 and sf.n == 1
    assert sf.tasks is None  # the command line supplies the default task list
    assert sf.budget is None
    e = sf.endo()
    assert e.images[0] == e.alg.gen(0)


def test_spec_text_field_form():
    sf = parse_spec_text("field = 3 2 1 0 1\nn = 1\nphi.1 = z1\nphi.2 = z2\n")
    assert sf.field.p == 3 and sf.field.m == 2
    assert sf.field.modulus == (1, 0, 1)


def test_spec_text_budget_and_tasks():
    sf = parse_spec_text(
        "p = 3\nn = 1\nphi.1 = z1\nphi.2 = z2\nbudget = 500\ntasks = analyze, gamma\n"
    )
    assert sf.budget == 500
    assert sf.tasks == ["analyze", "gamma"]


@pytest.mark.parametrize(
    "text",
    [
        "p = 3\nn = 1\nphi.1 = z1\n",  # missing phi.2
        "p = 3\np = 3\nn = 1\nphi.1 = z1\nphi.2 = z2\n",  # duplicate key
        "p = 3\nn = 1\nphi.1 = z1\nphi.2 = z2\nwhat = 1\n",  # unknown key
        "p = 4\nn = 1\nphi.1 = z1\nphi.2 = z2\n",  # p not prime
        "p = 3\nfield = 5\nn = 1\nphi.1 = z1\nphi.2 = z2\n",  # p/field conflict
        "p = 3\nn = 1\nphi.1 = z1\nphi.2 = z2\ntasks = dance\n",  # unknown task
        "n = 1\nphi.1 = z1\nphi.2 = z2\n",  # no field at all
    ],
)
def test_spec_text_rejects(text):
    with pytest.raises(ParseError):
        parse_spec_text(text)


def test_spec_bad_generator_index_surfaces_at_endo():
    # phi expressions are parsed lazily so positions can point into the file
    sf = parse_spec_text("p = 3\nn = 1\nphi.1 = z0\nphi.2 = z2\n")
    with pytest.raises(UnknownVariable):
        sf.endo()


def test_spec_error_position_points_into_file():
    text = "# header\np = 3\nn = 1\nphi.1 = z1 + + z2\nphi.2 = z2\n"
    with pytest.raises(ParseError) as exc:
        parse_spec_text(text).endo()
    assert exc.value.line == 4


def test_comments_and_blank_lines_ignored():
    sf = parse_spec_text(
        "# a comment\n\np = 3\n  # another\nn = 1\nphi.1 = z1\nphi.2 = z2\n"
    )
    assert sf.field.p == 3
