"""Expression grammar, canonical printing, and spec-file reading.

Expression grammar (explicit `*`, no juxtaposition):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' uint)?
    atom   := 'z' uint | uint | '(' expr ')'

Products are noncommutative and evaluated left to right with normal
ordering applied on the fly.  Spec files are UTF-8 key=value lines with
keys p, n, field, phi.1 .. phi.2n, budget, tasks; `#` starts a comment.
"""

from __future__ import annotations

import codecs
from dataclasses import dataclass

from .endo import Endo
from .errors import ParseError, UnknownVariable, WeyliftError
from .scalars import FieldParams
from .weyl import AlgebraParams, WeylElem


# ---------------------------------------------------------------------------
# tokenizer


_PUNCT = {"+": "PLUS", "-": "MINUS", "*": "STAR", "^": "CARET", "(": "LP", ")": "RP"}


@dataclass
class _Token:
    kind: str
    value: int | None
    line: int
    col: int


def _tokenize(src: str) -> list[_Token]:
    toks = []
    line, col = 1, 1
    i = 0
    while i < len(src):
        ch = src[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            col += 1
            i += 1
            continue
        if ch in _PUNCT:
            toks.append(_Token(_PUNCT[ch], None, line, col))
            col += 1
            i += 1
            continue
        if ch == "z":
            j = i + 1
            while j < len(src) and src[j].isdecimal():
                j += 1
            if j == i + 1:
                raise ParseError("generator needs an index, like z1", line, col)
            toks.append(_Token("GEN", int(src[i + 1 : j]), line, col))
            col += j - i
            i = j
            continue
        if ch.isdecimal():
            j = i
            while j < len(src) and src[j].isdecimal():
                j += 1
            toks.append(_Token("INT", int(src[i:j]), line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(_Token("EOF", None, line, col))
    return toks


# ---------------------------------------------------------------------------
# recursive descent


# Deeper nesting is rejected with a ParseError: each level takes four Python
# frames, and about 250 levels reach the interpreter's recursion limit.
MAX_NESTING = 200


class _Parser:
    def __init__(self, alg: AlgebraParams, toks: list[_Token]):
        self.alg = alg
        self.toks = toks
        self.pos = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def take(self) -> _Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str, what: str) -> _Token:
        t = self.take()
        if t.kind != kind:
            raise ParseError(f"expected {what}", t.line, t.col)
        return t

    def parse(self) -> WeylElem:
        v = self.expr()
        t = self.peek()
        if t.kind != "EOF":
            raise ParseError("expected end of expression", t.line, t.col)
        return v

    def expr(self) -> WeylElem:
        v = self.term()
        while self.peek().kind in ("PLUS", "MINUS"):
            op = self.take()
            w = self.term()
            v = v + w if op.kind == "PLUS" else v - w
        return v

    def term(self) -> WeylElem:
        v = self.factor()
        while self.peek().kind == "STAR":
            self.take()
            v = v * self.factor()
        return v

    def factor(self) -> WeylElem:
        v = self.atom()
        if self.peek().kind == "CARET":
            self.take()
            t = self.expect("INT", "a nonnegative integer exponent")
            v = v**t.value
        return v

    def atom(self) -> WeylElem:
        t = self.take()
        if t.kind == "GEN":
            if not 1 <= t.value <= self.alg.nvars:
                raise UnknownVariable(
                    f"z{t.value} is out of range for n={self.alg.n} (have z1..z{self.alg.nvars})",
                    t.line,
                    t.col,
                )
            return self.alg.gen(t.value - 1)
        if t.kind == "INT":
            return self.alg.const(t.value)
        if t.kind == "LP":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", t.line, t.col)
            self.depth += 1
            v = self.expr()
            self.expect("RP", "a closing parenthesis")
            self.depth -= 1
            return v
        raise ParseError("expected a generator, integer, or parenthesis", t.line, t.col)


def parse_expr(alg: AlgebraParams, src: str) -> WeylElem:
    """Parse an expression in the grammar into a normal-ordered element over k."""
    return _Parser(alg, _tokenize(src)).parse()


# ---------------------------------------------------------------------------
# canonical printing (inverse of parse_expr on its image)


def format_elem(f: WeylElem) -> str:
    """Deterministic in-grammar rendering; parse_expr(format_elem(f)) == f.

    Terms come in ascending exponent order as c*z1^e1*..., "0" when empty;
    each coefficient is read off its residue's digits, as cli.ser_elem does.
    """
    if f.ring != "k":
        raise WeyliftError("only elements over k can be rendered in the grammar")
    digits = f.ctx.res.digits
    parts = []
    for exps, r in sorted(f._items()):
        c, *rest = digits(r)
        if any(rest):
            raise WeyliftError("extension-field coefficient has no in-grammar rendering")
        bits = [str(c)] if c != 1 or not any(exps) else []
        bits += [f"z{i + 1}" + (f"^{x}" if x > 1 else "") for i, x in enumerate(exps) if x]
        parts.append("*".join(bits))
    return " + ".join(parts) or "0"


# ---------------------------------------------------------------------------
# spec files


KNOWN_TASKS = ("validate", "analyze", "gamma", "lift", "trace-check")


@dataclass
class SpecFile:
    """A parsed endomorphism specification."""

    field: FieldParams
    n: int
    phi_src: list[str]
    phi_pos: list[tuple]
    budget: int | None
    tasks: list[str] | None

    def algebra(self) -> AlgebraParams:
        return AlgebraParams(self.n, self.field)

    def endo(self) -> Endo:
        alg = self.algebra()
        images = []
        for src, (line, colbase) in zip(self.phi_src, self.phi_pos):
            try:
                images.append(parse_expr(alg, src))
            except ParseError as ex:
                raise type(ex)(ex.message, line, colbase + ex.col - 1) from None
        return Endo(alg, images)


def parse_spec_text(text: str) -> SpecFile:
    """Parse key=value spec text; raises ParseError with file positions."""
    entries: dict = {}
    positions: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0]
        if not stripped.strip():
            continue
        if "=" not in stripped:
            raise ParseError("expected key = value", lineno, 1)
        key, value = stripped.split("=", 1)
        keyname = key.strip()
        if not keyname:
            raise ParseError("empty key", lineno, 1)
        if keyname in entries:
            raise ParseError(f"duplicate key {keyname!r}", lineno, 1)
        valcol = len(key) + 2 + (len(value) - len(value.lstrip()))
        entries[keyname] = value.strip()
        positions[keyname] = (lineno, valcol)

    def bad(key: str, msg: str) -> ParseError:
        line, col = positions.get(key, (1, 1))
        return ParseError(msg, line, col)

    def take_int(key: str) -> int | None:
        if key not in entries:
            return None
        try:
            return int(entries.pop(key))
        except ValueError:
            raise bad(key, f"{key} must be an integer") from None

    p = take_int("p")
    n = take_int("n")
    if n is None:
        raise ParseError("missing required key n", 1, 1)
    if n < 1:
        raise bad("n", "n must be at least 1")
    field_spec = entries.pop("field", None)
    if field_spec is not None:
        words = field_spec.split()
        try:
            nums = [int(w) for w in words]
        except ValueError:
            raise bad("field", "field must be integers: p, or p m c0..cm") from None
        try:
            if len(nums) == 1:
                field = FieldParams(nums[0])
            elif len(nums) >= 3 and len(nums) == nums[1] + 3:
                field = FieldParams(nums[0], nums[1], tuple(nums[2:]))
            else:
                raise WeyliftError("field must be p, or p m c0..cm with m+1 coefficients")
        except ParseError:
            raise
        except WeyliftError as ex:
            raise bad("field", str(ex)) from None
        if p is not None and p != field.p:
            raise bad("field", f"field characteristic {field.p} conflicts with p={p}")
    elif p is not None:
        try:
            field = FieldParams(p)
        except WeyliftError as ex:
            raise bad("p", str(ex)) from None
    else:
        raise ParseError("missing required key p (or field)", 1, 1)
    phi_src = []
    phi_pos = []
    for i in range(1, 2 * n + 1):
        key = f"phi.{i}"
        if key not in entries:
            raise ParseError(f"missing required key {key}", 1, 1)
        phi_src.append(entries.pop(key))
        phi_pos.append(positions[key])
    budget = take_int("budget")
    if budget is not None and budget < 1:
        raise bad("budget", "budget must be positive")
    tasks = None
    if "tasks" in entries:
        tasks = [t.strip() for t in entries.pop("tasks").split(",") if t.strip()]
        for t in tasks:
            if t not in KNOWN_TASKS:
                raise bad("tasks", f"unknown task {t!r} (known: {', '.join(KNOWN_TASKS)})")
        if not tasks:
            tasks = None
    if entries:
        stray = sorted(entries)[0]
        raise bad(stray, f"unknown key {stray!r}")
    return SpecFile(field=field, n=n, phi_src=phi_src, phi_pos=phi_pos, budget=budget, tasks=tasks)


def load_spec(path: str) -> SpecFile:
    """Read and parse a spec file; a leading UTF-8 byte order mark is dropped
    and a byte that is not UTF-8 is a ParseError."""
    with open(path, "rb") as fh:
        data = fh.read().removeprefix(codecs.BOM_UTF8)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as ex:
        # "x" marks the bad byte, so its line and column count as parse_spec_text counts
        lines = (data[: ex.start].decode("utf-8") + "x").splitlines()
        raise ParseError(
            f"invalid UTF-8 byte {data[ex.start]:#04x}", len(lines), len(lines[-1])
        ) from None
    return parse_spec_text(text)
