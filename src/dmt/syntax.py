"""Formula ASTs, concrete syntax, and structural helpers.

The surface language is ASCII:

    ~ a        negation               [i] a      box (necessity)
    a & b      conjunction            <i> a      diamond (possibility)
    a | b      disjunction            [[i]] a    defeasible box ("flag")
    a -> b     implication            <<i>> a    defeasible diamond ("flame")
    a <-> b    equivalence            true / false
    a |~ b     defeasible conditional (statements only, no nesting)

Precedence: unary operators bind tightest, then &, then |, then ->
(right-associative), then <->.  "#" starts a comment to end of line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

IDENT_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9_]*")


# ---------------------------------------------------------------------------
# AST

@dataclass(frozen=True)
class Atom:
    name: str


@dataclass(frozen=True)
class Bottom:
    pass


@dataclass(frozen=True)
class Top:
    pass


@dataclass(frozen=True)
class Not:
    operand: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Iff:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Box:
    modality: str
    operand: "Formula"


@dataclass(frozen=True)
class Dia:
    modality: str
    operand: "Formula"


@dataclass(frozen=True)
class DefBox:
    modality: str
    operand: "Formula"


@dataclass(frozen=True)
class DefDia:
    modality: str
    operand: "Formula"


Formula = Union[
    Atom, Bottom, Top, Not, And, Or, Implies, Iff, Box, Dia, DefBox, DefDia
]

BINARY = (And, Or, Implies, Iff)
MODAL = (Box, Dia, DefBox, DefDia)


@dataclass(frozen=True)
class Plain:
    formula: Formula


@dataclass(frozen=True)
class Conditional:
    antecedent: Formula
    consequent: Formula


Statement = Union[Plain, Conditional]


class SyntaxError_(ValueError):
    """Parse failure, with a 1-based line/column position."""

    def __init__(self, message, line, column):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


# ---------------------------------------------------------------------------
# Tokenizer

_PUNCT = ["<->", "->", "|~", "[[", "]]", "<<", ">>",
          "[", "]", "<", ">", "(", ")", "~", "&", "|"]

_TOKEN_RE = re.compile(
    "|".join(re.escape(p) for p in _PUNCT) + r"|[a-zA-Z][a-zA-Z0-9_]*"
)


def _tokenize(text):
    """Yield (kind, value, line, col); longest match wins by regex order."""
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            j = text.find("\n", i)
            if j < 0:
                break
            col += j - i
            i = j
            continue
        m = _TOKEN_RE.match(text, i)
        if not m:
            raise SyntaxError_(f"unexpected character {ch!r}", line, col)
        value = m.group(0)
        kind = "ident" if value[0].isalpha() else value
        if value in ("true", "false"):
            kind = value
        tokens.append((kind, value, line, col))
        col += len(value)
        i = m.end()
    tokens.append(("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.peek()
        if tok[0] != kind:
            self.fail([kind])
        return self.next()

    def fail(self, expected):
        kind, value, line, col = self.peek()
        got = "end of input" if kind == "eof" else repr(value)
        raise SyntaxError_(
            f"unexpected {got}, expected one of: {', '.join(sorted(expected))}",
            line, col)

    # formula := iff ; iff := imp ("<->" imp)*
    def formula(self):
        f = self.imp()
        while self.peek()[0] == "<->":
            self.next()
            f = Iff(f, self.imp())
        return f

    # imp := or ("->" imp)?   (right-associative)
    def imp(self):
        f = self.or_()
        if self.peek()[0] == "->":
            self.next()
            return Implies(f, self.imp())
        return f

    def or_(self):
        f = self.and_()
        while self.peek()[0] == "|":
            self.next()
            f = Or(f, self.and_())
        return f

    def and_(self):
        f = self.unary()
        while self.peek()[0] == "&":
            self.next()
            f = And(f, self.unary())
        return f

    def unary(self):
        kind, value, line, col = self.peek()
        if kind == "~":
            self.next()
            return Not(self.unary())
        if kind == "[[":
            self.next()
            name = self.expect("ident")[1]
            self.expect("]]")
            return DefBox(name, self.unary())
        if kind == "<<":
            self.next()
            name = self.expect("ident")[1]
            self.expect(">>")
            return DefDia(name, self.unary())
        if kind == "[":
            self.next()
            name = self.expect("ident")[1]
            self.expect("]")
            return Box(name, self.unary())
        if kind == "<":
            self.next()
            name = self.expect("ident")[1]
            self.expect(">")
            return Dia(name, self.unary())
        if kind == "true":
            self.next()
            return Top()
        if kind == "false":
            self.next()
            return Bottom()
        if kind == "ident":
            self.next()
            return Atom(value)
        if kind == "(":
            self.next()
            f = self.formula()
            self.expect(")")
            return f
        self.fail(["~", "[", "<", "[[", "<<", "true", "false",
                   "identifier", "("])

    def statement(self):
        f = self.formula()
        if self.peek()[0] == "|~":
            self.next()
            g = self.formula()
            if self.peek()[0] == "|~":
                self.fail(["end of input"])
            return Conditional(f, g)
        return Plain(f)


def parse_formula(text: str) -> Formula:
    p = _Parser(text)
    f = p.formula()
    if p.peek()[0] != "eof":
        p.fail(["end of input"])
    return f


def parse_statement(text: str) -> Statement:
    p = _Parser(text)
    s = p.statement()
    if p.peek()[0] != "eof":
        p.fail(["end of input"])
    return s


# ---------------------------------------------------------------------------
# Pretty-printing

_PREC_IFF = 1
_PREC_IMP = 2
_PREC_OR = 3
_PREC_AND = 4
_PREC_UNARY = 5


def _render(f, parent_prec):
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Top):
        return "true"
    if isinstance(f, Bottom):
        return "false"
    if isinstance(f, Not):
        return "~" + _render(f.operand, _PREC_UNARY)
    if isinstance(f, Box):
        return f"[{f.modality}]" + _render(f.operand, _PREC_UNARY)
    if isinstance(f, Dia):
        return f"<{f.modality}>" + _render(f.operand, _PREC_UNARY)
    if isinstance(f, DefBox):
        return f"[[{f.modality}]]" + _render(f.operand, _PREC_UNARY)
    if isinstance(f, DefDia):
        return f"<<{f.modality}>>" + _render(f.operand, _PREC_UNARY)
    if isinstance(f, And):
        # left-associative: right child needs parens at equal precedence
        s = (_render(f.left, _PREC_AND) + " & "
             + _render(f.right, _PREC_AND + 1))
        prec = _PREC_AND
    elif isinstance(f, Or):
        s = (_render(f.left, _PREC_OR) + " | "
             + _render(f.right, _PREC_OR + 1))
        prec = _PREC_OR
    elif isinstance(f, Implies):
        # right-associative
        s = (_render(f.left, _PREC_IMP + 1) + " -> "
             + _render(f.right, _PREC_IMP))
        prec = _PREC_IMP
    elif isinstance(f, Iff):
        s = (_render(f.left, _PREC_IFF) + " <-> "
             + _render(f.right, _PREC_IFF + 1))
        prec = _PREC_IFF
    else:
        raise TypeError(f"not a formula: {f!r}")
    if prec < parent_prec:
        return "(" + s + ")"
    return s


def render_formula(f: Formula) -> str:
    """Minimal-parenthesization rendering; re-parses to an equal AST."""
    return _render(f, 0)


def render_statement(s: Statement) -> str:
    if isinstance(s, Conditional):
        return f"{render_formula(s.antecedent)} |~ {render_formula(s.consequent)}"
    return render_formula(s.formula)


# ---------------------------------------------------------------------------
# Structural operations

def desugar(f: Formula) -> Formula:
    """Rewrite into the core fragment: Atom, Bottom, Not, And, Box, DefBox.

    Diamonds are eliminated by duality, the defeasible diamond by the dual
    of the defeasible box; Top becomes ~false.  Bottom is kept primitive
    because branch closure is defined on it directly.
    """
    if isinstance(f, (Atom, Bottom)):
        return f
    if isinstance(f, Top):
        return Not(Bottom())
    if isinstance(f, Not):
        return Not(desugar(f.operand))
    if isinstance(f, And):
        return And(desugar(f.left), desugar(f.right))
    if isinstance(f, Or):
        return Not(And(Not(desugar(f.left)), Not(desugar(f.right))))
    if isinstance(f, Implies):
        return Not(And(desugar(f.left), Not(desugar(f.right))))
    if isinstance(f, Iff):
        return And(desugar(Implies(f.left, f.right)),
                   desugar(Implies(f.right, f.left)))
    if isinstance(f, Box):
        return Box(f.modality, desugar(f.operand))
    if isinstance(f, Dia):
        return Not(Box(f.modality, Not(desugar(f.operand))))
    if isinstance(f, DefBox):
        return DefBox(f.modality, desugar(f.operand))
    if isinstance(f, DefDia):
        return Not(DefBox(f.modality, Not(desugar(f.operand))))
    raise TypeError(f"not a formula: {f!r}")


def is_core(f: Formula) -> bool:
    if isinstance(f, (Atom, Bottom)):
        return True
    if isinstance(f, Not):
        return is_core(f.operand)
    if isinstance(f, And):
        return is_core(f.left) and is_core(f.right)
    if isinstance(f, (Box, DefBox)):
        return is_core(f.operand)
    return False


def is_classical(f: Formula) -> bool:
    """True iff f contains no defeasible modality."""
    if isinstance(f, (DefBox, DefDia)):
        return False
    return all(is_classical(g) for g in children(f))


def children(f: Formula) -> tuple:
    if isinstance(f, BINARY):
        return (f.left, f.right)
    if isinstance(f, Not) or isinstance(f, MODAL):
        return (f.operand,)
    return ()


def subformulas(f: Formula) -> set:
    """All subtrees of f, including f itself."""
    out = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if g not in out:
            out.add(g)
            stack.extend(children(g))
    return out


def size(f: Formula) -> int:
    return 1 + sum(size(g) for g in children(f))


def modal_depth(f: Formula) -> int:
    if isinstance(f, MODAL):
        return 1 + modal_depth(f.operand)
    if isinstance(f, Not):
        return modal_depth(f.operand)
    if isinstance(f, BINARY):
        return max(modal_depth(f.left), modal_depth(f.right))
    return 0


def atoms_of(f: Formula) -> set:
    if isinstance(f, Atom):
        return {f.name}
    out = set()
    for g in children(f):
        out |= atoms_of(g)
    return out


def modalities_of(f: Formula) -> set:
    out = set()
    if isinstance(f, MODAL):
        out.add(f.modality)
    for g in children(f):
        out |= modalities_of(g)
    return out
