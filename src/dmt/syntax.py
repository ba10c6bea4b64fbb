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

AST nodes are hash-consed (Filliâtre & Conchon, "Type-safe modular
hash-consing", 2006): calling a node class returns the node already
built from the same class and fields while it is alive, found through
one weak table, `_TABLE`.  Two equal formulas are therefore one object:
equality is identity, hashing is O(1), and other modules key memos and
groupings on the nodes themselves.  A formula with shared subformulas,
such as the desugaring of a `<->` chain, is a DAG whose size is its
number of distinct nodes.
"""

from __future__ import annotations

import re
import weakref
from typing import Union

IDENT_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9_]*")


# ---------------------------------------------------------------------------
# AST

# (class, *fields) -> the one node with those fields; weak, so that
# formulas nobody holds are dropped from it
_TABLE = weakref.WeakValueDictionary()


class _Node:
    """An interned, immutable AST node; see the module docstring."""

    __slots__ = ("__weakref__",)
    _fields = ()

    def __new__(cls, *args):
        key = (cls, *args)
        node = _TABLE.get(key)
        if node is None:
            node = object.__new__(cls)
            for name, value in zip(cls._fields, args, strict=True):
                object.__setattr__(node, name, value)
            _TABLE[key] = node
        return node

    def __setattr__(self, *args):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        # copies and unpickled nodes go through the table too
        return type(self), tuple(getattr(self, n) for n in self._fields)

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__name__}({fields})"


class Atom(_Node):
    __slots__ = _fields = ("name",)


class Bottom(_Node):
    __slots__ = ()


class Top(_Node):
    __slots__ = ()


class Not(_Node):
    __slots__ = _fields = ("operand",)


class And(_Node):
    __slots__ = _fields = ("left", "right")


class Or(_Node):
    __slots__ = _fields = ("left", "right")


class Implies(_Node):
    __slots__ = _fields = ("left", "right")


class Iff(_Node):
    __slots__ = _fields = ("left", "right")


class Box(_Node):
    __slots__ = _fields = ("modality", "operand")


class Dia(_Node):
    __slots__ = _fields = ("modality", "operand")


class DefBox(_Node):
    __slots__ = _fields = ("modality", "operand")


class DefDia(_Node):
    __slots__ = _fields = ("modality", "operand")


Formula = Union[
    Atom, Bottom, Top, Not, And, Or, Implies, Iff, Box, Dia, DefBox, DefDia
]

BINARY = (And, Or, Implies, Iff)
MODAL = (Box, Dia, DefBox, DefDia)


class Plain(_Node):
    __slots__ = _fields = ("formula",)


class Conditional(_Node):
    __slots__ = _fields = ("antecedent", "consequent")


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
        a, b = desugar(f.left), desugar(f.right)
        return And(Not(And(a, Not(b))), Not(And(b, Not(a))))
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
    """True iff f is in the core fragment that `desugar` produces."""
    core = (Atom, Bottom, Not, And, Box, DefBox)
    return all(isinstance(g, core) for g in subformulas(f))


def is_classical(f: Formula) -> bool:
    """True iff f contains no defeasible modality."""
    return not any(isinstance(g, (DefBox, DefDia)) for g in subformulas(f))


def children(f: Formula) -> tuple:
    if isinstance(f, BINARY):
        return (f.left, f.right)
    if isinstance(f, Not) or isinstance(f, MODAL):
        return (f.operand,)
    return ()


def subformulas(*roots: Formula) -> set:
    """All distinct subformulas of the roots, the roots included."""
    out = set()
    stack = list(roots)
    while stack:
        g = stack.pop()
        if g not in out:
            out.add(g)
            stack.extend(children(g))
    return out


def _bottom_up(f, combine):
    """combine(g, the values of g's children) for each distinct node g of
    f, children first, without recursion; the value at f."""
    value = {}
    stack = [f]
    while stack:
        g = stack[-1]
        kids = children(g)
        pending = [k for k in kids if k not in value]
        if pending:
            stack.extend(pending)
        else:
            stack.pop()
            value[g] = combine(g, [value[k] for k in kids])
    return value[f]


def size(f: Formula) -> int:
    """The number of nodes of f as a tree: a shared subformula counts
    once per occurrence."""
    return _bottom_up(f, lambda g, sizes: 1 + sum(sizes))


def modal_depth(f: Formula) -> int:
    return _bottom_up(
        f, lambda g, depths: max(depths, default=0) + isinstance(g, MODAL))


def atoms_of(*roots: Formula) -> set:
    return {g.name for g in subformulas(*roots) if isinstance(g, Atom)}


def modalities_of(*roots: Formula) -> set:
    return {g.modality for g in subformulas(*roots) if isinstance(g, MODAL)}
