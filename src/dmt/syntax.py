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

Two tables are the single source of the operators' concrete syntax,
read by the tokenizer, the parser and the renderer alike: `_PREFIX` for
the modal operators and `_INFIX` for the binary ones.

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
        self.message = message
        self.line = line
        self.column = column


def _error(text, offset, message):
    """A SyntaxError_ at a character offset of text; a tab or a carriage
    return is one column, and only a newline starts a line."""
    line_start = text.rfind("\n", 0, offset) + 1
    return SyntaxError_(message, text.count("\n", 0, offset) + 1,
                        offset - line_start + 1)


# ---------------------------------------------------------------------------
# Concrete syntax: the two operator tables

# opening token -> (closing token, class) of each modal prefix operator
_PREFIX = {"[": ("]", Box), "<": (">", Dia),
          "[[": ("]]", DefBox), "<<": (">>", DefDia)}

# token -> (precedence, right-associative, class) of each binary operator;
# a higher precedence binds tighter
_INFIX = {"<->": (1, False, Iff), "->": (2, True, Implies),
          "|": (3, False, Or), "&": (4, False, And)}

_SYMBOLS = [*_PREFIX, *(close for close, _ in _PREFIX.values()), *_INFIX,
            "|~", "(", ")", "~"]

# one token per match: whitespace, an identifier, a symbol (longest first,
# so that "[[" is not read as two "["), a comment, or a stray character
_TOKEN_RE = re.compile(
    r"[ \t\r\n]+|([a-zA-Z][a-zA-Z0-9_]*)|("
    + "|".join(map(re.escape, sorted(_SYMBOLS, key=len, reverse=True)))
    + r")|(#[^\n]*)|(.)")


def _tokenize(text):
    """The (kind, value, offset) tokens of text, ending with an "eof"."""
    tokens = []
    end = len(text)
    for m in _TOKEN_RE.finditer(text):
        word, symbol, comment, stray = m.groups()
        if word:
            kind = word if word in ("true", "false") else "ident"
            tokens.append((kind, word, m.start()))
        elif symbol:
            tokens.append((symbol, symbol, m.start()))
        elif stray:
            raise _error(text, m.start(), f"unexpected character {stray!r}")
        elif comment and m.end() == end:
            # input that ends inside a comment ends where the comment starts
            end = m.start()
    tokens.append(("eof", "", end))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def expect(self, kind):
        """Read a token of the given kind; its value."""
        token_kind, value, _ = self.tokens[self.pos]
        if token_kind != kind:
            self.fail([kind])
        self.pos += 1
        return value

    def fail(self, expected):
        kind, value, offset = self.tokens[self.pos]
        got = "end of input" if kind == "eof" else repr(value)
        raise _error(self.text, offset, f"unexpected {got}, expected one of: "
                                        f"{', '.join(sorted(expected))}")

    def formula(self, min_prec=1):
        """Precedence climbing over _INFIX: the longest formula whose
        top operators all have at least min_prec."""
        f = self.unary()
        while True:
            op = _INFIX.get(self.tokens[self.pos][0])
            if op is None or op[0] < min_prec:
                return f
            self.pos += 1
            prec, right, cls = op
            f = cls(f, self.formula(prec if right else prec + 1))

    def unary(self):
        kind, value, _ = self.tokens[self.pos]
        self.pos += 1
        if kind == "~":
            return Not(self.unary())
        if kind in _PREFIX:
            close, cls = _PREFIX[kind]
            name = self.expect("ident")
            self.expect(close)
            return cls(name, self.unary())
        if kind == "ident":
            return Atom(value)
        if kind == "true":
            return Top()
        if kind == "false":
            return Bottom()
        if kind == "(":
            f = self.formula()
            self.expect(")")
            return f
        self.pos -= 1  # fail reports the token just read
        self.fail(["~", *_PREFIX, "true", "false", "identifier", "("])

    def statement(self):
        f = self.formula()
        if self.tokens[self.pos][0] != "|~":
            return Plain(f)
        self.pos += 1
        # a second "|~" is left over, and rejected as trailing input
        return Conditional(f, self.formula())


def _parse(text, rule):
    p = _Parser(text)
    result = rule(p)
    if p.tokens[p.pos][0] != "eof":
        p.fail(["end of input"])
    return result


def parse_formula(text: str) -> Formula:
    return _parse(text, _Parser.formula)


def parse_statement(text: str) -> Statement:
    return _parse(text, _Parser.statement)


# ---------------------------------------------------------------------------
# Pretty-printing, from the same tables

_PREFIX_OF = {cls: (open_, close) for open_, (close, cls) in _PREFIX.items()}
_INFIX_OF = {cls: (token, prec, right)
             for token, (prec, right, cls) in _INFIX.items()}
# ~ and the prefix operators bind tighter than every binary operator
_TIGHTEST = 1 + max(prec for prec, _, _ in _INFIX.values())


def _render(f, parent_prec):
    cls = type(f)
    if cls is Atom:
        return f.name
    if cls is Top:
        return "true"
    if cls is Bottom:
        return "false"
    if cls is Not:
        return "~" + _render(f.operand, _TIGHTEST)
    if cls in _PREFIX_OF:
        open_, close = _PREFIX_OF[cls]
        return open_ + f.modality + close + _render(f.operand, _TIGHTEST)
    if cls not in _INFIX_OF:
        raise TypeError(f"not a formula: {f!r}")
    token, prec, right = _INFIX_OF[cls]
    # only the operand on the associative side may share the precedence
    s = (_render(f.left, prec + right) + f" {token} "
         + _render(f.right, prec + (not right)))
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
        if g in value:
            # pushed by a second parent before the first combined it
            stack.pop()
            continue
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
