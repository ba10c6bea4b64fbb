"""High-level queries: validity, countermodels, and KB entailment.

Global entailment is decided by type elimination, after Pratt, "Models
of program logics" (FOCS 1979).  A type gives a truth value to each
item, an atom or [i] or [[i]] node of the desugared KB and query.  The
types where the KB holds are kept; then a type is removed, until none
is, when no kept type meets one of its demands.  With B and D the
operands of its true [i] and [[i]] items, a ~[i]phi needs a kept type
with ~phi and B, a ~[[i]]phi one with ~phi, B and D, and either one
with B and D, a minimal successor.  The KB entails f iff no kept type
holds ~f.  Sound: a type realised in a finite model of the KB is kept,
as its successors, minimal ones included, realise the witnesses.
Complete: an original and a copy of each kept type, every original
preferred to every copy, make a model when the i-successors of t are
the originals with B(t) and D(t) and the copies with B(t).  A
`NotEntailed` countermodel keeps what one witness per demand reaches,
and is re-checked; `Entailed` is not yet certified.  Type m is bit m of
a big int, as in `bitparallel`, and the cost is 2^(items): more than
`MAX_FREE_ITEMS` raise `ResourceLimitError`.  No tableau runs here.
"""

from __future__ import annotations

from functools import reduce
from typing import NamedTuple

from . import tableau
from .bitparallel import _spread
from .semantics import (
    Conditional, InvariantViolation, PreferentialModel, holds_at,
    satisfies_kb_globally,
)
# not used here; bench/tracing.py patches them on this module
from .semantics import enumerate_models, extension  # noqa: F401
from .syntax import (
    And, Atom, Bottom, Box, DefBox, Formula, Not, SyntaxError_, _bottom_up,
    desugar, parse_formula,
)
from .tableau import Closed, ResourceLimitError, decide

# the most free items global_entails takes: 2^20 types, 128 KB a mask
MAX_FREE_ITEMS = 20


class KnowledgeBase(NamedTuple):
    formulas: tuple


class KBError(ValueError):
    pass


def load_kb(path) -> KnowledgeBase:
    """One formula per line; '#' comments and blank lines are ignored.

    A line that does not parse raises `KBError` naming the file, the
    line and, for a syntax error, the column in that line.
    """
    formulas = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            # the parser skips comments itself; the line is parsed as it
            # stands, so that its columns are the file's
            line = line.rstrip()
            if not line.split("#", 1)[0].strip():
                continue
            try:
                formulas.append(parse_formula(line))
            except SyntaxError_ as exc:
                raise KBError(
                    f"{path}:{lineno}:{exc.column}: {exc.message}") from exc
            except RecursionError:
                raise KBError(
                    f"{path}:{lineno}: formula nested too deeply") from None
    return KnowledgeBase(tuple(formulas))


class Entailed(NamedTuple):
    survivors: int      # the types left after elimination


class NotEntailed(NamedTuple):
    countermodel: PreferentialModel
    witness_world: str


def is_valid(f: Formula, **limits):
    """(True, None) when f is valid, else (False, countermodel)."""
    verdict = decide(Not(f), **limits)
    if isinstance(verdict, Closed):
        return True, None
    return False, verdict.model


def countermodel(f: Formula, **limits):
    """A (model, world) where f fails, or None when f is valid."""
    verdict = decide(Not(f), **limits)
    if isinstance(verdict, Closed):
        return None
    return verdict.model, tableau.world_name(0)


def kb_to_conditionals(kb: KnowledgeBase) -> list:
    """The conditional translation: each formula becomes ~f |~ false."""
    return [Conditional(Not(f), Bottom()) for f in kb.formulas]


class _Types:
    """The types over the items of a desugared KB and goal, type m making
    item k true iff bit k of m is set, and the kept ones, `alive`."""

    def __init__(self, kb, goal):
        # children first, in a fixed walk that may meet a node twice: nodes
        # hash by address, so the order of a set would vary from run to run
        nodes = {}
        _bottom_up(reduce(And, (*kb, goal)), lambda g, _: nodes.setdefault(g))
        items = [g for g in nodes if type(g) in (Atom, Box, DefBox)]
        if len(items) > MAX_FREE_ITEMS:
            raise ResourceLimitError(f"{len(items)} atoms and boxes exceed "
                                     f"the limit {MAX_FREE_ITEMS}")
        size = 1 << len(items)
        full = (1 << size) - 1
        value = {g: _spread(2, 1 << k, 2, size) for k, g in enumerate(items)}
        self.boxes = {}     # per modality: (mask, sub, ~sub, defeasible)s
        for g in nodes:
            if type(g) is Not:
                value[g] = full ^ value[g.operand]
            elif type(g) is And:
                value[g] = value[g.left] & value[g.right]
            elif type(g) is Bottom:
                value[g] = 0
            elif type(g) is not Atom:
                sub = value[g.operand]
                self.boxes.setdefault(g.modality, []).append(
                    (value[g], sub, full ^ sub, type(g) is DefBox))
        self.atoms = [(k, g.name) for k, g in enumerate(items)
                      if type(g) is Atom]
        self.alive = reduce(int.__and__, map(value.get, kb), full)
        self.goal = value[goal]

    def split(self, boxes, group, wb, wbd, demands=()):
        """The parts of the group by the truth of one modality's boxes, each
        with its kept types with B, with B and D, and its demands."""
        if not boxes:
            yield group, wb, wbd, demands
            return
        (mask, sub, neg, defeasible), rest = boxes[0], boxes[1:]
        if true := group & mask:
            yield from self.split(rest, true, wb if defeasible else wb & sub,
                                  wbd & sub, demands)
        if false := group ^ true:
            yield from self.split(rest, false, wb, wbd,
                                  demands + ((neg, defeasible),))

    def model(self, t):
        """A model whose world w1 has the kept type t: a world is a type and
        whether it is a copy, linked to one witness per demand."""
        names = {(t, False): "w1"}
        queue = [(t, False)]
        relations = {i: [] for i in self.boxes}
        for world in queue:
            for i, boxes in self.boxes.items():
                (_, wb, wbd, demands), = self.split(boxes, 1 << world[0],
                                                    self.alive, self.alive)
                if not demands:
                    continue
                for mask, copy in [(wbd, False)] + [
                        (wbd & neg, False) if wbd & neg
                        else (wb & neg, True) for neg, _ in demands]:
                    target = ((mask & -mask).bit_length() - 1, copy)
                    if target not in names:
                        names[target] = f"w{len(names) + 1}"
                        queue.append(target)
                    relations[i].append((names[world], names[target]))
        valuation = {name: [p for k, p in self.atoms if s >> k & 1]
                     for (s, _), name in names.items()}
        preference = [(a, b) for (_, x), a in names.items() if not x
                      for (_, y), b in names.items() if y]
        return PreferentialModel(names.values(), [p for _, p in self.atoms],
                                 self.boxes, relations, valuation, preference)


# named after the brute-force search it replaced, as bench/tracing.py
# patches it by that name; it is still exhaustive, over types
def _brute_force_refutation(types):
    """Remove the types with an unmet demand until none is left; then a
    countermodel and witness from the first kept type with the goal."""
    dead = True
    while dead:
        dead, alive = 0, types.alive
        for boxes in types.boxes.values():
            parts = types.split(boxes, alive, alive, alive)
            for group, wb, wbd, demands in parts:
                if demands and not (wbd and all(
                        (wbd if defeasible else wb) & neg
                        for neg, defeasible in demands)):
                    dead |= group
        types.alive ^= dead
    hits = types.alive & types.goal
    if not hits:
        return None
    return types.model((hits & -hits).bit_length() - 1), "w1"


def global_entails(kb: KnowledgeBase, f: Formula):
    """Whether every model where the KB holds at every world makes f
    true at every world; a NotEntailed countermodel is re-checked."""
    types = _Types([desugar(g) for g in kb.formulas], Not(desugar(f)))
    found = _brute_force_refutation(types)
    if found is None:
        return Entailed(types.alive.bit_count())
    model, witness = found
    if not satisfies_kb_globally(model, kb.formulas):
        raise InvariantViolation("the KB fails in the countermodel")
    if holds_at(model, witness, f):
        raise InvariantViolation(f"the query holds at the witness {witness}")
    return NotEntailed(model, witness)
