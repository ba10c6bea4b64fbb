"""Reference evaluator for preferential Kripke semantics.

Written from the definitions alone, for checking the outputs of `dmt`.
It shares no code with `dmt`: formulas are the benchmark's own tuple
trees (see `formulas.py`), models are read from the model file format
(a JSON dict), and the preference closure and the minimal successors are
computed here.

Definitions used:

* A model has worlds W, a relation R_i for each modality i, a valuation,
  and a strict partial order < on W (a < b: a is more normal than b).
  The file format lists pairs [a, b] meaning a < b; < is their
  transitive closure and must be irreflexive.
* min(S) is the set of s in S with no t in S such that t < s.
* [i]x holds at w iff x holds at every R_i-successor of w; <i>x iff at
  some successor.  [[i]]x holds at w iff x holds at every world of
  min(R_i(w)); <<i>>x iff at some world of min(R_i(w)).
* a |~ b holds in a model iff min(||a||) is a subset of ||b||.
"""

from __future__ import annotations

import itertools


class ReferenceModelError(ValueError):
    """The model data break the definitions (e.g. a preference cycle)."""


def strict_closure(pairs, worlds):
    """Map each world b to the set of worlds a with a < b (closed).

    Raises ReferenceModelError if the closure relates a world to itself.
    """
    preferred = {w: set() for w in worlds}
    for a, b in pairs:
        preferred[b].add(a)
    closed = {}
    for w in worlds:
        seen = set()
        todo = list(preferred[w])
        while todo:
            a = todo.pop()
            if a not in seen:
                seen.add(a)
                todo.extend(preferred[a])
        if w in seen:
            raise ReferenceModelError(f"preference cycle through {w!r}")
        closed[w] = frozenset(seen)
    return closed


def minimal(worlds, above):
    """min(worlds): members with no member strictly preferred to them.

    `above` maps a world to the set of worlds strictly preferred to it.
    """
    return frozenset(w for w in worlds if not (above[w] & worlds))


class Frame:
    """Worlds, relations and a closed preference, with derived successor
    and minimal-successor sets per (modality, world)."""

    def __init__(self, worlds, relations, preference):
        self.worlds = tuple(worlds)
        self.all = frozenset(self.worlds)
        self.above = strict_closure(preference, self.worlds)
        self.succ = {}
        self.min_succ = {}
        for i, pairs in relations.items():
            for w in self.worlds:
                out = frozenset(b for a, b in pairs if a == w)
                self.succ[i, w] = out
                self.min_succ[i, w] = minimal(out, self.above)

    def successors(self, modality, world):
        return self.succ.get((modality, world), frozenset())

    def minimal_successors(self, modality, world):
        return self.min_succ.get((modality, world), frozenset())

    def preference_pairs(self):
        """The closed preference as a set of (a, b) with a < b."""
        return {(a, b) for b in self.worlds for a in self.above[b]}


class Model:
    """A frame plus a valuation (world -> set of true atoms)."""

    def __init__(self, frame, valuation):
        self.frame = frame
        self.worlds = frame.worlds
        self.valuation = {w: frozenset(valuation.get(w, ()))
                          for w in frame.worlds}

    @classmethod
    def from_json(cls, data):
        """Build a model from the model file format (a parsed JSON dict)."""
        worlds = list(data["worlds"])
        known = set(worlds)
        relations = {}
        for i, pairs in data.get("relations", {}).items():
            relations[i] = [tuple(p) for p in pairs]
        preference = [tuple(p) for p in data.get("preference", [])]
        for a, b in [p for ps in relations.values() for p in ps] + preference:
            if a not in known or b not in known:
                raise ReferenceModelError(f"unknown world in {(a, b)!r}")
        return cls(Frame(worlds, relations, preference),
                   data.get("valuation", {}))


def extension(model, f):
    """The set of worlds of `model` where formula tree `f` holds."""
    op = f[0]
    frame = model.frame
    if op == "atom":
        return frozenset(w for w in model.worlds if f[1] in model.valuation[w])
    if op == "false":
        return frozenset()
    if op == "true":
        return frame.all
    if op == "not":
        return frame.all - extension(model, f[1])
    if op in ("and", "or", "imp", "iff"):
        left = extension(model, f[1])
        right = extension(model, f[2])
        if op == "and":
            return left & right
        if op == "or":
            return left | right
        if op == "imp":
            return (frame.all - left) | right
        return frozenset(w for w in model.worlds
                         if (w in left) == (w in right))
    i, sub = f[1], extension(model, f[2])
    if op == "box":
        return frozenset(w for w in model.worlds
                         if frame.successors(i, w) <= sub)
    if op == "dia":
        return frozenset(w for w in model.worlds
                         if frame.successors(i, w) & sub)
    if op == "defbox":
        return frozenset(w for w in model.worlds
                         if frame.minimal_successors(i, w) <= sub)
    if op == "defdia":
        return frozenset(w for w in model.worlds
                         if frame.minimal_successors(i, w) & sub)
    raise ValueError(f"not a formula tree: {f!r}")


def holds(model, world, f):
    if world not in model.frame.all:
        raise ReferenceModelError(f"unknown world {world!r}")
    return world in extension(model, f)


def globally(model, f):
    return extension(model, f) == model.frame.all


def conditional(model, antecedent, consequent):
    """KLM reading of antecedent |~ consequent."""
    ante = extension(model, antecedent)
    return minimal(ante, model.frame.above) <= extension(model, consequent)


# ---------------------------------------------------------------------------
# Bounded model search

def strict_partial_orders(worlds):
    """Every strict partial order on `worlds`, as a list of (a, b) pairs."""
    pairs = [(a, b) for a in worlds for b in worlds if a != b]
    out = []
    for keep in itertools.product((False, True), repeat=len(pairs)):
        rel = {p for p, k in zip(pairs, keep) if k}
        # with no (a, a) candidates, transitivity also rules out cycles
        if all((a, d) in rel for a, b in rel for c, d in rel if b == c):
            out.append(sorted(rel))
    return out


def frames(modalities, k):
    """Every frame on worlds w1..wk over the given modalities."""
    worlds = tuple(f"w{j + 1}" for j in range(k))
    pairs = [(a, b) for a in worlds for b in worlds]
    relations = [[p for p, keep in zip(pairs, bits) if keep]
                 for bits in itertools.product((False, True),
                                               repeat=len(pairs))]
    orders = strict_partial_orders(worlds)
    for rels in itertools.product(relations, repeat=len(modalities)):
        for order in orders:
            yield Frame(worlds, dict(zip(modalities, rels)), order)


def models(atoms, modalities, max_worlds):
    """Every model with 1..max_worlds worlds over the signature."""
    atoms = tuple(atoms)
    modalities = tuple(modalities)
    subsets = [frozenset(c) for r in range(len(atoms) + 1)
               for c in itertools.combinations(atoms, r)]
    for k in range(1, max_worlds + 1):
        for frame in frames(modalities, k):
            for vals in itertools.product(subsets, repeat=k):
                yield Model(frame, dict(zip(frame.worlds, vals)))


def find_model(f, atoms, modalities, max_worlds):
    """First (model, world) in `models` order where f holds, else None."""
    for model in models(atoms, modalities, max_worlds):
        ext = extension(model, f)
        if ext:
            return model, min(ext)
    return None

