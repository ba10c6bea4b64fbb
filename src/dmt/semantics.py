"""Preferential Kripke models and formula evaluation.

A preferential Kripke model is a Kripke model together with a strict
partial order on worlds ("preference"), lower meaning more normal.  The
defeasible box holds at w when its operand holds at every most-preferred
accessible world; the defeasible diamond when it holds at at least one.

There is one evaluator, `_mask`, which gives the worlds satisfying a
formula as a bitset: bit j stands for `model.worlds[j]`.  It reads
tables that a model builds on first use (the bit of each world, a mask
per atom, a successor row per world and modality, the preferred worlds
of each world and a cache of minimal subsets).  `enumerate_models`
builds these tables once per valuation, relation choice and order and
shares them among the models it yields.  The public functions below
read `_mask`.

Also provides a bounded brute-force model enumerator used as an
independent oracle by the test suite and the entailment engine.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Iterator, Optional

from .syntax import (
    And, Atom, Bottom, Box, DefBox, DefDia, Dia, Formula, Iff, Implies, Not,
    Or, Top,
)
from .syntax import Conditional  # noqa: F401  (re-exported)


class ModelError(ValueError):
    """Raised for structurally invalid model data."""


def _rows(pairs, index):
    """One bitset row per element: bit index[b] of row index[a] is set
    for each pair (a, b)."""
    rows = [0] * len(index)
    for a, b in pairs:
        rows[index[a]] |= 1 << index[b]
    return rows


def _valuation_masks(valuation, index):
    masks = {}
    for w, names in valuation.items():
        for p in names:
            masks[p] = masks.get(p, 0) | 1 << index[w]
    return masks


class PreferentialModel:
    """Worlds, per-modality accessibility, valuation, and preference.

    ``preference`` holds pairs (a, b) meaning a is strictly preferred to
    (more normal than) b, stored transitively closed.  Instances are
    treated as immutable after construction.
    """

    __slots__ = ("worlds", "atoms", "modalities", "relations", "valuation",
                 "preference", "_index", "_val", "_succ", "_pred", "_mins")

    def __init__(self, worlds, atoms, modalities, relations, valuation,
                 preference):
        self.worlds = tuple(worlds)
        self.atoms = frozenset(atoms)
        self.modalities = frozenset(modalities)
        self.relations = {i: frozenset(pairs) for i, pairs in relations.items()}
        self.valuation = {w: frozenset(v) for w, v in valuation.items()}
        self.preference = frozenset(preference)
        self._index = None

    def _tables(self):
        """The evaluator's tables, built on first use: world -> bit,
        atom -> mask, modality -> successor rows, the preferred worlds of
        each world, and minimal subsets by mask."""
        if self._index is None:
            index = {w: j for j, w in enumerate(self.worlds)}
            self._val = _valuation_masks(self.valuation, index)
            self._succ = {i: _rows(pairs, index)
                          for i, pairs in self.relations.items()}
            self._pred = _rows(((b, a) for a, b in self.preference), index)
            self._mins = {}
            self._index = index
        return self._index

    def successors(self, modality, world):
        j = self._tables().get(world)
        rows = self._succ.get(modality)
        if j is None or rows is None:
            return set()
        return _names(self, rows[j])

    def to_json_dict(self):
        return {
            "atoms": sorted(self.atoms),
            "modalities": sorted(self.modalities),
            "worlds": list(self.worlds),
            "valuation": {w: sorted(self.valuation.get(w, ()))
                          for w in self.worlds},
            "relations": {i: sorted(map(list, self.relations.get(i, ())))
                          for i in sorted(self.modalities)},
            "preference": sorted(map(list, self.preference)),
        }

    def __repr__(self):
        return (f"PreferentialModel(worlds={list(self.worlds)}, "
                f"valuation={{...}}, preference={sorted(self.preference)})")


def transitive_closure(pairs):
    """The transitive closure of a relation, by Warshall's algorithm over
    one bitset row per element."""
    pairs = list(pairs)
    index = {}
    for pair in pairs:
        for x in pair:
            index.setdefault(x, len(index))
    rows = _rows(pairs, index)
    for k, row_k in enumerate(rows):
        bit = 1 << k
        for i, row in enumerate(rows):
            if row & bit:
                rows[i] = row | row_k
    elements = list(index)
    return {(a, b) for a, row in zip(elements, rows)
            for j, b in enumerate(elements) if row >> j & 1}


def _name_list(value, what):
    if not isinstance(value, (list, tuple)) or \
            not all(isinstance(x, str) for x in value):
        raise ModelError(f"{what} must be a list of names, not {value!r}")
    return value


def _world_pairs(value, world_set, what):
    if not isinstance(value, (list, tuple)):
        raise ModelError(f"{what} must be a list of pairs, not {value!r}")
    pairs = set()
    for pair in value:
        if len(_name_list(pair, f"{what} entry")) != 2:
            raise ModelError(f"{what} entry {pair!r} is not a pair")
        if not set(pair) <= world_set:
            raise ModelError(f"{what} mentions unknown world in {pair!r}")
        pairs.add(tuple(pair))
    return pairs


def _mapping(raw, key):
    value = raw.get(key, {})
    if not isinstance(value, dict):
        raise ModelError(f"{key!r} must be an object, not {value!r}")
    return value


def validate_model(raw: dict) -> PreferentialModel:
    """Build a model from file-format data, closing the preference order.

    Rejects malformed entries, dangling world references, preference
    cycles, and an empty world set.  A preference entry ["a", "b"]
    asserts a is preferred to b.
    """
    try:
        worlds = raw["worlds"]
    except (KeyError, TypeError):
        raise ModelError("model data must contain a 'worlds' list")
    worlds = _name_list(worlds, "'worlds'")
    if not worlds:
        raise ModelError("the set of worlds must be non-empty")
    if len(set(worlds)) != len(worlds):
        raise ModelError("duplicate world ids")
    world_set = set(worlds)
    atoms = set(_name_list(raw.get("atoms", []), "'atoms'"))
    modalities = set(_name_list(raw.get("modalities", []), "'modalities'"))

    valuation = {}
    for w, names in _mapping(raw, "valuation").items():
        if w not in world_set:
            raise ModelError(f"valuation mentions unknown world {w!r}")
        for p in _name_list(names, f"valuation of {w!r}"):
            if p not in atoms:
                raise ModelError(f"valuation mentions undeclared atom {p!r}")
        valuation[w] = frozenset(names)

    relations = {}
    for i, pairs in _mapping(raw, "relations").items():
        if i not in modalities:
            raise ModelError(f"relation for undeclared modality {i!r}")
        relations[i] = _world_pairs(pairs, world_set, f"relation {i!r}")

    pref = transitive_closure(
        _world_pairs(raw.get("preference", []), world_set, "preference"))
    for w in worlds:
        if (w, w) in pref:
            raise ModelError(f"preference has a cycle through {w!r}")

    return PreferentialModel(worlds, atoms, modalities, relations, valuation,
                             pref)


def load_model(path) -> PreferentialModel:
    with open(path) as fh:
        return validate_model(json.load(fh))


def save_model(model: PreferentialModel, path):
    with open(path, "w") as fh:
        json.dump(model.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Evaluation

def _names(model, mask):
    return {w for j, w in enumerate(model.worlds) if mask >> j & 1}


def _minimal(model, mask):
    """The preference-minimal worlds among those of mask, as a mask."""
    out = model._mins.get(mask)
    if out is None:
        pred = model._pred
        out = 0
        rest = mask
        while rest:
            low = rest & -rest
            if not pred[low.bit_length() - 1] & mask:
                out |= low
            rest ^= low
        model._mins[mask] = out
    return out


def _mask(model: PreferentialModel, f: Formula) -> int:
    """The worlds satisfying f, one bit per world.

    A binary or modal subformula object that occurs more than once in f
    is evaluated once, so formulas with shared subtrees cost about their
    number of distinct nodes.
    """
    if model._index is None:
        model._tables()
    full = (1 << len(model.worlds)) - 1
    val, succ = model._val, model._succ
    memo = {}

    def ev(g):
        t = type(g)
        if t is Atom:
            return val.get(g.name, 0)
        if t is Not:
            return full ^ ev(g.operand)
        if t is Bottom:
            return 0
        if t is Top:
            return full
        out = memo.get(id(g))
        if out is not None:
            return out
        if t is And:
            out = ev(g.left) & ev(g.right)
        elif t is Or:
            out = ev(g.left) | ev(g.right)
        elif t is Implies:
            out = (full ^ ev(g.left)) | ev(g.right)
        elif t is Iff:
            out = full ^ ev(g.left) ^ ev(g.right)
        elif t is Box or t is Dia or t is DefBox or t is DefDia:
            sub = ev(g.operand)
            rows = succ.get(g.modality, ())
            if t is DefBox or t is DefDia:
                rows = [_minimal(model, row) for row in rows]
            if t is Box or t is DefBox:
                out = full
                for j, row in enumerate(rows):
                    if row & ~sub:
                        out ^= 1 << j
            else:
                out = 0
                for j, row in enumerate(rows):
                    if row & sub:
                        out |= 1 << j
        else:
            raise TypeError(f"not a formula: {g!r}")
        memo[id(g)] = out
        return out

    return ev(f)


def min_preferred(model: PreferentialModel, worlds) -> set:
    """The preference-minimal elements of a set of worlds."""
    index = model._tables()
    mask = 0
    for w in worlds:
        mask |= 1 << index[w]
    return _names(model, _minimal(model, mask))


def extension(model: PreferentialModel, f: Formula) -> set:
    """The set of worlds satisfying f."""
    return _names(model, _mask(model, f))


def holds_at(model: PreferentialModel, world, f: Formula) -> bool:
    j = model._tables().get(world)
    if j is None:
        raise ModelError(f"unknown world {world!r}")
    return bool(_mask(model, f) >> j & 1)


def globally_true(model: PreferentialModel, f: Formula) -> bool:
    return _mask(model, f) == (1 << len(model.worlds)) - 1


def holds_conditional(model: PreferentialModel, c) -> bool:
    """KLM reading: every minimal antecedent-world satisfies the consequent."""
    ante = _minimal(model, _mask(model, c.antecedent))
    return not ante & ~_mask(model, c.consequent)


def satisfies_kb_globally(model: PreferentialModel, kb) -> bool:
    return all(globally_true(model, f) for f in kb)


# ---------------------------------------------------------------------------
# Brute-force oracle

@dataclass(frozen=True)
class ModelSignature:
    atoms: tuple
    modalities: tuple
    max_worlds: int


def strict_partial_orders(worlds):
    """All transitively closed strict partial orders on the given worlds.

    Enumerates irreflexive candidate relations and keeps the transitive
    ones; transitivity plus irreflexivity rules out symmetric pairs.
    """
    pairs = [(a, b) for a in worlds for b in worlds if a != b]
    out = []
    for bits in itertools.product((False, True), repeat=len(pairs)):
        rel = {p for p, keep in zip(pairs, bits) if keep}
        if all((a, d) in rel
               for a, b in rel for c, d in rel if b == c):
            out.append(frozenset(rel))
    return out


def enumerate_models(sig: ModelSignature, hard_cap: int = 3) -> Iterator[PreferentialModel]:
    """Yield every model over the signature, in a deterministic order.

    Models share their parts and evaluator tables with one another, so
    a yielded model must not be changed.
    """
    if sig.max_worlds < 1:
        raise ModelError("the set of worlds must be non-empty")
    if sig.max_worlds > hard_cap:
        raise ModelError(
            f"max_worlds {sig.max_worlds} exceeds the hard cap {hard_cap}")
    atoms = frozenset(sig.atoms)
    modalities = tuple(sig.modalities)
    modalities_fs = frozenset(modalities)
    for k in range(1, sig.max_worlds + 1):
        worlds = tuple(f"w{j + 1}" for j in range(k))
        index = {w: j for j, w in enumerate(worlds)}
        pairs = [(a, b) for a in worlds for b in worlds]
        world_valuations = [frozenset(s)
                            for r in range(len(sig.atoms) + 1)
                            for s in itertools.combinations(sig.atoms, r)]
        relation_choices = [(frozenset(s), _rows(s, index))
                            for r in range(len(pairs) + 1)
                            for s in itertools.combinations(pairs, r)]
        orders = [(order, _rows(((b, a) for a, b in order), index), {})
                  for order in strict_partial_orders(worlds)]
        for val in itertools.product(world_valuations, repeat=k):
            valuation = dict(zip(worlds, val))
            val_masks = _valuation_masks(valuation, index)
            for rels in itertools.product(relation_choices,
                                          repeat=len(modalities)):
                relations = {i: rel for i, (rel, _) in zip(modalities, rels)}
                succ = {i: rows for i, (_, rows) in zip(modalities, rels)}
                for order, pred, mins in orders:
                    # bypass __init__: all parts are already immutable and
                    # shared structure is never mutated
                    m = PreferentialModel.__new__(PreferentialModel)
                    m.worlds = worlds
                    m.atoms = atoms
                    m.modalities = modalities_fs
                    m.relations = relations
                    m.valuation = valuation
                    m.preference = order
                    m._index = index
                    m._val = val_masks
                    m._succ = succ
                    m._pred = pred
                    m._mins = mins
                    yield m


def brute_force_satisfiable(f: Formula, sig: ModelSignature,
                            hard_cap: int = 3
                            ) -> Optional[tuple]:
    """First (model, world) satisfying f within the bounds, else None.

    None means only that no model exists within the enumeration bounds.
    """
    for model in enumerate_models(sig, hard_cap=hard_cap):
        mask = _mask(model, f)
        if mask:
            return model, model.worlds[(mask & -mask).bit_length() - 1]
    return None


def signature_for(formulas, max_worlds: int = 3) -> ModelSignature:
    from .syntax import atoms_of, modalities_of
    atoms = set()
    modalities = set()
    for f in formulas:
        atoms |= atoms_of(f)
        modalities |= modalities_of(f)
    return ModelSignature(tuple(sorted(atoms)), tuple(sorted(modalities)),
                          max_worlds)
