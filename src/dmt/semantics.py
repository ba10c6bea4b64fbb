"""Preferential Kripke models and formula evaluation.

A preferential Kripke model is a Kripke model together with a strict
partial order on worlds ("preference"), lower meaning more normal.  The
defeasible box holds at w when its operand holds at every most-preferred
accessible world; the defeasible diamond when it holds at at least one.

Formulas are evaluated over bitsets, in one of two layouts.

* For one explicit model, `_masks` gives the worlds satisfying each of
  a batch of formulas as one int: bit j stands for `model.worlds[j]`.
  A model is its bitset rows: per modality a successor row per world,
  and per world a row of the worlds preferred to it; from them it
  builds, once, a mask per atom and per modality a minimal-successor
  row per world, which `_masks` reads.  `validate_model` reads a model
  file straight into rows and closes the preference there; the pairs
  of `relations` and `preference` are decoded only when read, and
  evaluation never reads them.  `extension`, `holds_at` and
  `globally_true` read one formula's mask through `_mask`, which keeps
  the last mask a model gave, so asking about one formula at every
  world costs one evaluation; the batched questions
  (`holds_conditional`, `satisfies_kb_globally`) make one `_masks`
  call each.
* The brute-force oracle, `brute_force_satisfiable`, asks one question
  of many small models: every model of at most 3 worlds over a
  signature.  Its bits run across models instead (`bitparallel.Models`):
  for each world slot j a formula gets one int whose bit m stands for
  the m-th model of a block of models in `enumerate_models` order.

An explicit model may have many worlds but is one model; the oracle's
models have at most 3 worlds but there are up to hundreds of thousands
of them.  Each layout puts its bits where the count is large.
The oracle re-checks every model it returns with `_mask`, so its
answers are certified by the other evaluator.
"""

from __future__ import annotations

import itertools
import json
from typing import Iterator, NamedTuple, Optional

from .syntax import (
    And, Atom, Bottom, Box, DefBox, DefDia, Dia, Formula, Iff, Implies, Not,
    Or, Top, atoms_of, modalities_of,
)
from .syntax import Conditional  # noqa: F401  (re-exported)
from .bitparallel import Models

# the most worlds `enumerate_models` and the oracle look at
HARD_CAP = 3


class ModelError(ValueError):
    """Raised for structurally invalid model data."""


class InvariantViolation(AssertionError):
    """A verdict or certificate failed an independent re-check.  Raised
    explicitly, so that the checks also run under ``python -O``."""


# the formula in a model's `_last` until `_mask` has evaluated one
_NO_FORMULA = object()


def _rows(pairs, index):
    """One bitset row per element: bit index[b] of row index[a] is set
    for each pair (a, b)."""
    rows = [0] * len(index)
    for a, b in pairs:
        rows[index[a]] |= 1 << index[b]
    return rows


def _row_pairs(rows, worlds):
    """The pairs that bitset rows encode: (worlds[j], worlds[k]) for each
    bit k of each row j."""
    for a, row in zip(worlds, rows):
        while row:
            low = row & -row
            yield a, worlds[low.bit_length() - 1]
            row ^= low


class PreferentialModel:
    """Worlds, per-modality accessibility, valuation, and preference.

    The model is its bitset rows, bit j standing for ``worlds[j]``: per
    modality a successor row per world (``_succ``), and per world the
    worlds preferred to it (``_pred``), transitively closed.  From them
    the constructor derives the evaluator's other tables once: a mask
    per atom and, per modality, a minimal-successor row per world.
    Instances must therefore not be changed after construction: the
    tables would not follow.

    The constructor takes pairs: ``relations`` maps a modality to pairs
    (a, b), b accessible from a, and ``preference`` holds pairs (a, b)
    meaning a is strictly preferred to (more normal than) b, already
    transitively closed.  It turns them into rows once.
    `validate_model` builds the rows itself and never makes pairs.

    ``relations`` and ``preference`` are read-only views in those pair
    forms (a dict of frozensets, a frozenset), decoded from the rows on
    first read and then kept, each in one slot set by one assignment.
    Evaluation never reads them; `to_json_dict`, `save_model` and
    ``repr`` do.  Decoding them when a model is built would cost a
    ``dmt check`` of a large model most of what the rows save: the
    preference closure of n worlds in a chain has n(n-1)/2 pairs.

    ``_last`` is a one-slot cache, ``(formula, mask)``, of the last
    formula `_mask` evaluated on the model.  One slot is enough for the
    common pattern, one formula asked about at each world in turn, and
    it keeps at most one formula alive per model: a memo of every
    formula seen would hold them all for the model's lifetime.  It is
    replaced by one tuple assignment, so a reader never sees a formula
    paired with another formula's mask.
    """

    __slots__ = ("worlds", "atoms", "modalities", "valuation", "_index",
                 "_val", "_succ", "_min_succ", "_pred", "_relations",
                 "_preference", "_last")

    def __init__(self, worlds, atoms, modalities, relations, valuation,
                 preference):
        worlds = tuple(worlds)
        index = {w: j for j, w in enumerate(worlds)}
        self._build(worlds, index, atoms, modalities,
                    {i: _rows(pairs, index) for i, pairs in relations.items()},
                    valuation, _rows(((b, a) for a, b in preference), index))

    @classmethod
    def _from_rows(cls, worlds, index, atoms, modalities, succ, valuation,
                   pred):
        """A model from its rows: `succ` maps a modality to a successor
        row per world, `pred` is a closed predecessor row per world;
        `index` maps each world to its position in `worlds`."""
        model = cls.__new__(cls)
        model._build(worlds, index, atoms, modalities, succ, valuation, pred)
        return model

    def _build(self, worlds, index, atoms, modalities, succ, valuation, pred):
        self.worlds = tuple(worlds)
        self.atoms = frozenset(atoms)
        self.modalities = frozenset(modalities)
        self.valuation = {w: frozenset(v) for w, v in valuation.items()}
        self._index = index
        val = self._val = {}
        for w, names in self.valuation.items():
            for p in names:
                val[p] = val.get(p, 0) | 1 << index[w]
        self._succ = succ
        self._pred = pred
        self._min_succ = {i: [_minimal(self, row) for row in rows]
                          for i, rows in succ.items()}
        self._relations = self._preference = None
        self._last = (_NO_FORMULA, 0)

    @property
    def relations(self):
        """Per modality, the pairs (a, b) with b accessible from a."""
        view = self._relations
        if view is None:
            view = self._relations = {
                i: frozenset(_row_pairs(rows, self.worlds))
                for i, rows in self._succ.items()}
        return view

    @property
    def preference(self):
        """The pairs (a, b) with a strictly preferred to b, closed."""
        view = self._preference
        if view is None:
            view = self._preference = frozenset(
                (a, b) for b, a in _row_pairs(self._pred, self.worlds))
        return view

    def successors(self, modality, world):
        j = self._index.get(world)
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


def transitive_closure(rows):
    """Close a relation given as bitset rows (bit k of row j: j is
    related to k) transitively, in place, by Warshall's algorithm;
    returns rows.  The relation is acyclic when no row j has bit j."""
    for k, row_k in enumerate(rows):
        bit = 1 << k
        for i, row in enumerate(rows):
            if row & bit:
                rows[i] = row | row_k
    return rows


def _name_list(value, what):
    if not isinstance(value, (list, tuple)) or \
            not all(isinstance(x, str) for x in value):
        raise ModelError(f"{what} must be a list of names, not {value!r}")
    return value


def _world_pairs(value, index, what, reverse=False):
    """A relation in file format, a list of pairs [a, b] of world names,
    checked and read as one bitset row per world: bit index[b] of row
    index[a] is set for each pair, or bit index[a] of row index[b] with
    `reverse`."""
    if not isinstance(value, (list, tuple)):
        raise ModelError(f"{what} must be a list of pairs, not {value!r}")
    rows = [0] * len(index)
    get = index.get
    for pair in value:
        # a list or tuple of two str passes on type tests alone;
        # anything else takes the checks, which name the fault
        t = type(pair)
        if not ((t is list or t is tuple) and len(pair) == 2) and \
                len(_name_list(pair, f"{what} entry")) != 2:
            raise ModelError(f"{what} entry {pair!r} is not a pair")
        a, b = pair
        if type(a) is not str or type(b) is not str:
            # raises unless both are instances of a str subclass; tested
            # before the lookup, so an unhashable name cannot raise
            # TypeError
            _name_list(pair, f"{what} entry")
        j, k = get(a), get(b)
        if j is None or k is None:
            raise ModelError(f"{what} mentions unknown world in {pair!r}")
        if reverse:
            j, k = k, j
        rows[j] |= 1 << k
    return rows


def _mapping(raw, key):
    value = raw.get(key, {})
    if not isinstance(value, dict):
        raise ModelError(f"{key!r} must be an object, not {value!r}")
    return value


def validate_model(raw: dict) -> PreferentialModel:
    """Build a model from file-format data, closing the preference order.

    Rejects malformed entries, dangling world references, preference
    cycles, and an empty world set.  A preference entry ["a", "b"]
    asserts a is preferred to b.  The relations and the preference are
    read straight into bitset rows, the preference is closed and checked
    for cycles on them, and the model is built from them: no set of
    pairs is made (see `PreferentialModel`).
    """
    try:
        worlds = raw["worlds"]
    except (KeyError, TypeError):
        raise ModelError("model data must contain a 'worlds' list")
    worlds = _name_list(worlds, "'worlds'")
    if not worlds:
        raise ModelError("the set of worlds must be non-empty")
    index = {w: j for j, w in enumerate(worlds)}
    if len(index) != len(worlds):
        raise ModelError("duplicate world ids")
    atoms = set(_name_list(raw.get("atoms", []), "'atoms'"))
    modalities = set(_name_list(raw.get("modalities", []), "'modalities'"))

    valuation = {}
    for w, names in _mapping(raw, "valuation").items():
        if w not in index:
            raise ModelError(f"valuation mentions unknown world {w!r}")
        for p in _name_list(names, f"valuation of {w!r}"):
            if p not in atoms:
                raise ModelError(f"valuation mentions undeclared atom {p!r}")
        valuation[w] = frozenset(names)

    succ = {}
    for i, pairs in _mapping(raw, "relations").items():
        if i not in modalities:
            raise ModelError(f"relation for undeclared modality {i!r}")
        succ[i] = _world_pairs(pairs, index, f"relation {i!r}")

    # a closed predecessor row per world: bit a of row b for a before b
    pred = transitive_closure(_world_pairs(
        raw.get("preference", []), index, "preference", reverse=True))
    for j, w in enumerate(worlds):
        if pred[j] >> j & 1:
            raise ModelError(f"preference has a cycle through {w!r}")

    return PreferentialModel._from_rows(worlds, index, atoms, modalities,
                                        succ, valuation, pred)


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
    pred = model._pred
    out = 0
    rest = mask
    while rest:
        low = rest & -rest
        if not pred[low.bit_length() - 1] & mask:
            out |= low
        rest ^= low
    return out


def _masks(model: PreferentialModel, formulas) -> list:
    """The worlds satisfying each formula, one bit per world.

    The formulas share one evaluation: binary and modal subformulas are
    memoised on the node, so the batch costs about its number of
    distinct nodes, however often they are shared within or between the
    formulas.  The memo lives for this call only.
    """
    full = (1 << len(model.worlds)) - 1
    val, succ, min_succ = model._val, model._succ, model._min_succ
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
        out = memo.get(g)
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
            table = succ if t is Box or t is Dia else min_succ
            rows = table.get(g.modality, ())
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
        memo[g] = out
        return out

    try:
        return [ev(f) for f in formulas]
    finally:
        # ev refers to itself: without this, every call would leave a
        # reference cycle, with the model and memo, to the collector
        del ev


def _mask(model: PreferentialModel, f: Formula) -> int:
    """The worlds satisfying f, one bit per world: `_masks` of one,
    unless f is the formula in the model's one-slot cache (formulas are
    interned, so `is` is equality)."""
    last, mask = model._last
    if f is last:
        return mask
    mask = _masks(model, (f,))[0]
    model._last = (f, mask)
    return mask


def min_preferred(model: PreferentialModel, worlds) -> set:
    """The preference-minimal elements of a set of worlds."""
    index = model._index
    mask = 0
    for w in worlds:
        if w not in index:
            raise ModelError(f"unknown world {w!r}")
        mask |= 1 << index[w]
    return _names(model, _minimal(model, mask))


def extension(model: PreferentialModel, f: Formula) -> set:
    """The set of worlds satisfying f."""
    return _names(model, _mask(model, f))


def holds_at(model: PreferentialModel, world, f: Formula) -> bool:
    j = model._index.get(world)
    if j is None:
        raise ModelError(f"unknown world {world!r}")
    return bool(_mask(model, f) >> j & 1)


def globally_true(model: PreferentialModel, f: Formula) -> bool:
    return _mask(model, f) == (1 << len(model.worlds)) - 1


def holds_conditional(model: PreferentialModel, c) -> bool:
    """KLM reading: every minimal antecedent-world satisfies the consequent."""
    ante, cons = _masks(model, (c.antecedent, c.consequent))
    return not _minimal(model, ante) & ~cons


def satisfies_kb_globally(model: PreferentialModel, kb) -> bool:
    """Every formula of kb holds at every world; one shared evaluation."""
    full = (1 << len(model.worlds)) - 1
    return all(mask == full for mask in _masks(model, kb))


# ---------------------------------------------------------------------------
# Brute-force oracle

class ModelSignature(NamedTuple):
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


def _world_names(k):
    return tuple(f"w{j + 1}" for j in range(k))


# the strict partial orders on the worlds of a k-world oracle model, for
# every k the oracle looks at; built once, here
PARTIAL_ORDERS = {k: tuple(strict_partial_orders(_world_names(k)))
                  for k in range(1, HARD_CAP + 1)}


def _check_bounds(sig):
    if sig.max_worlds < 1:
        raise ModelError("the set of worlds must be non-empty")
    if sig.max_worlds > HARD_CAP:
        raise ModelError(
            f"max_worlds {sig.max_worlds} exceeds the hard cap {HARD_CAP}")


def _parts(sig, k):
    """What the k-world models over sig are made of, each list in
    enumeration order: the worlds, the valuations of one world (tuples
    of atoms), the relations of one modality (tuples of pairs) and the
    preference orders."""
    worlds = _world_names(k)
    pairs = [(a, b) for a in worlds for b in worlds]
    valuations = [s for r in range(len(sig.atoms) + 1)
                  for s in itertools.combinations(sig.atoms, r)]
    relations = [s for r in range(len(pairs) + 1)
                 for s in itertools.combinations(pairs, r)]
    return worlds, valuations, relations, PARTIAL_ORDERS[k]


def enumerate_models(sig: ModelSignature) -> Iterator[PreferentialModel]:
    """Yield every model over the signature, in a deterministic order.

    The k-world models come before the (k+1)-world ones.  Within a
    world count the order is that of a number whose digits are, most
    significant first, the valuation of each world, the relation of
    each modality and the preference order (see `_parts`).
    """
    _check_bounds(sig)
    for k in range(1, sig.max_worlds + 1):
        worlds, valuations, relations, orders = _parts(sig, k)
        for val in itertools.product(valuations, repeat=k):
            valuation = dict(zip(worlds, val))
            for rels in itertools.product(relations,
                                          repeat=len(sig.modalities)):
                relation = dict(zip(sig.modalities, rels))
                for order in orders:
                    yield PreferentialModel(worlds, sig.atoms,
                                            sig.modalities, relation,
                                            valuation, order)


def brute_force_satisfiable(f: Formula,
                            sig: ModelSignature) -> Optional[tuple]:
    """The first model, in `enumerate_models` order, in which f holds at
    some world, with the first such world; None when there is none
    within the bounds, which says nothing of larger models.

    World counts are tried in increasing order, each with all its
    models at once (`bitparallel.Models`).  The answer is the one a
    loop over `enumerate_models` would give, and is re-checked with the
    per-model evaluator before it is returned.
    """
    _check_bounds(sig)
    modalities = sig.modalities
    for k in range(1, sig.max_worlds + 1):
        worlds, valuations, relations, orders = _parts(sig, k)
        found = Models(worlds, sig.atoms, modalities, valuations, relations,
                       orders).first(f)
        if found is None:
            continue
        digits, slot = found
        model = PreferentialModel(
            worlds, sig.atoms, modalities,
            dict(zip(modalities, [relations[c] for c in digits[k:-1]])),
            dict(zip(worlds, [valuations[v] for v in digits[:k]])),
            orders[digits[-1]])
        if not _mask(model, f) >> slot & 1:
            raise InvariantViolation(
                f"oracle model fails the per-model check: {model!r}")
        return model, worlds[slot]
    return None


def signature_for(formulas, max_worlds: int = 3) -> ModelSignature:
    formulas = tuple(formulas)
    return ModelSignature(tuple(sorted(atoms_of(*formulas))),
                          tuple(sorted(modalities_of(*formulas))), max_worlds)
