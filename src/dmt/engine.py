"""High-level queries: validity, countermodels, and KB entailment.

Global entailment is decided by a box-closure reduction: a knowledge
base holding globally also holds, boxed, along every accessibility
chain, so if the conjunction of the KB closed under boxes up to depth d
is jointly unsatisfiable with the negated query, the query is entailed.
Unsatisfiability at any depth is sound; no fixed depth is claimed
complete, hence the three-valued verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import tableau
from .semantics import (
    Conditional, ModelSignature, PreferentialModel, enumerate_models,
    extension, holds_at, satisfies_kb_globally,
)
from .syntax import (
    And, Bottom, Box, Formula, Not, atoms_of, desugar, modal_depth,
    modalities_of, parse_formula,
)
from .tableau import Closed, decide


@dataclass(frozen=True)
class KnowledgeBase:
    formulas: tuple

    @classmethod
    def from_formulas(cls, formulas):
        return cls(tuple(formulas))


class KBError(ValueError):
    pass


def load_kb(path) -> KnowledgeBase:
    """One formula per line; '#' comments and blank lines are ignored."""
    formulas = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            try:
                formulas.append(parse_formula(stripped))
            except ValueError as exc:
                raise KBError(f"{path}:{lineno}: {exc}") from exc
    return KnowledgeBase(tuple(formulas))


@dataclass(frozen=True)
class Entailed:
    proved_at_depth: int


@dataclass(frozen=True)
class NotEntailed:
    countermodel: PreferentialModel
    witness_world: str


@dataclass(frozen=True)
class Unknown:
    depth_exhausted: int


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


def _conjoin(formulas):
    out = None
    for f in formulas:
        out = f if out is None else And(out, f)
    return out if out is not None else Not(Bottom())


def _box_closure(core, modalities, depth):
    for _ in range(depth):
        core = _conjoin([core] + [Box(i, core) for i in modalities])
    return core


# Skip the brute-force fallback when the enumeration space is too large.
_BRUTE_FORCE_BUDGET = 500_000


def _model_space_size(n_atoms, n_modalities, max_worlds):
    total = 0
    for k in range(1, max_worlds + 1):
        orders = 1 if k == 1 else (3 if k == 2 else 19)
        total += (2 ** (k * n_atoms)) * (2 ** (k * k)) ** n_modalities * orders
    return total


def _brute_force_refutation(kb, f, atoms, modalities):
    """Bounded search for a model satisfying the KB and falsifying f."""
    max_worlds = 0
    for k in (1, 2, 3):
        if _model_space_size(len(atoms), len(modalities), k) <= _BRUTE_FORCE_BUDGET:
            max_worlds = k
    if max_worlds == 0:
        return None
    sig = ModelSignature(tuple(sorted(atoms)), tuple(sorted(modalities)),
                         max_worlds)
    for model in enumerate_models(sig):
        if not satisfies_kb_globally(model, kb.formulas):
            continue
        falsified = set(model.worlds) - extension(model, f)
        if falsified:
            for w in model.worlds:
                if w in falsified:
                    return model, w
    return None


def global_entails(kb: KnowledgeBase, f: Formula,
                   max_depth: Optional[int] = None, **limits):
    """Decide whether every global model of the KB makes f globally true.

    Iteratively deepens the box-closure reduction from modal_depth(f).
    NotEntailed verdicts carry a certificate model, re-verified before
    returning; Unknown means the depth budget ran out.
    """
    base_depth = modal_depth(f)
    if max_depth is None:
        max_depth = base_depth + 2
    if max_depth < base_depth:
        raise ValueError(
            f"max_depth {max_depth} is below modal_depth(f) = {base_depth}")
    atoms = atoms_of(f)
    modalities = modalities_of(f)
    for g in kb.formulas:
        atoms |= atoms_of(g)
        modalities |= modalities_of(g)
    relevant = sorted(modalities)
    core = _conjoin([desugar(g) for g in kb.formulas])
    neg_query = Not(desugar(f))
    tried_brute_force = False
    for depth in range(base_depth, max_depth + 1):
        closure = _box_closure(core, relevant, depth)
        verdict = decide(And(closure, neg_query), **limits)
        if isinstance(verdict, Closed):
            return Entailed(depth)
        model = verdict.model
        witness = tableau.world_name(0)
        if satisfies_kb_globally(model, kb.formulas):
            assert not holds_at(model, witness, f)
            return NotEntailed(model, witness)
        if not tried_brute_force:
            tried_brute_force = True
            found = _brute_force_refutation(kb, f, atoms, modalities)
            if found is not None:
                model, witness = found
                assert satisfies_kb_globally(model, kb.formulas)
                assert not holds_at(model, witness, f)
                return NotEntailed(model, witness)
    return Unknown(max_depth)
