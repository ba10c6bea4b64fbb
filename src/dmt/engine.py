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
    PARTIAL_ORDERS, Conditional, InvariantViolation, ModelSignature,
    PreferentialModel, first_model, holds_at, satisfies_kb_globally,
)
# not used here; bench/tracing.py patches them on this module
from .semantics import enumerate_models, extension  # noqa: F401
from .syntax import (
    And, Bottom, Box, Formula, Not, SyntaxError_, atoms_of, desugar,
    modal_depth, modalities_of, parse_formula,
)
from .tableau import Closed, decide


@dataclass(frozen=True)
class KnowledgeBase:
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
# Sized by the bit-parallel oracle, about 0.2 s of scanning: all 12.6 M
# 2-world models over 5 atoms and 3 modalities fit, 3 worlds do not.
_BRUTE_FORCE_BUDGET = 20_000_000


def _model_space_size(n_atoms, n_modalities, max_worlds):
    total = 0
    for k in range(1, max_worlds + 1):
        total += ((2 ** (k * n_atoms)) * (2 ** (k * k)) ** n_modalities
                  * len(PARTIAL_ORDERS[k]))
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
    return first_model(sig, Not(f), kb.formulas)


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
    atoms = atoms_of(f, *kb.formulas)
    modalities = modalities_of(f, *kb.formulas)
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
            if holds_at(model, witness, f):
                raise InvariantViolation(
                    f"the query holds at the witness {witness} of the "
                    f"tableau countermodel")
            return NotEntailed(model, witness)
        if not tried_brute_force:
            tried_brute_force = True
            found = _brute_force_refutation(kb, f, atoms, modalities)
            if found is not None:
                model, witness = found
                if not satisfies_kb_globally(model, kb.formulas):
                    raise InvariantViolation(
                        "the knowledge base fails in the brute-force "
                        "countermodel")
                if holds_at(model, witness, f):
                    raise InvariantViolation(
                        f"the query holds at the witness {witness} of the "
                        f"brute-force countermodel")
                return NotEntailed(model, witness)
    return Unknown(max_depth)
