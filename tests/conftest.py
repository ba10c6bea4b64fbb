import random
from pathlib import Path

import pytest

from dmt.semantics import (
    PreferentialModel, _mask, enumerate_models, load_model, transitive_closure,
)
from dmt.syntax import (
    And, Atom, Bottom, Box, DefBox, DefDia, Dia, Iff, Implies, Not, Or, Top,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def figure3():
    return load_model(FIXTURES / "figure3.json")


# ---------------------------------------------------------------------------
# Random generators (seeded; used where the suite needs exact sample counts)

UNARY = ["not", "box", "dia", "defbox", "defdia"]
BINARY = ["and", "or", "imp", "iff"]


def random_formula(rng, size, atoms=("p", "q"), modalities=("a",),
                   classical=False):
    if size <= 1:
        leaves = [Atom(p) for p in atoms] + [Top(), Bottom()]
        return rng.choice(leaves)
    unary = ["not", "box", "dia"] if classical else UNARY
    kind = rng.choice(unary + BINARY)
    if kind in unary:
        inner = random_formula(rng, size - 1, atoms, modalities, classical)
        i = rng.choice(modalities)
        return {"not": Not(inner), "box": Box(i, inner), "dia": Dia(i, inner),
                "defbox": DefBox(i, inner),
                "defdia": DefDia(i, inner)}[kind]
    left_size = rng.randint(1, size - 2) if size > 2 else 1
    left = random_formula(rng, left_size, atoms, modalities, classical)
    right = random_formula(rng, size - 1 - left_size, atoms, modalities,
                           classical)
    return {"and": And(left, right), "or": Or(left, right),
            "imp": Implies(left, right), "iff": Iff(left, right)}[kind]


def random_order(rng, worlds, density=0.4):
    """A random strict partial order: sparse sub-order of a random
    linear order, transitively closed."""
    perm = list(worlds)
    rng.shuffle(perm)
    pairs = {(perm[i], perm[j])
             for i in range(len(perm)) for j in range(i + 1, len(perm))
             if rng.random() < density}
    return transitive_closure(pairs)


def random_model(rng, max_worlds=4, atoms=("p", "q"), modalities=("a",),
                 min_worlds=1):
    k = rng.randint(min_worlds, max_worlds)
    worlds = tuple(f"w{j + 1}" for j in range(k))
    valuation = {w: frozenset(p for p in atoms if rng.random() < 0.5)
                 for w in worlds}
    relations = {i: {(a, b) for a in worlds for b in worlds
                     if rng.random() < 0.4}
                 for i in modalities}
    return PreferentialModel(worlds, atoms, modalities, relations, valuation,
                             random_order(rng, worlds))


# ---------------------------------------------------------------------------
# The per-model reference for the bit-parallel oracle

def first_by_loop(sig, goal):
    """The reference for the oracle: the first model of
    `enumerate_models` in which goal holds at some world, with the first
    such world."""
    for m in enumerate_models(sig):
        mask = _mask(m, goal)
        if mask:
            return m, m.worlds[(mask & -mask).bit_length() - 1]
    return None


def same_answer(found, expected):
    if expected is None or found is None:
        return found is expected
    return found[1] == expected[1] and \
        found[0].to_json_dict() == expected[0].to_json_dict()
