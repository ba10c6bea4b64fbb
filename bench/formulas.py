"""Formula trees, their concrete syntax, and the benchmark's input sets.

Formulas are nested tuples: ("atom", name), ("true",), ("false",),
("not", x), (op, x, y) for op in and/or/imp/iff, and (op, i, x) for op in
box/dia/defbox/defdia with modality i.  The benchmark renders them to
text for the program and evaluates the trees itself with `reference.py`.
This module does not import `dmt`.
"""

from __future__ import annotations

import random

BINARY = {"and": "&", "or": "|", "imp": "->", "iff": "<->"}
MODAL = {"box": ("[", "]"), "dia": ("<", ">"),
         "defbox": ("[[", "]]"), "defdia": ("<<", ">>")}


def render(f):
    """Fully parenthesised text that `dmt.syntax.parse_formula` reads."""
    op = f[0]
    if op == "atom":
        return f[1]
    if op in ("true", "false"):
        return op
    if op == "not":
        return "~" + render(f[1])
    if op in BINARY:
        return f"({render(f[1])} {BINARY[op]} {render(f[2])})"
    left, right = MODAL[op]
    return f"{left}{f[1]}{right}{render(f[2])}"


def atom(name):
    return ("atom", name)


def neg(f):
    return ("not", f)


def random_formula(rng, size, atoms, modalities):
    """A random formula tree with `size` nodes over the full language."""
    if size <= 1:
        return rng.choice([atom(p) for p in atoms] + [("true",), ("false",)])
    kind = rng.choice(["not", *MODAL, *BINARY])
    if kind == "not":
        return neg(random_formula(rng, size - 1, atoms, modalities))
    if kind in MODAL:
        return (kind, rng.choice(modalities),
                random_formula(rng, size - 1, atoms, modalities))
    left = rng.randint(1, size - 2) if size > 2 else 1
    return (kind, random_formula(rng, left, atoms, modalities),
            random_formula(rng, size - 1 - left, atoms, modalities))


# ---------------------------------------------------------------------------
# decide: a fixed pool of random size-25 formulas; a run draws from it

DECIDE_POOL_SEED = 2013
DECIDE_POOL_SIZE = 600
DECIDE_SIZE = 25
DECIDE_ATOMS = ("p", "q", "r")
DECIDE_MODALITIES = ("a", "b")


def decide_pool():
    rng = random.Random(DECIDE_POOL_SEED)
    return [random_formula(rng, DECIDE_SIZE, DECIDE_ATOMS, DECIDE_MODALITIES)
            for _ in range(DECIDE_POOL_SIZE)]


# ---------------------------------------------------------------------------
# oracle: every core formula over p and a with at most 6 nodes

def core_corpus(max_size=6):
    """Core formulas (atom p, false, ~, &, [a], [[a]]) by node count."""
    by_size = {1: [atom("p"), ("false",)]}
    for s in range(2, max_size + 1):
        layer = []
        for g in by_size[s - 1]:
            layer += [neg(g), ("box", "a", g), ("defbox", "a", g)]
        for left_size in range(1, s - 1):
            for left in by_size[left_size]:
                for right in by_size[s - 1 - left_size]:
                    layer.append(("and", left, right))
        by_size[s] = layer
    return [f for layer in by_size.values() for f in layer]


# ---------------------------------------------------------------------------
# entail: the power-plant KB, the extended KB, and the queries

p, c, h, r, s = (atom(x) for x in "pchrs")

# fixtures/powerplant.kb, transcribed; the tests check it against the file
POWERPLANT_KB = (
    ("iff", ("and", p, neg(c)), h),
    ("imp", h, ("defdia", "m", ("true",))),
    ("imp", p, ("defbox", "f", neg(p))),
    ("imp", c, ("defbox", "f", c)),
    ("dia", "f", neg(h)),
)
EXTENSION = (
    ("imp", r, ("box", "g", s)),
    ("imp", s, ("defdia", "g", r)),
)
EXTENDED_KB = POWERPLANT_KB + EXTENSION
KB_ATOMS = ("c", "h", "p")
KB_MODALITIES = ("f", "m")

LITERALS = (p, neg(p), c, neg(c), h, neg(h))
QUERY_OPERATORS = (("box", "f"), ("defbox", "f"), ("dia", "f"),
                   ("defdia", "f"), ("box", "m"), ("defbox", "m"),
                   ("dia", "m"), ("defdia", "m"))


def query(antecedent, operator, consequent):
    kind, modality = operator
    return ("imp", antecedent, (kind, modality, consequent))


def entail_pool():
    """Every `literal -> M literal` query whose antecedent is p or h, the
    literals that trigger the KB's rules, less those of the hand-written
    group (`p -> <<f>>~h`), which every round holds anyway."""
    hand = {q for _, kb, q, _ in HAND_QUERIES if kb == "powerplant"}
    return [query(a, operator, b) for operator in QUERY_OPERATORS
            for a in (p, h) for b in LITERALS
            if query(a, operator, b) not in hand]


# The hand-written group: (name, kb name, query tree, expected verdict).
# The README proves each entailment and gives each countermodel.
HAND_QUERIES = (
    ("ext:p->[[f]]~h", "extended", ("imp", p, ("defbox", "f", neg(h))),
     "entailed"),
    ("ext:s-><<g>>r", "extended", ("imp", s, ("defdia", "g", r)),
     "entailed"),
    ("ext:(p&c)->[[f]](~p&c)", "extended",
     ("imp", ("and", p, c), ("defbox", "f", ("and", neg(p), c))),
     "entailed"),
    ("ext:c->[f]c", "extended", ("imp", c, ("box", "f", c)),
     "not_entailed"),
    ("ext:r->[g]r", "extended", ("imp", r, ("box", "g", r)),
     "not_entailed"),
    ("pp:p-><<f>>~h", "powerplant", ("imp", p, ("defdia", "f", neg(h))),
     "entailed"),
)


# Hand-built countermodels for the hand-written queries that are not
# entailed: (model file dict, witness world).  The KB holds globally in
# each and the query fails at the witness (checked by the tests).
HAND_COUNTERMODELS = {
    "ext:c->[f]c": ({
        "worlds": ["w1", "w2"],
        "atoms": ["c", "h", "p", "r", "s"],
        "modalities": ["f", "g", "m"],
        "relations": {"f": [["w1", "w1"], ["w1", "w2"], ["w2", "w2"]]},
        "valuation": {"w1": ["c"], "w2": []},
        "preference": [["w1", "w2"]],
    }, "w1"),
    "ext:r->[g]r": ({
        "worlds": ["w1", "w2"],
        "atoms": ["c", "h", "p", "r", "s"],
        "modalities": ["f", "g", "m"],
        "relations": {"f": [["w1", "w1"], ["w2", "w2"]],
                      "g": [["w1", "w1"], ["w1", "w2"], ["w2", "w1"]]},
        "valuation": {"w1": ["r", "s"], "w2": ["s"]},
        "preference": [["w1", "w2"]],
    }, "w1"),
}
