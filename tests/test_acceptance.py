"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines as they pass.
"""

import random
import time

import pytest

from dmt.engine import Entailed, KnowledgeBase, global_entails, \
    kb_to_conditionals, load_kb
from dmt.semantics import (
    Conditional, ModelSignature, PreferentialModel, brute_force_satisfiable,
    enumerate_models, extension, globally_true, holds_at, holds_conditional,
    satisfies_kb_globally,
)
from dmt.syntax import (
    And, Atom, Bottom, Box, DefBox, Not, is_classical, parse_formula,
    render_formula,
)
from dmt.tableau import Closed, Open, decide, verify_branch_model
from conftest import FIXTURES, random_formula, random_model, random_order

pytestmark = pytest.mark.acceptance


def report(number, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"acceptance criterion {number}: {status}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


VALID_FORMULAS = [
    "[[a]]p <-> ~<<a>>~p",                        # duality
    "[[a]](p -> q) -> ([[a]]p -> [[a]]q)",        # defeasible K
    "[[a]](p & q) <-> ([[a]]p & [[a]]q)",         # conjunction, both ways
    "[[a]]false <-> [a]false",
    "<<a>>true <-> <a>true",
    "[[a]]true <-> true",
    "<<a>>false <-> false",
    "[a]p -> [[a]]p",                             # classical implies defeasible
    "<<a>>p -> <a>p",
    "([[a]]p | [[a]]q) -> [[a]](p | q)",
]

INVALID_FORMULAS = [
    "[[a]](p | q) -> ([[a]]p | [[a]]q)",
    "[[a]](p -> q) -> ([a]p -> [a]q)",
]


def test_criterion_1_validity_suite():
    for text in VALID_FORMULAS:
        start = time.monotonic()
        verdict = decide(Not(parse_formula(text)), check_invariants=True)
        elapsed = time.monotonic() - start
        if not isinstance(verdict, Closed) or elapsed >= 1.0:
            report(1, False, f"{text}: not proved valid in < 1 s")
    for text in INVALID_FORMULAS:
        f = parse_formula(text)
        start = time.monotonic()
        verdict = decide(Not(f), check_invariants=True)
        elapsed = time.monotonic() - start
        ok = (isinstance(verdict, Open)
              and elapsed < 1.0
              and verify_branch_model(verdict.branch, verdict.model)
              and not holds_at(verdict.model, "n0", f))
        if not ok:
            report(1, False, f"{text}: expected a verified countermodel")
    report(1, True, "10 valid + 2 invalid with verified countermodels")


def test_criterion_2_power_plant_model(figure3):
    start = time.monotonic()
    checks = [
        globally_true(figure3, parse_formula("(p & ~c) <-> h")),
        globally_true(figure3, parse_formula("~p -> [[f]]p")),
        globally_true(figure3, parse_formula("c -> [[f]]~h")),
        globally_true(figure3, parse_formula("h -> <<m>>true")),
        globally_true(figure3, parse_formula("<f>~h")),
        holds_at(figure3, "w1", parse_formula("[[m]]false")),
        not holds_at(figure3, "w4", parse_formula("[[m]]false")),
        holds_at(figure3, "w4", parse_formula("h & <<f>>~h")),
    ]
    elapsed = time.monotonic() - start
    report(2, all(checks) and elapsed < 0.1,
           f"{sum(checks)}/8 checks in {elapsed * 1000:.1f} ms")


def test_criterion_3_power_plant_entailments():
    kb = load_kb(FIXTURES / "powerplant.kb")
    queries = ["p -> [[f]]~h", "[[m]]false -> (~p | c)", "(p | c) -> [[f]]~h"]
    survivors = []
    for text in queries:
        start = time.monotonic()
        verdict = global_entails(kb, parse_formula(text))
        elapsed = time.monotonic() - start
        if not (isinstance(verdict, Entailed) and elapsed < 10.0):
            report(3, False, f"{text}: {verdict} in {elapsed:.1f} s")
        survivors.append(verdict.survivors)
    report(3, True, f"3 entailments, surviving types {survivors}")


def exhaustive_core_corpus(max_size):
    """Every core formula over one atom and one modality, by node count."""
    by_size = {1: [Atom("p"), Bottom()]}
    for s in range(2, max_size + 1):
        layer = []
        for g in by_size[s - 1]:
            layer += [Not(g), Box("a", g), DefBox("a", g)]
        for left_size in range(1, s - 1):
            for left in by_size[left_size]:
                for right in by_size[s - 1 - left_size]:
                    layer.append(And(left, right))
        by_size[s] = layer
    return [f for layer in by_size.values() for f in layer]


def test_criterion_4_oracle_equivalence():
    corpus = exhaustive_core_corpus(6)
    sig = ModelSignature(("p",), ("a",), 3)
    start = time.monotonic()
    n_closed = n_open = 0
    for f in corpus:
        verdict = decide(f, check_invariants=True)
        if isinstance(verdict, Closed):
            n_closed += 1
            if brute_force_satisfiable(f, sig) is not None:
                report(4, False,
                       f"tableau closed but satisfiable: {render_formula(f)}")
        else:
            n_open += 1
            ok = (verify_branch_model(verdict.branch, verdict.model)
                  and holds_at(verdict.model, "n0", f))
            if not ok:
                report(4, False,
                       f"open verdict not verified: {render_formula(f)}")
    elapsed = time.monotonic() - start
    report(4, elapsed < 300,
           f"{len(corpus)} formulas ({n_closed} closed, {n_open} open), "
           f"0 discrepancies, {elapsed:.0f} s")


def test_criterion_5_global_truth_as_conditional():
    rng = random.Random(105)
    failures = 0
    for _ in range(200):
        m = random_model(rng, max_worlds=4)
        f = random_formula(rng, rng.randint(1, 8))
        if globally_true(m, f) != \
                holds_conditional(m, Conditional(Not(f), Bottom())):
            failures += 1
    report(5, failures == 0, "200 model/formula pairs, 0 failures")


def test_criterion_6_preference_invisible_to_classical():
    rng = random.Random(106)
    failures = 0
    for _ in range(200):
        m = random_model(rng, max_worlds=4)
        f = random_formula(rng, rng.randint(1, 8), classical=True)
        assert is_classical(f)
        base = extension(m, f)
        for _ in range(3):
            other = PreferentialModel(
                m.worlds, m.atoms, m.modalities, m.relations, m.valuation,
                random_order(rng, m.worlds))
            if extension(other, f) != base:
                failures += 1
    report(6, failures == 0,
           "200 classical formulas x 3 preference replacements, 0 failures")


def test_criterion_7_conditional_translation_bridge():
    rng = random.Random(107)
    models = list(enumerate_models(ModelSignature(("p",), ("a",), 2)))
    failures = 0
    for _ in range(50):
        kb = KnowledgeBase(tuple(
            random_formula(rng, rng.randint(1, 5), atoms=("p",),
                           modalities=("a",))
            for _ in range(rng.randint(0, 3))))
        conds = kb_to_conditionals(kb)
        for m in models:
            if satisfies_kb_globally(m, kb.formulas) != \
                    all(holds_conditional(m, c) for c in conds):
                failures += 1
    report(7, failures == 0,
           f"50 KBs x {len(models)} models, 0 failures")


def test_criterion_8_parser_round_trip():
    rng = random.Random(108)
    failures = 0
    for _ in range(1000):
        f = random_formula(rng, rng.randint(1, 12),
                           atoms=("p", "q", "r", "status_ok"),
                           modalities=("a", "b", "m1"))
        if parse_formula(render_formula(f)) != f:
            failures += 1
    report(8, failures == 0, "1000 generated ASTs, 0 failures")


def test_criterion_9_invariants_and_termination():
    # criteria 1-4 above already run decide with invariant checking on;
    # re-run the tableau workload here so this criterion stands alone
    for text in VALID_FORMULAS + INVALID_FORMULAS:
        decide(Not(parse_formula(text)), check_invariants=True)
    kb = load_kb(FIXTURES / "powerplant.kb")
    for text in ["p -> [[f]]~h", "[[m]]false -> (~p | c)",
                 "(p | c) -> [[f]]~h"]:
        verdict = global_entails(kb, parse_formula(text))
        assert isinstance(verdict, Entailed)
    for f in exhaustive_core_corpus(6):
        decide(f, check_invariants=True)
    report(9, True, "no invariant violations, no resource exhaustion")
