import random

import pytest

from dmt.semantics import (
    ModelSignature, brute_force_satisfiable, holds_at, validate_model,
)
from dmt.syntax import (
    And, Atom, Bottom, Box, DefBox, Not, Top, desugar, parse_formula,
    subformulas,
)
from dmt.tableau import (
    Closed, Open, ResourceLimitError, decide, extract_model, initial_tableau,
    step, verify_branch_model, world_name,
)
from conftest import random_formula

p, q = Atom("p"), Atom("q")

FIGURE5 = "[[a]]~(p & ~q) & [a]p & ~[a]q"


def saturate_first(branch):
    """Saturate depth-first, returning the first open saturated branch."""
    stack = [branch]
    while stack:
        b = stack.pop()
        while not b.closed:
            result = step(b)
            if result is None:
                return b
            if len(result) == 2:
                stack.append(result[1])
            b = result[0]
    return None


class TestInitialTableau:
    def test_plain_conjunction(self):
        (b,) = initial_tableau(And(p, q))
        assert b.formulas == [(0, And(p, q))]
        assert b.skeleton == {} and b.preference == set()

    def test_figure5_input(self):
        (b,) = initial_tableau(parse_formula(FIGURE5))
        assert b.formulas == [(0, desugar(parse_formula(FIGURE5)))]

    def test_top_desugared(self):
        (b,) = initial_tableau(Top())
        assert b.formulas == [(0, Not(Bottom()))]


class TestStep:
    def test_and(self):
        (b,) = initial_tableau(And(p, q))
        (b,) = step(b)
        assert {(0, p), (0, q)} <= b.formula_set

    def test_negated_box_split_matches_figure5(self):
        (b,) = initial_tableau(parse_formula(FIGURE5))
        result = step(b)
        while len(result) == 1:
            result = step(result[0])
        left, right = result
        # minimal case: fresh label 1 carries ~q and is asserted minimal
        assert (1, Not(q)) in left.formula_set
        assert 1 in left.min_asserts[("a", 0)]
        # non-minimal case: 2 carries ~q, formula-free 3 sits below it
        assert (2, Not(q)) in right.formula_set
        assert all(n != 3 for n, _ in right.formulas)
        assert (3, 2) in right.preference
        assert 3 in right.min_asserts[("a", 0)]

    def test_defbox_propagates_to_asserted_minimal(self):
        f = parse_formula("[[a]]p & ~[[a]]q")
        (b,) = initial_tableau(f)
        b = saturate_first(b)
        # the (defdia) successor is asserted minimal and receives p
        (label,) = b.min_asserts[("a", 0)]
        assert (label, p) in b.formula_set
        assert (label, Not(q)) in b.formula_set


class TestIsClosed:
    def test_complement_same_label(self):
        (b,) = initial_tableau(And(p, Not(p)))
        b = saturate_first(b)
        assert b is None  # every branch closed

    def test_complement_on_different_labels_is_open(self):
        counter_branch = initial_tableau(p)[0]
        counter_branch.add_formula(1, Not(p))
        assert not counter_branch.closed

    def test_negated_bottom_does_not_close(self):
        (b,) = initial_tableau(Top())
        assert not b.closed


class TestDecide:
    def test_contradiction_closed(self):
        assert isinstance(decide(And(p, Not(p))), Closed)

    def test_box_implies_defbox_closed(self):
        # validity of the "classical implies defeasible" schema
        assert isinstance(
            decide(parse_formula("[a]p & ~[[a]]p")), Closed)

    def test_figure5_open_with_figure6_model(self):
        verdict = decide(parse_formula(FIGURE5))
        assert isinstance(verdict, Open)
        m = verdict.model
        assert set(m.worlds) == {"n0", "n2", "n3"}
        assert m.preference == frozenset({("n3", "n2")})
        assert m.valuation["n2"] == frozenset({"p"})
        assert m.valuation["n3"] == frozenset({"p", "q"})
        assert holds_at(m, "n0", parse_formula(FIGURE5))

    def test_deterministic(self):
        f = parse_formula(FIGURE5)
        a = decide(f)
        b = decide(f)
        assert a.trace == b.trace
        assert a.model.to_json_dict() == b.model.to_json_dict()
        g = parse_formula("([a]p & ~[[a]]p) | (p & ~p)")
        assert decide(g).traces == decide(g).traces

    def test_rule_app_limit(self):
        with pytest.raises(ResourceLimitError):
            decide(parse_formula(FIGURE5), max_rule_apps=2)

    def test_label_limit(self):
        with pytest.raises(ResourceLimitError):
            decide(parse_formula("~[a]p & ~[a]q & ~[a]~p"), max_labels=2)


class TestExtractModel:
    def test_single_fact(self):
        (b,) = initial_tableau(p)
        b = saturate_first(b)
        m = extract_model(b)
        assert m.worlds == ("n0",)
        assert m.valuation["n0"] == frozenset({"p"})
        assert all(not rel for rel in m.relations.values())

    def test_formula_free_minimal_label_is_a_world(self):
        (b,) = initial_tableau(parse_formula("~[a]p"))
        _, right = step(b)
        b = saturate_first(right)
        m = extract_model(b)
        # the non-minimal case yields a world carrying no formula at all
        assert set(m.worlds) == {"n0", "n2", "n3"}
        assert m.valuation["n3"] == frozenset()
        assert verify_branch_model(b, m)

    def test_extracted_model_is_valid(self):
        verdict = decide(parse_formula(FIGURE5))
        validate_model(verdict.model.to_json_dict())


class TestVerifyBranchModel:
    def test_figure5(self):
        verdict = decide(parse_formula(FIGURE5))
        assert verify_branch_model(verdict.branch, verdict.model)

    def test_tampered_model_fails(self):
        verdict = decide(parse_formula(FIGURE5))
        m = verdict.model
        tampered = validate_model(m.to_json_dict())
        flipped = dict(tampered.valuation)
        flipped["n2"] = flipped["n2"] | {"q"}
        tampered.valuation.update(flipped)
        assert not verify_branch_model(verdict.branch, tampered)

    def test_trivial(self):
        (b,) = initial_tableau(p)
        b = saturate_first(b)
        assert verify_branch_model(b, extract_model(b))


class TestCalculusProperties:
    def test_random_corpus_against_oracle(self):
        rng = random.Random(51)
        sig = ModelSignature(("p", "q"), ("a",), 2)
        for _ in range(120):
            f = random_formula(rng, rng.randint(1, 7))
            verdict = decide(f, check_invariants=True)
            if isinstance(verdict, Open):
                assert holds_at(verdict.model, "n0", f)
            else:
                assert brute_force_satisfiable(f, sig) is None

    def test_open_branch_formulas_within_subformula_closure(self):
        verdict = decide(parse_formula(FIGURE5), check_invariants=True)
        root = desugar(parse_formula(FIGURE5))
        allowed = subformulas(root)
        allowed |= {Not(g) for g in allowed} | {Bottom()}
        for _, g in verdict.branch.formulas:
            assert g in allowed
