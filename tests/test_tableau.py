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
from test_acceptance import exhaustive_core_corpus

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


class TestRuleOrder:
    """Exact traces: rule instances are applied in the fixed rule order,
    oldest formula first, then oldest successor first."""

    def test_box_before_its_edge(self):
        assert decide(parse_formula("[a]q & ~[a]p")).trace == (
            "(and) @ 0 :: [a]q & ~[a]p",
            "(dia:min) @ 0 :: ~[a]p [=> 1 :: ~p, edge 0-a->1, 1 minimal]",
            "(box) @ 0 :: [a]q [=> 1 :: q]",
            "branch open (saturated)",
        )

    def test_box_after_its_edge(self):
        verdict = decide(parse_formula("~[[a]]p & (false | [a]q)"))
        assert verdict.trace == (
            "(and) @ 0 :: ~[[a]]p & ~(~false & ~[a]q)",
            "(defdia) @ 0 :: ~[[a]]p [=> 1 :: ~p, edge 0-a->1, 1 minimal]",
            "(or:right) @ 0 :: ~(~false & ~[a]q)",
            "(neg) @ 0 :: ~~[a]q",
            "(box) @ 0 :: [a]q [=> 1 :: q]",
            "branch open (saturated)",
        )

    def test_boxes_over_several_successors(self):
        f = parse_formula("[a]q & [a]r & ~[a]p & ~[a]s & [[a]]t & ~[[a]]u")
        assert decide(f).trace == (
            "(and) @ 0 :: [a]q & [a]r & ~[a]p & ~[a]s & [[a]]t & ~[[a]]u",
            "(and) @ 0 :: [a]q & [a]r & ~[a]p & ~[a]s & [[a]]t",
            "(and) @ 0 :: [a]q & [a]r & ~[a]p & ~[a]s",
            "(and) @ 0 :: [a]q & [a]r & ~[a]p",
            "(and) @ 0 :: [a]q & [a]r",
            "(defdia) @ 0 :: ~[[a]]u [=> 1 :: ~u, edge 0-a->1, 1 minimal]",
            "(box) @ 0 :: [a]q [=> 1 :: q]",
            "(box) @ 0 :: [a]r [=> 1 :: r]",
            "(defbox) @ 0 :: [[a]]t [=> 1 :: t]",
            "(dia:min) @ 0 :: ~[a]s [=> 2 :: ~s, edge 0-a->2, 2 minimal]",
            "(box) @ 0 :: [a]q [=> 2 :: q]",
            "(box) @ 0 :: [a]r [=> 2 :: r]",
            "(defbox) @ 0 :: [[a]]t [=> 2 :: t]",
            "(dia:min) @ 0 :: ~[a]p [=> 5 :: ~p, edge 0-a->5, 5 minimal]",
            "(box) @ 0 :: [a]q [=> 5 :: q]",
            "(box) @ 0 :: [a]r [=> 5 :: r]",
            "(defbox) @ 0 :: [[a]]t [=> 5 :: t]",
            "branch open (saturated)",
        )

    def test_boxes_over_two_new_edges(self):
        # (dia:nonmin) adds two edges at once: each box meets both
        # successors before the next box is applied
        f = parse_formula("[[a]]p & ~[a]p & [a]q & [a]r")
        assert decide(f).trace == (
            "(and) @ 0 :: [[a]]p & ~[a]p & [a]q & [a]r",
            "(and) @ 0 :: [[a]]p & ~[a]p & [a]q",
            "(and) @ 0 :: [[a]]p & ~[a]p",
            "(dia:nonmin) @ 0 :: ~[a]p [=> 2 :: ~p, edges 0-a->2,3, "
            "3 preferred to 2, 3 minimal]",
            "(box) @ 0 :: [a]r [=> 2 :: r]",
            "(box) @ 0 :: [a]r [=> 3 :: r]",
            "(box) @ 0 :: [a]q [=> 2 :: q]",
            "(box) @ 0 :: [a]q [=> 3 :: q]",
            "(defbox) @ 0 :: [[a]]p [=> 3 :: p]",
            "branch open (saturated)",
        )

    def test_rule_order_across_kinds(self):
        # (neg) before (and), (defdia) before (or) before (dia)
        f = parse_formula("~[a]p & (p | q) & ~[[a]]q & ~~(q & r)")
        assert decide(f).trace == (
            "(and) @ 0 :: ~[a]p & ~(~p & ~q) & ~[[a]]q & ~~(q & r)",
            "(neg) @ 0 :: ~~(q & r)",
            "(and) @ 0 :: ~[a]p & ~(~p & ~q) & ~[[a]]q",
            "(and) @ 0 :: q & r",
            "(and) @ 0 :: ~[a]p & ~(~p & ~q)",
            "(defdia) @ 0 :: ~[[a]]q [=> 1 :: ~q, edge 0-a->1, 1 minimal]",
            "(or:left) @ 0 :: ~(~p & ~q)",
            "(neg) @ 0 :: ~~p",
            "(dia:min) @ 0 :: ~[a]p [=> 2 :: ~p, edge 0-a->2, 2 minimal]",
            "branch open (saturated)",
        )

    def test_closed_traces(self):
        prefix = ("(and) @ 0 :: ~(~p & ~q) & ~p & ~q",
                  "(and) @ 0 :: ~(~p & ~q) & ~p")
        # ~p is on the label, so (or) adds the other disjunct, no split
        assert decide(parse_formula("(p | q) & ~p & ~q")).traces == (
            prefix + ("(or:unit) @ 0 :: ~(~p & ~q) [=> 0 :: ~~q (with ~p)]",
                      "(bot) @ 0 :: ~~q [=> 0 :: false (with ~q)]",
                      "branch closed"),
        )

    def test_figure5_rule_application_count(self):
        f = parse_formula(FIGURE5)
        # 3 shared applications, 4 on the closed (dia:min) side, 5 on
        # the open one; (or) is a unit step on both sides
        with pytest.raises(ResourceLimitError, match="limit 11 exceeded"):
            decide(f, max_rule_apps=11)
        assert isinstance(decide(f, max_rule_apps=12), Open)


class TestOrRule:
    """(or) on ~(A & B): satisfied and unit cases, semantic branching."""

    def test_unit_opens_without_split(self):
        verdict = decide(parse_formula("(p | q) & ~p"))
        assert isinstance(verdict, Open)
        rules = {line.split()[0] for line in verdict.trace}
        assert "(or:unit)" in rules
        assert not rules & {"(or:left)", "(or:right)"}
        assert (0, Not(Not(q))) in verdict.branch.formula_set

    def test_unit_closes_on_one_branch(self):
        verdict = decide(parse_formula("(p | q) & ~p & ~q"))
        assert isinstance(verdict, Closed)
        assert len(verdict.traces) == 1

    def test_satisfied_disjunction_skipped(self):
        # q -> r is ~(q & ~r), and its disjunct ~q is already on label 0
        verdict = decide(parse_formula("~q & (q -> r)"))
        assert verdict.trace == (
            "(and) @ 0 :: ~q & ~(q & ~r)",
            "(or:satisfied) @ 0 :: ~(q & ~r) [=> 0 :: ~q already holds]",
            "branch open (saturated)",
        )

    def test_right_side_carries_left_complement(self):
        (b,) = initial_tableau(parse_formula("p | q"))
        left, right = step(b)
        assert (0, Not(Not(p))) in left.formula_set
        assert (0, Not(p)) not in left.formula_set
        assert {(0, Not(Not(q))), (0, Not(p))} <= right.formula_set

    def test_invariants_on_core_corpus(self):
        # every formula semantic branching adds is in the subformula
        # closure; the corpus reaches the unit case and the right side
        seen = set()
        for f in exhaustive_core_corpus(6):
            verdict = decide(f, check_invariants=True)
            branches = (verdict.events if isinstance(verdict, Closed)
                        else [verdict.branch.events])
            seen.update(e[0] for events in branches for e in events)
        assert {"(or:unit)", "(or:left)", "(or:right)"} <= seen


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
        raw = verdict.model.to_json_dict()
        raw["valuation"]["n2"] = sorted({*raw["valuation"]["n2"], "q"})
        tampered = validate_model(raw)
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
