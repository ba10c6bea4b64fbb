import json
import random

import pytest

from dmt.semantics import (
    Conditional, ModelError, ModelSignature, PreferentialModel,
    brute_force_satisfiable, enumerate_models, extension, globally_true,
    holds_at, holds_conditional, min_preferred, satisfies_kb_globally,
    strict_partial_orders, transitive_closure, validate_model,
)
from dmt.syntax import (
    And, Atom, Bottom, Box, DefBox, DefDia, Dia, Iff, Implies, Not, Or, Top,
    desugar, is_classical, parse_formula,
)
from conftest import FIXTURES, random_formula, random_model, random_order

p, h = Atom("p"), Atom("h")


class TestValidateModel:
    def test_figure3_preference_is_total_order(self, figure3):
        assert figure3.preference == frozenset({
            ("w1", "w2"), ("w1", "w3"), ("w1", "w4"),
            ("w2", "w3"), ("w2", "w4"), ("w3", "w4")})

    def test_cycle_rejected(self):
        with pytest.raises(ModelError, match="cycle"):
            validate_model({"worlds": ["a", "b"], "atoms": [],
                            "modalities": [],
                            "preference": [["a", "b"], ["b", "a"]]})

    def test_empty_preference_is_fine(self):
        m = validate_model({"worlds": ["a"], "atoms": [], "modalities": []})
        assert m.preference == frozenset()

    def test_empty_world_set_rejected(self):
        with pytest.raises(ModelError, match="non-empty"):
            validate_model({"worlds": [], "atoms": [], "modalities": []})

    def test_dangling_world_rejected(self):
        with pytest.raises(ModelError):
            validate_model({"worlds": ["a"], "atoms": [], "modalities": ["i"],
                            "relations": {"i": [["a", "zzz"]]}})

    def test_undeclared_atom_rejected(self):
        with pytest.raises(ModelError):
            validate_model({"worlds": ["a"], "atoms": [], "modalities": [],
                            "valuation": {"a": ["p"]}})

    @pytest.mark.parametrize("bad", [
        {"preference": [1]},
        {"preference": [["a", "b", "a"]]},
        {"relations": {"i": [["a"]]}},
        {"relations": {"i": [[["a"], "b"]]}},
        {"valuation": {"a": "p"}},
        {"valuation": ["a"]},
    ])
    def test_malformed_entries_rejected(self, bad):
        raw = {"worlds": ["a", "b"], "atoms": ["p"], "modalities": ["i"]}
        with pytest.raises(ModelError):
            validate_model({**raw, **bad})

    def test_round_trip_through_json_dict(self, figure3):
        again = validate_model(json.loads(json.dumps(figure3.to_json_dict())))
        assert again.preference == figure3.preference
        assert again.relations == figure3.relations
        assert again.valuation == figure3.valuation


class TestMinPreferred:
    def test_figure3(self, figure3):
        assert min_preferred(figure3, {"w3", "w4"}) == {"w3"}

    def test_empty(self, figure3):
        assert min_preferred(figure3, set()) == set()

    def test_incomparable_worlds_all_returned(self):
        m = validate_model({"worlds": ["a", "b"], "atoms": [],
                            "modalities": []})
        assert min_preferred(m, {"a", "b"}) == {"a", "b"}

    def test_nonempty_on_nonempty_input(self):
        rng = random.Random(21)
        for _ in range(200):
            m = random_model(rng)
            ws = {w for w in m.worlds if rng.random() < 0.6}
            if ws:
                got = min_preferred(m, ws)
                assert got and got <= ws


class TestExtension:
    def test_hazard_definition_everywhere(self, figure3):
        f = parse_formula("(p & ~c) <-> h")
        assert extension(figure3, f) == set(figure3.worlds)

    def test_malfunction_impossible(self, figure3):
        ext = extension(figure3, parse_formula("[[m]]false"))
        assert "w1" in ext and "w4" not in ext

    def test_top(self, figure3):
        assert extension(figure3, Top()) == set(figure3.worlds)


class TestHoldsAt:
    def test_hazard_with_normal_escape(self, figure3):
        assert holds_at(figure3, "w4", parse_formula("h & <<f>>~h"))

    def test_dead_end_defbox(self, figure3):
        assert holds_at(figure3, "w1", parse_formula("[[m]]false"))

    def test_bottom(self, figure3):
        for w in figure3.worlds:
            assert not holds_at(figure3, w, Bottom())

    def test_unknown_world(self, figure3):
        with pytest.raises(ModelError):
            holds_at(figure3, "nope", p)


class TestGloballyTrue:
    @pytest.mark.parametrize("text", [
        "~p -> [[f]]p",
        "c -> [[f]]~h",
        "<f>~h",
    ])
    def test_power_plant_claims(self, figure3, text):
        assert globally_true(figure3, parse_formula(text))


class TestConditionals:
    def test_bottom_antecedent(self, figure3):
        assert holds_conditional(figure3, Conditional(Bottom(), Atom("q")))

    def test_hazard_implies_possible_malfunction(self, figure3):
        assert holds_conditional(
            figure3, Conditional(h, DefDia("m", Top())))

    def test_most_normal_world(self, figure3):
        # w1 is the unique minimum and satisfies p and c
        assert holds_conditional(
            figure3, Conditional(Top(), And(p, Atom("c"))))


class TestKbSatisfaction:
    def test_power_plant_kb(self, figure3):
        from dmt.engine import load_kb
        kb = load_kb(FIXTURES / "powerplant.kb")
        assert satisfies_kb_globally(figure3, kb.formulas)

    def test_empty_kb(self, figure3):
        assert satisfies_kb_globally(figure3, [])

    def test_bottom_kb(self, figure3):
        assert not satisfies_kb_globally(figure3, [Bottom()])


class TestEnumeration:
    def test_one_world_count(self):
        sig = ModelSignature(("p",), ("a",), 1)
        assert sum(1 for _ in enumerate_models(sig)) == 4

    def test_order_counts(self):
        assert len(strict_partial_orders(("a", "b"))) == 3
        assert len(strict_partial_orders(("a", "b", "c"))) == 19

    def test_zero_worlds_rejected(self):
        with pytest.raises(ModelError):
            next(enumerate_models(ModelSignature((), (), 0)))

    def test_cap(self):
        with pytest.raises(ModelError, match="hard cap"):
            next(enumerate_models(ModelSignature((), (), 5)))

    def test_deterministic(self):
        sig = ModelSignature(("p",), ("a",), 2)
        a = [m.to_json_dict() for m in enumerate_models(sig)]
        b = [m.to_json_dict() for m in enumerate_models(sig)]
        assert a == b

    def test_all_yielded_models_are_valid(self):
        sig = ModelSignature(("p",), ("a",), 2)
        for m in enumerate_models(sig):
            validate_model(m.to_json_dict())


class TestBruteForce:
    def test_contradiction(self):
        sig = ModelSignature(("p",), ("a",), 3)
        assert brute_force_satisfiable(And(p, Not(p)), sig) is None

    def test_defeasible_weaker_than_box(self):
        # a most-normal successor satisfies p while some successor does not
        f = And(DefBox("a", p), Not(Box("a", p)))
        sig = ModelSignature(("p",), ("a",), 3)
        found = brute_force_satisfiable(f, sig)
        assert found is not None
        model, world = found
        assert holds_at(model, world, f)
        assert len(model.successors("a", world)) >= 2

    def test_atom(self):
        found = brute_force_satisfiable(p, ModelSignature(("p",), (), 1))
        model, world = found
        assert len(model.worlds) == 1 and holds_at(model, world, p)


class TestSemanticProperties:
    def _sample(self, seed, n=150, size=8):
        rng = random.Random(seed)
        for _ in range(n):
            yield rng, random_model(rng), random_formula(rng,
                                                         rng.randint(1, size))

    def test_defeasible_duality(self):
        for rng, m, f in self._sample(31):
            assert extension(m, DefDia("a", f)) == \
                extension(m, Not(DefBox("a", Not(f))))

    def test_defbox_distributes_over_and(self):
        for rng, m, f in self._sample(32):
            g = random_formula(rng, rng.randint(1, 6))
            assert extension(m, DefBox("a", And(f, g))) == \
                extension(m, DefBox("a", f)) & extension(m, DefBox("a", g))

    def test_box_implies_defbox(self):
        for rng, m, f in self._sample(33):
            assert extension(m, Box("a", f)) <= extension(m, DefBox("a", f))
            assert extension(m, DefDia("a", f)) <= extension(m, Dia("a", f))

    def test_bottom_top_collapse(self):
        rng = random.Random(34)
        for _ in range(150):
            m = random_model(rng)
            assert extension(m, DefBox("a", Bottom())) == \
                extension(m, Box("a", Bottom()))
            assert extension(m, DefDia("a", Top())) == \
                extension(m, Dia("a", Top()))

    def test_preference_invisible_to_classical_formulas(self):
        rng = random.Random(35)
        for _ in range(150):
            m = random_model(rng)
            f = random_formula(rng, rng.randint(1, 8), classical=True)
            assert is_classical(f)
            base = extension(m, f)
            for _ in range(3):
                other = PreferentialModel(
                    m.worlds, m.atoms, m.modalities, m.relations, m.valuation,
                    random_order(rng, m.worlds))
                assert extension(other, f) == base

    def test_global_truth_as_conditional(self):
        for rng, m, f in self._sample(36):
            assert globally_true(m, f) == \
                holds_conditional(m, Conditional(Not(f), Bottom()))

    def test_desugar_preserves_semantics(self):
        for rng, m, f in self._sample(37):
            assert extension(m, f) == extension(m, desugar(f))


def _defined_truth(m, w, f, memo):
    """Truth of f at world w, read off the definitions one world at a time."""
    key = (id(f), w)
    if key not in memo:
        memo[key] = _defined_truth_uncached(m, w, f, memo)
    return memo[key]


def _defined_truth_uncached(m, w, f, memo):
    def at(v, g):
        return _defined_truth(m, v, g, memo)

    if isinstance(f, Atom):
        return f.name in m.valuation.get(w, ())
    if isinstance(f, Top):
        return True
    if isinstance(f, Bottom):
        return False
    if isinstance(f, Not):
        return not at(w, f.operand)
    if isinstance(f, And):
        return at(w, f.left) and at(w, f.right)
    if isinstance(f, Or):
        return at(w, f.left) or at(w, f.right)
    if isinstance(f, Implies):
        return not at(w, f.left) or at(w, f.right)
    if isinstance(f, Iff):
        return at(w, f.left) == at(w, f.right)
    succ = {b for a, b in m.relations.get(f.modality, ()) if a == w}
    if isinstance(f, (DefBox, DefDia)):
        succ = {v for v in succ
                if not any((u, v) in m.preference for u in succ)}
    if isinstance(f, (Box, DefBox)):
        return all(at(v, f.operand) for v in succ)
    return any(at(v, f.operand) for v in succ)


def _naive_closure(pairs):
    closed = set(pairs)
    while True:
        new = {(a, d) for a, b in closed for c, d in closed if b == c}
        if new <= closed:
            return closed
        closed |= new


def test_evaluator_matches_definitions():
    rng = random.Random(41)
    for max_worlds, min_worlds, n, size in ((4, 1, 300, 10),
                                            (64, 16, 12, 10)):
        for _ in range(n):
            m = random_model(rng, max_worlds, modalities=("a", "b"),
                             min_worlds=min_worlds)
            f = random_formula(rng, rng.randint(1, size),
                               modalities=("a", "b"))
            memo = {}
            want = {w for w in m.worlds if _defined_truth(m, w, f, memo)}
            assert extension(m, f) == want
            assert globally_true(m, f) == (want == set(m.worlds))
    for _ in range(300):
        n = rng.randint(1, 12)
        pairs = {(rng.randrange(n), rng.randrange(n))
                 for _ in range(rng.randint(0, 2 * n))}
        assert transitive_closure(pairs) == _naive_closure(pairs)
