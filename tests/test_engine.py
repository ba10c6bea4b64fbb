import itertools
import os
import random
import subprocess
import sys

import pytest

from dmt import engine
from dmt.engine import (
    Entailed, KBError, KnowledgeBase, NotEntailed, countermodel,
    global_entails, is_valid, kb_to_conditionals, load_kb,
)
from dmt.semantics import (
    PARTIAL_ORDERS, InvariantViolation, ModelSignature, PreferentialModel,
    enumerate_models, extension, holds_at, holds_conditional, min_preferred,
    satisfies_kb_globally, strict_partial_orders,
)
from dmt.syntax import (
    And, Atom, Bottom, Box, DefBox, Not, Or, desugar, parse_formula,
    subformulas,
)
from dmt.tableau import ResourceLimitError
from conftest import FIXTURES, random_formula

p, q = Atom("p"), Atom("q")


class TestLoadKb:
    def test_comments_and_blank_lines(self, tmp_path):
        kb = tmp_path / "kb"
        kb.write_text("# head\n\n  p -> q  # why\n\t\n[a]p\n")
        assert load_kb(kb).formulas == (parse_formula("p -> q"),
                                        parse_formula("[a]p"))

    def test_error_column_counts_from_the_line_start(self, tmp_path):
        kb = tmp_path / "kb"
        kb.write_text("p\n\n  q &  # cut short\n")
        with pytest.raises(KBError) as info:
            load_kb(kb)
        assert str(info.value) == (
            f"{kb}:3:8: unexpected end of input, expected one of: "
            f"(, <, <<, [, [[, false, identifier, true, ~")


class TestModelSpaceSize:
    def test_orders_built_once_match_enumeration(self):
        for k, orders in PARTIAL_ORDERS.items():
            names = tuple(f"w{j + 1}" for j in range(k))
            assert list(orders) == strict_partial_orders(names)
        assert [len(PARTIAL_ORDERS[k]) for k in (1, 2, 3)] == [1, 3, 19]


class TestIsValid:
    def test_defeasible_k_schema(self):
        ok, _ = is_valid(parse_formula("[[a]](p -> q) -> ([[a]]p -> [[a]]q)"))
        assert ok

    def test_defeasible_and_distribution(self):
        ok, _ = is_valid(parse_formula("[[a]](p & q) <-> ([[a]]p & [[a]]q)"))
        assert ok

    def test_or_distribution_converse_fails(self):
        ok, model = is_valid(parse_formula("[[a]](p | q) -> ([[a]]p | [[a]]q)"))
        assert not ok
        assert not holds_at(model, "n0",
                            parse_formula("[[a]](p | q) -> ([[a]]p | [[a]]q)"))
        # two incomparable minimal successors, one q-only and one p-only
        minimal = min_preferred(model, model.successors("a", "n0"))
        assert len(minimal) == 2
        kinds = {frozenset(model.valuation[w] & {"p", "q"}) for w in minimal}
        assert kinds == {frozenset({"p"}), frozenset({"q"})}


class TestCountermodel:
    def test_invalid_formula(self):
        found = countermodel(parse_formula("[[a]](p -> q) -> ([a]p -> [a]q)"))
        assert found is not None
        model, world = found
        assert not holds_at(model, world,
                            parse_formula("[[a]](p -> q) -> ([a]p -> [a]q)"))

    def test_atom_implies_its_negation(self):
        model, world = countermodel(parse_formula("p -> ~p"))
        assert len(model.worlds) == 1
        assert holds_at(model, world, p)

    def test_tautology(self):
        assert countermodel(parse_formula("p | ~p")) is None


class TestKbToConditionals:
    def test_single(self):
        (cond,) = kb_to_conditionals(KnowledgeBase((p,)))
        assert cond.antecedent == Not(p)
        assert cond.consequent == Bottom()

    def test_empty(self):
        assert kb_to_conditionals(KnowledgeBase(())) == []

    def test_pointwise_in_order(self):
        kb = KnowledgeBase((DefBox("f", p), Box("m", q)))
        conds = kb_to_conditionals(kb)
        assert [c.antecedent for c in conds] == \
            [Not(DefBox("f", p)), Not(Box("m", q))]


class TestGlobalEntails:
    @pytest.fixture()
    def power_kb(self):
        return load_kb(FIXTURES / "powerplant.kb")

    @pytest.mark.parametrize("query", [
        "p -> [[f]]~h",
        "[[m]]false -> (~p | c)",
        "(p | c) -> [[f]]~h",
    ])
    def test_power_plant_entailments(self, power_kb, query):
        verdict = global_entails(power_kb, parse_formula(query))
        assert isinstance(verdict, Entailed)

    @pytest.mark.parametrize("query", [
        "p -> <<f>>~h",
        "h -> <<f>>~h",
        "c -> <<f>>~h",
    ])
    def test_entailed_within_default_limits(self, power_kb, query):
        # entailed: bench/README.md proves the first, and h and c force
        # ~h at the minimal f-successors the same way
        verdict = global_entails(power_kb, parse_formula(query))
        assert isinstance(verdict, Entailed)

    @pytest.mark.parametrize("extended, query", [
        (True, "c -> [f]c"), (True, "r -> [g]r"), (False, "~c -> <f>~p"),
    ], ids=["c -> [f]c", "r -> [g]r", "~c -> <f>~p"])
    def test_countermodels_found(self, power_kb, extended, query):
        # the smallest countermodels have 2, 2 and 3 worlds (bench/README.md
        # and bench/tests/test_bench_reference.py give them)
        kb = power_kb
        if extended:
            kb = KnowledgeBase(power_kb.formulas + (
                parse_formula("r -> [g]s"), parse_formula("s -> <<g>>r")))
        f = parse_formula(query)
        verdict = global_entails(kb, f)
        assert isinstance(verdict, NotEntailed)
        assert satisfies_kb_globally(verdict.countermodel, kb.formulas)
        assert not holds_at(verdict.countermodel, verdict.witness_world, f)

    def test_empty_kb_is_validity(self):
        verdict = global_entails(KnowledgeBase(()), p)
        assert isinstance(verdict, NotEntailed)
        assert len(verdict.countermodel.worlds) == 1
        assert not holds_at(verdict.countermodel, verdict.witness_world, p)

    def test_free_items_over_the_cap(self, monkeypatch):
        # one more atom than the cap: refused before any mask is built
        def no_masks(*args):
            raise AssertionError("a mask was built")

        monkeypatch.setattr(engine, "_spread", no_masks)
        atoms = [f"p{j}" for j in range(engine.MAX_FREE_ITEMS + 1)]
        kb = KnowledgeBase((parse_formula(" | ".join(atoms)),))
        with pytest.raises(ResourceLimitError):
            global_entails(kb, parse_formula("p0"))

    def test_not_entailed_certificate(self, power_kb):
        verdict = global_entails(power_kb, parse_formula("h"))
        assert isinstance(verdict, NotEntailed)
        assert satisfies_kb_globally(verdict.countermodel, power_kb.formulas)
        assert not holds_at(verdict.countermodel, verdict.witness_world,
                            Atom("h"))


def small_kb_corpus(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        kb = KnowledgeBase(tuple(
            random_formula(rng, rng.randint(1, 4), atoms=("p", "q"),
                           modalities=("a",))
            for _ in range(rng.randint(0, 2))))
        query = random_formula(rng, rng.randint(1, 4), atoms=("p", "q"),
                               modalities=("a",))
        yield kb, query


class TestEntailmentProperties:
    SIG = ModelSignature(("p", "q"), ("a",), 2)

    def _oracle_entails(self, kb, f):
        for m in enumerate_models(self.SIG):
            if satisfies_kb_globally(m, kb.formulas) and \
                    len(extension(m, f)) != len(m.worlds):
                return False, m
        return True, None

    def test_entailed_verdicts_sound_against_oracle(self):
        # and the converse: a 2-world model of the KB that refutes the
        # query makes the verdict NotEntailed
        refuted = 0
        for kb, query in small_kb_corpus(61, 60):
            verdict = global_entails(kb, query)
            ok, refuting = self._oracle_entails(kb, query)
            assert isinstance(verdict, Entailed) == ok, \
                (kb, query, refuting)
            refuted += not ok
        assert 10 < refuted < 50

    def test_not_entailed_certificates_verify(self):
        for kb, query in small_kb_corpus(62, 60):
            verdict = global_entails(kb, query)
            if isinstance(verdict, NotEntailed):
                assert satisfies_kb_globally(verdict.countermodel,
                                             kb.formulas)
                assert not holds_at(verdict.countermodel,
                                    verdict.witness_world, query)

    def test_inclusion(self):
        # each KB member is entailed
        for kb, _ in small_kb_corpus(63, 30):
            for f in kb.formulas:
                verdict = global_entails(kb, f)
                assert isinstance(verdict, Entailed)

    def test_monotonicity(self):
        rng = random.Random(64)
        for kb, query in small_kb_corpus(65, 40):
            extra = random_formula(rng, rng.randint(1, 4), atoms=("p", "q"),
                                   modalities=("a",))
            bigger = KnowledgeBase(kb.formulas + (extra,))
            small_verdict = global_entails(kb, query)
            big_verdict = global_entails(bigger, query)
            if isinstance(small_verdict, Entailed):
                assert not isinstance(big_verdict, NotEntailed)

    def test_conditional_translation_bridge(self):
        # a model satisfies a KB globally iff it satisfies every conditional
        # in its translation
        for kb, _ in small_kb_corpus(66, 25):
            conds = kb_to_conditionals(kb)
            for m in itertools.islice(enumerate_models(self.SIG), 0, None, 7):
                assert satisfies_kb_globally(m, kb.formulas) == \
                    all(holds_conditional(m, c) for c in conds)


def elimination_by_loop(kb, f):
    """The reference for global_entails: type elimination one type at a
    time, a type being a dict from item to truth value.  The number of
    surviving types, and whether one of them holds ~f."""
    roots = [desugar(g) for g in kb.formulas] + [Not(desugar(f))]
    items = [g for g in subformulas(*roots)
             if isinstance(g, (Atom, Box, DefBox))]

    def holds(t, g):
        if isinstance(g, Not):
            return not holds(t, g.operand)
        if isinstance(g, And):
            return holds(t, g.left) and holds(t, g.right)
        return not isinstance(g, Bottom) and t[g]

    def met(t, kept):
        for i in {g.modality for g in items if not isinstance(g, Atom)}:
            boxes = [g for g in items
                     if not isinstance(g, Atom) and g.modality == i]
            b = [g.operand for g in boxes if isinstance(g, Box) and t[g]]
            bd = b + [g.operand for g in boxes if isinstance(g, DefBox)
                      and t[g]]
            demands = [g for g in boxes if not t[g]]
            # a minimal successor, then a witness per demand
            needs = [bd] + [
                (bd if isinstance(g, DefBox) else b) + [Not(g.operand)]
                for g in demands] if demands else []
            if not all(any(all(holds(s, x) for x in need) for s in kept)
                       for need in needs):
                return False
        return True

    types = [dict(zip(items, bits))
             for bits in itertools.product((False, True), repeat=len(items))]
    kept = [t for t in types if all(holds(t, g) for g in roots[:-1])]
    while True:
        survivors = [t for t in kept if met(t, kept)]
        if len(survivors) == len(kept):
            return len(kept), any(holds(t, roots[-1]) for t in kept)
        kept = survivors


class TestEliminationByLoop:
    def test_matches_type_by_type_loop(self):
        power = load_kb(FIXTURES / "powerplant.kb")
        cases = list(small_kb_corpus(68, 60)) + [
            (power, parse_formula(text)) for text in
            ("p -> [[f]]~h", "p -> <<f>>~h", "h", "~c -> <f>~p")]
        entailed = 0
        for kb, query in cases:
            verdict = global_entails(kb, query)
            survivors, refuted = elimination_by_loop(kb, query)
            assert isinstance(verdict, NotEntailed) == refuted, (kb, query)
            if not refuted:
                entailed += 1
                assert verdict.survivors == survivors, (kb, query)
        assert 10 < entailed < len(cases) - 10


class TestBruteForceRefutation:
    @pytest.mark.parametrize("valuation", [{}, {"w1": ["q"]}],
                             ids=["kb-fails", "query-holds"])
    def test_bad_countermodel_rejected(self, monkeypatch, valuation):
        # the elimination search, under its old name, hands back a model
        # that global_entails must refuse: the KB <a>true fails at w1
        # without a successor, or the query q holds there
        bad = PreferentialModel(["w1"], ["q"], ["a"],
                                {"a": {("w1", "w1")} if valuation else set()},
                                valuation, [])
        monkeypatch.setattr(engine, "_brute_force_refutation",
                            lambda *args: (bad, "w1"))
        kb = KnowledgeBase((parse_formula("<a>true"),))
        with pytest.raises(InvariantViolation):
            global_entails(kb, parse_formula("q"))

    def test_checks_survive_optimisation(self):
        script = (
            "from dmt import engine\n"
            "from dmt.semantics import InvariantViolation, PreferentialModel\n"
            "from dmt.syntax import parse_formula\n"
            "bad = PreferentialModel(['w1'], [], ['a'], {}, {}, [])\n"
            "engine._brute_force_refutation = lambda *args: (bad, 'w1')\n"
            "kb = engine.KnowledgeBase((parse_formula('<a>true'),))\n"
            "try:\n"
            "    engine.global_entails(kb, parse_formula('q'))\n"
            "except InvariantViolation:\n"
            "    print('rejected')\n")
        src = str(FIXTURES.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                             capture_output=True, text=True, timeout=60)
        assert run.stdout == "rejected\n", run.stderr


class TestDerivedRules:
    def test_normal_necessitation(self):
        # from a valid premise, its defeasible necessitation is valid
        rng = random.Random(67)
        for _ in range(15):
            f = random_formula(rng, rng.randint(1, 4))
            premise = Or(f, Not(f))
            assert is_valid(premise)[0]
            assert is_valid(DefBox("a", premise))[0]

    def test_nrk(self):
        # (a1 & a2) -> b valid implies ([[i]]a1 & [[i]]a2) -> [[i]]b valid
        cases = [("p", "p & q", "p | q"), ("p", "q", "q"),
                 ("p & q", "true", "p")]
        for a1, a2, b in cases:
            premise = parse_formula(f"(({a1}) & ({a2})) -> ({b})")
            assert is_valid(premise)[0]
            lifted = parse_formula(
                f"([[i]]({a1}) & [[i]]({a2})) -> [[i]]({b})")
            assert is_valid(lifted)[0]
