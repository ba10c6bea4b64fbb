import itertools
import os
import random
import subprocess
import sys

import pytest

from dmt import engine
from dmt.engine import (
    Entailed, KBError, KnowledgeBase, NotEntailed, Unknown, countermodel,
    global_entails, is_valid, kb_to_conditionals, load_kb,
)
from dmt.semantics import (
    PARTIAL_ORDERS, InvariantViolation, ModelSignature, PreferentialModel,
    enumerate_models, extension, holds_at, holds_conditional, min_preferred,
    satisfies_kb_globally, strict_partial_orders,
)
from dmt.syntax import (
    Atom, Bottom, Box, DefBox, Not, Or, atoms_of, modal_depth,
    modalities_of, parse_formula,
)
from conftest import FIXTURES, first_by_loop, random_formula, same_answer

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

    def test_sizes(self):
        # 5 atoms, 3 modalities: 256 one-world models, 12,582,912 two-world
        assert engine._model_space_size(5, 3, 1) == 256
        assert engine._model_space_size(5, 3, 2) == 256 + 12_582_912
        assert engine._model_space_size(1, 1, 3) == \
            2 * 2 + 4 * 16 * 3 + 8 * 512 * 19


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
        assert verdict.proved_at_depth <= 2

    @pytest.mark.parametrize("query", [
        "p -> <<f>>~h",
        "h -> <<f>>~h",
        "c -> <<f>>~h",
    ])
    def test_entailed_within_default_limits(self, power_kb, query):
        # entailed (bench/README.md proves the first, and h and c force
        # ~h at the minimal f-successors the same way), within the
        # default rule-application limit
        verdict = global_entails(power_kb, parse_formula(query))
        assert isinstance(verdict, Entailed)

    @pytest.mark.parametrize("query", ["c -> [f]c", "r -> [g]r"])
    def test_two_world_countermodels_found(self, power_kb, query):
        # each needs a 2-world countermodel from the brute-force fallback
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

    def test_max_depth_below_query_depth_rejected(self):
        with pytest.raises(ValueError):
            global_entails(KnowledgeBase(()), Box("a", p), max_depth=0)

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
        for kb, query in small_kb_corpus(61, 60):
            verdict = global_entails(kb, query)
            if isinstance(verdict, Entailed):
                ok, refuting = self._oracle_entails(kb, query)
                assert ok, (kb, query, refuting)

    def test_not_entailed_certificates_verify(self):
        for kb, query in small_kb_corpus(62, 60):
            verdict = global_entails(kb, query)
            if isinstance(verdict, NotEntailed):
                assert satisfies_kb_globally(verdict.countermodel,
                                             kb.formulas)
                assert not holds_at(verdict.countermodel,
                                    verdict.witness_world, query)

    def test_inclusion(self):
        # each KB member is entailed, proved at the first depth tried
        for kb, _ in small_kb_corpus(63, 30):
            for f in kb.formulas:
                verdict = global_entails(kb, f)
                assert isinstance(verdict, Entailed)
                assert verdict.proved_at_depth == modal_depth(f)

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


def refutation_by_loop(kb, f):
    """The fallback's search as a loop over `enumerate_models`, with the
    fallback's world bound."""
    atoms, modalities = atoms_of(f), modalities_of(f)
    for g in kb.formulas:
        atoms |= atoms_of(g)
        modalities |= modalities_of(g)
    max_worlds = max((k for k in (1, 2, 3) if engine._model_space_size(
        len(atoms), len(modalities), k) <= engine._BRUTE_FORCE_BUDGET),
        default=0)
    if not max_worlds:
        return None, atoms, modalities
    sig = ModelSignature(tuple(sorted(atoms)), tuple(sorted(modalities)),
                         max_worlds)
    return first_by_loop(sig, Not(f), kb.formulas), atoms, modalities


class TestBruteForceRefutation:
    def test_matches_per_model_loop(self):
        cases = list(small_kb_corpus(62, 40))
        power = load_kb(FIXTURES / "powerplant.kb")
        cases += [(power, parse_formula(q))
                  for q in ("h", "~c -> [f]c", "p -> [[f]]~h")]
        hits = 0
        for kb, query in cases:
            expected, atoms, modalities = refutation_by_loop(kb, query)
            found = engine._brute_force_refutation(kb, query, atoms,
                                                   modalities)
            assert same_answer(found, expected), (kb, query)
            hits += expected is not None
        assert 5 < hits < len(cases) - 5

    @pytest.mark.parametrize("valuation", [{}, {"w1": ["q"]}],
                             ids=["kb-fails", "query-holds"])
    def test_bad_countermodel_rejected(self, monkeypatch, valuation):
        # KB <a>true: the tableau's model has a world without successor,
        # so global_entails asks the fallback
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
