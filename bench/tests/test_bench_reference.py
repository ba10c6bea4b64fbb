"""Tests of the benchmark's reference evaluator and inputs.

    python3 -m pytest bench/tests

The reference evaluator judges every output of the benchmark, so it is
tested here on hand-known facts, never against `dmt`'s evaluator.
"""

import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import formulas as F  # noqa: E402
import reference as R  # noqa: E402


@pytest.fixture(scope="module")
def figure3():
    with open(ROOT / "fixtures" / "figure3.json") as fh:
        return R.Model.from_json(json.load(fh))


p, c, h = F.p, F.c, F.h
neg = F.neg


def test_figure3_acceptance_facts(figure3):
    # acceptance criterion 2: the power-plant model of the paper
    for f in (("iff", ("and", p, neg(c)), h),
              ("imp", neg(p), ("defbox", "f", p)),
              ("imp", c, ("defbox", "f", neg(h))),
              ("imp", h, ("defdia", "m", ("true",))),
              ("dia", "f", neg(h))):
        assert R.globally(figure3, f), F.render(f)
    assert R.holds(figure3, "w1", ("defbox", "m", ("false",)))
    assert not R.holds(figure3, "w4", ("defbox", "m", ("false",)))
    assert R.holds(figure3, "w4", ("and", h, ("defdia", "f", neg(h))))


def test_figure3_powerplant_kb_holds(figure3):
    assert all(R.globally(figure3, g) for g in F.POWERPLANT_KB)


def test_figure3_preference_closed_to_total_order(figure3):
    assert figure3.frame.preference_pairs() == {
        ("w1", "w2"), ("w1", "w3"), ("w1", "w4"),
        ("w2", "w3"), ("w2", "w4"), ("w3", "w4")}


def test_minimal_successors_figure3(figure3):
    # w3 -f-> {w1, w4}: w1 is preferred to w4
    assert figure3.frame.successors("f", "w3") == {"w1", "w4"}
    assert figure3.frame.minimal_successors("f", "w3") == {"w1"}
    # w4 -m-> {w3, w4}
    assert figure3.frame.minimal_successors("m", "w4") == {"w3"}
    assert figure3.frame.minimal_successors("m", "w1") == frozenset()


def test_incomparable_worlds_are_all_minimal():
    frame = R.Frame(["a", "b", "c"], {"i": [("a", "b"), ("a", "c")]},
                    [("c", "a")])
    assert frame.minimal_successors("i", "a") == {"b", "c"}


def test_preference_cycle_rejected():
    with pytest.raises(R.ReferenceModelError):
        R.Frame(["a", "b", "c"], {}, [("a", "b"), ("b", "c"), ("c", "a")])


def test_unknown_world_rejected():
    with pytest.raises(R.ReferenceModelError):
        R.Model.from_json({"worlds": ["a"], "relations": {"i": [["a", "z"]]}})


def test_conditional_klm_reading():
    # b is preferred to a; both satisfy p, only b satisfies q
    model = R.Model.from_json({"worlds": ["a", "b"],
                               "valuation": {"a": ["p"], "b": ["p", "q"]},
                               "preference": [["b", "a"]]})
    assert R.conditional(model, p, F.atom("q"))
    assert not R.globally(model, ("imp", p, F.atom("q")))


def random_model(rng, k):
    worlds = [f"w{j}" for j in range(k)]
    chain = rng.sample(worlds, k)
    order = [(chain[i], chain[j]) for i in range(k) for j in range(i + 1, k)
             if rng.random() < 0.5]
    return R.Model.from_json({
        "worlds": worlds,
        "relations": {i: [[a, b] for a in worlds for b in worlds
                          if rng.random() < 0.4] for i in "ab"},
        "valuation": {w: [x for x in "pq" if rng.random() < 0.5]
                      for w in worlds},
        "preference": [list(pair) for pair in order],
    })


def test_dualities_and_classical_box_implies_defeasible_box():
    rng = random.Random(1)
    for _ in range(200):
        model = random_model(rng, rng.randint(1, 5))
        x = F.random_formula(rng, rng.randint(1, 6), ("p", "q"), ("a", "b"))
        i = rng.choice("ab")
        everywhere = model.frame.all
        assert R.extension(model, ("defbox", i, x)) == \
            everywhere - R.extension(model, ("defdia", i, neg(x)))
        assert R.extension(model, ("box", i, x)) == \
            everywhere - R.extension(model, ("dia", i, neg(x)))
        assert R.globally(model, ("imp", ("box", i, x), ("defbox", i, x)))
        assert R.globally(model, ("imp", ("defdia", i, x), ("dia", i, x)))


def test_model_enumeration_counts():
    # the oracle's signature: 4 + 192 + 77,824 models
    assert len(R.strict_partial_orders(["a", "b", "c"])) == 19
    assert sum(1 for _ in R.models(("p",), ("a",), 2)) == 4 + 192


def test_find_model():
    found = R.find_model(("and", ("defbox", "a", p), neg(("box", "a", p))),
                         ("p",), ("a",), 3)
    assert found is not None
    model, world = found
    assert len(model.worlds) == 2
    assert R.holds(model, world, ("and", ("defbox", "a", p),
                                  neg(("box", "a", p))))
    assert R.find_model(("and", p, neg(p)), ("p",), ("a",), 2) is None


@pytest.mark.parametrize("name", sorted(F.HAND_COUNTERMODELS))
def test_hand_countermodels(name):
    data, witness = F.HAND_COUNTERMODELS[name]
    _, kb, query, expected = next(q for q in F.HAND_QUERIES if q[0] == name)
    assert expected == "not_entailed" and kb == "extended"
    model = R.Model.from_json(data)
    assert all(R.globally(model, g) for g in F.EXTENDED_KB)
    assert not R.holds(model, witness, query)


def test_hand_entailments_have_no_small_countermodel():
    # the proofs are in the README; this checks the power-plant one up to
    # 2 worlds (the extended KB's signature is too large to enumerate)
    kb_models = [m for m in R.models(F.KB_ATOMS, F.KB_MODALITIES, 2)
                 if all(R.globally(m, g) for g in F.POWERPLANT_KB)]
    assert kb_models
    query = next(q for n, _, q, _ in F.HAND_QUERIES if n == "pp:p-><<f>>~h")
    assert all(R.globally(m, query) for m in kb_models)


# The remaining tests check that the text the benchmark hands to dmt
# means what the benchmark's trees say.

TREE_OPS = {"And": "and", "Or": "or", "Implies": "imp", "Iff": "iff",
            "Box": "box", "Dia": "dia", "DefBox": "defbox",
            "DefDia": "defdia"}


def to_tree(g):
    """dmt's AST as a benchmark tree."""
    name = type(g).__name__
    if name == "Atom":
        return F.atom(g.name)
    if name in ("Top", "Bottom"):
        return ("true",) if name == "Top" else ("false",)
    if name == "Not":
        return neg(to_tree(g.operand))
    if hasattr(g, "modality"):
        return (TREE_OPS[name], g.modality, to_tree(g.operand))
    return (TREE_OPS[name], to_tree(g.left), to_tree(g.right))


def test_rendered_text_parses_to_the_same_tree():
    from dmt.syntax import parse_formula
    rng = random.Random(3)
    for _ in range(300):
        f = F.random_formula(rng, rng.randint(1, 25), ("p", "q", "r"),
                             ("a", "b"))
        assert to_tree(parse_formula(F.render(f))) == f


def test_transcribed_kb_matches_fixture():
    from dmt.engine import load_kb
    kb = load_kb(ROOT / "fixtures" / "powerplant.kb")
    assert tuple(map(to_tree, kb.formulas)) == F.POWERPLANT_KB


def test_expected_file_is_consistent():
    with open(BENCH / "expected.json") as fh:
        expected = json.load(fh)
    corpus = {F.render(f) for f in F.core_corpus()}
    assert set(expected["oracle"]["no_model"]) <= corpus
    assert len(expected["oracle"]["no_model"]) == 404
    pool = F.decide_pool()
    texts = {F.render(f) for f in pool} | {F.render(neg(f)) for f in pool}
    assert set(expected["decide"]["no_model"]) <= texts
    queries = {F.render(q) for q in F.entail_pool()}
    assert set(expected["entail"]["no_countermodel"]) <= queries
    # spot-check a few entries against a fresh search
    rng = random.Random(4)
    for text in rng.sample(expected["oracle"]["no_model"], 3):
        f = next(f for f in F.core_corpus() if F.render(f) == text)
        assert R.find_model(f, ("p",), ("a",), 2) is None


def test_left_out_query_has_a_three_world_countermodel():
    # ~c -> <f>~p over the power-plant KB, for which the engine answers
    # Unknown (see the README)
    model = R.Model.from_json({
        "worlds": ["w1", "w2", "w3"],
        "relations": {"f": [["w1", "w2"], ["w2", "w3"], ["w3", "w3"]]},
        "valuation": {"w1": [], "w2": ["p", "c"], "w3": ["c"]},
    })
    assert all(R.globally(model, g) for g in F.POWERPLANT_KB)
    assert not R.holds(model, "w1", ("imp", neg(c), ("dia", "f", neg(p))))
