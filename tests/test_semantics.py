import gc
import json
import random
import sys
import threading

import pytest

from dmt import bitparallel, semantics, syntax
from dmt.semantics import (
    Conditional, InvariantViolation, ModelError, ModelSignature,
    PreferentialModel, brute_force_satisfiable, enumerate_models,
    extension, globally_true, holds_at, holds_conditional, load_model,
    min_preferred, satisfies_kb_globally, save_model, strict_partial_orders,
    transitive_closure, validate_model,
)
from dmt.syntax import (
    And, Atom, Bottom, Box, DefBox, DefDia, Dia, Iff, Implies, Not, Or, Top,
    desugar, is_classical, parse_formula, parse_statement,
)
from conftest import (
    FIXTURES, first_by_loop, naive_closure, random_formula, random_model,
    random_order, same_answer,
)

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


class TestWorldPairs:
    RAW = {"worlds": ["a", "b"], "atoms": ["p"], "modalities": ["i"]}

    @pytest.mark.parametrize("pairs, message", [
        ([["a", "b", "a"]], "relation 'i' entry ['a', 'b', 'a'] "
                            "is not a pair"),
        ([["a", ["b"]]], "relation 'i' entry must be a list of names, "
                         "not ['a', ['b']]"),
        ([[{}, "b"]], "relation 'i' entry must be a list of names, "
                      "not [{}, 'b']"),
        ([["a", 1]], "relation 'i' entry must be a list of names, "
                     "not ['a', 1]"),
        (["ab"], "relation 'i' entry must be a list of names, not 'ab'"),
        ([["a", "zzz"]], "relation 'i' mentions unknown world in "
                         "['a', 'zzz']"),
    ])
    def test_malformed_pair_messages(self, pairs, message):
        with pytest.raises(ModelError) as info:
            validate_model({**self.RAW, "relations": {"i": pairs}})
        assert str(info.value) == message

    def test_tuple_and_list_pairs_give_one_model(self):
        lists = {**self.RAW, "relations": {"i": [["a", "b"], ["b", "b"]]},
                 "preference": [["b", "a"]]}
        tuples = {**self.RAW, "relations": {"i": (("a", "b"), ("b", "b"))},
                  "preference": (("b", "a"),)}
        one, other = validate_model(lists), validate_model(tuples)
        assert one.relations == other.relations == \
            {"i": frozenset({("a", "b"), ("b", "b")})}
        assert one.preference == other.preference == frozenset({("b", "a")})
        assert one.to_json_dict() == other.to_json_dict()


def _pairs_by_old_path(raw):
    """`validate_model` as it was before models were built from rows:
    each relation checked into a set of pairs, the preference closed by
    a fixpoint over pairs, then the pairs constructor.  The reference
    for the differential test: the model with its relations and closed
    preference as pair sets."""
    name_list, mapping = semantics._name_list, semantics._mapping

    def world_pairs(value, world_set, what):
        if not isinstance(value, (list, tuple)):
            raise ModelError(f"{what} must be a list of pairs, not {value!r}")
        pairs = set()
        for pair in value:
            if len(name_list(pair, f"{what} entry")) != 2:
                raise ModelError(f"{what} entry {pair!r} is not a pair")
            if not set(pair) <= world_set:
                raise ModelError(f"{what} mentions unknown world in {pair!r}")
            pairs.add(tuple(pair))
        return pairs

    try:
        worlds = raw["worlds"]
    except (KeyError, TypeError):
        raise ModelError("model data must contain a 'worlds' list")
    worlds = name_list(worlds, "'worlds'")
    if not worlds:
        raise ModelError("the set of worlds must be non-empty")
    if len(set(worlds)) != len(worlds):
        raise ModelError("duplicate world ids")
    world_set = set(worlds)
    atoms = set(name_list(raw.get("atoms", []), "'atoms'"))
    modalities = set(name_list(raw.get("modalities", []), "'modalities'"))
    valuation = {}
    for w, names in mapping(raw, "valuation").items():
        if w not in world_set:
            raise ModelError(f"valuation mentions unknown world {w!r}")
        for p in name_list(names, f"valuation of {w!r}"):
            if p not in atoms:
                raise ModelError(f"valuation mentions undeclared atom {p!r}")
        valuation[w] = frozenset(names)
    relations = {}
    for i, pairs in mapping(raw, "relations").items():
        if i not in modalities:
            raise ModelError(f"relation for undeclared modality {i!r}")
        relations[i] = world_pairs(pairs, world_set, f"relation {i!r}")
    pref = naive_closure(
        world_pairs(raw.get("preference", []), world_set, "preference"))
    for w in worlds:
        if (w, w) in pref:
            raise ModelError(f"preference has a cycle through {w!r}")
    return (PreferentialModel(worlds, atoms, modalities, relations,
                              valuation, pref), relations, pref)


def _random_raw(rng):
    """A model in file format: 1-64 worlds, relations of density 0-0.3,
    a chain, DAG or cyclic preference, list or tuple pairs, duplicate
    pairs, and in about a third of them one malformed part."""
    n = rng.randint(1, 64)
    worlds = [f"w{j}" for j in range(n)]
    rng.shuffle(worlds)
    density = rng.uniform(0, 0.3)
    pair = rng.choice([list, tuple])

    def with_duplicates(pairs):
        pairs = [pair(x) for x in pairs]
        pairs += [pair(x) for x in rng.sample(pairs, len(pairs) // 4)]
        rng.shuffle(pairs)
        return pairs

    relations = {i: with_duplicates((a, b) for a in worlds for b in worlds
                                    if rng.random() < density)
                 for i in ("a", "b") if rng.random() < 0.8}
    perm = rng.sample(worlds, n)
    kind = rng.choice(["chain", "dag", "cyclic"])
    if kind == "chain":
        order = list(zip(perm, perm[1:]))
    else:
        order = [(perm[i], perm[j]) for i in range(n)
                 for j in range(i + 1, n) if rng.random() < density]
        if kind == "cyclic":
            i, j = sorted(rng.sample(range(n), 2)) if n > 1 else (0, 0)
            order += list(zip(perm[i:j], perm[i + 1:j + 1]))
            order.append((perm[j], perm[i]))
    raw = {"worlds": worlds, "atoms": ["p", "q"],
           "modalities": ["a", "b", "c"],
           "valuation": {w: [x for x in ("p", "q") if rng.random() < 0.5]
                         for w in worlds if rng.random() < 0.9},
           "relations": relations, "preference": with_duplicates(order)}
    if rng.random() < 0.35:
        w = worlds[0]
        fault = rng.choice([
            [w], [w, w, w], [w, 1], [1, w], "ab", [[w], w], [w, {}],
            [w, "nowhere"], ("nowhere", w), {"x": w}, 7, None])
        where = rng.choice(["preference"] + list(relations))
        target = raw["relations"].get(where, raw["preference"])
        target.insert(rng.randint(0, len(target)), fault)
        if rng.random() < 0.2:
            raw = rng.choice([
                {**raw, "relations": {**relations, "d": []}},
                {**raw, "relations": {"a": "not pairs"}},
                {**raw, "preference": {"w0": "w1"}},
                {**raw, "valuation": {"nowhere": []}},
                {**raw, "valuation": {w: ["r"]}},
                {**raw, "worlds": worlds + [w]},
            ])
    return raw


class TestRowsAgainstPairs:
    def test_validate_model_matches_the_pair_path(self):
        rng = random.Random(47)
        kinds = {"model": 0, "error": 0, "cycle": 0}
        for _ in range(160):
            raw = _random_raw(rng)
            try:
                want, relations, pref = _pairs_by_old_path(raw)
            except ModelError as error:
                with pytest.raises(ModelError) as info:
                    validate_model(raw)
                assert str(info.value) == str(error)
                kinds["cycle" if "cycle" in str(error) else "error"] += 1
                continue
            kinds["model"] += 1
            got = validate_model(raw)
            assert got.worlds == want.worlds
            assert got.valuation == want.valuation
            assert got.relations == relations
            assert got.preference == pref
            assert got.to_json_dict() == want.to_json_dict()
            for _ in range(4):
                f = random_formula(rng, rng.randint(1, 10),
                                   modalities=("a", "b", "c"))
                assert semantics._mask(got, f) == semantics._mask(want, f)
        assert min(kinds.values()) > 15, kinds


class TestPairViews:
    RAW = {"worlds": ["w1", "w2", "w3", "w4"], "atoms": ["p"],
           "modalities": ["a", "b"],
           "relations": {"a": [["w1", "w2"], ["w1", "w3"], ["w4", "w4"]],
                         "b": []},
           "valuation": {"w2": ["p"], "w4": ["p"]},
           "preference": [["w2", "w3"], ["w3", "w1"]]}

    def test_evaluation_never_decodes_pairs(self, monkeypatch, tmp_path):
        # w2 before w3 before w1; w1 sees w2 and w3, w4 sees itself
        f = parse_formula("<<a>>p & ~[a]p")
        cond = parse_statement("<a>true |~ p")

        def no_pairs(rows, worlds):
            raise AssertionError("pairs decoded")

        monkeypatch.setattr(semantics, "_row_pairs", no_pairs)
        m = validate_model(self.RAW)
        assert extension(m, f) == {"w1"}
        assert [holds_at(m, w, f) for w in m.worlds] == \
            [True, False, False, False]
        assert holds_at(m, "w1", parse_formula("[[a]]p"))
        assert not globally_true(m, f)
        assert holds_conditional(m, cond) is False
        assert min_preferred(m, ["w1", "w3", "w4"]) == {"w3", "w4"}
        monkeypatch.undo()

        assert m.preference == {("w2", "w3"), ("w3", "w1"), ("w2", "w1")}
        assert m.preference is m.preference
        assert m.relations is m.relations
        path = tmp_path / "m.json"
        save_model(m, path)
        again = load_model(path)
        assert again.preference == m.preference
        assert again.relations == m.relations
        assert again.to_json_dict() == m.to_json_dict()

    def test_views_are_read_only(self):
        m = validate_model(self.RAW)
        with pytest.raises(AttributeError):
            m.preference = frozenset()
        with pytest.raises(AttributeError):
            m.relations = {}


class TestMaskCache:
    @staticmethod
    def _count_masks(monkeypatch):
        calls = []
        real = semantics._masks

        def counted(model, formulas):
            calls.append(formulas)
            return real(model, formulas)

        monkeypatch.setattr(semantics, "_masks", counted)
        return calls

    @staticmethod
    def _fresh(m):
        return PreferentialModel(m.worlds, m.atoms, m.modalities, m.relations,
                                 m.valuation, m.preference)

    def test_holds_at_every_world_is_one_evaluation(self, figure3,
                                                    monkeypatch):
        m = self._fresh(figure3)
        f = parse_formula("h -> <<m>>true & [[f]]~p")
        calls = self._count_masks(monkeypatch)
        at = [holds_at(m, w, f) for w in m.worlds]
        assert len(calls) == 1
        assert extension(m, f) == {w for w, yes in zip(m.worlds, at) if yes}
        assert globally_true(m, f) == all(at)
        assert len(calls) == 1

    def test_alternating_formulas(self, figure3):
        m = self._fresh(figure3)
        f, g = parse_formula("[[m]]false"), parse_formula("p")
        for _ in range(2):
            assert extension(m, f) == {"w1", "w2", "w3"}
            assert extension(m, g) == {"w1", "w4"}
            assert extension(m, f) == {"w1", "w2", "w3"}
            assert not holds_at(m, "w4", f) and holds_at(m, "w4", g)

    def test_keeps_at_most_one_formula(self, figure3):
        m = self._fresh(figure3)
        name = "only_in_test_keeps_at_most_one_formula"
        f = Not(Atom(name))
        assert extension(m, f) == set(m.worlds)
        assert (Atom, name) in syntax._TABLE
        del f
        gc.collect()
        # the cache still holds the first formula
        assert (Atom, name) in syntax._TABLE
        extension(m, p)
        gc.collect()
        assert (Atom, name) not in syntax._TABLE

    def test_cached_answers_match_a_fresh_model(self):
        rng = random.Random(43)
        for _ in range(150):
            m = random_model(rng, 6, modalities=("a", "b"))
            pool = [random_formula(rng, rng.randint(1, 8),
                                   modalities=("a", "b")) for _ in range(3)]
            for _ in range(8):
                f = rng.choice(pool)
                w = rng.choice(m.worlds)
                fresh = self._fresh(m)
                assert holds_at(m, w, f) == holds_at(fresh, w, f)
                assert extension(m, f) == extension(self._fresh(m), f)
                assert globally_true(m, f) == globally_true(self._fresh(m), f)

    def test_threads_sharing_a_model(self):
        # the slot is read and replaced whole, so a thread never gets a
        # mask that belongs to another thread's formula; the pair views
        # are set whole too, by whichever threads decode them first
        rng = random.Random(44)
        m = random_model(rng, 12, modalities=("a", "b"), min_worlds=8)
        twin = random_model(random.Random(44), 12, modalities=("a", "b"),
                            min_worlds=8)
        pool = [random_formula(rng, 8, modalities=("a", "b"))
                for _ in range(6)]
        want = {f: extension(self._fresh(twin), f) for f in pool}
        want_views = (twin.relations, twin.preference)
        wrong, views = [], []

        def ask(seed):
            r = random.Random(seed)
            for n in range(2000):
                if n % 500 == 0:
                    views.append((m.relations, m.preference))
                f = r.choice(pool)
                if extension(m, f) != want[f]:
                    wrong.append(f)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=ask, args=(seed,))
                       for seed in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        assert len(views) == 32
        assert all(v == want_views for v in views)
        assert m.preference is m.preference


class TestMinPreferred:
    def test_figure3(self, figure3):
        assert min_preferred(figure3, {"w3", "w4"}) == {"w3"}

    def test_empty(self, figure3):
        assert min_preferred(figure3, set()) == set()

    def test_unknown_world_rejected(self, figure3):
        with pytest.raises(ModelError, match="nosuch"):
            min_preferred(figure3, {"w3", "nosuch"})

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


class TestBitParallelOracle:
    # (atoms, modalities, max_worlds) small enough for the reference loop
    SIGNATURES = [
        (("p",), (), 3), (("p", "q"), (), 3), (("p",), ("a",), 2),
        (("p", "q"), ("a",), 2), (("q",), ("a", "b"), 2),
        (("p", "q"), ("a", "b"), 1), ((), ("b",), 2),
    ]

    @pytest.mark.parametrize("block", [bitparallel._BLOCK_MODELS, 16])
    def test_matches_per_model_loop(self, monkeypatch, block):
        # with 16 models to a block, most signatures are split and the
        # more significant digits are iterated
        monkeypatch.setattr(bitparallel, "_BLOCK_MODELS", block)
        rng = random.Random(71)
        nones = 0
        for _ in range(150):
            atoms, modalities, k = rng.choice(self.SIGNATURES)
            sig = ModelSignature(atoms, modalities, k)
            # atoms and modalities outside the signature too
            make = lambda size: random_formula(
                rng, size, atoms=("p", "q", "r"), modalities=("a", "b", "c"))
            goal = make(rng.randint(1, 9))
            # conjuncts that the oracle once took as global assumptions
            for _ in range(rng.randint(0, 2)):
                goal = And(goal, make(rng.randint(1, 5)))
            expected = first_by_loop(sig, goal)
            nones += expected is None
            assert same_answer(brute_force_satisfiable(goal, sig),
                               expected), (sig, goal)
        assert 20 < nones < 130

    def test_defeasible_against_classical(self):
        # [[i]]x & ~[i]x and <i>x & ~<<i>>x need a successor that is not
        # preference-minimal, so their first models turn on the
        # minimal-successor table
        rng = random.Random(72)
        worlds = []
        for n in range(150):
            sig = ModelSignature(("p", "q")[:1 + n % 2], ("a",), 2)
            x = random_formula(rng, rng.randint(1, 5), modalities=("a", "b"))
            rest = random_formula(rng, rng.randint(1, 4),
                                  modalities=("a", "b"))
            goal = rng.choice([And(DefBox("a", x), Not(Box("a", x))),
                               And(Dia("a", x), Not(DefDia("a", x)))])
            if n % 3 == 0:
                goal = And(goal, rest)
            expected = first_by_loop(sig, goal)
            assert same_answer(brute_force_satisfiable(goal, sig),
                               expected), (sig, goal)
            worlds.append(expected and len(expected[0].worlds))
        assert worlds.count(2) > 40

    @pytest.mark.parametrize("text", [
        "<<a>>(<a>true <-> [a][a][[a]]<a>false)",
        "~[a]([a](false & <a>true) <-> [a][a]false)",
    ])
    def test_three_worlds_one_modality(self, text):
        # formulas whose first model has three worlds
        sig = ModelSignature(("p",), ("a",), 3)
        f = parse_formula(text)
        found = brute_force_satisfiable(f, sig)
        assert len(found[0].worlds) == 3
        assert same_answer(found, first_by_loop(sig, f))

    def test_first_model_past_the_first_block(self):
        # 2 atoms, 1 modality, 3 worlds: 622,592 models, in blocks of
        # 38,912 along the valuation of w3, the relation and the order,
        # while the valuations of w1 and w2 are iterated.  The formula
        # needs three worlds with different valuations, so w2 is not
        # empty and the first model lies past the first block.
        sig = ModelSignature(("p", "q"), ("a",), 3)
        f = parse_formula("~p & ~q & <<a>>(p & ~q) & <<a>>(~p & q)")
        found = brute_force_satisfiable(f, sig)
        assert found is not None and found[0].valuation["w2"]
        assert same_answer(found, first_by_loop(sig, f))

    def test_certificate_rechecked(self, monkeypatch):
        # an answer the per-model evaluator refutes is never returned
        monkeypatch.setattr(bitparallel.Models, "first",
                            lambda self, goal: ([0, 0, 0], 0))
        with pytest.raises(InvariantViolation):
            brute_force_satisfiable(p, ModelSignature(("p",), ("a",), 1))


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


def test_evaluator_matches_definitions():
    rng = random.Random(41)
    # the second formulas come from their own generator, so that the
    # draws of rng stay what they were before they were added
    rng_g = random.Random(42)
    for max_worlds, min_worlds, n, size in ((4, 1, 300, 10),
                                            (64, 16, 12, 10)):
        for _ in range(n):
            m = random_model(rng, max_worlds, modalities=("a", "b"),
                             min_worlds=min_worlds)
            f = random_formula(rng, rng.randint(1, size),
                               modalities=("a", "b"))
            g = random_formula(rng_g, rng_g.randint(1, size),
                               modalities=("a", "b"))
            memo = {}
            want = {w for w in m.worlds if _defined_truth(m, w, f, memo)}
            want_g = {w for w in m.worlds if _defined_truth(m, w, g, memo)}
            assert extension(m, f) == want
            assert globally_true(m, f) == (want == set(m.worlds))
            # the batched callers: one evaluation for f and g together
            minimal = {w for w in want
                       if not any((u, w) in m.preference for u in want)}
            assert holds_conditional(m, Conditional(f, g)) == \
                (minimal <= want_g)
            assert satisfies_kb_globally(m, (f, g)) == \
                (want == want_g == set(m.worlds))
    for _ in range(300):
        n = rng.randint(1, 12)
        pairs = {(rng.randrange(n), rng.randrange(n))
                 for _ in range(rng.randint(0, 2 * n))}
        rows = semantics._rows(pairs, {j: j for j in range(n)})
        closed = transitive_closure(rows)
        assert closed is rows
        assert set(semantics._row_pairs(closed, range(n))) == \
            naive_closure(pairs)
