"""The four workloads: their inputs, their operations and their checks.

Each workload makes one round of inputs from the seed.  A run repeats
the round, so every run attempts whole rounds of the same operations.
`run` is the timed operation and calls only `dmt`; `check` runs after
the round, outside the timing, and judges an output with the reference
evaluator, with bench/expected.json or with the hand-proved answers of
`formulas.HAND_QUERIES`.  It returns (failed, problem): failed marks an
operation that ended without a verdict, problem is text when an output
is wrong.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import formulas as F
import reference as R

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
EXPECTED = Path(__file__).resolve().parent / "expected.json"


def load_expected():
    with open(EXPECTED) as fh:
        return json.load(fh)


def reference_model(program_model):
    """The reference reading of a model returned by `dmt`."""
    return R.Model.from_json(program_model.to_json_dict())


class Workload:
    round_size = 0
    cli_command = ()       # a `dmt` command fitting the workload; exits 0

    def __init__(self, dmt):
        self.syntax = dmt.syntax
        self.tableau = dmt.tableau
        self.semantics = dmt.semantics
        self.engine = dmt.engine

    @property
    def tail_percentile(self):
        """The highest whole percentile with at least ten samples beyond
        it in a single round."""
        return int(100 * (1 - 10 / self.round_size))

    def check_open(self, verdict, tree, bound, no_model):
        """An open tableau: its model satisfies the formula at n0, and a
        formula without a model within the bound needs a larger model."""
        model = reference_model(verdict.model)
        if not R.holds(model, "n0", tree):
            return f"open model fails {F.render(tree)} at n0"
        if F.render(tree) in no_model and len(model.worlds) <= bound:
            return f"{F.render(tree)}: a small model the search missed"
        return None


class Decide(Workload):
    """`dmt sat` and `dmt valid` on random size-25 formulas."""

    name = "decide"
    round_size = 300
    cli_command = ("valid", "[a]p -> [[a]]p")

    def setup(self):
        expected = load_expected()["decide"]
        self.bound = expected["max_worlds"]
        self.no_model = set(expected["no_model"])
        for text in ("[a]p -> [[a]]p", "[[a]]p & ~[a]p"):
            f = self.syntax.parse_formula(text)
            self.tableau.decide(f)
            self.tableau.decide(self.syntax.Not(f))

    def inputs(self, seed):
        pool = F.decide_pool()
        rng = random.Random(seed)
        return [(F.render(f), f) for f in rng.sample(pool, self.round_size)]

    def run(self, op):
        f = self.syntax.parse_formula(op[0])
        return self.tableau.decide(f), self.tableau.decide(self.syntax.Not(f))

    def check(self, op, out):
        tree = op[1]
        for t, verdict in ((tree, out[0]), (F.neg(tree), out[1])):
            if isinstance(verdict, self.tableau.Closed):
                if F.render(t) not in self.no_model:
                    return False, f"closed, but {F.render(t)} has a model"
                continue
            problem = self.check_open(verdict, t, self.bound, self.no_model)
            if problem:
                return False, problem
        return False, None


class Entail(Workload):
    """`global_entails` over the power-plant KB and the extended KB."""

    name = "entail"
    round_size = len(F.entail_pool()) + len(F.HAND_QUERIES)
    cli_command = ("entails", "p -> [[f]]~h",
                   "--kb", str(Path("fixtures") / "powerplant.kb"))

    def setup(self):
        self.no_countermodel = set(load_expected()["entail"]["no_countermodel"])
        powerplant = self.engine.load_kb(FIXTURES / "powerplant.kb")
        extension = tuple(self.syntax.parse_formula(F.render(g))
                          for g in F.EXTENSION)
        self.kbs = {
            "powerplant": powerplant,
            "extended": self.engine.KnowledgeBase(powerplant.formulas
                                                  + extension),
        }
        self.kb_trees = {"powerplant": F.POWERPLANT_KB,
                         "extended": F.EXTENDED_KB}
        self.engine.global_entails(
            powerplant, self.syntax.parse_formula("p -> [[f]]~h"))

    def inputs(self, seed):
        queries = F.entail_pool()
        random.Random(seed).shuffle(queries)
        ops = [(F.render(q), "powerplant", q, None) for q in queries]
        for name, kb, q, expected in F.HAND_QUERIES:
            ops.append((F.render(q), kb, q, expected))
        return ops

    def run(self, op):
        f = self.syntax.parse_formula(op[0])
        try:
            return self.engine.global_entails(self.kbs[op[1]], f)
        except self.tableau.ResourceLimitError as exc:
            return exc

    def check(self, op, out):
        text, kb, tree, hand = op
        if isinstance(out, self.engine.Entailed):
            if hand is None and text not in self.no_countermodel:
                return False, f"Entailed, but {text} has a countermodel"
            if hand is not None and hand != "entailed":
                return False, f"Entailed, but {text} is not"
            return False, None
        if isinstance(out, self.engine.NotEntailed):
            model = reference_model(out.countermodel)
            if not all(R.globally(model, g) for g in self.kb_trees[kb]):
                return False, f"{text}: the KB fails in the countermodel"
            if R.holds(model, out.witness_world, tree):
                return False, f"{text}: the query holds at the witness"
            return False, None
        # Unknown or ResourceLimitError: no verdict
        return True, None


class Oracle(Workload):
    """`brute_force_satisfiable` (3 worlds) and the tableau on the
    criterion-4 corpus."""

    name = "oracle"
    closed_share = (16, 92)     # 404 of 2320 corpus formulas have no model
    round_size = closed_share[1]
    cli_command = ("oracle-sat", "[[a]]p & ~[a]p", "--max-worlds", "3")

    def setup(self):
        expected = load_expected()["oracle"]
        self.bound = expected["max_worlds"]
        self.no_model = set(expected["no_model"])
        self.signature = self.semantics.ModelSignature(("p",), ("a",),
                                                       self.bound)
        f = self.syntax.parse_formula("[[a]]p & ~[a]p")
        self.tableau.decide(f)
        self.semantics.brute_force_satisfiable(f, self.signature)

    def inputs(self, seed):
        corpus = F.core_corpus()
        no_model = self.no_model
        closed = [f for f in corpus if F.render(f) in no_model]
        open_ = [f for f in corpus if F.render(f) not in no_model]
        rng = random.Random(seed)
        n_closed, n = self.closed_share
        sample = rng.sample(closed, n_closed) + rng.sample(open_, n - n_closed)
        rng.shuffle(sample)
        return [(F.render(f), f) for f in sample]

    def run(self, op):
        f = self.syntax.parse_formula(op[0])
        return (self.tableau.decide(f),
                self.semantics.brute_force_satisfiable(f, self.signature))

    def check(self, op, out):
        text, tree = op
        verdict, found = out
        closed = isinstance(verdict, self.tableau.Closed)
        if found is not None:
            model, world = found
            if closed:
                return False, f"oracle SAT meets a closed tableau: {text}"
            ref = reference_model(model)
            if len(ref.worlds) > self.bound or not R.holds(ref, world, tree):
                return False, f"oracle model fails {text}"
        elif text not in self.no_model:
            return False, f"oracle UNSAT, but {text} has a model"
        if not closed:
            problem = self.check_open(verdict, tree, self.bound,
                                      self.no_model)
            if problem:
                return False, problem
        return False, None


class ModelCheck(Workload):
    """`validate_model` and evaluation on explicit 16- to 64-world models."""

    name = "modelcheck"
    sizes = (16, 24, 32, 40, 48, 56, 64)
    per_size = 12
    round_size = len(sizes) * per_size
    batch = 4
    formula_size = 10
    density = 0.1
    cli_command = ("check", "~p -> [[f]]p",
                   "--model", str(Path("fixtures") / "figure3.json"))

    def setup(self):
        model = self.semantics.load_model(FIXTURES / "figure3.json")
        f = self.syntax.parse_formula("~p -> [[f]]p")
        self.semantics.extension(model, f)
        self.semantics.globally_true(model, f)
        self.semantics.holds_at(model, "w1", f)
        self.semantics.holds_conditional(
            model, self.syntax.parse_statement("p |~ c"))

    def inputs(self, seed):
        rng = random.Random(seed)
        atoms, modalities = F.DECIDE_ATOMS, F.DECIDE_MODALITIES
        ops = []
        for n in self.sizes * self.per_size:
            worlds = [f"w{j}" for j in range(n)]
            chain = rng.sample(worlds, n)
            raw = {
                "worlds": worlds,
                "atoms": list(atoms),
                "modalities": list(modalities),
                "relations": {i: [[a, b] for a in worlds for b in worlds
                                  if rng.random() < self.density]
                              for i in modalities},
                "valuation": {w: [x for x in atoms if rng.random() < 0.5]
                              for w in worlds},
                "preference": [[a, b] for a, b in zip(chain, chain[1:])],
            }
            batch = []
            while len(batch) < self.batch:
                f = F.random_formula(rng, self.formula_size, atoms,
                                     modalities)
                if "<<" in F.render(f) or "[[" in F.render(f):
                    batch.append(f)
            texts = [F.render(f) for f in batch]
            conditionals = [None] + [f"{a} |~ {b}"
                                     for a, b in zip(texts, texts[1:])]
            ops.append((json.dumps(raw), list(zip(texts, conditionals)),
                        raw, batch))
        return ops

    def run(self, op):
        syntax, semantics = self.syntax, self.semantics
        model = semantics.validate_model(json.loads(op[0]))
        results = []
        for text, conditional in op[1]:
            f = syntax.parse_formula(text)
            ext = semantics.extension(model, f)
            glob = semantics.globally_true(model, f)
            at = [semantics.holds_at(model, w, f) for w in model.worlds]
            cond = None
            if conditional is not None:
                cond = semantics.holds_conditional(
                    model, syntax.parse_statement(conditional))
            results.append((ext, glob, at, cond))
        return model, results

    def check(self, op, out):
        _, _, raw, batch = op
        model, results = out
        ref = R.Model.from_json(raw)
        pref = {tuple(p) for p in model.to_json_dict()["preference"]}
        if pref != ref.frame.preference_pairs():
            return False, "preference closure differs"
        previous = None
        for tree, (ext, glob, at, cond) in zip(batch, results):
            want = R.extension(ref, tree)
            if set(ext) != want:
                return False, f"extension of {F.render(tree)} differs"
            if glob != (want == ref.frame.all):
                return False, f"global truth of {F.render(tree)} differs"
            if at != [w in want for w in ref.worlds]:
                return False, f"truth at a world of {F.render(tree)} differs"
            if previous is not None and \
                    cond != R.conditional(ref, previous, tree):
                return False, f"conditional into {F.render(tree)} differs"
            previous = tree
        return False, None


WORKLOADS = {w.name: w for w in (Decide, Entail, Oracle, ModelCheck)}
