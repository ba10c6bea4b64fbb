"""Labeled tableau calculus for the defeasible modal language.

Branches carry labeled formulas, a growing skeleton of accessibility
edges between labels, a preference relation on labels, and explicit
minimality assertions.  Minimality is never computed during saturation:
the rules only ever assert that a freshly created label is minimal among
the successors of its parent, and the defeasible-box rule fires exactly
on those asserted-minimal successors.

The negated-box rule splits: either the fresh successor is itself
minimal, or a second, formula-free fresh successor is created strictly
below it and asserted minimal.  Countermodels extracted from open
saturated branches therefore include formula-free labels as worlds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .syntax import (
    And, Atom, Bottom, Box, DefBox, Formula, Not, children, desugar,
    render_formula, subformulas,
)
from .semantics import (
    InvariantViolation, PreferentialModel, extension, transitive_closure,
)

DEFAULT_MAX_RULE_APPS = 10_000
DEFAULT_MAX_LABELS = 1_000


class ResourceLimitError(RuntimeError):
    """Raised when a resource limit is hit; never a verdict."""


class _LabelCounter:
    """Monotone label supply shared by every branch of one tableau."""

    def __init__(self, limit):
        self.next = 1
        self.limit = limit

    def fresh(self):
        if self.next >= self.limit:
            raise ResourceLimitError(f"label limit {self.limit} exceeded")
        n = self.next
        self.next += 1
        return n


class Branch:
    """One tableau branch: labeled formulas plus relational bookkeeping."""

    def __init__(self, counter):
        self.formulas = []            # (label, formula) in insertion order
        self.formula_set = set()
        self.skeleton = {}            # modality -> list of (n, n') pairs
        self.preference = set()       # (a, b) meaning a is preferred to b
        self.min_asserts = {}         # (modality, n) -> list of labels
        self.applied = set()
        self.trace = []
        self.closed = False
        self.clash_queue = []         # labels with a detected complement pair
        self.counter = counter

    def clone(self):
        b = Branch(self.counter)
        b.formulas = list(self.formulas)
        b.formula_set = set(self.formula_set)
        b.skeleton = {i: list(v) for i, v in self.skeleton.items()}
        b.preference = set(self.preference)
        b.min_asserts = {k: list(v) for k, v in self.min_asserts.items()}
        b.applied = set(self.applied)
        b.trace = list(self.trace)
        b.closed = self.closed
        b.clash_queue = list(self.clash_queue)
        return b

    # -- state updates ------------------------------------------------------

    def add_formula(self, label, formula):
        key = (label, formula)
        if key in self.formula_set:
            return
        self.formulas.append(key)
        self.formula_set.add(key)
        if isinstance(formula, Bottom):
            self.closed = True
            return
        complement = (formula.operand if isinstance(formula, Not)
                      else Not(formula))
        if (label, complement) in self.formula_set:
            self.clash_queue.append((label, formula, complement))

    def add_edge(self, modality, src, dst):
        self.skeleton.setdefault(modality, []).append((src, dst))

    def assert_minimal(self, modality, src, label):
        self.min_asserts.setdefault((modality, src), []).append(label)

    def labels(self):
        out = {0}
        for n, _ in self.formulas:
            out.add(n)
        for edges in self.skeleton.values():
            for a, b in edges:
                out.add(a)
                out.add(b)
        for a, b in self.preference:
            out.add(a)
            out.add(b)
        for labs in self.min_asserts.values():
            out.update(labs)
        return out

    def log(self, rule, label, formula, detail=""):
        line = f"{rule} @ {label} :: {render_formula(formula)}"
        if detail:
            line += f" [=> {detail}]"
        self.trace.append(line)


def initial_tableau(f: Formula, counter=None) -> list:
    if counter is None:
        counter = _LabelCounter(DEFAULT_MAX_LABELS)
    b = Branch(counter)
    b.add_formula(0, desugar(f))
    return [b]


# ---------------------------------------------------------------------------
# Rule application

def step(branch: Branch) -> Optional[list]:
    """Apply one pending rule instance; None when saturated.

    Non-splitting rules mutate the branch in place and return [branch];
    splitting rules return two independent clones.  Instances are chosen
    deterministically, non-splitting rules first, so every applicable
    rule is eventually applied.
    """
    # (bot): a label carries both a formula and its negation
    while branch.clash_queue:
        label, f, complement = branch.clash_queue.pop(0)
        if (label, Bottom()) in branch.formula_set:
            continue
        branch.add_formula(label, Bottom())
        branch.log("(bot)", label, f,
                   f"{label} :: false (with {render_formula(complement)})")
        return [branch]

    for label, f in branch.formulas:
        if isinstance(f, Not) and isinstance(f.operand, Not):
            key = ("neg", label, f)
            if key not in branch.applied:
                branch.applied.add(key)
                branch.add_formula(label, f.operand.operand)
                branch.log("(neg)", label, f)
                return [branch]

    for label, f in branch.formulas:
        if isinstance(f, And):
            key = ("and", label, f)
            if key not in branch.applied:
                branch.applied.add(key)
                branch.add_formula(label, f.left)
                branch.add_formula(label, f.right)
                branch.log("(and)", label, f)
                return [branch]

    for label, f in branch.formulas:
        if isinstance(f, Box):
            for src, dst in branch.skeleton.get(f.modality, ()):
                if src != label:
                    continue
                key = ("box", label, f, dst)
                if key not in branch.applied:
                    branch.applied.add(key)
                    branch.add_formula(dst, f.operand)
                    branch.log("(box)", label, f,
                               f"{dst} :: {render_formula(f.operand)}")
                    return [branch]

    for label, f in branch.formulas:
        if isinstance(f, DefBox):
            for dst in branch.min_asserts.get((f.modality, label), ()):
                key = ("defbox", label, f, dst)
                if key not in branch.applied:
                    branch.applied.add(key)
                    branch.add_formula(dst, f.operand)
                    branch.log("(defbox)", label, f,
                               f"{dst} :: {render_formula(f.operand)}")
                    return [branch]

    for label, f in branch.formulas:
        if isinstance(f, Not) and isinstance(f.operand, DefBox):
            key = ("defdia", label, f)
            if key not in branch.applied:
                branch.applied.add(key)
                inner = f.operand
                fresh = branch.counter.fresh()
                branch.add_edge(inner.modality, label, fresh)
                branch.assert_minimal(inner.modality, label, fresh)
                branch.add_formula(fresh, Not(inner.operand))
                branch.log("(defdia)", label, f,
                           f"{fresh} :: {render_formula(Not(inner.operand))}, "
                           f"edge {label}-{inner.modality}->{fresh}, "
                           f"{fresh} minimal")
                return [branch]

    for label, f in branch.formulas:
        if isinstance(f, Not) and isinstance(f.operand, And):
            key = ("or", label, f)
            if key not in branch.applied:
                branch.applied.add(key)
                inner = f.operand
                left = branch
                right = branch.clone()
                left.add_formula(label, Not(inner.left))
                left.log("(or:left)", label, f)
                right.add_formula(label, Not(inner.right))
                right.log("(or:right)", label, f)
                return [left, right]

    for label, f in branch.formulas:
        if isinstance(f, Not) and isinstance(f.operand, Box):
            key = ("dia", label, f)
            if key not in branch.applied:
                branch.applied.add(key)
                inner = f.operand
                negated = Not(inner.operand)
                left = branch
                right = branch.clone()
                # case 1: the fresh successor is itself minimal
                n1 = left.counter.fresh()
                left.add_edge(inner.modality, label, n1)
                left.assert_minimal(inner.modality, label, n1)
                left.add_formula(n1, negated)
                left.log("(dia:min)", label, f,
                         f"{n1} :: {render_formula(negated)}, "
                         f"edge {label}-{inner.modality}->{n1}, {n1} minimal")
                # case 2: it is not minimal, so a formula-free minimal
                # successor sits strictly below it
                n2 = right.counter.fresh()
                n3 = right.counter.fresh()
                right.add_edge(inner.modality, label, n2)
                right.add_edge(inner.modality, label, n3)
                right.preference.add((n3, n2))
                right.assert_minimal(inner.modality, label, n3)
                right.add_formula(n2, negated)
                right.log("(dia:nonmin)", label, f,
                          f"{n2} :: {render_formula(negated)}, "
                          f"edges {label}-{inner.modality}->{n2},{n3}, "
                          f"{n3} preferred to {n2}, {n3} minimal")
                return [left, right]

    return None


# ---------------------------------------------------------------------------
# Verdicts

@dataclass(frozen=True)
class Closed:
    traces: tuple


@dataclass(frozen=True)
class Open:
    branch: Branch
    model: PreferentialModel
    trace: tuple = ()


def decide(f: Formula,
           max_rule_apps: int = DEFAULT_MAX_RULE_APPS,
           max_labels: int = DEFAULT_MAX_LABELS,
           check_invariants: bool = False) -> Closed | Open:
    """Saturate a tableau for f; Closed iff f is unsatisfiable.

    Branches are explored depth-first, leftmost split child first; the
    first open saturated branch yields an extracted, verified model.
    Exceeding a resource limit raises ResourceLimitError.
    """
    counter = _LabelCounter(max_labels)
    root = desugar(f)
    if check_invariants:
        allowed = subformulas(root)
        allowed = allowed | {Not(g) for g in allowed} | {Bottom()}
    apps = 0
    stack = initial_tableau(f, counter)
    closed_traces = []
    while stack:
        branch = stack.pop()
        while True:
            if branch.closed:
                closed_traces.append(tuple(branch.trace + ["branch closed"]))
                break
            result = step(branch)
            if result is None:
                if check_invariants:
                    _check_saturated_invariants(branch)
                model = extract_model(branch)
                if not verify_branch_model(branch, model):
                    raise InvariantViolation(
                        "extracted model fails branch verification")
                branch.trace.append("branch open (saturated)")
                return Open(branch, model, tuple(branch.trace))
            apps += 1
            if apps > max_rule_apps:
                raise ResourceLimitError(
                    f"rule application limit {max_rule_apps} exceeded")
            if check_invariants:
                for b in result:
                    _check_step_invariants(b, allowed)
            if len(result) == 2:
                stack.append(result[1])
            branch = result[0]
    return Closed(tuple(closed_traces))


def _check_step_invariants(branch, allowed):
    for _, g in branch.formulas:
        if g not in allowed:
            raise InvariantViolation(
                f"formula outside the subformula closure: {render_formula(g)}")
    for a, b in branch.preference:
        if a == b:
            raise InvariantViolation("preference is not irreflexive")
    # chains have length at most 2: no label is both above and below
    above = {b for _, b in branch.preference}
    below = {a for a, _ in branch.preference}
    if above & below:
        raise InvariantViolation("preference chain longer than 2")


def _check_saturated_invariants(branch):
    """Every skeleton successor is asserted minimal or dominated by one."""
    for (modality, src), minimal in branch.min_asserts.items():
        succ = {d for s, d in branch.skeleton.get(modality, ()) if s == src}
        if not set(minimal) <= succ:
            raise InvariantViolation("minimality assertion outside skeleton")
    for modality, edges in branch.skeleton.items():
        for src, dst in edges:
            minimal = set(branch.min_asserts.get((modality, src), ()))
            if dst in minimal:
                continue
            if not any((m, dst) in branch.preference for m in minimal):
                raise InvariantViolation(
                    f"successor {dst} of {src} neither minimal nor dominated")


# ---------------------------------------------------------------------------
# Model extraction

def world_name(label: int) -> str:
    return f"n{label}"


def extract_model(branch: Branch) -> PreferentialModel:
    """Build a preferential model from an open saturated branch.

    Worlds are all labels mentioned anywhere on the branch, including
    formula-free minimal labels; the valuation reads off atomic labeled
    formulas; the label preference is transitively closed.
    """
    labels = sorted(branch.labels())
    worlds = [world_name(n) for n in labels]
    valuation = {w: set() for w in worlds}
    for n, g in branch.formulas:
        if isinstance(g, Atom):
            valuation[world_name(n)].add(g.name)
    # one walk over the distinct formula nodes; formulas on a branch share
    # their subtrees, so nodes are told apart by identity, not by equality
    atoms, modalities = set(), set(branch.skeleton)
    seen, todo = set(), [g for _, g in branch.formulas]
    while todo:
        g = todo.pop()
        if id(g) in seen:
            continue
        seen.add(id(g))
        if isinstance(g, Atom):
            atoms.add(g.name)
        elif isinstance(g, (Box, DefBox)):
            modalities.add(g.modality)
        todo.extend(children(g))
    relations = {i: {(world_name(a), world_name(b)) for a, b in edges}
                 for i, edges in branch.skeleton.items()}
    pref = transitive_closure((world_name(a), world_name(b))
                              for a, b in branch.preference)
    return PreferentialModel(worlds, atoms, modalities, relations, valuation,
                             pref)


def verify_branch_model(branch: Branch, model: PreferentialModel) -> bool:
    """Check that every labeled formula holds at its world in the model.

    Each formula object is evaluated once, for all of its labels.
    """
    worlds_of = {}
    for n, g in branch.formulas:
        worlds_of.setdefault(id(g), (g, []))[1].append(world_name(n))
    for g, worlds in worlds_of.values():
        ext = extension(model, g)
        if not all(w in ext for w in worlds):
            return False
    return True
