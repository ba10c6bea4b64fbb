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

The disjunction rule (or), on a desugared ~(A & B), searches as in
Horrocks & Patel-Schneider, "Optimising description logic subsumption"
(J. Logic and Computation 9(3), 1999).  When a disjunct, ~A or ~B, is
already on the label, nothing is added (event (or:satisfied)).  When the
complement of one disjunct, A or B, is on the label, the other disjunct
is added without a split (unit propagation, event (or:unit)).  Otherwise
the branch splits into ~A (or:left) and ~B (or:right), and the right
side also receives A, so the two sides share no model (semantic
branching).  ~(A & B) is equivalent to ~A | (A & ~B), and A lies in the
subformula closure, so the calculus, its soundness and completeness and
its termination are unchanged: only the search is shorter.

Each branch keeps one first-in first-out agenda of pending instances
per rule, in rule order: (bot), (neg), (and), (box), (defbox), (defdia),
(or), (dia).  `step` applies the oldest instance of the first non-empty
agenda.  An instance is queued once, when the last thing it needs
arrives: a formula queues its own rule; a [i] or [[i]] formula, one
instance per (minimal) successor its label has; new edges or a
minimality assertion, one per [i] or [[i]] formula at their source; a
complement pair, (bot).  Only (defdia) and (dia) add edges, and only
when the (box) and (defbox) agendas are empty, so each agenda stays
sorted by formula insertion index, then successor index: the order in
which a rescan of the branch formulas would find the same instances.

A branch logs each rule application as an event (rule, label, formula,
detail, formulas), where the {} fields of the detail stand for the
formulas, and renders nothing; `Open.trace` and `Closed.traces` turn
the events into text when they are read.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .syntax import (
    And, Atom, Bottom, Box, DefBox, Formula, Not, desugar, render_formula,
    subformulas,
)
from .semantics import (
    InvariantViolation, PreferentialModel, _masks, _row_pairs, _rows,
    transitive_closure,
)

DEFAULT_MAX_RULE_APPS = 10_000
DEFAULT_MAX_LABELS = 1_000

# the agendas in rule order, and the rule a negation triggers by its operand
BOT, NEG, AND, BOX, DEFBOX, DEFDIA, OR, DIA = range(8)
_NEGATED_RULE = {Not: NEG, And: OR, DefBox: DEFDIA, Box: DIA}


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
        self.agendas = [[] for _ in _RULES]  # pending, per rule
        self.events = []              # rule applications, see `log`
        self.closed = False
        self.counter = counter

    def clone(self):
        b = Branch(self.counter)
        b.formulas = list(self.formulas)
        b.formula_set = set(self.formula_set)
        b.skeleton = {i: list(v) for i, v in self.skeleton.items()}
        b.preference = set(self.preference)
        b.min_asserts = {k: list(v) for k, v in self.min_asserts.items()}
        b.agendas = [list(a) for a in self.agendas]
        b.events = list(self.events)
        b.closed = self.closed
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
        if isinstance(formula, Not):
            complement = formula.operand
            rule = _NEGATED_RULE.get(type(complement))
            if rule is not None:
                self.agendas[rule].append((label, formula))
        else:
            complement = Not(formula)
            if isinstance(formula, And):
                self.agendas[AND].append((label, formula))
            elif isinstance(formula, Box):
                self.agendas[BOX].extend(
                    (label, formula, dst) for src, dst
                    in self.skeleton.get(formula.modality, ()) if src == label)
            elif isinstance(formula, DefBox):
                self.agendas[DEFBOX].extend(
                    (label, formula, dst) for dst
                    in self.min_asserts.get((formula.modality, label), ()))
        if (label, complement) in self.formula_set:
            self.agendas[BOT].append((label, formula, complement))

    def add_edge(self, modality, src, *dsts):
        self.skeleton.setdefault(modality, []).extend((src, d) for d in dsts)
        self._queue_boxes(Box, modality, src, dsts)

    def assert_minimal(self, modality, src, label):
        self.min_asserts.setdefault((modality, src), []).append(label)
        self._queue_boxes(DefBox, modality, src, (label,))

    def _queue_boxes(self, kind, modality, src, dsts):
        """Queue (box) or (defbox) per `kind` formula at src, per dst."""
        agenda = self.agendas[BOX if kind is Box else DEFBOX]
        for n, f in self.formulas:
            if n == src and type(f) is kind and f.modality == modality:
                agenda.extend((n, f, d) for d in dsts)

    def labels(self):
        out = {0, *(n for n, _ in self.formulas)}
        for pairs in (*self.skeleton.values(), self.preference):
            for a, b in pairs:
                out.update((a, b))
        for labs in self.min_asserts.values():
            out.update(labs)
        return out

    def log(self, rule, label, formula, detail="", formulas=()):
        self.events.append((rule, label, formula, detail, formulas))


def _render_trace(events, end) -> tuple:
    """The text of a branch's events, one line each, then `end`."""
    lines = []
    for rule, label, formula, detail, formulas in events:
        line = f"{rule} @ {label} :: {render_formula(formula)}"
        if detail:
            line += f" [=> {detail.format(*map(render_formula, formulas))}]"
        lines.append(line)
    return (*lines, end)


def initial_tableau(f: Formula, counter=None) -> list:
    if counter is None:
        counter = _LabelCounter(DEFAULT_MAX_LABELS)
    b = Branch(counter)
    b.add_formula(0, desugar(f))
    return [b]


# ---------------------------------------------------------------------------
# Rule application

def _bot(branch, label, f, complement):
    branch.add_formula(label, Bottom())
    branch.log("(bot)", label, f, f"{label} :: false (with {{}})",
               (complement,))


def _neg(branch, label, f):
    branch.add_formula(label, f.operand.operand)
    branch.log("(neg)", label, f)


def _and(branch, label, f):
    branch.add_formula(label, f.left)
    branch.add_formula(label, f.right)
    branch.log("(and)", label, f)


def _box(branch, label, f, dst):
    """(box) and (defbox): the operand holds at the queued successor."""
    branch.add_formula(dst, f.operand)
    branch.log("(box)" if isinstance(f, Box) else "(defbox)", label, f,
               f"{dst} :: {{}}", (f.operand,))


def _defdia(branch, label, f):
    inner = f.operand
    fresh = branch.counter.fresh()
    branch.add_edge(inner.modality, label, fresh)
    branch.assert_minimal(inner.modality, label, fresh)
    branch.add_formula(fresh, Not(inner.operand))
    branch.log("(defdia)", label, f,
               f"{fresh} :: {{}}, "
               f"edge {label}-{inner.modality}->{fresh}, {fresh} minimal",
               (Not(inner.operand),))


def _or(branch, label, f):
    """(or) on ~(A & B), whose disjuncts are ~A and ~B.

    Satisfied: a disjunct is already on the label; logged as
    (or:satisfied), nothing is added.  Unit: the complement of one
    disjunct (A or B) is on the label, so the other disjunct is added in
    place, logged as (or:unit).  Otherwise the branch splits, (or:left)
    taking ~A and (or:right) taking ~B and A: semantic branching, so
    that the two sides share no model.
    """
    a, b = f.operand.left, f.operand.right
    not_a, not_b = Not(a), Not(b)
    present = branch.formula_set
    for disjunct in (not_a, not_b):
        if (label, disjunct) in present:
            branch.log("(or:satisfied)", label, f,
                       f"{label} :: {{}} already holds", (disjunct,))
            return None
    for known, other in ((a, not_b), (b, not_a)):
        if (label, known) in present:
            branch.add_formula(label, other)
            branch.log("(or:unit)", label, f, f"{label} :: {{}} (with {{}})",
                       (other, known))
            return None
    right = branch.clone()
    branch.add_formula(label, not_a)
    branch.log("(or:left)", label, f)
    right.add_formula(label, not_b)
    right.add_formula(label, a)
    right.log("(or:right)", label, f)
    return [branch, right]


def _dia(branch, label, f):
    inner = f.operand
    negated = Not(inner.operand)
    right = branch.clone()
    # case 1: the fresh successor is itself minimal
    n1 = branch.counter.fresh()
    branch.add_edge(inner.modality, label, n1)
    branch.assert_minimal(inner.modality, label, n1)
    branch.add_formula(n1, negated)
    branch.log("(dia:min)", label, f,
               f"{n1} :: {{}}, "
               f"edge {label}-{inner.modality}->{n1}, {n1} minimal",
               (negated,))
    # case 2: it is not minimal, so a formula-free minimal successor
    # sits strictly below it
    n2 = right.counter.fresh()
    n3 = right.counter.fresh()
    right.add_edge(inner.modality, label, n2, n3)
    right.preference.add((n3, n2))
    right.assert_minimal(inner.modality, label, n3)
    right.add_formula(n2, negated)
    right.log("(dia:nonmin)", label, f,
              f"{n2} :: {{}}, "
              f"edges {label}-{inner.modality}->{n2},{n3}, "
              f"{n3} preferred to {n2}, {n3} minimal", (negated,))
    return [branch, right]


# one function per agenda, in rule order; a rule returns the two sides
# of a split, or None when it changed the branch in place
_RULES = (_bot, _neg, _and, _box, _box, _defdia, _or, _dia)


def step(branch: Branch) -> Optional[list]:
    """Apply one pending rule instance; None when saturated.

    Non-splitting rules mutate the branch in place and return [branch];
    splitting rules return two independent branches.  The instance is
    the oldest of the first non-empty agenda, so non-splitting rules go
    first and every queued instance is eventually applied.
    """
    for rule, agenda in zip(_RULES, branch.agendas):
        if agenda:
            return rule(branch, *agenda.pop(0)) or [branch]
    return None


# ---------------------------------------------------------------------------
# Verdicts

class Closed(NamedTuple):
    events: tuple       # the events of each closed branch

    @property
    def traces(self):
        return tuple(_render_trace(e, "branch closed") for e in self.events)


class Open(NamedTuple):
    branch: Branch
    model: PreferentialModel

    @property
    def trace(self):
        return _render_trace(self.branch.events, "branch open (saturated)")


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
    if check_invariants:
        allowed = subformulas(desugar(f))
        allowed = allowed | {Not(g) for g in allowed} | {Bottom()}
    apps = 0
    stack = initial_tableau(f, counter)
    closed_events = []
    while stack:
        branch = stack.pop()
        while True:
            if branch.closed:
                closed_events.append(tuple(branch.events))
                break
            result = step(branch)
            if result is None:
                if check_invariants:
                    _check_saturated_invariants(branch)
                model = extract_model(branch)
                if not verify_branch_model(branch, model):
                    raise InvariantViolation(
                        "extracted model fails branch verification")
                return Open(branch, model)
            apps += 1
            if apps > max_rule_apps:
                raise ResourceLimitError(
                    f"rule application limit {max_rule_apps} exceeded")
            if check_invariants:
                for b in result:
                    _check_step_invariants(b, allowed)
            branch, *split = result
            stack.extend(split)
    return Closed(tuple(closed_events))


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
    # the signature, from the distinct subformulas of the branch
    atoms, modalities = set(), set(branch.skeleton)
    for g in subformulas(*(g for _, g in branch.formulas)):
        if isinstance(g, Atom):
            atoms.add(g.name)
        elif isinstance(g, (Box, DefBox)):
            modalities.add(g.modality)
    relations = {i: {(world_name(a), world_name(b)) for a, b in edges}
                 for i, edges in branch.skeleton.items()}
    index = {n: j for j, n in enumerate(labels)}
    pref = _row_pairs(transitive_closure(_rows(branch.preference, index)),
                      worlds)
    return PreferentialModel(worlds, atoms, modalities, relations, valuation,
                             pref)


def verify_branch_model(branch: Branch, model: PreferentialModel) -> bool:
    """Check that every labeled formula holds at its world in the model.

    The branch formulas share one evaluation, so a formula on several
    labels, or a subformula of several formulas, is evaluated once;
    then one bit is read per labeled formula.
    """
    index = model._index
    masks = _masks(model, [g for _, g in branch.formulas])
    for (n, _), mask in zip(branch.formulas, masks):
        j = index.get(world_name(n))
        if j is None or not mask >> j & 1:
            return False
    return True
