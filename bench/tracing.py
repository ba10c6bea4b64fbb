"""Spans around the calls into each layer of `dmt`, for the traced run.

`Tracer.install` replaces module attributes of `dmt.syntax`,
`dmt.tableau`, `dmt.semantics` and `dmt.engine` with wrappers that record
a span (name, start, end, parent) and, for some calls, a count taken
from the arguments or the result.  The program itself is unchanged; the
wrappers live only in the traced process.  Spans are kept in memory and
written out by `write`.  A span's self time is its duration minus the
durations of its child spans; a layer's self time is the sum over the
spans named after it.  Time in a function that is not wrapped counts
as self time of the span it runs in (e.g. `holds_at` in
`tableau.verify`, model enumeration in `semantics.oracle`).
"""

from __future__ import annotations

import time
from array import array
from collections import Counter, defaultdict

LAYERS = ("syntax", "tableau", "semantics", "engine")


class Tracer:
    def __init__(self):
        # span i: names[name_id[i]], start[i], end[i], parent[i] (-1: none)
        self.names = []
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.stack = []          # (index, layer) of the open spans
        self.depth = Counter()   # open spans by name
        self.counts = Counter()
        self._restore = []

    # -- recording ----------------------------------------------------------

    def wrap(self, name, fn, on_result=None, fold=False):
        """A wrapper of fn that records a span named `name`.

        With fold=True no span is recorded while the innermost open span
        belongs to the same layer (recursion, or a call inside one layer);
        the time then counts as that span's self time.
        """
        stack, depth = self.stack, self.depth
        name_ids, starts, ends, parents = (self.name_id, self.start,
                                           self.end, self.parent)
        layer = name.split(".", 1)[0]
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if fold and stack and stack[-1][1] == layer:
                result = fn(*args, **kwargs)
            else:
                index = len(starts)
                name_ids.append(nid)
                parents.append(stack[-1][0] if stack else -1)
                ends.append(0.0)
                stack.append((index, layer))
                depth[name] += 1
                starts.append(clock())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    ends[index] = clock()
                    depth[name] -= 1
                    stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def inside(self, name):
        return self.depth[name] > 0

    def count(self, key, n=1):
        self.counts[key] += n

    # -- patching -----------------------------------------------------------

    def _set(self, owners, attr, wrapper):
        for owner in owners:
            self._restore.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def patch(self, owners, attr, name, **kwargs):
        """Wrap owners[0].<attr> and install the wrapper on every owner
        that imported the same function."""
        wrapper = self.wrap(name, getattr(owners[0], attr), **kwargs)
        self._set(owners, attr, wrapper)
        return wrapper

    def install(self, syntax, tableau, semantics, engine):
        count = self.count
        self.patch([syntax], "parse_formula", "syntax.parse")
        self.patch([syntax], "parse_statement", "syntax.parse")
        self.patch([syntax, tableau, engine], "desugar", "syntax.desugar",
                   fold=True)
        self.patch([syntax, tableau], "subformulas", "syntax.subformulas",
                   on_result=lambda a, r: count("syntax.subformulas_calls"))

        def on_step(args, result):
            if result is not None:
                count("tableau.rule_apps")
                if len(result) == 2:
                    count("tableau.splits")

        traced_decide = self.patch([tableau], "decide", "tableau.decide")
        self.patch([tableau], "step", "tableau.step", on_result=on_step)
        self.patch([tableau.Branch], "clone", "tableau.clone")
        self.patch([tableau], "extract_model", "tableau.extract",
                   on_result=lambda a, r: count("tableau.model_worlds",
                                                len(r.worlds)))
        self.patch([tableau], "verify_branch_model", "tableau.verify")

        self.patch([semantics, engine], "extension", "semantics.extension",
                   fold=True,
                   on_result=lambda a, r: count("semantics.extension_calls"))
        self.patch([semantics], "validate_model", "semantics.validate")
        self.patch([semantics, tableau], "transitive_closure",
                   "semantics.closure")
        self.patch([semantics], "brute_force_satisfiable", "semantics.oracle")

        def on_kb_check(args, result):
            if not result and not self.inside("engine.fallback"):
                count("engine.rejected_models")

        self.patch([semantics, engine], "satisfies_kb_globally",
                   "semantics.kb_check", on_result=on_kb_check)

        enumerate_models = semantics.enumerate_models

        def counted_models(*args, **kwargs):
            for model in enumerate_models(*args, **kwargs):
                count("semantics.models_enumerated")
                yield model

        self._set([semantics, engine], "enumerate_models", counted_models)

        self.patch([engine], "global_entails", "engine.entails")

        def on_fallback(args, result):
            count("engine.fallbacks")
            if result is not None:
                count("engine.fallback_hits")

        self.patch([engine], "_brute_force_refutation", "engine.fallback",
                   on_result=on_fallback)

        def engine_decide(f, *args, **kwargs):
            count("engine.decide_calls")
            count("engine.closure_nodes", tree_size(f, syntax.children))
            return traced_decide(f, *args, **kwargs)

        self._set([engine], "decide", engine_decide)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def spans(self):
        """(name, start, end, parent index or -1) for every span."""
        return zip((self.names[i] for i in self.name_id), self.start,
                   self.end, self.parent)

    def times(self):
        """(self time by span name, inclusive time by span name)."""
        child = array("d", bytes(8 * len(self.start)))
        for _, start, end, parent in self.spans():
            if parent >= 0:
                child[parent] += end - start
        own = defaultdict(float)
        inclusive = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans(), child):
            own[name] += end - start - inner
            inclusive[name] += end - start
        return own, inclusive

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("index\tname\tstart\tend\tparent\n")
            for index, (name, start, end, parent) in enumerate(self.spans()):
                fh.write(f"{index}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")


def tree_size(f, children):
    size, todo = 0, [f]
    while todo:
        g = todo.pop()
        size += 1
        todo.extend(children(g))
    return size


def layer_metrics(tracer, rounds):
    """The per-layer metrics, each per round of the workload's inputs."""
    own, inclusive = tracer.times()
    n = tracer.counts

    def per_round(x):
        return x / rounds

    def ratio(num, den):
        return num / den if den else 0.0

    layer_self = defaultdict(float)
    for name, t in own.items():
        layer_self[name.split(".", 1)[0]] += t
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (per_round(layer_self[layer]), "s")
    for span in ("syntax.parse", "syntax.desugar", "syntax.subformulas",
                 "tableau.decide", "tableau.step", "tableau.clone",
                 "tableau.extract", "tableau.verify", "semantics.extension",
                 "semantics.validate", "semantics.closure",
                 "semantics.oracle", "semantics.kb_check", "engine.entails",
                 "engine.fallback"):
        out[span + "_s"] = (per_round(own.get(span, 0.0)), "s")
    for metric in ("syntax.subformulas_calls", "tableau.rule_apps",
                   "tableau.splits", "tableau.model_worlds",
                   "semantics.extension_calls",
                   "semantics.models_enumerated", "engine.decide_calls",
                   "engine.closure_nodes", "engine.rejected_models"):
        out[metric] = (per_round(n[metric]), "count")
    out["tableau.rule_apps_per_s"] = (
        ratio(n["tableau.rule_apps"], inclusive.get("tableau.decide", 0.0)),
        "1/s")
    enumerating = (inclusive.get("semantics.oracle", 0.0)
                   + inclusive.get("engine.fallback", 0.0))
    out["semantics.models_per_s"] = (
        ratio(n["semantics.models_enumerated"], enumerating), "1/s")
    out["engine.fallback_hit_ratio"] = (
        ratio(n["engine.fallback_hits"], n["engine.fallbacks"]), "ratio")
    return out
