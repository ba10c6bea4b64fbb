import copy
import gc
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from dmt import syntax
from dmt.cli import run
from dmt.syntax import (
    And, Atom, Bottom, Box, Conditional, DefBox, DefDia, Dia, Iff, Implies,
    Not, Or, Plain, SyntaxError_, Top, atoms_of, children, desugar,
    is_classical, is_core, modal_depth, modalities_of, parse_formula,
    parse_statement, render_formula, size, subformulas,
)
from conftest import random_formula

p, q, c, h = Atom("p"), Atom("q"), Atom("c"), Atom("h")

OPERAND = "expected one of: (, <, <<, [, [[, false, identifier, true, ~"


class TestParse:
    def test_conjunction_with_negation(self):
        assert parse_formula("p & ~p") == And(p, Not(p))

    def test_mixed_modalities(self):
        f = parse_formula("[[a]](p -> q) -> ([a]p -> [a]q)")
        assert f == Implies(DefBox("a", Implies(p, q)),
                            Implies(Box("a", p), Box("a", q)))

    def test_defeasible_diamond_top(self):
        assert parse_formula("<<m>> true") == DefDia("m", Top())

    def test_precedence(self):
        assert parse_formula("p | c -> [[f]]~h") == \
            Implies(Or(p, c), DefBox("f", Not(h)))
        # -> is right-associative, <-> binds loosest
        assert parse_formula("p -> q -> p") == Implies(p, Implies(q, p))
        assert parse_formula("p & q | p <-> q") == \
            Iff(Or(And(p, q), p), q)

    def test_longest_match_tokenization(self):
        assert parse_formula("[[a]]p") == DefBox("a", p)
        assert parse_formula("[a]p") == Box("a", p)
        assert parse_formula("<<a>>p") == DefDia("a", p)
        assert parse_formula("<a>p") == Dia("a", p)

    def test_comments_and_whitespace(self):
        assert parse_formula("p &  # comment\n q") == And(p, q)

    def test_error_has_position(self):
        with pytest.raises(SyntaxError_) as exc:
            parse_formula("p &\n& q")
        assert exc.value.line == 2
        assert "expected" in str(exc.value)

    def test_error_trailing_input(self):
        with pytest.raises(SyntaxError_):
            parse_formula("p q")

    def test_error_unknown_char(self):
        with pytest.raises(SyntaxError_):
            parse_formula("p ? q")

    @pytest.mark.parametrize("text, line, column, message", [
        ("p &\t?", 1, 5, "unexpected character '?'"),
        # a carriage return is one column; only the newline starts a line
        ("p &\r\nq &\r\nr & )", 3, 5, f"unexpected ')', {OPERAND}"),
        ("[a p", 1, 4, "unexpected 'p', expected one of: ]"),
        ("[[a]p", 1, 4, "unexpected ']', expected one of: ]]"),
        ("<<a>p", 1, 4, "unexpected '>', expected one of: >>"),
        ("p q", 1, 3, "unexpected 'q', expected one of: end of input"),
        # input that ends in a comment ends where the comment starts
        ("p & # c", 1, 5, f"unexpected end of input, {OPERAND}"),
    ])
    def test_error_line_and_column(self, text, line, column, message):
        with pytest.raises(SyntaxError_) as exc:
            parse_formula(text)
        assert (exc.value.line, exc.value.column) == (line, column)
        assert str(exc.value) == f"{line}:{column}: {message}"


class TestParseStatement:
    def test_conditional(self):
        assert parse_statement("p |~ [a]q") == Conditional(p, Box("a", q))

    def test_plain(self):
        assert parse_statement("p") == Plain(p)

    def test_no_nesting(self):
        with pytest.raises(SyntaxError_):
            parse_statement("a |~ b |~ c")


class TestRender:
    def test_simple(self):
        assert render_formula(And(p, Not(p))) == "p & ~p"
        assert render_formula(DefBox("f", Not(h))) == "[[f]]~h"

    def test_minimal_parens(self):
        f = Implies(Or(p, c), DefBox("f", Not(h)))
        assert render_formula(f) == "p | c -> [[f]]~h"

    def test_associativity_parens(self):
        assert render_formula(And(p, And(q, p))) == "p & (q & p)"
        assert render_formula(And(And(p, q), p)) == "p & q & p"
        assert render_formula(Implies(Implies(p, q), p)) == "(p -> q) -> p"
        assert render_formula(Implies(p, Implies(q, p))) == "p -> q -> p"


class TestDesugar:
    def test_top(self):
        assert desugar(Top()) == Not(Bottom())

    def test_defdia_top(self):
        assert desugar(DefDia("m", Top())) == \
            Not(DefBox("m", Not(Not(Bottom()))))

    def test_dia(self):
        assert desugar(Dia("f", Not(h))) == Not(Box("f", Not(Not(h))))

    def test_result_is_core(self):
        rng = random.Random(7)
        for _ in range(200):
            f = random_formula(rng, rng.randint(1, 10))
            assert is_core(desugar(f))

    def test_idempotent(self):
        rng = random.Random(8)
        for _ in range(200):
            f = random_formula(rng, rng.randint(1, 10))
            assert desugar(desugar(f)) == desugar(f)

    def test_keeps_modal_depth(self):
        rng = random.Random(9)
        for _ in range(200):
            f = random_formula(rng, rng.randint(1, 10))
            assert modal_depth(desugar(f)) == modal_depth(f)


class TestStructure:
    def test_subformulas(self):
        assert subformulas(p) == {p}
        assert subformulas(And(p, q)) == {p, q, And(p, q)}
        f = DefBox("a", Not(p))
        assert subformulas(f) == {p, Not(p), f}

    def test_subformula_count_bound(self):
        rng = random.Random(10)
        for _ in range(200):
            f = random_formula(rng, rng.randint(1, 10))
            assert len(subformulas(f)) <= size(f)

    def test_modal_depth(self):
        assert modal_depth(And(p, Not(q))) == 0
        assert modal_depth(Box("a", DefBox("b", p))) == 2
        assert modal_depth(Implies(DefBox("f", p), Box("f", q))) == 1

    def test_classical_fragment(self):
        assert is_classical(Box("a", Not(p)))
        assert not is_classical(DefDia("a", p))

    def test_bottom_up_combines_each_node_once(self):
        # ~p and the desugared <-> share nodes, so some are pushed by
        # two parents before either has combined them
        rng = random.Random(12)
        fs = [desugar(parse_formula("p & ~p & (q <-> r)"))] + \
            [desugar(random_formula(rng, rng.randint(1, 12)))
             for _ in range(200)]
        counts = []
        for f in fs:
            calls = []
            syntax._bottom_up(f, lambda g, values: calls.append(g))
            assert len(calls) == len(set(calls)) == len(subformulas(f))
            counts.append(len(calls))
        assert counts[0] == 13


def iff_chain(n):
    return " <-> ".join(f"p{i}" for i in range(n))


class TestInterning:
    def test_equal_formulas_are_one_object(self):
        text = "[[a]](p -> q) & <<b>>~p <-> true | [a]false"
        assert parse_formula(text) is parse_formula(text)
        assert Not(Atom("p")) is Not(Atom("p"))
        assert parse_statement("p |~ q") is Conditional(p, q)
        assert Box("a", p) is not Dia("a", p)
        f = parse_formula(text)
        assert copy.deepcopy(f) is f and pickle.loads(pickle.dumps(f)) is f

    def test_nodes_are_immutable(self):
        f = And(p, q)
        with pytest.raises(AttributeError):
            f.left = q
        with pytest.raises(AttributeError):
            del f.right
        assert f.left is p and f.right is q

    def test_dropped_formulas_leave_the_table(self):
        name = "only_in_test_dropped_formulas_leave_the_table"
        f = Not(Atom(name))
        assert (Atom, name) in syntax._TABLE
        del f
        gc.collect()
        assert (Atom, name) not in syntax._TABLE
        assert (Not, Atom(name)) not in syntax._TABLE

    def test_desugared_iff_chain_is_linear(self):
        seen, todo = set(), [desugar(parse_formula(iff_chain(16)))]
        while todo:
            node = todo.pop()
            if id(node) not in seen:
                seen.add(id(node))
                todo.extend(children(node))
        assert len(seen) <= 10 * 16

    def test_sat_on_long_iff_chain(self):
        assert run(["sat", iff_chain(40)]) == 0

    def test_walkers_on_long_iff_chain(self):
        # each walker visits the distinct nodes, which are few, not the
        # tree, which doubles per atom
        f = desugar(parse_formula(iff_chain(40)))
        tree = 1
        for _ in range(39):
            # a <-> b desugars to 7 nodes around two copies of a and of b
            tree = 7 + 2 * tree + 2
        assert size(f) == tree
        assert modal_depth(f) == 0
        assert atoms_of(f) == {f"p{i}" for i in range(40)}
        assert modalities_of(f) == set()
        assert is_core(f) and is_classical(f)
        g = desugar(parse_formula(
            " <-> ".join(f"<<m{i}>>p{i}" for i in range(40))))
        assert modal_depth(g) == 1
        assert modalities_of(g) == {f"m{i}" for i in range(40)}
        assert atoms_of(f, g) == atoms_of(f)
        assert is_core(g) and not is_classical(g)


# hypothesis strategy over the full language
leaf = st.sampled_from([p, q, Atom("r"), Top(), Bottom()])
formulas = st.recursive(
    leaf,
    lambda sub: st.one_of(
        sub.map(Not),
        st.tuples(sub, sub).map(lambda t: And(*t)),
        st.tuples(sub, sub).map(lambda t: Or(*t)),
        st.tuples(sub, sub).map(lambda t: Implies(*t)),
        st.tuples(sub, sub).map(lambda t: Iff(*t)),
        st.tuples(st.sampled_from(["a", "b"]), sub).map(lambda t: Box(*t)),
        st.tuples(st.sampled_from(["a", "b"]), sub).map(lambda t: Dia(*t)),
        st.tuples(st.sampled_from(["a", "b"]), sub).map(lambda t: DefBox(*t)),
        st.tuples(st.sampled_from(["a", "b"]), sub).map(lambda t: DefDia(*t)),
    ),
    max_leaves=25,
)


@given(formulas)
@settings(max_examples=300, deadline=None)
def test_round_trip(f):
    assert parse_formula(render_formula(f)) == f


@given(formulas)
@settings(max_examples=200, deadline=None)
def test_desugar_properties(f):
    g = desugar(f)
    assert is_core(g)
    assert desugar(g) == g
    assert modal_depth(g) == modal_depth(f)
