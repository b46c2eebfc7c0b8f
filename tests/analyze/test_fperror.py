"""Unit tests for the relative-rounding-error domain (`fperror`):
polynomial algebra, the domination check with fact rewriting, the
Higham-style transfer rules, and the fp-bound clause grammar."""

from __future__ import annotations

import ast

import pytest

from repro.analyze import fperror as fe


def P(text: str) -> fe.Poly:
    return fe.parse_poly(text)


# -- polynomial algebra ---------------------------------------------------


class TestPoly:
    def test_parse_simple(self):
        assert P("6*H") == {((("H", 1),)): 6.0}
        assert P("1") == {(): 1.0}
        assert P("H") == {((("H", 1),)): 1.0}

    def test_parse_powers(self):
        assert P("d^2") == P("d**2") == P("d*d")

    def test_parse_product_expansion(self):
        # 16 d (d^2 H + NRM + 1)(B + Q) expands correctly: evaluate both
        # the parsed polynomial and the literal formula at sample values.
        p = P("16*d*(d*d*H + NRM + 1)*(B + Q)")
        vals = {"d": 3.0, "H": 2.5, "NRM": 7.0, "B": 1.5, "Q": 4.0}
        want = 16 * 3.0 * (9 * 2.5 + 7.0 + 1) * (1.5 + 4.0)
        assert fe.poly_eval(p, vals) == pytest.approx(want)

    def test_eval_missing_atom_raises(self):
        with pytest.raises(KeyError):
            fe.poly_eval(P("H*Q"), {"H": 1.0})

    def test_format_round_trip(self):
        p = P("0.5*NRM*Q + 18*B*H + 3*B")
        assert fe.parse_poly(fe.poly_format(p)) == p

    def test_sub_atom_matches_eval(self):
        p = P("16*d*(d*d*H + NRM + 1)*(B + Q)")
        pinned = fe.poly_sub_atom(p, "d", 3.0)
        assert "d" not in fe.poly_atoms(pinned)
        vals = {"H": 2.0, "NRM": 5.0, "B": 1.0, "Q": 3.0}
        assert fe.poly_eval(pinned, vals) == pytest.approx(
            fe.poly_eval(p, {**vals, "d": 3.0}))

    @pytest.mark.parametrize("bad", ["", "2*", "a +* b", "-3*H", "H + -1"])
    def test_parse_rejects(self, bad):
        with pytest.raises(fe.FpAnnotationError):
            fe.parse_poly(bad)


# -- domination -----------------------------------------------------------


class TestDominates:
    def test_constant(self):
        assert fe.dominates(P("4*AD + 4*BC"), P("AD + BC"))
        assert not fe.dominates(P("4*AD"), P("5*AD"))

    def test_missing_monomial_fails(self):
        assert not fe.dominates(P("10*H"), P("H + Q"))

    def test_fact_rewriting(self):
        # NRM is not in the committed bound; the fact NRM <= 6*H lets
        # the derived 0.5*NRM be charged against the 6*H budget.
        facts = [(next(iter(P("NRM"))), P("6*H"))]
        assert fe.dominates(P("6*H"), P("0.5*NRM"), facts)
        assert not fe.dominates(P("2*H"), P("0.5*NRM"), facts)

    def test_real_tree_shape(self):
        # SoAHullEngine._facets_flat's m_ref @d=3 domination, verbatim
        # from the analyzer.
        committed = P("432*B*H + 48*B*NRM + 432*H*Q + 48*NRM*Q + 48*B + 48*Q")
        derived = P("18*B*H + 18*B*NRM + 18*H*Q + 6*NRM*Q + 0.5*OFF")
        facts = [(next(iter(P("OFF"))), P("3*NRM*B"))]
        assert fe.dominates(committed, derived, facts)
        # Without the OFF fact the 0.5*OFF monomial has no cover.
        assert not fe.dominates(committed, derived)


# -- transfer rules -------------------------------------------------------


def X(mag: str, err: str | None = None) -> fe.FpVal:
    return fe.fp_exactval(P(mag), P(err) if err else None)


class TestTransfer:
    def test_add(self):
        r = fe.fp_add(X("A"), X("B"))
        assert r.mag == P("A + B")
        assert r.err == P("0.5*A + 0.5*B")

    def test_add_propagates(self):
        r = fe.fp_add(X("A", "2*A"), X("B"))
        assert r.err == P("2*A + 0.5*A + 0.5*B")

    def test_mul(self):
        r = fe.fp_mul(X("A", "A"), X("B"))
        assert r.mag == P("A*B")
        assert r.err == P("A*B + 0.5*A*B")

    def test_dot(self):
        r = fe.fp_dot(X("A", "2*A"), X("B"), fe.poly_const(3.0))
        assert r.mag == P("3*A*B")
        # propagated 3*(2A*B) plus final 0.5*9*A*B
        assert r.err == P("6*A*B + 4.5*A*B")

    def test_sum(self):
        r = fe.fp_sum(X("A", "A"), fe.poly_atom("d"))
        assert r.mag == P("d*A")
        assert r.err == P("d*A + 0.5*d*d*A")

    def test_cross(self):
        r = fe.fp_cross(X("A"), X("B"))
        assert r.mag == P("2*A*B")
        assert r.err == P("2*A*B")

    def test_sqrt(self):
        r = fe.fp_sqrt(X("A", "A"))
        assert r.err == P("A + 0.5*A")

    def test_bind_cancellation_rescue(self):
        # edges = b - a costs 0.5|a|+0.5|b| at face value; re-scoping to
        # the measured edge magnitude E keeps the inherited error but
        # re-charges the final rounding against E only.
        diff = fe.fp_add(X("A", "A"), X("B"))
        assert diff.last == P("0.5*A + 0.5*B")
        bound = fe.fp_bind(diff, fe.poly_atom("E"))
        assert bound.mag == P("E")
        assert bound.prop == P("A")  # inherited operand error kept
        assert bound.last == P("0.5*E")

    def test_bind_untracked(self):
        bound = fe.fp_bind(fe.TOP, fe.poly_atom("E"))
        assert bound.is_tracked
        assert bound.mag == P("E") and bound.err == P("0.5*E")

    def test_kind_lifting(self):
        assert fe.fp_add(fe.TOP, X("A")).kind == "top"
        assert fe.fp_add(fe.NONFP, fe.NONFP).kind == "other"
        # mixing float data with index data loses the bound
        assert fe.fp_add(fe.NONFP, X("A")).kind == "top"

    def test_join(self):
        r = fe.fp_join(X("A", "A"), X("B"), fe.NONFP)
        assert r.mag == P("A + B")
        assert r.err == P("A")  # exact values contribute no error
        assert fe.fp_join(X("A"), fe.TOP).kind == "top"
        assert fe.fp_join(fe.NONFP).kind == "other"

    def test_eps_is_binary64(self):
        assert fe.EPS == 2.0 ** -52


# -- clause grammar -------------------------------------------------------


ANNOTATED = '''
def kernel(pts, q):
    # repro: fp-bound: assume d in 2..3
    # repro: fp-bound: in pts ~ S
    # repro: fp-bound: bind e0 ~ R0, e1 ~ R1
    # repro: fp-bound: fact R0*R1 <= H @d=3
    # repro: fp-bound: fact NRM <= 6*H
    # repro: fp-bound: call det ~ DET err 108*ME*CM @d=3
    # repro: fp-bound: guard env certain
    # repro: fp-bound: envelope env scale
    # repro: fp-bound: out normals ~ NRM err 6*H
    margins = pts @ q
    # repro: fp-bound: claim margins <= 16*d*H
    return margins
'''


def _parse(src: str):
    return fe.parse_fp_annotations(src, ast.parse(src))


class TestGrammar:
    def test_full_annotation(self):
        anns, errors = _parse(ANNOTATED)
        assert errors == []
        (ann,) = anns.values()
        a = ann.assume()
        assert (a.name, a.lo, a.hi) == ("d", 2, 3)
        assert ann.guard_names() == {"env", "certain"}
        assert ann.envelope_names() == {"env", "scale"}
        binds = ann.selected("bind", None)
        assert [(c.name, c.atom) for c in binds] == [("e0", "R0"), ("e1", "R1")]

    def test_selector_pinning(self):
        anns, _ = _parse(ANNOTATED)
        (ann,) = anns.values()
        assert len(ann.facts(("d", 3))) == 2
        assert len(ann.facts(("d", 2))) == 1  # the @d=3 fact drops out
        calls2 = ann.selected("call", ("d", 2))
        assert calls2 == []
        (call3,) = ann.selected("call", ("d", 3))
        assert (call3.name, call3.atom) == ("det", "DET")
        assert call3.err == P("108*ME*CM")

    def test_claim_clause(self):
        anns, _ = _parse(ANNOTATED)
        (ann,) = anns.values()
        (claim,) = ann.selected("claim", ("d", 2))
        assert claim.name == "margins"
        assert claim.err == P("16*d*H")

    def test_innermost_owner(self):
        src = (
            "def outer():\n"
            "    def inner():\n"
            "        # repro: fp-bound: guard env\n"
            "        pass\n"
        )
        anns, errors = _parse(src)
        assert errors == []
        assert list(anns) == [2]  # attached to inner's def line

    def test_module_level_comment_is_error(self):
        anns, errors = _parse("# repro: fp-bound: guard env\nx = 1\n")
        assert anns == {}
        assert len(errors) == 1 and "outside any function" in errors[0][1]

    @pytest.mark.parametrize("body", [
        "claim <= 3*H",              # missing name
        "fact 2*NRM <= H",           # non-unit fact coefficient
        "assume d in 9..2",          # empty range
        "guard",                     # empty name list
        "in pts",                    # missing ~ ATOM
        "wibble x y",                # unknown clause head
    ])
    def test_malformed_clause_collects_error(self, body):
        src = f"def f():\n    # repro: fp-bound: {body}\n    pass\n"
        _, errors = _parse(src)
        assert len(errors) == 1

    def test_dotted_names(self):
        src = (
            "def side(self, q):\n"
            "    # repro: fp-bound: in self.normal ~ NRM err 6*H\n"
            "    pass\n"
        )
        anns, errors = _parse(src)
        assert errors == []
        (ann,) = anns.values()
        (decl,) = ann.selected("in", None)
        assert decl.name == "self.normal" and decl.err == P("6*H")
