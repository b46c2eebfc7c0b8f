"""The six RPRFP rules on seeded fixture programs, plus the real-tree
cleanliness and ratchet-baseline guarantees.

Each bad fixture must trigger *exactly* its rule; each clean twin must
pass.  Fixtures carry the same ``# repro: fp-bound:`` grammar as the
real kernels, so they analyse exactly the way ``src/repro`` does.  The
centerpiece is the PR 3 regression: the old plain eps*Hadamard
determinant envelope, re-committed verbatim, must be rejected
statically (RPRFP001) -- the bug fuzzing found dynamically is now a
compile-time error.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analyze import analyze_fpcheck, baseline_payload

REPO = Path(__file__).resolve().parents[2]


def _run(src: str, name: str = "fixture.py"):
    return analyze_fpcheck([], sources={name: src})


def _rules(result):
    return [f.rule_id for f in result.findings]


# -- RPRFP001: committed envelope under the derived bound -----------------

# The PR 3 regression, distilled: the determinant filter's committed
# constant was a plain eps * Hadamard bound (16*ME*CM here) with no
# room for the elimination constants and the 2^(n-1) pivot growth the
# LAPACK model (108*ME*CM) carries.  Statically rejected.
PR3_REGRESSION = '''
import numpy as np

def det_filter(m):
    # repro: fp-bound: assume n in 3..3
    # repro: fp-bound: in m ~ ME
    # repro: fp-bound: call det ~ DET err 108*ME*CM
    det = float(np.linalg.det(m))
    # repro: fp-bound: claim det <= 16*ME*CM
    return det
'''

PR3_REGRESSION_CLEAN = PR3_REGRESSION.replace("16*ME*CM", "1728*ME*CM")

# Straight-line arithmetic variant: the claim must dominate the
# derivation from the transfer rules themselves.
UNDER_CLAIMED_SUM = '''
def residual(a, b):
    # repro: fp-bound: in a ~ A
    # repro: fp-bound: in b ~ B
    s = a + b
    # repro: fp-bound: claim s <= 0.1*A + 0.1*B
    return s
'''

UNDER_CLAIMED_SUM_CLEAN = UNDER_CLAIMED_SUM.replace("0.1*A + 0.1*B",
                                                    "0.5*A + 0.5*B")


class TestEnvelopeUnderDerived:
    def test_pr3_regression_flagged(self):
        r = _run(PR3_REGRESSION)
        assert _rules(r) == ["RPRFP001"]
        (f,) = r.findings
        assert "det" in f.message

    def test_pr3_fixed_constant_clean(self):
        assert _rules(_run(PR3_REGRESSION_CLEAN)) == []

    def test_under_claimed_arithmetic(self):
        assert _rules(_run(UNDER_CLAIMED_SUM)) == ["RPRFP001"]
        assert _rules(_run(UNDER_CLAIMED_SUM_CLEAN)) == []

    def test_claim_recorded_both_ways(self):
        bad = _run(UNDER_CLAIMED_SUM)
        good = _run(UNDER_CLAIMED_SUM_CLEAN)
        assert [c.ok for c in bad.claims] == [False]
        assert [c.ok for c in good.claims] == [True]

    def test_gathers_carry_the_gathered_bounds(self):
        # np.take / a.take / np.repeat only select entries of `a`, so
        # they must derive exactly what the subscript a[k] derives --
        # not top, which leaves the claim unchecked (RPRFP001 "cannot
        # be checked") in both the bad and the clean twin.
        def gathered(src, expr):
            return "import numpy as np\n" + src.replace(
                "def residual(a, b):", "def residual(a, b, k):"
            ).replace("s = a + b", f"s = {expr} + b")

        want = {}
        for expr in ("a[k]", "np.take(a, k)", "a.take(k)",
                     "np.repeat(a, k, axis=0)"):
            bad = _run(gathered(UNDER_CLAIMED_SUM, expr))
            good = _run(gathered(UNDER_CLAIMED_SUM_CLEAN, expr))
            assert _rules(bad) == ["RPRFP001"], expr
            assert _rules(good) == [], expr
            assert [c.ok for c in bad.claims] == [False], expr
            assert [c.ok for c in good.claims] == [True], expr
            got = [(c.derived, c.derived_mag) for c in bad.claims + good.claims]
            assert got[0][0], expr
            assert want.setdefault("bounds", got) == got, expr

    def test_fact_closes_the_gap(self):
        # Without the fact the derived NRM monomial has no budget in
        # the committed 6*H bound; the fact NRM <= 6*H (the cofactor
        # Hadamard inequality) makes the same claim pass.
        base = '''
def scalenorm(n):
    # repro: fp-bound: in n ~ NRM
    x = n + n
    # repro: fp-bound: claim x <= 24*H
    return x
'''
        assert _rules(_run(base)) == ["RPRFP001"]
        with_fact = base.replace(
            "    # repro: fp-bound: in n ~ NRM",
            "    # repro: fp-bound: in n ~ NRM\n"
            "    # repro: fp-bound: fact NRM <= 6*H",
        )
        assert _rules(_run(with_fact)) == []


# -- RPRFP002: unfiltered float comparison --------------------------------

UNFILTERED = '''
def decide(margins):
    # repro: fp-bound: in margins ~ M err 3*M
    return margins > 0.0
'''

GUARDED_STATEMENT = '''
def decide(margins, env):
    # repro: fp-bound: in margins ~ M err 3*M
    # repro: fp-bound: guard env
    return margins > env
'''

GUARDED_BRANCH = '''
def decide(margin, env):
    # repro: fp-bound: in margin ~ M err 3*M
    # repro: fp-bound: guard env
    if abs(margin) > env:
        if margin > 0.0:
            return 1
        return -1
    return 0
'''


class TestUnfilteredComparison:
    def test_bare_comparison_flagged(self):
        r = _run(UNFILTERED)
        assert _rules(r) == ["RPRFP002"]

    def test_guard_in_statement_clean(self):
        assert _rules(_run(GUARDED_STATEMENT)) == []

    def test_comparison_inside_guarded_branch_clean(self):
        # The scalar-ladder shape: the inner sign test mentions no
        # envelope name, but the enclosing branch condition does -- the
        # comparison is dominated by the filter.
        assert _rules(_run(GUARDED_BRANCH)) == []

    def test_errorless_data_not_flagged(self):
        # Exact inputs (no err declaration) carry no rounding error;
        # comparing them trusts nothing.
        src = UNFILTERED.replace(" err 3*M", "")
        assert _rules(_run(src)) == []


# -- RPRFP003: non-conservative envelope arithmetic -----------------------

SUBTRACTIVE_ENVELOPE = '''
def envelope(a, b):
    # repro: fp-bound: in a ~ A
    # repro: fp-bound: in b ~ B
    # repro: fp-bound: envelope env
    env = a - b
    return env
'''

ADDITIVE_ENVELOPE = SUBTRACTIVE_ENVELOPE.replace("a - b", "a + b")


class TestNonConservativeEnvelope:
    def test_subtraction_flagged(self):
        assert _rules(_run(SUBTRACTIVE_ENVELOPE)) == ["RPRFP003"]

    def test_addition_clean(self):
        assert _rules(_run(ADDITIVE_ENVELOPE)) == []

    def test_division_flagged(self):
        assert _rules(_run(SUBTRACTIVE_ENVELOPE.replace("a - b", "a / b"))) \
            == ["RPRFP003"]

    def test_index_arithmetic_exempt(self):
        # n - 1 on a pinned dimension is exact integer arithmetic, not
        # float envelope data: no finding even inside an envelope RHS.
        src = '''
def envelope(a, n):
    # repro: fp-bound: assume n in 2..3
    # repro: fp-bound: in a ~ A
    # repro: fp-bound: envelope env
    env = a * 2.0 ** (n - 1)
    return env
'''
        assert _rules(_run(src)) == []

    def test_non_envelope_name_exempt(self):
        src = SUBTRACTIVE_ENVELOPE.replace("envelope env", "envelope other")
        assert _rules(_run(src)) == []


# -- RPRFP004: filter-knob misuse -----------------------------------------

SHRUNK_ENVELOPE = '''
def envelope(e):
    # repro: fp-bound: in e ~ E
    # repro: fp-bound: envelope env
    env = e * 0.5
    return env
'''

LATE_ADJUST = '''
def decide(margin, env):
    # repro: fp-bound: in margin ~ M err 2*M
    # repro: fp-bound: guard env
    # repro: fp-bound: envelope env
    ok = margin > env
    env = env * 2.0
    return ok, env
'''


class TestFilterKnobMisuse:
    def test_fractional_scale_flagged(self):
        assert _rules(_run(SHRUNK_ENVELOPE)) == ["RPRFP004"]

    def test_inflating_scale_clean(self):
        assert _rules(_run(SHRUNK_ENVELOPE.replace("0.5", "2.0"))) == []

    def test_filter_scale_knob_below_one(self):
        src = '''
def configure(filter_scale):
    # repro: fp-bound: guard env
    filter_scale(0.25)
'''
        assert _rules(_run(src)) == ["RPRFP004"]

    def test_adjust_after_comparison_flagged(self):
        assert _rules(_run(LATE_ADJUST)) == ["RPRFP004"]

    def test_adjust_before_comparison_clean(self):
        src = '''
def decide(margin, env):
    # repro: fp-bound: in margin ~ M err 2*M
    # repro: fp-bound: guard env
    # repro: fp-bound: envelope env
    env = env * 2.0
    ok = margin > env
    return ok, env
'''
        assert _rules(_run(src)) == []


# -- RPRFP999: annotation / parse errors ----------------------------------


class TestAnnotationErrors:
    def test_malformed_clause(self):
        src = "def f():\n    # repro: fp-bound: claim <= nonsense\n    pass\n"
        r = _run(src)
        assert _rules(r) == ["RPRFP999"]

    def test_module_level_clause(self):
        r = _run("# repro: fp-bound: guard env\nx = 1\n")
        assert _rules(r) == ["RPRFP999"]

    def test_unparseable_file(self):
        r = _run("def f(:\n")
        assert _rules(r) == ["RPRFP999"]

    def test_bad_poly_in_clause(self):
        src = "def f():\n    # repro: fp-bound: fact NRM <= 6*\n    pass\n"
        assert _rules(_run(src)) == ["RPRFP999"]


# -- suppression ----------------------------------------------------------


class TestSuppression:
    def test_noqa_moves_finding_to_suppressed(self):
        src = UNFILTERED.replace(
            "return margins > 0.0",
            "return margins > 0.0  # repro: noqa: RPRFP002",
        )
        r = _run(src)
        assert r.findings == []
        assert [f.rule_id for f in r.suppressed] == ["RPRFP002"]
        assert len(r.suppressions()) == 1


# -- interprocedural summaries --------------------------------------------

CALLER_USES_SUMMARY = '''
def producer(pts):
    # repro: fp-bound: assume d in 2..3
    # repro: fp-bound: in pts ~ S
    # repro: fp-bound: out normals ~ NRM err 6*H
    normals = pts
    return normals

def consumer(pts, q):
    # repro: fp-bound: assume d in 2..3
    # repro: fp-bound: in q ~ Q
    normals = producer(pts)
    m = normals @ q
    # repro: fp-bound: claim m <= 16*d*(H + NRM)*Q
    return m
'''


class TestInterprocedural:
    def test_out_summary_flows_to_caller(self):
        r = _run(CALLER_USES_SUMMARY)
        assert _rules(r) == []
        by_fn = {(c.qualname.rsplit(".", 1)[-1], c.pin): c.ok
                 for c in r.claims}
        assert by_fn[("consumer", ("d", 2))] is True
        assert by_fn[("consumer", ("d", 3))] is True

    def test_under_committed_caller_flagged(self):
        src = CALLER_USES_SUMMARY.replace("16*d*(H + NRM)*Q", "0.1*NRM*Q")
        r = _run(src)
        assert _rules(r) == ["RPRFP001", "RPRFP001"]  # one per pin


# -- loops and inlined helpers --------------------------------------------

# A dot product accumulated in a loop over the pinned dimension: at d=3
# the three products and two adds derive 4*X*N, exactly what the same
# statements written out derive.  One walk of the body would derive
# 2*X*N and let the under-claimed twin pass.
LOOP_DOT = '''
def dot(x, n):
    # repro: fp-bound: assume d in 3..3
    # repro: fp-bound: in x ~ X
    # repro: fp-bound: in n ~ N
    m = x[0] * n[0]
    for j in range(1, d):
        m += x[j] * n[j]
    # repro: fp-bound: claim m <= 2*X*N
    return m
'''

LOOP_DOT_CLEAN = LOOP_DOT.replace("2*X*N", "4*X*N")

UNROLLED_DOT = LOOP_DOT_CLEAN.replace(
    """    for j in range(1, d):
        m += x[j] * n[j]
""", """    m += x[1] * n[1]
    m += x[2] * n[2]
""")

# The same sum in two lanes, an index loop nested in a stepped range
# whose bounds hold a loop index.
LANE_DOT = '''
def dot(x, n):
    # repro: fp-bound: assume d in 3..3
    # repro: fp-bound: in x ~ X
    # repro: fp-bound: in n ~ N
    p = x * n
    m = p[0]
    for lane in range(0, 1):
        for c in range(lane + 2, d, 2):
            m += p[c]
    m += p[1]
    # repro: fp-bound: claim m <= 4*X*N
    return m
'''

# A helper the kernel calls: its arithmetic is walked inline, at the
# caller's pin, with the lane argument's int known inside it.
HELPER_DOT = '''
def dot(x, n):
    # repro: fp-bound: assume d in 3..3
    # repro: fp-bound: in x ~ X
    # repro: fp-bound: in n ~ N
    m = _lane(x * n, 0)
    m += _lane(x * n, 1)
    # repro: fp-bound: claim m <= 2*X*N
    return m

def _lane(p, lane):
    acc = p[lane]
    for c in range(lane + 2, d, 2):
        acc += p[c]
    return acc
'''


def _undecided(bound):
    return LOOP_DOT_CLEAN.replace("range(1, d)", f"range(1, {bound})")


class TestLoops:
    def test_decided_range_is_unrolled(self):
        bad, good = _run(LOOP_DOT), _run(LOOP_DOT_CLEAN)
        assert _rules(bad) == ["RPRFP001"]
        assert _rules(good) == []
        assert [c.ok for c in bad.claims] == [False]

    def test_loop_derives_what_the_unrolled_statements_derive(self):
        loop, flat = _run(LOOP_DOT_CLEAN), _run(UNROLLED_DOT)
        assert [c.derived for c in loop.claims] == [c.derived for c in flat.claims]
        assert [c.ok for c in loop.claims] == [True]

    def test_nested_ranges_see_the_outer_index(self):
        r = _run(LANE_DOT)
        assert _rules(r) == []
        assert _rules(_run(LANE_DOT.replace("4*X*N", "3*X*N"))) == ["RPRFP001"]

    def test_undecided_loop_reported_not_walked_once(self):
        for bound in ("k", "len(x)", "10**9", "d + k"):
            src = _undecided(bound).replace("def dot(x, n):", "def dot(x, n, k):")
            r = _run(src)
            rules = _rules(r)
            assert "RPRFP005" in rules, bound
            # What the loop accumulates is unknown afterwards: the claim
            # cannot be checked, rather than passing on one walk.
            assert [c.ok for c in r.claims] == [False], bound

    def test_negative_and_zero_steps(self):
        down = LOOP_DOT_CLEAN.replace("range(1, d)", "range(d - 1, 0, -1)")
        assert _rules(_run(down)) == []
        empty = LOOP_DOT_CLEAN.replace("range(1, d)", "range(d, 0)")
        r = _run(empty)
        assert _rules(r) == []
        assert [c.ok for c in r.claims] == [True]
        zero = LOOP_DOT_CLEAN.replace("range(1, d)", "range(1, d, 0)")
        assert "RPRFP005" in _rules(_run(zero))

    def test_loop_without_float_data_is_not_reported(self):
        src = LOOP_DOT_CLEAN.replace(
            "    # repro: fp-bound: claim m <= 4*X*N",
            "    idx = 0\n    for i in range(k):\n        idx = idx + 1\n"
            "    # repro: fp-bound: claim m <= 4*X*N",
        ).replace("def dot(x, n):", "def dot(x, n, k):")
        assert _rules(_run(src)) == []


# A ufunc writing into a row of a scratch array: the row is part of the
# array, so a later read of it must see what was written, not the
# zeros the array was made with.
OUT_INTO_ROW = '''
import numpy as np

def scaled(x, n):
    # repro: fp-bound: in x ~ X
    # repro: fp-bound: in n ~ N
    p = np.zeros((2, 5))
    np.abs(x, out=p[0])
    m = p[0] * n
    # repro: fp-bound: claim m <= 0.001*X*N
    return m
'''


class TestOutKeyword:
    def test_out_into_a_row_reaches_the_array(self):
        bad = _run(OUT_INTO_ROW)
        assert _rules(bad) == ["RPRFP001"]
        assert [c.ok for c in bad.claims] == [False]
        good = _run(OUT_INTO_ROW.replace("0.001*X*N", "0.5*X*N"))
        assert _rules(good) == []
        assert [c.ok for c in good.claims] == [True]


class TestInlinedHelpers:
    def test_helper_arithmetic_is_derived(self):
        bad = _run(HELPER_DOT)
        assert _rules(bad) == ["RPRFP001"]
        good = _run(HELPER_DOT.replace("2*X*N", "4*X*N"))
        assert _rules(good) == []
        # Same derivation as the two lanes written out in the kernel.
        assert [c.derived for c in good.claims] == \
            [c.derived for c in _run(LANE_DOT).claims]

    def test_public_or_annotated_callees_are_not_inlined(self):
        public = HELPER_DOT.replace("_lane", "lane").replace("2*X*N", "4*X*N")
        r = _run(public)
        assert [c.ok for c in r.claims] == [False]


# -- the real tree --------------------------------------------------------


class TestRealTree:
    def test_src_repro_is_clean(self):
        r = analyze_fpcheck([str(REPO / "src" / "repro")])
        assert r.findings == []
        assert r.suppressed == []

    def test_all_five_boundaries_annotated_and_claimed(self):
        r = analyze_fpcheck([str(REPO / "src" / "repro")])
        claimed = {c.qualname for c in r.claims}
        for qual in [
            "repro.geometry.kernels.batch_planes",
            "repro.geometry.kernels.visible_flat",
            "repro.geometry.linalg.det_with_error_bound",
            "repro.geometry.hyperplane.Hyperplane.through",
            "repro.geometry.hyperplane.Hyperplane.side",
            "repro.hull.soa.SoAHullEngine._facets_flat",
            "repro.hull.certify._filter_block",
            "repro.hull.validate._stacked_float_test",
        ]:
            assert qual in claimed, qual
        assert all(c.ok for c in r.claims)
        assert len(r.claims) >= 16

    def test_committed_baseline_matches_clean_tree(self):
        baseline = json.loads(
            (REPO / "fpcheck-baseline.json").read_text())
        r = analyze_fpcheck([str(REPO / "src" / "repro")])
        assert baseline == baseline_payload(
            r, suppression_key="rprfp_suppressions")
        assert baseline["findings"] == []
        assert baseline["rprfp_suppressions"] == 0
