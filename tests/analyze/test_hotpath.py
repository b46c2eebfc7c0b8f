"""The six RPRHOT rules on seeded fixture programs.

Each bad fixture must trigger *exactly* its rule; each clean twin must
pass.  Fixtures opt into the hot region with ``# repro: hot-entry`` or
a shape annotation -- the same comment grammar the real tree uses --
so they analyse exactly the way ``src/repro`` does.
"""

from __future__ import annotations

from repro.analyze import analyze_hotpaths


def _run(src: str, name: str = "fixture.py"):
    return analyze_hotpaths([], sources={name: src})


def _rules(result):
    return [f.rule_id for f in result.findings]


PER_ELEMENT_LEXICON = '''
def sweep(facets):
    # repro: hot-entry
    total = 0
    for facet in facets:
        total += 1
    return total
'''

PER_ELEMENT_LEXICON_CLEAN = '''
def sweep(rows):
    # repro: hot-entry
    total = 0
    for r in rows:
        total += 1
    return total
'''

PER_ELEMENT_INFERRED = '''
def scan(xs):
    # repro: shape: xs=(N,):float64
    acc = 0.0
    for x in xs:
        acc += x
    return acc
'''

SCALAR_PREDICATE = '''
def drive(rows, plane):
    # repro: hot-entry
    i = 0
    while i < len(rows):
        plane.side(rows, i)
        i += 1
'''

SCALAR_PREDICATE_CLEAN = '''
def drive(rows, plane):
    # repro: hot-entry
    signs = plane.margins_batch(rows)
    return signs
'''

ALLOC_NP_IN_LOOP = '''
def grow(n):
    # repro: hot-entry
    i = 0
    while i < n:
        chunk = np.zeros(4)
        i += 1
    return chunk
'''

LIST_GROW_IN_LOOP = '''
def gather(n):
    # repro: hot-entry
    cand_rows = []
    i = 0
    while i < n:
        cand_rows.append(i)
        i += 1
    return cand_rows
'''

ALLOC_HOISTED_CLEAN = '''
def grow(n):
    # repro: hot-entry
    chunk = np.zeros(n)
    i = 0
    while i < n:
        chunk[i] = i
        i += 1
    return chunk
'''

OBJECT_DTYPE = '''
def exactify(vals):
    # repro: hot-entry
    exact = np.array(vals, dtype=object)
    return exact
'''

OBJECT_DTYPE_CLEAN = '''
def exactify(vals):
    # repro: hot-entry
    dense = np.array(vals, dtype=np.float64)
    return dense
'''

SHAPE_MISMATCH = '''
def combine(a, b):
    # repro: shape: a=(3, 4):float64, b=(5, 4):float64
    return a + b
'''

SHAPE_MISMATCH_EINSUM = '''
def project(a, v):
    # repro: shape: a=(3, 4):float64, v=(5,):float64
    return np.einsum("ij,j->i", a, v)
'''

SHAPE_CLEAN = '''
def combine(a, b):
    # repro: shape: a=(F, d):float64, b=(F, d):float64
    return a + b
'''

SHAPE_CLEAN_BROADCAST = '''
def scale(a, w):
    # repro: shape: a=(F, d):float64, w=(F, 1):float64
    return a * w
'''

UNACCOUNTED_SWEEP = '''
def sweep_all(pts, cols, owner, ranks):
    # repro: hot-entry
    return visible_flat(pts, *cols, owner, ranks)
'''

ACCOUNTED_SWEEP_CLEAN = '''
def sweep_all(pts, cols, owner, ranks, blocks, tracker):
    # repro: hot-entry
    out = visible_flat(pts, *cols, owner, ranks)
    tracker.add_batched_sweep(blocks)
    return out
'''

PROVENANCE_CHAIN = '''
def entry(data):
    # repro: hot-entry
    return helper(data)

def helper(data):
    return leaf(data)

def leaf(facets):
    for facet in facets:
        pass
'''

COLD_CODE = '''
def not_hot(facets):
    for facet in facets:
        pass
    plane = Hyperplane()
    while facets:
        plane.side(facets)
'''


class TestBadFixtures:
    def test_lexicon_loop_is_rprhot001(self):
        r = _run(PER_ELEMENT_LEXICON)
        assert _rules(r) == ["RPRHOT001"]
        (f,) = r.findings
        assert "facets" in f.message and "hot-lexicon" in f.message

    def test_inferred_array_loop_is_rprhot001(self):
        r = _run(PER_ELEMENT_INFERRED)
        assert _rules(r) == ["RPRHOT001"]
        (f,) = r.findings
        # the lexicon never matches `xs`; only the shape annotation can
        assert "inferred array" in f.message and "float64" in f.message

    def test_scalar_predicate_in_loop_is_rprhot002(self):
        r = _run(SCALAR_PREDICATE)
        assert _rules(r) == ["RPRHOT002"]
        (f,) = r.findings
        assert "side" in f.message and "amortize" in f.message

    def test_np_alloc_in_loop_is_rprhot003(self):
        r = _run(ALLOC_NP_IN_LOOP)
        assert _rules(r) == ["RPRHOT003"]
        (f,) = r.findings
        assert "np.zeros" in f.message

    def test_hot_list_growth_is_rprhot003(self):
        r = _run(LIST_GROW_IN_LOOP)
        assert _rules(r) == ["RPRHOT003"]
        (f,) = r.findings
        assert "cand_rows.append" in f.message

    def test_object_dtype_is_rprhot004(self):
        r = _run(OBJECT_DTYPE)
        assert _rules(r) == ["RPRHOT004"]
        (f,) = r.findings
        assert "object-dtype" in f.message

    def test_broadcast_mismatch_is_rprhot005(self):
        r = _run(SHAPE_MISMATCH)
        assert _rules(r) == ["RPRHOT005"]

    def test_einsum_mismatch_is_rprhot005(self):
        r = _run(SHAPE_MISMATCH_EINSUM)
        assert _rules(r) == ["RPRHOT005"]

    def test_unaccounted_sweep_is_rprhot006(self):
        r = _run(UNACCOUNTED_SWEEP)
        assert _rules(r) == ["RPRHOT006"]
        (f,) = r.findings
        assert "visible_flat" in f.message

    def test_syntax_error_is_rprhot999(self):
        r = analyze_hotpaths([], sources={"bad.py": "def f(:\n"})
        assert _rules(r) == ["RPRHOT999"]


class TestCleanTwins:
    def test_non_hot_data_loop_passes(self):
        assert _rules(_run(PER_ELEMENT_LEXICON_CLEAN)) == []

    def test_batched_predicate_passes(self):
        assert _rules(_run(SCALAR_PREDICATE_CLEAN)) == []

    def test_hoisted_allocation_passes(self):
        assert _rules(_run(ALLOC_HOISTED_CLEAN)) == []

    def test_float64_array_passes(self):
        assert _rules(_run(OBJECT_DTYPE_CLEAN)) == []

    def test_symbolic_dims_agree(self):
        assert _rules(_run(SHAPE_CLEAN)) == []

    def test_broadcast_against_one_is_fine(self):
        assert _rules(_run(SHAPE_CLEAN_BROADCAST)) == []

    def test_accounted_sweep_passes(self):
        assert _rules(_run(ACCOUNTED_SWEEP_CLEAN)) == []


class TestHotRegion:
    def test_provenance_chain_names_every_hop(self):
        r = _run(PROVENANCE_CHAIN)
        assert _rules(r) == ["RPRHOT001"]
        (f,) = r.findings
        assert "entry -> helper -> leaf" in f.message
        assert set(r.hot) >= {"fixture.entry", "fixture.helper", "fixture.leaf"}

    def test_cold_code_is_never_checked(self):
        # same smells, but unreachable from any entry: zero findings
        r = _run(COLD_CODE)
        assert _rules(r) == []
        assert r.entries == {}

    def test_kernel_param_is_an_entry(self):
        r = _run("def f(kernel):\n    return kernel\n")
        assert r.entries == {"fixture.f": "has a kernel= parameter"}

    def test_exempt_files_propagate_hotness_but_never_report(self):
        r = _run(PER_ELEMENT_LEXICON, name="geometry/hyperplane.py")
        assert _rules(r) == []
        assert "geometry.hyperplane.sweep" in r.hot


class TestSuppression:
    def test_same_line_noqa_moves_finding_to_suppressed(self):
        src = PER_ELEMENT_LEXICON.replace(
            "for facet in facets:",
            "for facet in facets:  # repro: noqa: RPRHOT001",
        )
        assert src != PER_ELEMENT_LEXICON
        r = _run(src)
        assert _rules(r) == []
        assert [f.rule_id for f in r.suppressed] == ["RPRHOT001"]

    def test_wrong_code_does_not_suppress(self):
        src = PER_ELEMENT_LEXICON.replace(
            "for facet in facets:",
            "for facet in facets:  # repro: noqa: RPRHOT002",
        )
        r = _run(src)
        assert _rules(r) == ["RPRHOT001"]

    def test_suppression_count_feeds_the_ratchet(self):
        src = PER_ELEMENT_LEXICON.replace(
            "for facet in facets:",
            "for facet in facets:  # repro: noqa: RPRHOT001",
        )
        r = _run(src)
        assert len(r.suppressions()) == 1
