"""Differential tests: the flat sweep's signs vs the scalar oracle.

Claim under test: two :func:`~repro.geometry.kernels.visible_flat`
sweeps over the :func:`~repro.geometry.kernels.batch_planes` planes
(one per side, :func:`tests.sweep_orient.sweep_orient`) return exactly
scalar :func:`~repro.geometry.predicates.orient` on every (simplex,
query) pair, because every batched sign is either float-certified
inside the same error envelope the scalar predicates use or re-decided
by the very same exact ladder.  Hypothesis drives the
instances, on float data and on small-integer grids full of exact ties.
(Hull-level agreement of the flat sweep with the scalar object drivers
lives in ``test_soa_vs_scalar.py``.)
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.predicates import orient
from tests.sweep_orient import sweep_orient

blocks = st.tuples(
    st.integers(2, 4),          # d
    st.integers(1, 8),          # simplices
    st.integers(1, 12),         # queries
    st.integers(0, 10_000),     # seed
)


@given(blocks)
@settings(max_examples=25, deadline=None)
def test_sweep_orient_equals_orient_floats(params):
    d, nf, nq, seed = params
    rng = np.random.default_rng(seed)
    simplices = rng.standard_normal((nf, d, d))
    queries = rng.standard_normal((nq, d))
    got = sweep_orient(simplices, queries)
    want = np.array(
        [[orient(simplices[f], queries[q]) for q in range(nq)] for f in range(nf)]
    )
    assert np.array_equal(got, want)


@given(blocks)
@settings(max_examples=25, deadline=None)
def test_sweep_orient_equals_orient_integer_grids(params):
    """Small-integer coordinates force exact ties: the filter must
    escalate, never guess."""
    d, nf, nq, seed = params
    rng = np.random.default_rng(seed)
    simplices = rng.integers(-3, 4, size=(nf, d, d)).astype(float)
    queries = rng.integers(-3, 4, size=(nq, d)).astype(float)
    got = sweep_orient(simplices, queries)
    want = np.array(
        [[orient(simplices[f], queries[q]) for q in range(nq)] for f in range(nf)]
    )
    assert np.array_equal(got, want)
