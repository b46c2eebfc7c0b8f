"""Differential tests: the noisy oracle's self-healing ladder vs the
exact oracle.

Claim under test: for any input -- Hypothesis-driven random clouds and
every family of the adversarial degenerate corpus -- ``robust_hull``
with a :class:`NoisyKernel` returns the *same hull* as the noise-free
ladder, because every noisy rung is gated by the independently-exact
certificate and rejection escalates (votes, then the exact rungs).
The escalation path must be recorded and end on the surviving rung.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import uniform_ball, uniform_cube
from repro.geometry.degenerate import CORPUS
from repro.geometry.noisy import ADAPTIVE, NoisyKernel
from repro.hull.robust import robust_hull


def _global_keys(run) -> set:
    order = np.asarray(run.order)
    return {tuple(sorted(int(order[r]) for r in f.indices)) for f in run.facets}


def _assert_ladder_matches_exact(pts, seed, nk):
    res = robust_hull(pts, seed=seed, noise=nk)
    exact = robust_hull(pts, seed=seed, engine="objects")
    assert _global_keys(res.run) == _global_keys(exact.run)
    assert res.escalations
    assert res.escalations[-1].split("#")[0].startswith(res.mode)
    assert res.escalations[-1].endswith(":ok") or res.mode == "joggle"


instances = st.tuples(
    st.integers(2, 4),            # d
    st.integers(12, 60),          # n
    st.integers(0, 10_000),       # point seed
    st.integers(0, 10_000),       # noise seed
    st.sampled_from([0.001, 0.01, 0.05]),
    st.booleans(),                # ball vs cube
)


@given(instances)
@settings(max_examples=8, deadline=None)
def test_ladder_matches_exact_on_random_inputs(params):
    d, n, seed, nseed, p, ball = params
    n = max(n, d + 2)
    gen = uniform_ball if ball else uniform_cube
    pts = gen(n, d, seed=seed)
    _assert_ladder_matches_exact(
        pts, seed, NoisyKernel(p=p, votes=ADAPTIVE, seed=nseed)
    )


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_ladder_matches_exact_on_corpus(name):
    # Degenerate inputs make the noisy rungs fail for *two* reasons at
    # once (lies and genuine degeneracy); the gate must still land the
    # ladder on exactly the hull the noise-free ladder picks.
    pts = CORPUS[name](0)
    _assert_ladder_matches_exact(
        pts, 0, NoisyKernel(p=0.05, votes=ADAPTIVE, seed=1)
    )
