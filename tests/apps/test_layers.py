"""Tests for convex layers (onion peeling)."""

import contextlib

import numpy as np
import pytest

from repro.apps import layers as layers_module
from repro.apps.layers import convex_layers
from repro.baselines import monotone_chain
from repro.geometry import on_circle, uniform_ball
from repro.geometry.hyperplane import exact_mode


class TestStructure:
    def test_layers_partition_points(self):
        pts = uniform_ball(120, 2, seed=1)
        res = convex_layers(pts, seed=2)
        all_indices = [i for layer in res.layers for i in layer] + res.core
        assert sorted(all_indices) == list(range(120))

    def test_first_layer_is_the_hull(self):
        pts = uniform_ball(80, 2, seed=3)
        res = convex_layers(pts, seed=4)
        assert set(res.layers[0]) == set(monotone_chain(pts))

    def test_layers_nest(self):
        """Each layer's points lie inside the previous layer's hull."""
        pts = uniform_ball(150, 2, seed=5)
        res = convex_layers(pts, seed=6)
        for outer, inner in zip(res.layers, res.layers[1:]):
            hull_pts = pts[outer]
            for i in inner:
                # Inside the outer hull <=> the point is not a vertex of
                # hull(outer + point); its index in the stacked array is
                # len(outer).
                combined = np.vstack([hull_pts, pts[i][None, :]])
                assert len(outer) not in set(monotone_chain(combined))

    def test_depth_of(self):
        pts = uniform_ball(60, 2, seed=7)
        res = convex_layers(pts, seed=8)
        depth = res.depth_of()
        assert depth.shape == (60,)
        for k, layer in enumerate(res.layers):
            assert (depth[layer] == k).all()

    def test_3d_layers(self):
        pts = uniform_ball(100, 3, seed=9)
        res = convex_layers(pts, seed=10)
        assert res.n_layers >= 2
        total = sum(len(l) for l in res.layers) + len(res.core)
        assert total == 100

    def test_all_on_one_circle_single_layer(self):
        pts = on_circle(40, seed=11)
        res = convex_layers(pts, seed=12)
        assert res.n_layers == 1
        assert len(res.layers[0]) == 40
        assert res.core == []

    @pytest.mark.parametrize("n,seed,exact", [
        (90, 13, False), (200, 22, False), (300, 31, False),
        # Every plane takes the scalar ladder on the parallel backend.
        (70, 5, True),
    ])
    def test_backends_agree(self, n, seed, exact):
        pts = uniform_ball(n, 2, seed=seed)
        with exact_mode() if exact else contextlib.nullcontext():
            a = convex_layers(pts, seed=seed + 1, backend="parallel")
            b = convex_layers(pts, seed=seed + 1, backend="sequential")
        assert a.layers == b.layers
        assert a.core == b.core

    @pytest.mark.parametrize("backend", ["parallel", "sequential"])
    def test_collinear_remainder_becomes_core(self, backend):
        square = [[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]
        pts = np.array(square + [[-0.5, 0.0], [0.0, 0.0], [0.5, 0.0]])
        res = convex_layers(pts, seed=0, backend=backend)
        assert res.layers == [[0, 1, 2, 3]]
        assert res.core == [4, 5, 6]

    @pytest.mark.parametrize("backend, target", [
        ("parallel", "soa_hull"), ("sequential", "sequential_hull"),
    ])
    def test_engine_errors_propagate(self, monkeypatch, backend, target):
        """Only the not-full-dimensional errors end the peeling; an
        engine's structural assertion is a bug, not a core."""
        def broken(*args, **kwargs):
            raise AssertionError("a ridge key was registered more than twice")

        monkeypatch.setattr(layers_module, target, broken)
        with pytest.raises(AssertionError, match="registered more than twice"):
            convex_layers(uniform_ball(40, 2, seed=0), seed=1, backend=backend)

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            convex_layers(uniform_ball(10, 2, seed=0), backend="magic")
