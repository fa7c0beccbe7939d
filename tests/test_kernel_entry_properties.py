"""Property tests for the one rule every kernel entry follows.

An entry k(x, x') depends on its own two points alone, so any sub-block of
a cross-Gram has the bits of the cross-Gram of the sub-blocks' points, an
order-preserving sub-block of a Gram is the Gram of its points, and a Gram
is exactly symmetric. This is what lets `predict` evaluate only the
training columns with a nonzero weight.

The state overlaps and the classical dot products are BLAS products of
64-point tiles, and that an entry's bits do not depend on the tile or tile
position holding it is a property of the BLAS build. The draws of 65 to 150
points put kept rows and columns in other tiles than in the full block, so a
build without it fails here.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkflow.classical_kernels import ClassicalKernel
from qkflow.featuremap import DATA_AXES, ENTANGLEMENTS, TRAINABLE_AXES, FeatureMapSpec, param_count
from qkflow.model_io import evaluate_cross, evaluate_gram
from qkflow.qkernel import TILE_POINTS, KernelEngineConfig

KINDS = ("inversion", "swap", "linear", "polynomial", "exponential",
         "gaussian", "gaussian_transform")

coords = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False, allow_subnormal=False)


def matrices(draw, rows, cols):
    return np.array(draw(st.lists(coords, min_size=rows * cols, max_size=rows * cols))).reshape(rows, cols)


def unit_rows(points):
    # a row too short to normalize is replaced by the all-ones direction
    points = np.where(np.linalg.norm(points, axis=1, keepdims=True) > 1e-3, points, 1.0)
    return points / np.linalg.norm(points, axis=1, keepdims=True)


def draw_kernel(draw, kind, d, max_qubits=4):
    """A kernel of `kind` on d features; a feature map past 4 qubits has one layer."""
    if kind in ("inversion", "swap"):
        n_qubits = draw(st.integers(1, max_qubits))
        spec = FeatureMapSpec(
            n_qubits=n_qubits,
            n_layers=draw(st.integers(1, 2 if n_qubits <= 4 else 1)),
            data_axis=draw(st.sampled_from(DATA_AXES)),
            trainable_axis=draw(st.sampled_from(TRAINABLE_AXES)),
            entanglement=draw(st.sampled_from(ENTANGLEMENTS)),
        )
        return KernelEngineConfig(spec=spec, params=matrices(draw, 1, param_count(spec))[0],
                                  circuit_kind=kind)
    if kind == "linear":
        return ClassicalKernel.linear(c=draw(coords))
    if kind == "polynomial":
        return ClassicalKernel.polynomial(c=draw(coords), degree=draw(st.integers(1, 4)))
    if kind == "exponential":
        return ClassicalKernel.exponential(sigma=draw(st.floats(0.1, 5.0)))
    transform = matrices(draw, d, d) if kind == "gaussian_transform" else None
    return ClassicalKernel.gaussian_metric(gamma=draw(st.floats(0.05, 2.0)), transform=transform)


@st.composite
def cases(draw, kind):
    d = draw(st.integers(1, 8))
    new = matrices(draw, draw(st.integers(1, 16)), d)
    train = matrices(draw, draw(st.integers(1, 16)), d)
    if kind == "exponential":
        new, train = unit_rows(new), unit_rows(train)
    rows = draw(st.lists(st.integers(0, len(new) - 1), min_size=1, max_size=len(new)))
    used = draw(st.lists(st.integers(0, len(train) - 1), min_size=1, max_size=len(train)))
    return draw_kernel(draw, kind, d), new, train, rows, used


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=60)
@given(data=st.data())
def test_a_cross_gram_sub_block_is_the_cross_gram_of_its_points(kind, data):
    kernel, new, train, rows, used = data.draw(cases(kind))
    full = evaluate_cross(kernel, new, train)
    assert full[rows][:, used].tobytes() == evaluate_cross(kernel, new[rows], train[used]).tobytes()
    K = evaluate_gram(kernel, new).values
    assert K.tobytes() == np.ascontiguousarray(K.T).tobytes()


@st.composite
def gram_cases(draw, kind):
    d = draw(st.integers(1, 4))
    points = matrices(draw, draw(st.integers(2, 24)), d)
    if kind == "exponential":
        points = unit_rows(points)
    keep = sorted(set(draw(st.lists(st.integers(0, len(points) - 1), min_size=1,
                                    max_size=len(points)))))
    return draw_kernel(draw, kind, d, max_qubits=8), points, keep


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=30)
@given(data=st.data())
def test_a_gram_sub_block_is_the_gram_of_its_points(kind, data):
    """A one-layer Gram runs all of its at most 276 pairs in one slice, so the
    kept pairs move to other columns of the slice in the smaller Gram."""
    kernel, points, keep = data.draw(gram_cases(kind))
    full = evaluate_gram(kernel, points).values
    assert full[keep][:, keep].tobytes() == evaluate_gram(kernel, points[keep]).values.tobytes()


def points_past_a_tile(draw, kind, d):
    """65-150 points from a drawn seed: more than one TILE_POINTS tile."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = rng.uniform(-2.0, 2.0, size=(draw(st.integers(TILE_POINTS + 1, 150)), d))
    return unit_rows(points) if kind == "exponential" else points


def kept(draw, size):
    """Ascending indices, from one up to all of `size`."""
    return sorted(set(draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=size))))


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_sub_blocks_of_blocks_past_one_tile_keep_their_bits(kind, data):
    """Cross-Gram and Gram sub-blocks, down to 1x1, of 65-150 points on 1-4
    qubits; the kept points sit in other tiles and tile positions."""
    d = data.draw(st.integers(1, 4))
    kernel = draw_kernel(data.draw, kind, d)
    new, train = points_past_a_tile(data.draw, kind, d), points_past_a_tile(data.draw, kind, d)
    rows, used = kept(data.draw, len(new)), kept(data.draw, len(train))
    full = evaluate_cross(kernel, new, train)
    assert full[rows][:, used].tobytes() == evaluate_cross(kernel, new[rows], train[used]).tobytes()
    i, j = rows[-1], used[-1]
    assert full[i, j] == evaluate_cross(kernel, new[[i]], train[[j]])[0, 0]
    K = evaluate_gram(kernel, new).values
    assert K[rows][:, rows].tobytes() == evaluate_gram(kernel, new[rows]).values.tobytes()
