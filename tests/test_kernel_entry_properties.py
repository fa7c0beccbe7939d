"""Property tests for the one rule every kernel entry follows.

An entry k(x, x') depends on its own two points alone, so any sub-block of
a cross-Gram has the bits of the cross-Gram of the sub-blocks' points, and
a Gram is exactly symmetric. This is what lets `predict` evaluate only the
training columns with a nonzero weight.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkflow.classical_kernels import ClassicalKernel
from qkflow.featuremap import DATA_AXES, ENTANGLEMENTS, TRAINABLE_AXES, FeatureMapSpec, param_count
from qkflow.model_io import evaluate_cross, evaluate_gram
from qkflow.qkernel import KernelEngineConfig

KINDS = ("inversion", "swap", "linear", "polynomial", "exponential",
         "gaussian", "gaussian_transform")

coords = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False, allow_subnormal=False)


def matrices(draw, rows, cols):
    return np.array(draw(st.lists(coords, min_size=rows * cols, max_size=rows * cols))).reshape(rows, cols)


def unit_rows(points):
    # a row too short to normalize is replaced by the all-ones direction
    points = np.where(np.linalg.norm(points, axis=1, keepdims=True) > 1e-3, points, 1.0)
    return points / np.linalg.norm(points, axis=1, keepdims=True)


def draw_kernel(draw, kind, d):
    if kind in ("inversion", "swap"):
        spec = FeatureMapSpec(
            n_qubits=draw(st.integers(1, 4)),
            n_layers=draw(st.integers(1, 2)),
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
