"""Property test for the feature maps `qka_align` refuses.

`training._dead_map` decides from the spec alone whether any choice of
trainable angles can move the kernel. Over maps of up to 3 qubits and 3
layers, on points with one feature per rotation slot, it calls a map dead
exactly when two random angle vectors give Grams within 1e-12 of each other.
On live maps the smallest such difference seen is about 5e-3. With fewer
features some live maps can be flat on the data too (one feature, 3 qubits,
2 layers, `ry`/`ry`, ring), which the rule does not see.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qkflow.featuremap import DATA_AXES, ENTANGLEMENTS, TRAINABLE_AXES, FeatureMapSpec, param_count
from qkflow.qkernel import KernelEngineConfig, gram_matrix
from qkflow.training import _dead_map

specs = st.builds(
    FeatureMapSpec,
    n_qubits=st.integers(1, 3),
    n_layers=st.integers(1, 3),
    data_axis=st.sampled_from(DATA_AXES),
    trainable_axis=st.sampled_from(TRAINABLE_AXES),
    entanglement=st.sampled_from(ENTANGLEMENTS),
)


@settings(max_examples=150)
@given(specs, st.integers(0, 2**32 - 1))
def test_a_map_is_dead_exactly_when_its_angles_leave_the_gram(spec, seed):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-np.pi, np.pi, size=(6, param_count(spec)))
    first, second = (
        gram_matrix(KernelEngineConfig(spec, rng.uniform(-np.pi, np.pi, param_count(spec))),
                    X).values
        for _ in range(2)
    )
    assert _dead_map(spec) == (np.max(np.abs(first - second)) <= 1e-12)
