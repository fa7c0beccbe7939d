import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qkflow.datasets import (
    Dataset,
    gen_synthetic,
    load_csv,
    normalize_unit_sphere,
    save_dataset,
    write_csv,
)


def write(path, text):
    path.write_text(text, encoding="utf-8")


def test_load_csv_transcription(tmp_path):
    path = tmp_path / "d.csv"
    write(path, "f0,f1,label\n0,1,1\n1,0,-1\n")
    ds = load_csv(path)
    assert np.array_equal(ds.features, [[0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(ds.labels, [1.0, -1.0])
    assert ds.feature_names == ("f0", "f1")


def test_load_csv_without_label_column(tmp_path):
    path = tmp_path / "d.csv"
    write(path, "a,b\n1,2\n3,4\n")
    ds = load_csv(path)
    assert ds.labels is None
    assert ds.feature_names == ("a", "b")
    assert ds.features.shape == (2, 2)


def test_load_csv_named_label_column(tmp_path):
    path = tmp_path / "d.csv"
    write(path, "x,target\n1,5\n2,6\n")
    ds = load_csv(path, label_column="target")
    assert np.array_equal(ds.labels, [5.0, 6.0])
    assert ds.feature_names == ("x",)
    with pytest.raises(ValueError, match="nope"):
        load_csv(path, label_column="nope")


def test_load_csv_skips_a_byte_order_mark(tmp_path):
    path = tmp_path / "d.csv"
    path.write_bytes(b"\xef\xbb\xbflabel,f0\n1,0.5\n-1,0.25\n")
    ds = load_csv(path)
    assert np.array_equal(ds.labels, [1.0, -1.0])
    assert ds.feature_names == ("f0",)


def test_load_csv_header_only(tmp_path):
    path = tmp_path / "d.csv"
    write(path, "f0,f1,label\n")
    with pytest.raises(ValueError, match="no data rows"):
        load_csv(path)


def test_load_csv_parse_error_names_position(tmp_path):
    path = tmp_path / "d.csv"
    write(path, "f0,f1,label\nabc,1,1\n")
    with pytest.raises(ValueError, match=r"row 1.*'f0'"):
        load_csv(path)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400"])
def test_load_csv_non_finite_cell_names_position(tmp_path, cell):
    path = tmp_path / "nf.csv"
    write(path, f"f0,f1,label\n1,2,1\n3,4,{cell}\n")
    with pytest.raises(ValueError, match=rf"nf\.csv: non-finite value '{cell}' at row 2, column 'label'"):
        load_csv(path)


def test_load_csv_ragged_row(tmp_path):
    path = tmp_path / "d.csv"
    write(path, "f0,f1\n1,2\n3\n")
    with pytest.raises(ValueError, match="row 2"):
        load_csv(path)


def test_load_csv_oversized_field_names_the_file(tmp_path):
    path = tmp_path / "big.csv"
    write(path, "f0,label\n" + "1" * 131_073 + ",1\n")
    with pytest.raises(ValueError, match=r"big\.csv: line 2: field larger than field limit"):
        load_csv(path)


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_csv(tmp_path / "missing.csv")


def test_save_load_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(5)
    features = np.concatenate([
        rng.normal(size=(5, 3)) * 1e-8,
        np.array([[0.1, 1.0 / 3.0, np.pi], [1e17, -1e-17, 2.0 / 7.0]]),
    ])
    labels = rng.normal(size=7)
    ds = Dataset(features=features, labels=labels)
    path = tmp_path / "round.csv"
    save_dataset(ds, path)
    back = load_csv(path)
    assert np.array_equal(back.features, features)
    assert np.array_equal(back.labels, labels)


@pytest.mark.parametrize("header, rows, text", [
    (("a", "b", "label"), [[-0.0, 5e-324, -1.0], [1e308, 0.1, 1.0]],
     "a,b,label\r\n-0,4.9406564584124654e-324,-1\r\n1e+308,0.10000000000000001,1\r\n"),
    (("cluster",), np.array([[0], [2], [1]]), "cluster\r\n0\r\n2\r\n1\r\n"),
])
def test_save_dataset_and_the_command_writer_write_the_same_bytes(tmp_path, header, rows, text):
    """A dataset and the rows a command writes, such as integer cluster ids,
    give one file for the same values: signed zeros, subnormals and the
    largest floats included."""
    values = np.asarray(rows, dtype=float)
    names, labels = header, None
    if header[-1] == "label":
        names, values, labels = header[:-1], values[:, :-1], values[:, -1]
    save_dataset(Dataset(features=values, labels=labels, feature_names=names), tmp_path / "ds.csv")
    write_csv(tmp_path / "rows.csv", rows, header=header)
    assert (tmp_path / "ds.csv").read_bytes() == text.encode()
    assert (tmp_path / "rows.csv").read_bytes() == text.encode()


def test_blobs_split_and_determinism():
    a = gen_synthetic("blobs", 10, seed=3)
    b = gen_synthetic("blobs", 10, seed=3)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    assert int(np.sum(a.labels == 1.0)) == 5
    assert int(np.sum(a.labels == -1.0)) == 5
    assert a.features.shape == (10, 2)
    c = gen_synthetic("blobs", 10, seed=4)
    assert not np.array_equal(a.features, c.features)


def test_circles_radii():
    ds = gen_synthetic("circles", 40, seed=6, params={"noise": 0.05})
    radii = np.linalg.norm(ds.features, axis=1)
    inner = radii[ds.labels == 1.0]
    outer = radii[ds.labels == -1.0]
    assert np.all(np.abs(inner - 1.0) < 0.3)
    assert np.all(np.abs(outer - 2.0) < 0.3)


def test_hidden_rotation_labels_and_provenance():
    ds = gen_synthetic("hidden_rotation", 30, seed=7)
    assert ds.features.shape == (30, 1)
    assert np.all(ds.features[:, 0] >= -np.pi)
    assert np.all(ds.features[:, 0] <= np.pi)
    expected = np.where(np.cos(ds.features[:, 0]) >= 0.0, 1.0, -1.0)
    assert np.array_equal(ds.labels, expected)
    shifted = gen_synthetic("hidden_rotation", 30, seed=7, params={"theta_star": 1.5})
    expected = np.where(np.cos(shifted.features[:, 0] - 1.5) >= 0.0, 1.0, -1.0)
    assert np.array_equal(shifted.labels, expected)


def test_gen_synthetic_validation():
    with pytest.raises(ValueError):
        gen_synthetic("blobs", 1, seed=0)
    with pytest.raises(ValueError):
        gen_synthetic("spirals", 10, seed=0)
    with pytest.raises(ValueError):
        gen_synthetic("blobs", 10, seed=0, params={"theta_star": 1.0})


def test_normalize_unit_sphere():
    ds = Dataset(features=np.array([[3.0, 4.0], [0.6, 0.8]]))
    out = normalize_unit_sphere(ds)
    assert np.allclose(out.features[0], [0.6, 0.8], atol=1e-15)
    assert np.allclose(out.features[1], [0.6, 0.8], atol=1e-15)
    dots = out.features @ out.features.T
    assert np.all(dots <= 1.0 + 1e-12)


mantissas = st.lists(st.floats(-1.0, 1.0), min_size=0, max_size=3)


@given(rows=st.lists(st.tuples(st.floats(0.5, 1.0), mantissas, st.integers(-1073, 1023)),
                     min_size=1, max_size=4))
@example(rows=[(1.0, [], 1023), (0.5, [], -1073), (0.5, [1.0], 1023)])
def test_normalize_reaches_unit_norm_over_the_whole_exponent_range(rows):
    """Rows scaled by 2**k, from the smallest subnormal up to the largest finite
    floats, normalize to unit norm within 4 eps, without a numpy warning."""
    width = 1 + max(len(rest) for _, rest, _ in rows)
    features = np.zeros((len(rows), width))
    for i, (lead, rest, k) in enumerate(rows):
        features[i, :1 + len(rest)] = np.ldexp([lead, *rest], k)
    out = normalize_unit_sphere(Dataset(features=features)).features
    assert np.all(np.abs(np.linalg.norm(out, axis=1) - 1.0) <= 4 * np.finfo(float).eps)


def test_normalize_rejects_zero_row():
    ds = Dataset(features=np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="row 1"):
        normalize_unit_sphere(ds)


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(features=np.zeros((0, 2)))
    with pytest.raises(ValueError):
        Dataset(features=np.array([[np.nan, 1.0]]))
    with pytest.raises(ValueError):
        Dataset(features=np.eye(2), labels=[1.0])
    with pytest.raises(ValueError):
        Dataset(features=np.eye(2), labels=[1.0, np.inf])
    with pytest.raises(ValueError):
        Dataset(features=np.eye(2), feature_names=("only_one",))
