"""Property test for the CLI on malformed CSV input.

Every file below has at least one defect: a ragged row, an empty or
non-numeric cell, a non-finite number, a quoted or NUL-bearing cell, a cell
over the csv module's field limit, or no label column. Each command must
refuse it as a data error (exit 2, one `error:` line naming the file), never
a traceback.
"""

import contextlib
import io

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qkflow.cli import run_command

OVERSIZED = "1" * 131_073  # one past csv.field_size_limit()
BAD_CELLS = ["", " ", "nan", "inf", "-inf", "1e400", "abc", '"1,5"', "1\x002", OVERSIZED]
COMMANDS = [
    ("train", "--method", "svc", "--kernel", "linear"),
    ("train", "--method", "krr", "--kernel", "quantum"),
    ("kernel", "--kernel", "quantum"),
]

numbers = st.floats(-3.0, 3.0, allow_nan=False).map(repr)


@st.composite
def malformed_csvs(draw):
    n_rows = draw(st.integers(1, 5))
    rows = [[draw(numbers), draw(numbers), draw(st.sampled_from(["1", "-1"]))]
            for _ in range(n_rows)]
    no_label = draw(st.booleans())
    defects = draw(st.dictionaries(
        st.integers(0, n_rows - 1),
        st.one_of(st.just("drop"), st.just("extra"),
                  st.tuples(st.integers(0, 2), st.sampled_from(BAD_CELLS))),
        min_size=0 if no_label else 1,
    ))
    for r, defect in defects.items():
        if defect == "drop":
            rows[r].pop()
        elif defect == "extra":
            rows[r].append("0.5")
        else:
            rows[r][defect[0]] = defect[1]
    header = ["x0", "x1", "y" if no_label else "label"]
    return "\n".join(",".join(row) for row in [header] + rows) + "\n"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("malformed")


@settings(max_examples=60)
@given(text=malformed_csvs())
@example(text=f"x0,x1,label\n0.5,{OVERSIZED},1\n-0.5,0.25,-1\n")
def test_malformed_csv_is_a_data_error(workdir, text):
    path = workdir / "bad.csv"
    path.write_text(text, encoding="utf-8")
    for command in COMMANDS:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = run_command([*command, "--data", str(path), "--label-column", "label",
                              "--out", str(workdir / "out")])
        assert rc == 2, (command, err.getvalue())
        assert err.getvalue().startswith("error: "), err.getvalue()
        assert str(path) in err.getvalue(), err.getvalue()
