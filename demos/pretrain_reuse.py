"""The two-stage workflow through the command line, start to finish.

Stage one aligns an embedding on one dataset and saves it as a JSON
artifact. Stage two reuses the frozen embedding to train a classifier on
a second dataset from the same family and predicts on a third.
"""

import tempfile
from pathlib import Path

from qkflow.cli import run_command

with tempfile.TemporaryDirectory(prefix="qkflow-demo-") as tmp:
    work = Path(tmp)
    print("working in", work)

    steps = [
        ["gen-data", "--kind", "hidden_rotation", "--m", "40", "--seed", "7",
         "--out", str(work / "pretrain.csv")],
        ["gen-data", "--kind", "hidden_rotation", "--m", "30", "--seed", "19",
         "--out", str(work / "train.csv")],
        ["gen-data", "--kind", "hidden_rotation", "--m", "30", "--seed", "23",
         "--out", str(work / "test.csv")],
        ["align", "--data", str(work / "pretrain.csv"), "--qubits", "1",
         "--layers", "1", "--spsa-iters", "40", "--C", "10", "--seed", "7",
         "--out", str(work / "embedding.json")],
        ["train", "--method", "svc", "--embedding", str(work / "embedding.json"),
         "--data", str(work / "train.csv"), "--C", "10",
         "--out", str(work / "model.json")],
        ["predict", "--model", str(work / "model.json"),
         "--data", str(work / "test.csv"),
         "--out", str(work / "predictions.csv"),
         "--metrics-out", str(work / "metrics.csv")],
    ]

    for argv in steps:
        if run_command(argv) != 0:
            raise SystemExit(f"command failed: {argv}")

    print()
    print("loss trace head:")
    for line in (work / "embedding_trace.csv").read_text().splitlines()[:4]:
        print(" ", line)
    print("metrics:", (work / "metrics.csv").read_text().strip().replace("\n", " = "))
