"""Benchmark for the qkflow CLI: end-to-end wall times and per-layer traces.

Usage (from the repository root):

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 18 --trace 0

``--trace 0`` runs every command in a fresh interpreter, exactly as the
``qkflow`` entry point would, and reports the end-to-end metrics: wall
times scaled to a reference core by ``speed.SpeedSampler``, and peak RSS.
The run and its commands are pinned to one CPU.
``--trace 1`` runs the same commands in-process through
``qkflow.cli.run_command``, alternating untraced and traced passes, and
reports the per-layer metrics of ``tracer.HOOKS`` plus the tracing overhead.
Either way every output is checked; a wrong output counts as a failed
operation and makes the run exit 1. The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.

Inputs come from ``--seed`` only; scratch files, the span dump and a result
record with the environment go to ``.perfbench_work/`` in the repository.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(Path(__file__).resolve().parent))

from speed import SpeedSampler  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Outcome, Step  # noqa: E402

# The qkflow entry point plus an exit hook that appends the process's own peak
# resident set (VmHWM) to stderr. getrusage cannot be used: a child's ru_maxrss
# keeps the parent's high-water mark from before exec.
CLI = ("-c", """\
import atexit, sys

def _report_peak_rss():
    try:
        with open("/proc/self/status") as status:
            sys.stderr.write(next(line for line in status if line.startswith("VmHWM:")))
    except (OSError, StopIteration):
        pass

atexit.register(_report_peak_rss)
from qkflow.cli import main
main()
""")
SETUP = ("-c", "from qkflow.cli import build_parser; build_parser()")
SETUP_SAMPLES = 5
COMMAND_TIMEOUT = 120.0
RUN_BUDGET = 165.0  # no new pass starts if the longest pass so far would end after this
THREAD_VARS = ("QKFLOW_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

# units of the quality figures the workload checks return
QUALITY_UNITS = {
    "align_loss_best": "loss", "test_accuracy": "fraction", "test_rmse": "label",
    "test_rmse_krr": "label", "shot_kernel_mae": "kernel", "shot_cross_mae": "kernel",
    "svr_capped": "count",
}


def defined_metrics(kind: str) -> dict[str, str]:
    """Metric name -> unit of ``end_to_end`` or ``per_layer``, as BENCHMARK.json defines them."""
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in definition[kind]}


class Ops:
    """Counts of CLI operations attempted, failed unexpectedly, and failed as a known defect."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.known = 0
        self.problems: list[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        self.problems.append(what)
        print(f"FAIL {what}", file=sys.stderr)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("QKFLOW_THREADS", None)  # Gram assembly stays sequential
    # commands use the bytecode cache under src/, as an installed package would
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_fresh(argv, env, work: Path) -> Outcome:
    """One CLI command in a fresh interpreter, as the qkflow entry point runs it."""
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, *CLI, *argv], cwd=work, env=env,
                              capture_output=True, text=True, timeout=COMMAND_TIMEOUT)
    except subprocess.TimeoutExpired as exc:
        return Outcome(-1, "", f"timed out after {exc.timeout} s", time.perf_counter() - start)
    seconds = time.perf_counter() - start
    err, marker, peak = proc.stderr.rpartition("VmHWM:")
    if not marker:
        return Outcome(proc.returncode, proc.stdout, proc.stderr, seconds)
    return Outcome(proc.returncode, proc.stdout, err, seconds, int(peak.split()[0]) / 1024.0)


def run_inprocess(argv, tracer: Tracer | None = None) -> Outcome:
    """One CLI command through qkflow.cli.run_command in this interpreter."""
    from qkflow import cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("default")  # fresh registry: warnings show as in a new process
        try:
            if tracer is None:
                code = cli.run_command(list(argv))
            else:
                code = tracer.call("cli.command", cli.run_command, list(argv))
        except Exception:  # a traceback is a failed operation, not a crash of the benchmark
            code = -1
            err.write(traceback.format_exc())
    return Outcome(code, out.getvalue(), err.getvalue(), time.perf_counter() - start)


def run_untimed(steps: list[Step], runner, ops: Ops, label: str) -> None:
    for step in steps:
        ops.attempted += 1
        outcome = runner(step.argv)
        if outcome.code != 0:
            ops.fail(f"{label} {step.stage}: exit {outcome.code}: {outcome.err.strip()[-300:]}")


def run_pass(workload, runner, ops: Ops, label: str, tracer: Tracer | None = None) -> dict:
    """Run and check one pass; return its per-stage times and quality figures.

    With a tracer, its wrappers are installed around the commands only, so
    the checks' own library calls stay out of the trace.
    """
    steps = workload.steps()
    outcomes = []
    if tracer is not None:
        tracer.install()
    try:
        for step in steps:
            ops.attempted += 1
            outcomes.append(runner(step.argv))
    finally:
        if tracer is not None:
            tracer.uninstall()
    problems, quality = workload.check(outcomes)
    for index, problem in sorted(problems.items()):
        ops.fail(f"{label} step {index} ({steps[index].stage}): {problem}")
    times: dict[str, float] = {"workload_s": 0.0, "fit_s": 0.0, "apply_s": 0.0,
                               "peak_rss_mb": max(o.rss_mb for o in outcomes)}
    if outcomes[0].raw_seconds is not None:
        times["raw_workload_s"] = sum(o.raw_seconds for o in outcomes)
    for step, outcome in zip(steps, outcomes):
        times["workload_s"] += outcome.seconds
        times[f"{step.stage}_s"] = times.get(f"{step.stage}_s", 0.0) + outcome.seconds
        if step.phase != "data":
            times[f"{step.phase}_s"] += outcome.seconds
    return {"ok": not problems, "times": times, "quality": quality, "tracer": tracer}


def run_probes(workload, runner, ops: Ops) -> None:
    for step in workload.probes():
        ops.attempted += 1
        outcome = runner(step.argv)
        try:
            if workload.check_probe(outcome):
                ops.known += 1
                print(f"known defect: {' '.join(step.argv[:3])} ... exit {outcome.code}: "
                      f"{outcome.err.strip().splitlines()[-1]}")
        except (ValueError, OSError, KeyError) as exc:
            ops.fail(f"probe {step.stage}: {exc}")


def measure_passes(kinds, seconds: float, t_start: float, min_rounds: int) -> list[dict]:
    """Run one pass of each kind in turn until ``seconds`` have elapsed.

    ``kinds`` maps a pass label to a function running one pass. At least
    ``min_rounds`` rounds run, unless another would end past RUN_BUDGET.
    """
    passes: list[dict] = []
    longest = 0.0
    begin = time.perf_counter()
    while True:
        for kind, run_one in kinds.items():
            t0 = time.perf_counter()
            passes.append(run_one(f"{kind} pass {len(passes)}"))
            passes[-1]["kind"] = kind
            longest = max(longest, time.perf_counter() - t0)
        now = time.perf_counter()
        rounds = len(passes) // len(kinds)
        if now - t_start + len(kinds) * longest > RUN_BUDGET:
            return passes
        if rounds >= min_rounds and now - begin >= seconds:
            return passes


def median_of(passes: list[dict], key: str) -> float:
    good = [p for p in passes if p["ok"]] or passes
    return statistics.median(p["times"].get(key, 0.0) for p in good)


def check_deterministic(passes: list[dict], ops: Ops) -> dict[str, float]:
    """Quality figures must repeat exactly from pass to pass under one seed."""
    first = passes[0]["quality"]
    for index, p in enumerate(passes[1:], start=1):
        for key, value in p["quality"].items():
            if key in first and value != first[key]:
                ops.fail(f"pass {index}: {key} = {value!r}, pass 0 gave {first[key]!r}")
    return first


def setup_samples(env, work: Path, ops: Ops, count: int,
                  speed: SpeedSampler) -> list[tuple[float, float]]:
    """(scaled, raw) seconds of ``count`` fresh interpreters importing qkflow.cli
    and building its parser."""
    samples = []
    for _ in range(count):
        ops.attempted += 1
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, *SETUP], cwd=work, env=env,
                              capture_output=True, text=True, timeout=COMMAND_TIMEOUT)
        end = time.perf_counter()
        if proc.returncode != 0:
            ops.fail(f"setup: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        else:
            samples.append(((end - start) * speed.factor(start, end), end - start))
    return samples


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return f"unknown ({ref})"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: {f: deps[k].get(f) for f in ("name", "version", "openblas configuration")}
                for k in ("blas", "lapack")}
    except (TypeError, KeyError):
        blas = "unavailable"
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "seed": seed,
    }


def per_layer(traced: list[dict], untraced: list[dict], ops: Ops) -> dict[str, float]:
    """Per-layer metrics: counts from the first traced pass, times as medians over traced passes."""
    tracers = [p["tracer"] for p in traced]
    first = tracers[0]
    for t in tracers[1:]:
        if t.calls != first.calls or t.counts != first.counts:
            ops.fail("traced passes disagree on call or work counts")

    def busy(name):
        return statistics.median(t.busy_ns[name] for t in tracers) / 1e9

    def self_time(name):
        return statistics.median(t.self_ns[name] for t in tracers) / 1e9

    values: dict[str, float] = {}
    for name in defined_metrics("per_layer"):
        layer, _, field = name.rpartition(".")
        if field == "calls":
            values[name] = first.calls[layer]
        elif field == "busy_s":
            values[name] = busy(layer)
        elif field == "self_s":
            values[name] = self_time(layer)
        else:
            values[name] = first.counts[name]
    svc_calls = first.calls["kernel_methods.svc_fit"]
    values["kernel_methods.svc_fit.support_vectors"] = (
        first.counts["kernel_methods.svc_fit.support_vectors"] / svc_calls if svc_calls else 0)
    entries = first.counts["qkernel.entries"]
    values["qkernel.sims_per_entry"] = (
        first.calls["statevector.apply_circuit"] / entries if entries else 0)
    values["cli.commands_failed"] = ops.failed + ops.known
    values["trace.overhead_s"] = (statistics.median(p["times"]["workload_s"] for p in traced)
                                  - statistics.median(p["times"]["workload_s"] for p in untraced))
    align = values["training.qka_align.busy_s"]
    if align:
        inner = sum(statistics.median(
            sum(e - s for n, s, e, parent in t.spans if n == child and parent >= 0
                and t.spans[parent][0] == "training.qka_align") for t in tracers)
            for child in ("qkernel.gram_matrix", "kernel_methods.svc_fit")) / 1e9
        print(f"training.qka_align: gram_matrix + svc_fit cover {inner / align:.1%} of its busy time")
    return values


def measure_end_to_end(workload, env, work: Path, ops: Ops, seconds: float,
                       t_start: float, result: dict) -> tuple[list[dict], dict[str, float]]:
    """Fresh-interpreter passes, every time scaled to the reference core (see speed.py)."""
    with SpeedSampler() as speed:
        def scaled(argv):
            start = time.perf_counter()
            outcome = run_fresh(argv, env, work)
            factor = speed.factor(start, time.perf_counter())
            return dataclasses.replace(outcome, seconds=outcome.seconds * factor,
                                       raw_seconds=outcome.seconds)

        setup_samples(env, work, ops, 1, speed)  # warms the bytecode cache, untimed
        setup: list[tuple[float, float]] = []

        def one_pass(label):
            # setup samples are spread over the run, two before each pass
            setup.extend(setup_samples(env, work, ops, min(2, SETUP_SAMPLES - len(setup)), speed))
            return run_pass(workload, scaled, ops, label)

        passes = measure_passes({workload.name: one_pass}, seconds, t_start, min_rounds=2)
        setup.extend(setup_samples(env, work, ops, SETUP_SAMPLES - len(setup), speed))
    run_probes(workload, lambda argv: run_fresh(argv, env, work), ops)
    metrics = {key: median_of(passes, key) for key in defined_metrics("end_to_end")}
    metrics["setup_s"] = statistics.median(s for s, _ in setup) if setup else float("nan")
    result["raw_setup_s"] = statistics.median(r for _, r in setup) if setup else float("nan")
    result["speed_probes"] = speed.samples
    return passes, metrics


def measure_layers(workload, ops: Ops, seconds: float, t_start: float,
                   result: dict) -> tuple[list[dict], dict[str, float]]:
    """Alternating untraced and traced in-process passes; per-layer metrics."""
    def traced_pass(label):
        tracer = Tracer()
        return run_pass(workload, lambda argv: run_inprocess(argv, tracer), ops, label, tracer)

    passes = measure_passes({
        "untraced": lambda label: run_pass(workload, run_inprocess, ops, label),
        "traced": traced_pass,
    }, seconds, t_start, min_rounds=1)
    run_probes(workload, run_inprocess, ops)
    traced = [p for p in passes if p["kind"] == "traced"]
    untraced = [p for p in passes if p["kind"] == "untraced"]
    metrics = per_layer(traced, untraced, ops)
    spans = ROOT / ".perfbench_work" / f"{workload.name}-seed{workload.seed}-spans.csv.gz"
    traced[0]["tracer"].write_spans(spans)
    result["spans_file"] = str(spans.relative_to(ROOT))
    return passes, metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, env_record: dict) -> dict:
    t_start = time.perf_counter()
    work = ROOT / ".perfbench_work" / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env()
    workload = WORKLOADS[name](work, seed)
    ops = Ops()

    run_untimed(workload.prepare(), lambda argv: run_fresh(argv, env, work), ops, "prepare")
    workload.reference()
    result: dict = {"workload": name, "environment": env_record}
    if trace:
        passes, metrics = measure_layers(workload, ops, seconds, t_start, result)
        units = defined_metrics("per_layer")
    else:
        passes, metrics = measure_end_to_end(workload, env, work, ops, seconds, t_start, result)
        units = defined_metrics("end_to_end")
    quality = check_deterministic(passes, ops)
    result["passes"] = len(passes)
    result["report"] = stage_report(name, passes, quality, ops)
    if "raw_setup_s" in result:
        result["report"]["raw_setup_s"] = (result["raw_setup_s"], "s")
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    result["ops"] = {"attempted": ops.attempted, "failed": ops.failed,
                     "known_defects": ops.known, "problems": ops.problems}
    record = ROOT / ".perfbench_work" / f"{name}-seed{seed}-trace{int(trace)}.json"
    record.write_text(json.dumps(result, indent=2, default=str) + "\n")
    return result


def stage_report(name: str, passes: list[dict], quality: dict, ops: Ops) -> dict:
    """Ungated figures: per-stage times, quality and the failed-command ratio."""
    stages = sorted({k for p in passes for k in p["times"]} - {"workload_s", "fit_s", "peak_rss_mb"})
    report = {key: (median_of(passes, key), "s") for key in stages}
    if name == "pipeline":
        report["pipeline_s"] = (median_of(passes, "workload_s"), "s")
    report.update({key: (value, QUALITY_UNITS[key]) for key, value in quality.items()})
    report["failed_op_ratio"] = ((ops.failed + ops.known) / max(ops.attempted, 1), "ratio")
    return report


def print_report(result: dict) -> None:
    name = result["workload"]
    print(f"== {name}: {result['passes']} passes, environment "
          + json.dumps(result["environment"], default=str))
    for key, metric in result["metrics"].items():
        print(f"{name:9s} {key:42s} {metric['value']:.6g} {metric['unit']}")
    for key, (value, unit) in result["report"].items():
        print(f"{name:9s} {key:42s} {value:.6g} {unit}")
    for problem in result["ops"]["problems"]:
        print(f"{name:9s} FAILED CHECK: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qkflow" / "cli.py").is_file():
        print(f"error: {SRC / 'qkflow'} not found; run from a qkflow checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env_record = environment(args.seed)
    os.environ.pop("QKFLOW_THREADS", None)  # in-process passes stay sequential too
    # the run and every command it starts share one CPU, the one the speed probe measures
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError as exc:
        print(f"warning: could not pin to one CPU ({exc}); times are less steady", file=sys.stderr)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), env_record)
        print_report(result)
        results.append(result)
    failed = sum(r["ops"]["failed"] for r in results)
    if args.workload == "all":
        summary = {r["workload"]: {"correct": r["ops"]["failed"] == 0, "metrics": r["metrics"]}
                   for r in results}
        print(json.dumps(summary))
    else:
        result = results[0]
        print(json.dumps({
            "correct": failed == 0,
            "attempted": result["ops"]["attempted"],
            "failed": failed,
            "metrics": result["metrics"],
        }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
