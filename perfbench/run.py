"""quadswitch benchmark: drives the public CLI on named workloads.

    python3 perfbench/run.py --workload verify-n9 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

A run is one fresh interpreter (perfbench/child.py) that serves one group of
requests through quadswitch.cli.main, one request at a time, with no threads:
a closed loop with one client.  The benchmark repeats passes over the
workload's groups until --seconds would be exceeded, checks every report and
exported file against reference.json, and prints as its last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 each pass runs every group traced and untraced, and the metrics are
the per-layer ones.  The line before it is a JSON record of the generated
requests (so a run can be replayed) and the sample count behind each metric.
See DESIGN.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import check  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "reference.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
STATE = os.path.join(ROOT, ".perfbench")  # scratch: work dirs and span files
RUN_TIMEOUT_S = 150
SETUP_SAMPLES = 10  # set-up-only interpreters top up setup_s to this many samples
NOMINAL_CALIBRATION_S = 0.14  # both child.calibrate() loops on the 2-core reference box


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed request)."""


def spawn(job: dict) -> dict:
    """Start one fresh interpreter on a job and return its result record."""
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD],
            input=json.dumps(job),
            capture_output=True,
            text=True,
            timeout=RUN_TIMEOUT_S,
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"a run exceeded {RUN_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"run exited with code {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = result["ready"] - t0 - sum(result["calibration_s"])
    return result


def run_group(
    requests: list[list[str]], trace: bool, reference: dict | None, spans_out: str | None = None
) -> dict:
    """One run of a group; outputs are summarized against the reference's shapes
    (or kept whole, to make a reference, when `reference` is None)."""
    shapes = [None] * len(requests)
    if reference is not None:
        refs = [reference["requests"].get(check.request_key(argv)) for argv in requests]
        shapes = [ref and reference["skeletons"][ref["skeleton"]] for ref in refs]
    os.makedirs(STATE, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=STATE)
    try:
        job = {"requests": requests, "shapes": shapes, "trace": trace, "workdir": workdir, "spans_out": spans_out}
        return spawn(job)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def load_reference() -> dict:
    with open(REFERENCE, encoding="ascii") as fh:
        return json.load(fh)


def load_spec() -> dict:
    with open(SPEC, encoding="utf-8") as fh:
        return json.load(fh)


class Checker:
    """Counts attempted and failed requests across every run of one benchmark run."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.attempted = 0
        self.failures: list[str] = []
        self.seen: dict[str, str] = {}

    def add(self, requests: list[list[str]], result: dict) -> None:
        for argv, outcome in zip(requests, result["outcomes"], strict=True):
            key = check.request_key(argv)
            self.attempted += 1
            reason = check.outcome_failure(outcome, self.reference["requests"].get(key))
            if reason is None:
                whole = outcome["whole"]
                if self.seen.setdefault(key, whole) != whole:
                    reason = "report differs from another run of the same request"
            if reason is not None:
                self.failures.append(f"{key}: {reason}")


def median_sum(runs_per_group: list[list[dict]], get) -> float:
    """Sum over the groups of the median over that group's runs."""
    return sum(statistics.median(get(r) for r in runs) for runs in runs_per_group)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    groups = workloads.generate(workload, seed)
    reference = load_reference()
    checker = Checker(reference)
    plain: list[list[dict]] = [[] for _ in groups]
    traced: list[list[dict]] = [[] for _ in groups]
    start = time.monotonic()
    pass_s: list[float] = []
    while True:
        t0 = time.monotonic()
        for g, requests in enumerate(groups):
            modes = (False,)
            if trace:  # alternate which side goes first
                modes = (True, False) if len(pass_s) % 2 == 0 else (False, True)
            for traced_run in modes:
                spans_out = os.path.join(STATE, f"spans-{workload}-seed{seed}-group{g}.jsonl") if traced_run else None
                result = run_group(requests, traced_run, reference, spans_out)
                checker.add(requests, result)
                (traced if traced_run else plain)[g].append(result)
        pass_s.append(time.monotonic() - t0)
        # stop at the pass whose end is nearest to --seconds
        if time.monotonic() - start + statistics.median(pass_s) / 2 > seconds:
            break

    spec = load_spec()
    detail = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "requests": groups,
        "passes": len(pass_s),
        "attempted": checker.attempted,
        "fail_frac": len(checker.failures) / checker.attempted,
        "failures": checker.failures[:10],
    }
    children = [r for runs in plain + traced for r in runs]
    if not trace:
        children += [spawn({"requests": []}) for _ in range(SETUP_SAMPLES - len(children))]
    # Times are reported at the reference machine speed.  This shared machine
    # runs the same work up to ~1.5x slower for minutes at a time, and the
    # calibration loops every child timed slow down with it.  The mean (not
    # the median) follows the share of time spent slow, as the requests do.
    scale = NOMINAL_CALIBRATION_S / statistics.mean(sum(r["calibration_s"]) for r in children)
    detail["speed_scale"] = scale
    # every run, unscaled: [run_s or None for set-up only, setup_s, calibration_s]
    detail["runs"] = [[r.get("run_s"), r["setup_s"], sum(r["calibration_s"])] for r in children]
    if not trace:
        raw_setup_s = statistics.median(r["setup_s"] for r in children)
        values = {
            "run_s": median_sum(plain, lambda r: r["run_s"]) * scale,
            "setup_s": raw_setup_s * scale,
            "peak_rss_mb": max(statistics.median(r["peak_rss_mb"] for r in runs) for runs in plain),
        }
        detail["raw_run_s"] = median_sum(plain, lambda r: r["run_s"])
        detail["raw_setup_s"] = raw_setup_s
        detail["samples"] = {"run_s": len(pass_s), "setup_s": len(children), "peak_rss_mb": len(pass_s)}
        wanted = spec["end_to_end"]
        deterministic = True
    else:
        values, deterministic = layer_values(plain, traced, scale)
        detail["samples"] = {"per_layer": len(pass_s)}
        detail["counts_repeat_exactly"] = deterministic
        detail["missing_entry_points"] = traced[0][0]["trace"]["missing"]
        wanted = spec["per_layer"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": not checker.failures and deterministic,
        "attempted": checker.attempted,
        "failed": len(checker.failures),
        "metrics": metrics,
    }
    return detail, result


def layer_values(plain: list[list[dict]], traced: list[list[dict]], scale: float) -> tuple[dict, bool]:
    """Per-layer metrics from the traced runs: self times as summed medians,
    counts summed over groups (they must repeat exactly between runs)."""
    spans = [f"{m}.{n}" for m, names in tracer.ENTRY_POINTS.items() for n in names]
    values: dict[str, float] = {
        f"{s}.s": median_sum(traced, lambda r, s=s: r["trace"]["self_s"].get(s, 0.0)) * scale for s in spans
    }
    values.update({f"{s}.calls": 0 for s in spans})
    values.update({counter: 0 for counter, _ in tracer.COUNTERS.values()})
    deterministic = True
    for runs in traced:
        seen = [(r["trace"]["calls"], r["trace"]["counters"]) for r in runs]
        deterministic &= all(s == seen[0] for s in seen)
        calls, counters = seen[0]
        for span, c in calls.items():
            values[f"{span}.calls"] += c
        for counter, c in counters.items():
            values[counter] += c
    values["cli.self_s"] = median_sum(traced, lambda r: r["trace"]["cli_self_s"]) * scale
    overhead = median_sum(traced, lambda r: r["run_s"]) - median_sum(plain, lambda r: r["run_s"])
    values["trace.overhead_s"] = overhead * scale
    return values, deterministic


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload != "all":
        runs = [(args.workload, bool(args.trace))]
    else:
        runs = [(w, t) for w in workloads.WORKLOADS for t in (False, True)]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload, trace in runs:
        try:
            detail, result = measure(workload, args.seed, args.seconds, trace)
        except BenchError as exc:
            print(f"benchmark error: {exc}", file=sys.stderr)
            return 2
        for failure in detail["failures"]:
            print(f"failed request: {failure}", file=sys.stderr)
        print(json.dumps(detail))
        print(json.dumps(result))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}:{name}"] = metric
    if len(runs) > 1:
        print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
