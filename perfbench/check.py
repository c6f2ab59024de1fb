"""Output check: compare a request's report and exported files with the
reference recorded at the seed commit.

A report is compared on the key paths the seed's report had, minus the
non-deterministic "timings" block.  Keys a later version adds are ignored,
so a change that only adds report fields still passes; a changed, missing or
reshaped value fails.

The child process condenses each raw outcome into a small summary
(`summarize`) after its timed region, so megabyte reports never cross the
process boundary; the benchmark then compares summaries with the reference
(`outcome_failure`).
"""

from __future__ import annotations

import hashlib
import json

IGNORED_TOP_LEVEL = ("timings",)


def digest(data) -> str:
    if not isinstance(data, bytes):
        data = json.dumps(data, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(data).hexdigest()


def skeleton(value):
    """The value's shape.  A dict keeps its keys; a list holding dicts or lists
    becomes ["each", length, shape] when all items share one shape, else
    ["items", [shapes]]; anything else (scalars, lists of scalars) is a leaf,
    None, compared whole."""
    if isinstance(value, dict):
        return {k: skeleton(v) for k, v in value.items()}
    if isinstance(value, list) and any(isinstance(v, (dict, list)) for v in value):
        shapes = [skeleton(v) for v in value]
        if all(s == shapes[0] for s in shapes):
            return ["each", len(shapes), shapes[0]]
        return ["items", shapes]
    return None


def report_skeleton(report: dict) -> dict:
    return {k: skeleton(v) for k, v in report.items() if k not in IGNORED_TOP_LEVEL}


class ShapeMismatch(ValueError):
    pass


def project(value, shape):
    """The part of `value` that `shape` covers; raises if the shape is not there."""
    if isinstance(shape, dict):
        if not isinstance(value, dict):
            raise ShapeMismatch(f"expected an object, got {type(value).__name__}")
        missing = [k for k in shape if k not in value]
        if missing:
            raise ShapeMismatch(f"missing keys {missing}")
        return {k: project(value[k], s) for k, s in shape.items()}
    if isinstance(shape, list):
        shapes = [shape[2]] * shape[1] if shape[0] == "each" else shape[1]
        if not isinstance(value, list) or len(value) != len(shapes):
            raise ShapeMismatch("list length changed")
        return [project(v, s) for v, s in zip(value, shapes)]
    return value


def request_key(argv: list[str]) -> str:
    return " ".join(argv)


def summarize(outcome: dict, shape) -> dict:
    """Condense one raw outcome (exit code, report text, exception text, file
    digests) into what the check needs.

    With a reference `shape` the summary holds the digest of the report
    projected onto it; without one it keeps the report text, from which a
    reference entry can be made.  `whole` digests the full report minus
    timings, so runs of one request can be compared on keys the reference
    does not know.
    """
    summary = {"files": outcome["files"], "failure": None}
    if outcome["exception"]:
        summary["failure"] = "raised: " + outcome["exception"].strip().splitlines()[-1]
        return summary
    if outcome["rc"] != 0:
        said = outcome["stderr"].strip().splitlines()
        summary["failure"] = f"exit code {outcome['rc']}" + (f": {said[-1]}" if said else "")
        return summary
    try:
        report = json.loads(outcome["stdout"])
    except ValueError:
        summary["failure"] = "report is not JSON"
        return summary
    checks = report.get("checks")
    if not isinstance(checks, dict) or not all(checks.values()):
        summary["failure"] = "a check in the report is false"
        return summary
    summary["whole"] = digest({k: v for k, v in report.items() if k not in IGNORED_TOP_LEVEL})
    if shape is None:
        summary["stdout"] = outcome["stdout"]
        return summary
    try:
        summary["report"] = digest(project(report, shape))
    except ShapeMismatch as exc:
        summary["failure"] = f"report shape differs from the reference: {exc}"
    return summary


def outcome_failure(summary: dict, ref: dict | None) -> str | None:
    """Why one request failed, or None if it passed and matches its reference."""
    if summary["failure"] is not None:
        return summary["failure"]
    if ref is None:
        return "request has no reference output"
    if summary["report"] != ref["report"]:
        return "report differs from the reference"
    if summary["files"] != ref["files"]:
        return "exported files differ from the reference"
    return None


def reference_entry(summary: dict, skeletons: dict) -> dict:
    """Record one passing request's outputs (summarized without a shape)."""
    report = json.loads(summary["stdout"])
    shape = report_skeleton(report)
    shape_id = digest(shape)[:16]
    skeletons[shape_id] = shape
    return {
        "skeleton": shape_id,
        "report": digest(project(report, shape)),
        "files": summary["files"],
    }
