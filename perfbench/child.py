"""One benchmark run: a fresh interpreter that serves one group of requests.

Reads a JSON job on stdin, imports quadswitch from the checkout's src/,
then calls quadswitch.cli.main(argv) for each request in turn, one at a
time, with the report captured.  Prints one JSON line with the timings, a
summary of each request's outputs (see check.summarize) and, when tracing,
the per-layer summary.

The setup window ends once quadswitch is imported and the job is parsed;
no library work happens before that point.  The calibration loops run first
and are reported separately, so the benchmark can take them out of it.
"""

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def serve(cli, requests, workdir, tracer):
    dirs = []
    for i in range(len(requests)):
        dirs.append(os.path.join(workdir, f"r{i}"))
        os.makedirs(dirs[-1])
    outcomes = []
    start = time.perf_counter()
    for i, argv in enumerate(requests):
        if tracer is not None:
            tracer.request = i
        os.chdir(dirs[i])
        out, err = io.StringIO(), io.StringIO()
        exception = None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad flags this way
            rc = exc.code
        except Exception:  # a traceback is a failed request, not a dead run
            rc, exception = None, traceback.format_exc()
        outcomes.append({"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(), "exception": exception})
    run_s = time.perf_counter() - start
    os.chdir(workdir)
    for d, outcome in zip(dirs, outcomes):
        outcome["files"] = {name: file_digest(os.path.join(d, name)) for name in sorted(os.listdir(d))}
    return run_s, outcomes


def file_digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def calibrate():
    """Time two fixed pure-Python loops shaped like the library's work: AND
    and popcount on 2048-bit rows (the SRG check), and a backtracking search
    over small ints with set and frozenset traffic (the flag search).  On a
    shared machine their durations track how fast this process runs now."""
    t0 = time.perf_counter()
    rows = [((i * 0x9E3779B97F4A7C15) ** 9) & ((1 << 2048) - 1) for i in range(1, 851)]
    common = 0
    for i, ri in enumerate(rows):
        for j in range(i + 1, len(rows)):
            common += (ri & rows[j]).bit_count()
    t1 = time.perf_counter()
    found = set()

    def extend(chain, depth):
        if depth == 0:
            found.add(frozenset(chain))
            return
        low = chain[-1] if chain else 0
        for q in range(low + 1, low + 8):
            if depth % 2 and any((q ^ c) & 1 for c in chain):
                continue
            extend(chain + [q], depth - 1)

    for _ in range(16):
        extend([], 5)
    return t1 - t0, time.perf_counter() - t1


def main():
    # Calibrate before quadswitch is even imported, with the collector off, so
    # nothing the library does can change the calibration's timing.
    gc.disable()
    calibration = calibrate()
    gc.enable()
    sys.path.insert(0, SRC)
    import quadswitch.cli as cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"quadswitch was imported from {cli.__file__}, not from {SRC}")
    job = json.loads(sys.stdin.read())
    result = {"ready": time.monotonic(), "calibration_s": calibration}
    if job["requests"]:
        tracer = None
        if job["trace"]:
            import tracer as tracing

            tracer = tracing.Tracer()
            tracer.install()
        run_s, outcomes = serve(cli, job["requests"], job["workdir"], tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        import check

        summaries = [check.summarize(o, shape) for o, shape in zip(outcomes, job["shapes"], strict=True)]
        result.update(run_s=run_s, peak_rss_mb=peak_rss_mb, outcomes=summaries)
        if tracer is not None:
            result["trace"] = tracer.summary(run_s)
            if job["spans_out"]:
                tracer.write(job["spans_out"])
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
