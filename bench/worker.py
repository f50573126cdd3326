"""One closed-loop client: sends a workload's requests to `copyposet.cli.main`.

Started by `run.py` in a fresh interpreter per run, with `src` on
PYTHONPATH. Each request is the argv of one `--batch` line; stdout and stderr
are captured and the exit status kept, then the request's oracle judges the
response. The next request is sent only after the previous one returned.
Request generation and checking happen between requests and are not timed.
Every `calibrate.EVERY_S` seconds of CPU time, a signal handler times the
fixed unit of `calibrate.py`, so that `run.py` can take the host's changing
speed out of the request times; the handler's time is not counted in the
request it interrupts.

Prints one JSON object on stdout: start times and latencies, the
calibration samples, failures, a digest per response (to compare traced
and untraced runs byte for byte), peak RSS and, when traced, the per-layer
counters.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import signal
import sys
import traceback
from time import perf_counter

import calibrate
import workloads

REQUEST_TIMEOUT_S = 60


class RequestTimeout(BaseException):
    """Raised by the alarm when one request runs too long."""


def _alarm(_signum, _frame):
    raise RequestTimeout()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0,
                    help="start no round after this many seconds")
    ap.add_argument("--requests", type=int, default=0,
                    help="run exactly this many requests instead")
    ap.add_argument("--trace", metavar="SPANS_PATH")
    args = ap.parse_args()

    from copyposet import cli

    tracer = None
    call = cli.main
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        call = tracing.install(tracer)

    for _ in range(10):  # warm up the unit before its times count
        calibrate.unit()
    signal.signal(signal.SIGALRM, _alarm)
    starts, latencies, digests, failures = [], [], [], []
    failed = 0
    with calibrate.Sampler() as sampler:
        for round_ in workloads.rounds(args.workload, args.seed):
            if args.requests:
                if len(latencies) >= args.requests:
                    break
            elif perf_counter() - sampler.start >= args.seconds:
                break
            for req in round_:
                if args.requests and len(latencies) >= args.requests:
                    break
                if tracer is not None:
                    tracer.request = len(latencies)
                out, err = io.StringIO(), io.StringIO()
                signal.alarm(REQUEST_TIMEOUT_S)
                spent = sampler.spent
                t0 = perf_counter()
                try:
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        rc = call(req.argv)
                    problem = None
                except RequestTimeout:
                    rc, problem = None, f"no answer within {REQUEST_TIMEOUT_S} s"
                except Exception:  # a crash is a failed request, not the end of the run
                    rc, problem = None, "uncaught " + traceback.format_exc(limit=3)
                latencies.append(perf_counter() - t0 - (sampler.spent - spent))
                starts.append(t0 - sampler.start)
                signal.alarm(0)
                stdout, stderr = out.getvalue(), err.getvalue()
                if problem is None:
                    try:
                        problem = req.check(rc, stdout, stderr)
                    except Exception as exc:  # unparsable output is a wrong answer
                        problem = f"unreadable response: {exc!r}"
                if problem is not None:
                    failed += 1
                    if len(failures) < 20:
                        failures.append({"argv": req.argv, "problem": problem})
                digests.append(hashlib.sha256(
                    f"{rc}\0{stdout}\0{stderr}".encode()).hexdigest()[:16])
    wall = perf_counter() - sampler.start

    result = {
        "attempted": len(latencies), "failed": failed, "failures": failures,
        "starts": starts, "latencies": latencies,
        "cals": sampler.samples,
        "wall_s": wall, "digests": digests,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        calls, self_s = tracer.summary()
        result["layers"] = {"calls": dict(calls), "self_s": dict(self_s),
                            "counts": dict(tracer.counts)}
        tracer.write(args.trace)
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
