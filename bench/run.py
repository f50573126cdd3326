"""Benchmark of the copyposet workbench through its CLI / --batch path.

    python3 bench/run.py --workload desk|derive|saturate|all --seed N \
        --seconds S --trace 0|1

Run from anywhere inside a copyposet checkout; it uses `src/` of the
checkout it lives in, reads `tests/golden/`, and writes only bytecode
caches and `bench/out/`. With `--trace 0` the last stdout line is a JSON object with the
end-to-end metrics; with `--trace 1` it holds the per-layer metrics of a
separate traced run. Request times are scaled to a fixed host speed with the
calibration unit of `calibrate.py`. See bench/README.md for the metrics and
workloads.
"""
from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

import calibrate

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("desk", "derive", "saturate")
SETUP_SPAWNS = 7
RUN_LIMIT_S = 170  # every worker must finish within this many seconds of the start
CAL_WINDOW_S = 0.5  # calibration samples this close to a request give its host speed

END_TO_END_UNITS = {"throughput_rps": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "cli.self_ms": "ms", "cli.build_parser_ms": "ms", "cli.emit_ms": "ms",
    "parser.calls": "count", "parser.tokens": "count", "parser.self_ms": "ms",
    "terms.calls": "count", "terms.self_ms": "ms",
    "classify.calls": "count", "classify.self_ms": "ms",
    "forcing.calls": "count", "forcing.self_ms": "ms",
    "finsets.calls": "count", "finsets.self_ms": "ms", "finsets.bool_ops": "count",
    "hyps.calls": "count", "hyps.self_ms": "ms",
    "closure.calls": "count", "closure.self_ms": "ms", "closure.universe": "count",
    "closure.relations": "count", "closure.add_attempts": "count",
    "closure.useful_ratio": "ratio",
    "query.calls": "count", "query.self_ms": "ms",
    "rules.calls": "count", "rules.self_ms": "ms", "rules.facts": "count",
    "rules.blocked": "count", "rules.sub_analyses": "count",
    "trace.rps_ratio": "ratio",
}


class BenchError(RuntimeError):
    pass


def _env(seed: int) -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=str(seed % 4_294_967_296))


def _unit_now() -> float:
    return statistics.median(calibrate.unit() for _ in range(3))


def measure_setup(seed: int) -> float:
    """Median scaled wall time of fresh interpreters answering `copyposet rules T5.2`.

    Each spawn's time is scaled like a request's, by the calibration unit
    timed here just before and just after it.
    """
    code = "import sys\nfrom copyposet.cli import main\nsys.exit(main(['rules', 'T5.2']))"
    times = []
    for _ in range(10):  # warm up the unit before its times count
        calibrate.unit()
    for i in range(SETUP_SPAWNS + 1):  # the first spawn also writes the bytecode cache
        before = _unit_now()
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=_env(seed), cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - t0
        unit = (before + _unit_now()) / 2
        if proc.returncode != 0 or not proc.stdout.startswith("T5.2: "):
            raise BenchError(f"one-shot `rules T5.2` failed: {proc.stderr.strip()[-300:]}")
        if i:
            times.append(elapsed * calibrate.REF_UNIT_S / unit)
    return statistics.median(times)


def run_worker(workload: str, seed: int, deadline: float, seconds: float = 0.0,
               requests: int = 0, spans_path: pathlib.Path | None = None) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed)]
    cmd += ["--requests", str(requests)] if requests else ["--seconds", str(seconds)]
    if spans_path is not None:
        cmd += ["--trace", str(spans_path)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left to start a worker")
    try:
        proc = subprocess.run(cmd, env=_env(seed), cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} worker did not finish in time") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker failed: {proc.stderr.strip()[-1000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def _quantile(values: list, q: float) -> float:
    """Nearest-rank quantile: the smallest value with at least q of all values at or below it."""
    return sorted(values)[max(0, math.ceil(q * len(values)) - 1)]


def scaled_latencies(res: dict) -> list:
    """Each request's wall time as it would be at the host speed of REF_UNIT_S.

    The host speed around a request is the interquartile mean of the
    calibration samples taken from CAL_WINDOW_S before its start to
    CAL_WINDOW_S after its end, those taken while it ran included: a mean
    follows a speed that changes during a long request, and dropping the
    outer quarters keeps a single disturbed sample from moving it.
    """
    cals = res["cals"]
    times = [t for t, _ in cals]
    scaled = []
    for start, lat in zip(res["starts"], res["latencies"]):
        lo = bisect.bisect_left(times, start - CAL_WINDOW_S)
        hi = bisect.bisect_right(times, start + lat + CAL_WINDOW_S)
        near = sorted(d for _, d in cals[lo:hi]) or [cals[min(lo, len(cals) - 1)][1]]
        cut = len(near) // 4
        scaled.append(lat * calibrate.REF_UNIT_S / statistics.mean(near[cut:len(near) - cut]))
    return scaled


def end_to_end(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    setup = measure_setup(seed)
    res = run_worker(workload, seed, deadline, seconds=seconds)
    lat, raw = scaled_latencies(res), res["latencies"]
    p90 = _quantile(lat, 0.9)
    metrics = {
        "throughput_rps": len(lat) / sum(lat),
        "latency_p50_ms": 1e3 * _quantile(lat, 0.5),
        "latency_p90_ms": 1e3 * p90,
        "setup_s": setup,
        "peak_rss_mb": res["peak_rss_kb"] / 1024,
    }
    info = {"requests": len(lat), "beyond_p90": sum(x > p90 for x in lat),
            "wall_s": round(res["wall_s"], 3), "failures": res["failures"],
            "raw": {"throughput_rps": len(raw) / sum(raw),
                    "latency_p50_ms": 1e3 * _quantile(raw, 0.5),
                    "latency_p90_ms": 1e3 * _quantile(raw, 0.9)},
            "unit_ms": 1e3 * statistics.median(d for _, d in res["cals"])}
    return {"attempted": res["attempted"], "failed": res["failed"],
            "metrics": metrics, "info": info}


def traced(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    """Untraced then traced worker over the same requests; per-layer metrics."""
    plain = run_worker(workload, seed, deadline, seconds=seconds / 2)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload}-{seed}.jsonl"
    res = run_worker(workload, seed, deadline, requests=plain["attempted"],
                     spans_path=spans_path)
    n = res["attempted"]
    mismatched = [i for i, (a, b) in enumerate(zip(plain["digests"], res["digests"])) if a != b]
    if len(plain["digests"]) != len(res["digests"]):
        mismatched.append(min(len(plain["digests"]), len(res["digests"])))
    layers = res["layers"]
    calls, self_s, counts = layers["calls"], layers["self_s"], layers["counts"]
    per_req = lambda v: v / n
    closures = calls.get("closure", 0)
    metrics = {
        "cli.self_ms": 1e3 * per_req(self_s.get("cli", 0.0)),
        "cli.build_parser_ms": 1e3 * per_req(self_s.get("cli.build_parser", 0.0)),
        "cli.emit_ms": 1e3 * per_req(self_s.get("cli.emit", 0.0)),
        "parser.tokens": per_req(counts.get("parser.tokens", 0)),
        "finsets.bool_ops": per_req(counts.get("finsets.bool_ops", 0)),
        "closure.universe": counts.get("closure.universe", 0) / max(closures, 1),
        "closure.relations": counts.get("closure.relations", 0) / max(closures, 1),
        "closure.add_attempts": counts.get("closure.add_attempts", 0) / max(closures, 1),
        "closure.useful_ratio": counts.get("closure.relations", 0)
        / max(counts.get("closure.add_attempts", 0), 1),
        "rules.facts": per_req(counts.get("rules.facts", 0)),
        "rules.blocked": per_req(counts.get("rules.blocked", 0)),
        "rules.sub_analyses": per_req(counts.get("rules.sub_analyses", 0)),
        "trace.rps_ratio": (n / sum(scaled_latencies(res)))
        / (plain["attempted"] / sum(scaled_latencies(plain))),
    }
    for layer in ("parser", "terms", "classify", "forcing", "finsets", "hyps", "closure",
                  "query", "rules"):
        metrics[f"{layer}.calls"] = per_req(calls.get(layer, 0))
        metrics[f"{layer}.self_ms"] = 1e3 * per_req(self_s.get(layer, 0.0))
    failures = res["failures"] + [{"request": i, "problem": "traced response differs"}
                                  for i in mismatched[:20]]
    return {"attempted": n, "failed": res["failed"] + len(mismatched),
            "metrics": {k: metrics[k] for k in PER_LAYER_UNITS},
            "info": {"requests": n, "failures": failures}}


def environment(seed: int, counts: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    try:  # only the checkout's own repository, not one that happens to enclose it
        lines = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True, timeout=10).stdout.split()
        if len(lines) == 2 and pathlib.Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "copyposet").glob("*.py")):
        digest.update(path.read_bytes())
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "git_commit": commit, "source_sha256": digest.hexdigest()[:16], "seed": seed,
            "requests": counts}


def _print_result(workload: str, result: dict, units: dict) -> None:
    for name, value in result["metrics"].items():
        print(f"{workload:9s} {name:24s} {value:14.6f} {units[name]}")
    failed, attempted = result["failed"], result["attempted"]
    print(f"{workload:9s} {'failed_ratio':24s} {failed / attempted:14.6f} "
          f"({failed} of {attempted} requests)")
    if "beyond_p90" in result["info"]:
        info = result["info"]
        print(f"{workload:9s} samples: {info['requests']} requests in {info['wall_s']} s, "
              f"{info['beyond_p90']} beyond p90")
        print(f"{workload:9s} calibration unit: median {info['unit_ms']:.3f} ms, "
              f"reference {1e3 * calibrate.REF_UNIT_S:.3f} ms; unscaled: "
              + ", ".join(f"{k} {v:.6f}" for k, v in info["raw"].items()))
    for f in result["info"]["failures"]:
        print(f"{workload:9s} FAILED {json.dumps(f)[:400]}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    missing = [p for p in (SRC / "copyposet" / "cli.py", ROOT / "tests" / "golden")
               if not p.exists()]
    if missing:
        print(f"error: not inside a copyposet checkout: missing {missing[0]}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + (RUN_LIMIT_S if len(names) == 1 else 3 * RUN_LIMIT_S)
    modes = (0, 1) if args.workload == "all" else (args.trace,)
    results = {}
    try:
        for name in names:
            for mode in modes:
                run = traced if mode else end_to_end
                results[(name, mode)] = run(name, args.seed, args.seconds, deadline)
                _print_result(name, results[(name, mode)],
                              PER_LAYER_UNITS if mode else END_TO_END_UNITS)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    counts = {f"{name}{'/traced' if mode else ''}": r["info"]["requests"]
              for (name, mode), r in results.items()}
    print("env " + json.dumps(environment(args.seed, counts)))
    units = {**END_TO_END_UNITS, **PER_LAYER_UNITS}
    prefix = (lambda name: f"{name}/") if len(names) > 1 else (lambda name: "")
    metrics = {f"{prefix(name)}{k}": {"value": v, "unit": units[k]}
               for (name, _mode), r in results.items() for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
