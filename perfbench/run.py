"""Benchmark of the ltk package: three workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload detect --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --repeat 10      # medians and quartiles

Run from the root of a source checkout; ltk is imported from ./src.  One
run measures set-up (fresh interpreters importing ltk and loading the
catalog), then runs whole rounds of the workload, each round in fresh
interpreters started one at a time, until the next round would end after
--seconds; operations marked to repeat run in passes within their
interpreter until then (see child.py).  wall_s sums each timed
operation's fastest time in the run, and the times are scaled to a fixed
host speed (see measure).  Every operation's output is checked
(workloads.py); an operation that errors or answers wrongly counts as
failed.  The last line
of stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with --trace 0, the per-layer metrics
(from spans, see spans.py) with --trace 1.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
SETUP_PROBES = 15
SETUP_RESERVE_S = 2.5  # what the set-up probes after the last round take
# fastest time of child.reference_time's loop on a 2-core x86-64 virtual
# machine, Python 3.11.7, when its other tenants were quiet
REFERENCE_S = 0.0035
HARD_LIMIT_S = 170  # a run ends well inside the 180 s a caller may allow
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))


class Run:
    """One invocation: a temporary directory, a deadline, child processes."""

    def __init__(self):
        self.start = time.perf_counter()
        self.tmp = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
        os.makedirs(self.tmp)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p)

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.tmp))
        except OSError:
            pass  # another run still uses it

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.perf_counter() - self.start)

    def child(self, args: list, stdin: str = ""):
        """Run child.py to its end; (exit code, stdout, stderr), code None on timeout."""
        proc = subprocess.Popen([sys.executable, CHILD, *args], cwd=ROOT, env=self.env,
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(stdin, timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            return None, out, err
        return proc.returncode, out, err

    def setup_time(self) -> float:
        """Wall time of one fresh interpreter importing ltk and loading the catalog."""
        start = time.perf_counter()
        code, _, err = self.child(["--setup"])
        elapsed = time.perf_counter() - start
        if code != 0:
            raise SystemExit(f"set-up failed: {err.strip()[-500:]}")
        return elapsed

    def job(self, ops: list, traced: bool, index: int, deadline=None):
        """Run one interpreter's operations, passes of the repeated ones until
        `deadline` (see child.py); (results or None, last report line, spans,
        what went wrong or None)."""
        spans_path = os.path.join(self.tmp, f"spans-{index}.json") if traced else None
        job = {"ops": ops, "trace": traced, "spans_path": spans_path, "deadline": deadline}
        code, out, err = self.child([], json.dumps(job))
        lines = out.strip().splitlines()
        try:
            *results, report = [json.loads(line) for line in lines]
            if code == 0 and [r["op"] for r in results] != run_order(ops, len(results)):
                code = "not whole passes"
        except (ValueError, KeyError, TypeError):  # the protocol is broken
            code = code or "unreadable output"
        if code != 0:
            return None, None, None, (err.strip().splitlines() or [f"exit code {code}"])[-1]
        if not report["ltk_file"].startswith(os.path.join(ROOT, "src") + os.sep):
            raise SystemExit(f"ltk was imported from {report['ltk_file']}, not from ./src")
        dump = None
        if traced:
            with open(spans_path, encoding="utf-8") as fh:
                dump = json.load(fh)
            os.remove(spans_path)
        return results, report, dump, None


def run_order(ops: list, count: int):
    """The operation indices of `count` result lines: the operations that
    run once, then whole passes of the repeated ones; None if `count`
    lines cannot be that."""
    first = next((i for i, op in enumerate(ops) if op.get("repeat")), len(ops))
    if first == len(ops):
        return list(range(first)) if count == first else None
    passes, rest = divmod(count - first, len(ops) - first)
    if passes < 1 or rest:
        return None
    return list(range(first)) + list(range(first, len(ops))) * passes


def run_round(run: Run, jobs: list, traced: bool, verdicts: dict, deadline=None) -> dict:
    """All of a workload's interpreters, one after another, with every output
    checked.  `verdicts` maps (job, op) to an output already checked and its
    verdict: rounds repeat the same inputs, so a repeated output is not
    checked twice."""
    round_ = {"wall": 0.0, "rss": 0.0, "reference": float("inf"), "failed": 0, "attempted": 0,
              "samples": [], "problems": [], "layers": None, "started": time.perf_counter()}
    layer_parts = []
    for index, ops in enumerate(jobs):
        results, report, dump, crash = run.job(ops, traced, index, deadline)
        if results is None:
            round_["attempted"] += len(ops)
            round_["failed"] += len(ops)
            round_["problems"].append(f"interpreter {index} failed: {crash}")
            continue
        round_["attempted"] += len(results)
        round_["rss"] = max(round_["rss"], report["maxrss_kb"] / 1024)
        round_["reference"] = min(round_["reference"], report["reference_s"])
        for result in results:
            op_index = result["op"]
            op = ops[op_index]
            round_["wall"] += result["s"]
            if op.get("timed", True):
                round_["samples"].append(((index, op_index), result["parts"]))
            seen = verdicts.get((index, op_index))
            if seen is not None and seen[0] == (result["out"], result["error"]):
                problem = seen[1]
            else:
                problem = workloads.check(op, result)
                verdicts[(index, op_index)] = ((result["out"], result["error"]), problem)
            if problem:
                round_["failed"] += 1
                round_["problems"].append(f"{' '.join(map(str, op.get('argv', [op['kind']])))}: "
                                          f"{problem}")
        if traced:
            layer_parts.append(spans.layer_metrics(
                dump["spans"], dump["counts"], set(range(len(ops))),
                sum(r["s"] for r in results)))
    if traced:
        round_["layers"] = {name: sum(part[name] for part in layer_parts)
                            for name, _ in spans.PER_LAYER}
    round_["elapsed"] = time.perf_counter() - round_["started"]
    return round_


def fastest_total(rounds: list) -> float:
    """Sum over the timed operations of each part's fastest time.

    The host's speed dips in bursts of a fraction of a second to a few
    seconds, and a dip only ever adds time.  So the steadiest estimate of
    a short stretch of work is its fastest sample, and the sum of those
    is the time of one round on the host at its usual full speed.  The
    samples of an operation are its runs in every round and every pass."""
    fastest = {}
    for round_ in rounds:
        for key, parts in round_["samples"]:
            best = fastest.setdefault(key, parts)
            fastest[key] = [min(a, b) for a, b in zip(best, parts)]
    return sum(sum(parts) for parts in fastest.values())


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    run = Run()
    try:
        run.setup_time()  # first start compiles ltk's bytecode; not a set-up sample
        jobs = workloads.WORKLOADS[workload](ROOT, seed, run.tmp)
        rounds, verdicts, setup = [], {}, []
        budget = min(seconds, HARD_LIMIT_S - 20) - SETUP_RESERVE_S
        while True:
            # one set-up sample per round spreads them over the run, whose
            # machine speed drifts; the rest are taken after the last round
            setup.append(run.setup_time())
            # repeated operations run in passes until the budget is spent;
            # traced runs make one pass per round
            deadline = None if trace else (
                time.monotonic() + budget - (time.perf_counter() - run.start))
            # with tracing, the first round runs untraced: the overhead baseline
            rounds.append(run_round(run, jobs, trace and bool(rounds), verdicts, deadline))
            if trace and len(rounds) < 2:
                continue
            last = rounds[-1]["elapsed"]
            if time.perf_counter() - run.start + last > seconds or run.remaining() < 2 * last:
                break
        setup += [run.setup_time() for _ in range(SETUP_PROBES - len(setup))]
    finally:
        run.close()

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    for problem in [p for r in rounds for p in r["problems"]][:10]:
        print(f"FAILED {problem}", file=sys.stderr)
    if trace:
        traced = [r for r in rounds if r["layers"] is not None]
        values = {name: (statistics.median if unit == "s" else statistics.median_low)(
                      r["layers"][name] for r in traced) for name, unit in spans.PER_LAYER}
        values["trace.overhead_s"] = (statistics.median(r["wall"] for r in traced)
                                      - rounds[0]["wall"])
        units = dict(spans.PER_LAYER)
    else:
        # the host's speed drifts for minutes at a time; the reference loop's
        # fastest time in this run measures it, and the times are scaled to
        # the speed at which that loop takes REFERENCE_S
        reference = min(r["reference"] for r in rounds)
        scale = REFERENCE_S / reference if reference < float("inf") else 1.0
        setup_s, wall_s = statistics.median(setup), fastest_total(rounds)
        print(f"measured: setup_s {setup_s:.6f} s, wall_s {wall_s:.6f} s, reference loop "
              f"{reference:.6f} s; reported times are these x {scale:.4f}", file=sys.stderr)
        values = {
            "setup_s": setup_s * scale,
            "wall_s": wall_s * scale,
            "peak_rss_mb": max(r["rss"] for r in rounds),
        }
        units = dict(END_TO_END)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in values.items()}}


# --------------------------------------------------------------------------
# repeat mode

def _bounds() -> dict:
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError):
        return {}
    return {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}


def repeat(names: list, seed: int, seconds: float, trace: int, times: int) -> int:
    """Run each workload `times` times on seeds seed, seed+1, ...; print the
    median, quartiles and quartile spread (as a share of the median) of
    every metric, next to its bound in BENCHMARK.json."""
    bounds = _bounds()
    summary = {}
    for name in names:
        results = []
        for i in range(times):
            out = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(seed + i), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, check=False)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print(f"{name} seed {seed + i}: exit {out.returncode}\n{out.stderr[-1000:]}",
                      file=sys.stderr)
                return 1
            results.append(json.loads(lines[-1]))
            print(f"{name} seed {seed + i}: {lines[-1]}", flush=True)
        rows = {}
        for metric, entry in results[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / med if med else 0.0
            rows[metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                            "unit": entry["unit"], "bound": bounds.get(metric)}
            bound = bounds.get(metric)
            verdict = "" if bound is None else (
                "ok" if spread <= bound / 3 else "WITHIN BOUND" if spread <= bound else "OVER BOUND")
            print(f"  {name:9s} {metric:34s} median {med:12.6g} {entry['unit']:6s} "
                  f"q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:7.2%} "
                  f"bound {'-' if bound is None else bound} {verdict}", flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        print(f"  {name:9s} correct {correct}, failed shares {sorted(shares)}", flush=True)
        summary[name] = {"correct": correct, "failed_shares": sorted(shares), "metrics": rows}
    print(json.dumps(summary))
    return 0 if all(s["correct"] for s in summary.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run each workload this many times and print medians and quartiles")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "ltk", "__init__.py")):
        print(f"error: no ltk sources under {os.path.join(ROOT, 'src')}; "
              "run from a source checkout", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if args.repeat or len(names) > 1:
        return repeat(names, args.seed, args.seconds, args.trace, max(args.repeat, 1))
    print(json.dumps(measure(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
