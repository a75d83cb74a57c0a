"""One benchmark interpreter: import ltk, run a list of operations, report.

Reads a job from stdin as JSON:

    {"ops": [...], "trace": false, "spans_path": null, "deadline": null}

and runs the operations in order.  The operations marked ``"repeat": true``
come last; with a deadline (a `time.monotonic()` value) they form a pass
that runs again as long as the next pass, as long as the last, ends
before the deadline.  Each run of an operation prints one JSON line with
the operation's index, its wall time, the times of its parts and its
output.  After the operations that run once, and after each pass, the
child times a fixed loop that does not touch ltk (`reference_time`).  A
last line gives the fastest of those times, the process's peak RSS and
where ltk was imported from.  Operation kinds:

* ``cli``     -- ``ltk.cli.run(argv)``; output is exit code, stdout, stderr;
* ``chart``   -- ``ext_dimension(s, t - s)`` for every s <= t, each cell
  timed as one part;
* ``algebra`` -- one element pair through normalize, product,
  differential, sq0 and an .f2elt round trip; the identities among the
  results are evaluated after the timing;
* ``basis``   -- one admissible basis.

With ``"trace": true`` the calls between ltk's modules are wrapped (see
spans.py) and the spans are written to ``spans_path`` at exit.  Run with
no job (``--setup``) it only imports ltk and loads the catalog, which is
what the set-up probes time.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time

REFERENCE_SAMPLES = 10
REFERENCE_LOOP = 60_000


def reference_time() -> float:
    """Wall time of a fixed loop of integer arithmetic.  It shares no code
    with ltk, so across runs and commits its time moves only with the
    speed of the host."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOP):
        total += i * i % 7
    return time.perf_counter() - start


def _jsonable(value):
    """Elements (frozensets of words) become sorted lists of index lists;
    a basis (a tuple of words) keeps its order."""
    if isinstance(value, dict):
        return {key: _jsonable(v) for key, v in value.items()}
    if isinstance(value, frozenset):
        return sorted(list(w) for w in value)
    if isinstance(value, tuple):
        return [list(w) for w in value]
    return value


def peak_rss_kb() -> int:
    """This process's peak resident set size.  VmHWM belongs to the address
    space made at exec; ru_maxrss would also count the parent's peak."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_cli(ltk, op, parts):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ltk.cli.run(op["argv"])
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def run_chart(ltk, op, parts):
    t, dims = op["t"], []
    for s in range(t + 1):
        start = time.perf_counter()
        dims.append(ltk.homology.ext_dimension(s, t - s))
        parts.append(time.perf_counter() - start)
    return {"dims": dims}


def run_algebra(ltk, op, parts):
    la, io_ = ltk.lambda_algebra, ltk.elements_io
    x = la.element(*op["x"])
    y = la.element(*op["y"])
    xy = la.product(x, y)
    dx, dy = la.differential(x), la.differential(y)
    sx, sy = la.sq0(x), la.sq0(y)
    return {
        "xy": xy, "dx": dx, "sx": sx,
        "xy_again": la.normalize(xy),
        "xy_rightmost": la.normalize(la.element(*(u + v for u in x for v in y)), "rightmost"),
        "ddx": la.differential(dx),
        "d_xy": la.differential(xy),
        "leibniz": la.product(dx, y) ^ la.product(x, dy),
        "sq0_dx": la.sq0(dx),
        "d_sx": la.differential(sx),
        "sq0_xy": la.sq0(xy),
        "sx_sy": la.product(sx, sy),
        "parsed": io_.parse_lambda(io_.serialize_lambda(xy)),
    }


def algebra_report(out: dict) -> dict:
    """What the benchmark checks: the elements it recomputes independently
    and the identities among the package's own outputs."""
    report = {key: out[key] for key in ("xy", "dx", "sx")}
    report["properties"] = {
        "d(d(x)) = 0": not out["ddx"],
        "normalize is idempotent": out["xy_again"] == out["xy"],
        "both strategies agree": out["xy_rightmost"] == out["xy"],
        "Leibniz rule": out["d_xy"] == out["leibniz"],
        "Sq0 commutes with d": out["sq0_dx"] == out["d_sx"],
        "Sq0 is multiplicative": out["sq0_xy"] == out["sx_sy"],
        "parse(serialize(xy)) = xy": out["parsed"] == out["xy"],
    }
    return report


def run_basis(ltk, op, parts):
    return {"basis": ltk.lambda_algebra.admissible_basis(*op["basis"])}


RUNNERS = {"cli": run_cli, "chart": run_chart, "algebra": run_algebra, "basis": run_basis}
REPORTS = {"algebra": algebra_report}  # applied after the timed region


def run_op(ltk, index: int, op: dict, tracer) -> None:
    """Run one operation and print its line."""
    if tracer is not None:
        tracer.op = index
    parts = []  # a runner may split its time into parts, always the same ones
    start = time.perf_counter()
    try:
        output = RUNNERS[op["kind"]](ltk, op, parts)
        error = None
    except Exception as exc:  # a failed operation is counted, not fatal
        output, error = None, f"{type(exc).__name__}: {exc}"
    end = time.perf_counter()
    # one line per operation, so outputs do not pile up in this process
    if output is not None and op["kind"] in REPORTS:
        output = REPORTS[op["kind"]](output)
    print(json.dumps({"op": index, "s": end - start, "parts": parts or [end - start],
                      "out": _jsonable(output), "error": error}), flush=True)


def main() -> None:
    import ltk  # imported before any timing: interpreter set-up is not an operation
    import ltk.cli  # noqa: F401  (the package does not import its front end)

    if sys.argv[1:] == ["--setup"]:
        for name in ltk.catalog.names():
            ltk.catalog.entry(name)
        return
    job = json.loads(sys.stdin.read())
    tracer = None
    if job["trace"]:
        from spans import Tracer  # the benchmark's spans.py, next to this file

        tracer = Tracer()
        tracer.install(ltk)
    ops, deadline = job["ops"], job.get("deadline")
    first_repeat = next((i for i, op in enumerate(ops) if op.get("repeat")), len(ops))
    for index in range(first_repeat):
        run_op(ltk, index, ops[index], tracer)
    reference = [reference_time() for _ in range(REFERENCE_SAMPLES)]
    while first_repeat < len(ops):
        start = time.monotonic()
        for index in range(first_repeat, len(ops)):
            run_op(ltk, index, ops[index], tracer)
        reference += [reference_time() for _ in range(REFERENCE_SAMPLES)]
        now = time.monotonic()
        if deadline is None or now + (now - start) > deadline:  # the next pass would end late
            break
    if tracer is not None:
        tracer.op = -1
        with open(job["spans_path"], "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    print(json.dumps({
        "reference_s": min(reference),
        "maxrss_kb": peak_rss_kb(),
        "ltk_file": ltk.__file__,
    }))


if __name__ == "__main__":
    main()
