"""End-to-end acceptance suite.

Each test covers one acceptance criterion (A1-A8), checks it exactly
(all arithmetic here is over the two-element field, so tolerances are
zero), and prints a single PASS/FAIL line; run with `pytest -s` to see
the lines as they happen.  Criteria with a stated runtime budget
measure wall time for their own work.
"""

from __future__ import annotations

import random
import time

from ltk import catalog, elements_io, homology
from ltk import divided_power as dp
from ltk import lambda_algebra as la
from ltk.cli import run as cli_run
from ltk.transfer import psi, sq0_family, transfer_image_dim

from .oracles import EXT_CLASS_NAMES, reference


def criterion(cid: str, description: str, checks: dict[str, bool],
              elapsed: float | None = None) -> None:
    failed = [name for name, ok in checks.items() if not ok]
    status = "PASS" if not failed else f"FAIL ({', '.join(failed)})"
    suffix = "" if elapsed is None else f" [{elapsed:.2f}s]"
    print(f"{cid} {status}: {description}{suffix}")
    assert not failed, f"{cid} failed sub-checks: {failed}"


def named_product(*names: str) -> la.LambdaElement:
    acc = la.UNIT
    for name in names:
        acc = la.product(acc, catalog.entry(name).element)
    return acc


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = cli_run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_a1_first_detection(capsys):
    t0 = time.perf_counter()
    checks = {}

    code, out, _ = run_cli(capsys, "verify", "--class", "h0d0")
    checks["cli exit 0"] = code == 0
    checks["cli verdict"] = "verdict:        verified" in out

    u14 = catalog.entry("u14")
    evidence = dp.is_primitive(u14.element)
    checks["primitive"] = evidence.holds
    checks["generator squares are 1,2,4"] = [i for i, _ in evidence.checked] == [1, 2, 4]
    checks["Sq^8 vanishes by instability"] = dp.sq_right(u14.element, 8) == dp.ZERO

    image = psi(u14.element)
    checks["psi image is a cycle"] = homology.is_cycle(image)
    checks["psi image bidegree"] = la.bidegree(image) == la.Bidegree(5, 14)

    target = named_product("d0", "h0")
    equal, witness = homology.same_class(image, target)
    checks["difference is a boundary"] = equal
    checks["solved witness re-verifies"] = (
        witness is not None
        and la.differential(witness) == la.normalize(image ^ target)
    )
    stored = catalog.entry("witness_i").element
    checks["stored two-word witness validates"] = (
        la.differential(stored) == la.normalize(image ^ target)
    )
    checks["target class nonzero"] = homology.class_nonzero(target)
    checks["ext dimension is 1"] = homology.ext_dimension(5, 14) == 1

    elapsed = time.perf_counter() - t0
    checks["runtime < 10s"] = elapsed < 10
    criterion("A1", "h0*d0 lies in the rank-5 transfer image", checks, elapsed)


def test_a2_second_detection(capsys):
    t0 = time.perf_counter()
    checks = {}

    code, out, _ = run_cli(capsys, "verify", "--class", "h2e0")
    checks["cli exit 0"] = code == 0
    checks["cli verdict"] = "verdict:        verified" in out

    u20 = catalog.entry("u20")
    checks["primitive"] = dp.is_primitive(u20.element).holds
    image = psi(u20.element)
    checks["psi image is a cycle"] = homology.is_cycle(image)

    target = named_product("e0_paper", "h2")
    equal, _ = homology.same_class(image, target)
    checks["difference is a boundary"] = equal
    stored = catalog.entry("witness_ii").element
    checks["stored four-word witness validates"] = (
        la.differential(stored) == la.normalize(image ^ target)
    )
    checks["target class nonzero"] = homology.class_nonzero(target)

    other = named_product("g1", "h0")
    equal2, _ = homology.same_class(target, other)
    checks["h2*e0 equals h0*g1"] = equal2
    checks["ext dimension is 1"] = homology.ext_dimension(5, 20) == 1

    elapsed = time.perf_counter() - t0
    checks["runtime < 30s"] = elapsed < 30
    criterion("A2", "h2*e0 lies in the rank-5 transfer image", checks, elapsed)


def test_a3_third_detection(capsys):
    t0 = time.perf_counter()
    checks = {}

    code, out, _ = run_cli(capsys, "verify", "--class", "h1h4c0")
    checks["cli exit 0"] = code == 0
    checks["cli verdict"] = "verdict:        verified" in out

    u24 = catalog.entry("u24")
    checks["primitive"] = dp.is_primitive(u24.element).holds
    image = psi(u24.element)
    checks["psi image is a cycle"] = homology.is_cycle(image)

    target = named_product("c0", "h4", "h1")
    checks["psi image equals the five-letter word exactly"] = (
        la.normalize(image) == la.normalize(la.element((2, 3, 3, 15, 1)))
    )
    checks["psi image equals h1*h4*c0 exactly"] = la.normalize(image) == target

    alt = named_product("e0_paper", "h3")
    equal, _ = homology.same_class(image, alt)
    checks["h1*h4*c0 equals h3*e0"] = equal
    checks["target class nonzero"] = homology.class_nonzero(target)
    checks["ext dimension is 1"] = homology.ext_dimension(5, 24) == 1

    elapsed = time.perf_counter() - t0
    checks["runtime < 60s"] = elapsed < 60
    criterion("A3", "h1*h4*c0 lies in the rank-5 transfer image", checks, elapsed)


def test_a4_catalog_classes():
    t0 = time.perf_counter()
    checks = {}

    for name in EXT_CLASS_NAMES:
        checks[f"{name} is a cycle"] = homology.is_cycle(catalog.entry(name).element)
    for name in ("c0", "d0", "e0_paper", "e0_lin", "g1"):
        checks[f"{name} nonzero"] = homology.class_nonzero(catalog.entry(name).element)

    equal, _ = homology.same_class(
        catalog.entry("e0_paper").element, catalog.entry("e0_lin").element
    )
    checks["both degree-17 representatives homologous"] = equal

    h0 = catalog.entry("h0")
    for t in range(5):
        checks[f"squaring family hits h{t}"] = (
            sq0_family(h0, t) == catalog.entry(f"h{t}").element
        )

    elapsed = time.perf_counter() - t0
    checks["runtime < 10s"] = elapsed < 10
    criterion("A4", "stored class catalog is internally consistent", checks, elapsed)


def test_a5_randomized_property_suite():
    rng = random.Random(20260808)
    checks = {}

    def random_word(max_len=5, max_idx=30):
        return tuple(rng.randrange(0, max_idx + 1)
                     for _ in range(rng.randrange(0, max_len + 1)))

    pool = [la.element(random_word()) for _ in range(210)]
    checks["pool size >= 200"] = len(pool) >= 200

    failures = 0
    for e in pool:
        if la.differential(la.differential(e)) != la.ZERO:
            failures += 1
        n = la.normalize(e)
        if la.normalize(n) != n:
            failures += 1
        if la.normalize(e, "leftmost") != la.normalize(e, "rightmost"):
            failures += 1
        if la.sq0(la.differential(e)) != la.differential(la.sq0(e)):
            failures += 1
    checks["unary identities, zero failures"] = failures == 0

    product_failures = 0
    for i in range(0, 200, 2):
        x, y = pool[i], pool[i + 1]
        lhs = la.differential(la.product(x, y))
        rhs = la.product(la.differential(x), y) ^ la.product(x, la.differential(y))
        if lhs != la.normalize(rhs):
            product_failures += 1
        if la.sq0(la.product(x, y)) != la.product(la.sq0(x), la.sq0(y)):
            product_failures += 1
    checks["Leibniz and multiplicative squaring, zero failures"] = product_failures == 0

    gamma_failures = 0
    for _ in range(210):
        rank = rng.randrange(1, 6)
        degree = rng.randrange(0, 15)
        monos = set()
        for _ in range(rng.randrange(1, 4)):
            exps, left = [], degree
            for k in range(rank):
                t = left if k == rank - 1 else rng.randrange(0, left + 1)
                exps.append(t)
                left -= t
            monos ^= {tuple(exps)}
        g = frozenset(monos)
        if dp.sq_right(dp.sq_right(g, 1), 1) != dp.ZERO:
            gamma_failures += 1
        if dp.sq_right(dp.sq_right(g, 1), 2) != dp.sq_right(g, 3):
            gamma_failures += 1
    checks["right-action relations, zero failures"] = gamma_failures == 0

    criterion("A5", "randomized algebra property suite (>=200 elements)", checks)


def test_a6_ext_chart_spot_checks():
    checks = {}
    # independent oracle: dimension in length one is the number of
    # generators whose differential has no odd summand
    for d in range(21):
        oracle = 0 if reference.generator_differential(d) else 1
        checks[f"length-1 dim at degree {d}"] = homology.ext_dimension(1, d) == oracle
    hits = tuple(d for d in range(21) if homology.ext_dimension(1, d) == 1)
    checks["length-1 chart hits exactly 0,1,3,7,15"] = hits == (0, 1, 3, 7, 15)
    checks["ext(3,8) >= 1"] = homology.ext_dimension(3, 8) >= 1
    checks["c0 nonzero"] = homology.class_nonzero(catalog.entry("c0").element)
    criterion("A6", "chart spot checks against the brute-force oracle", checks)


def test_a7_undetected_class_at_stem_nine():
    t0 = time.perf_counter()
    checks = {}
    dim, reps = transfer_image_dim(5, 9)
    checks["transfer image dimension 0"] = dim == 0
    checks["no representatives returned"] = reps == []
    checks["ext(5,9) >= 1"] = homology.ext_dimension(5, 9) >= 1
    elapsed = time.perf_counter() - t0
    if elapsed >= 600:
        print(f"A7 NOTE: runtime budget exceeded ({elapsed:.1f}s); "
              "documented known-slow, not a correctness failure")
    criterion("A7", "stem-9 class exists but is not detected", checks, elapsed)


def test_a8_mutation_robustness(capsys, tmp_path):
    t0 = time.perf_counter()
    checks = {}
    cases = [("u14", "h0d0"), ("u20", "h2e0"), ("u24", "h1h4c0")]
    total = 0
    for uname, cls in cases:
        u = catalog.entry(uname)
        for i, mono in enumerate(sorted(u.element)):
            mutated = u.element ^ {mono}
            path = tmp_path / f"{uname}_minus_{i}.f2elt"
            path.write_text(elements_io.serialize_gamma(mutated), encoding="utf-8")
            code = cli_run(["verify", "--class", cls, "--in", str(path)])
            captured = capsys.readouterr()
            total += 1
            ok_exit = code == 1
            named = ("primitive" in captured.out + captured.err
                     or "class-equality" in captured.out + captured.err)
            if not (ok_exit and named):
                checks[f"{uname} minus {mono}"] = False
    checks[f"all {total} single-deletion mutations falsified"] = total == 84
    elapsed = time.perf_counter() - t0
    criterion("A8", "every stored-element mutation is caught and named",
              checks, elapsed)
