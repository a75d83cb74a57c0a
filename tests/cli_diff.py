"""Compare the ltk command line of two source trees, command by command.

    python tests/cli_diff.py OLD_SRC NEW_SRC

Each source tree is a directory that holds the `ltk` package (a
checkout's `src`).  Every command in COMMANDS runs once against each
tree, in a fresh interpreter with that tree on PYTHONPATH, in a
temporary directory that holds the input files below.  The script
prints each command whose stdout, stderr or exit code differs, with a
diff, and exits 1 if any differs, 0 if none does.  Output is canonical,
so any difference is a change of behaviour.  A last line gives each
tree's total wall seconds over all commands, interpreter start-up
included, the next the number of lines in each tree's ltk/*.py, the
next its code lines: lines that hold a token, less blank, comment and
docstring lines.  The last gives each tree's start-up: the number of
modules that `import ltk, ltk.cli` loads beyond a bare `python -S`, and
the best wall seconds of STARTUPS interpreters that do only that, the
two trees' interpreters taking turns.  Standard library only.
"""

from __future__ import annotations

import ast
import difflib
import glob
import os
import subprocess
import sys
import tempfile
import time
import tokenize
from typing import Optional

RUN = "import sys; from ltk.cli import run; sys.exit(run(sys.argv[1:]))"
TIMEOUT_S = 600
# run with -S, so that no site .pth file preloads a module on any host
STARTUP = ("import sys; bare = set(sys.modules); import ltk, ltk.cli; "
           "print(len(set(sys.modules) - bare))")
STARTUPS = 5

# input files written into the working directory; catalog entries are
# read from the first tree's catalog_data
CATALOG_INPUTS = ("u14", "u20", "u24", "h0", "c0", "d0", "g1")
# input file -> catalog entry and the letters appended to each of its
# words: the targets h0d0 and h1h4c0 as raw concatenations, which
# find-preimage normalizes
PRODUCTS = {"d0h0.f2elt": ("d0", ",0"), "c0h4h1.f2elt": ("c0", ",15,1")}
MALFORMED = {
    "unclosed.f2elt": "L[1,2",
    "negative.f2elt": "L[3,-1]",
    "junk.f2elt": "L[1] L[2]",
    "mixed.f2elt": "a(1,2) + a(1,2,3)",
    "superscript.f2elt": "L[²]",
    "newline.f2elt": "L[3,5] +\nL[2 6]",
    "empty.f2elt": "  \n",
    "zero_junk.f2elt": "0 + L[1]",
    "empty_gamma.f2elt": "a()",
    "vtab.f2elt": "L[1]\x0b+ L[2]",
    "nbsp.f2elt": "\u00a0L[1] +\u2003L[2]",
    "long_int.f2elt": "L[1] +\n  L[" + "7" * 5000 + "]",
}
# inadmissible length-6 words whose rewriting runs up to ten rewrites
# deep; their normal form has about 2,000 words
CHAINS = ("L[0,0,0,0,0,30] + L[0,0,0,0,0,20] + L[3,1,0,2,0,28] +\n"
          "L[1,1,1,1,1,33] + L[1,0,6,0,3,6] + L[2,0,3,6,1,12]\n")

# sums of words of length 4 and degree 20: admissible ones, some ending
# in zeros, alone and mixed with inadmissible ones
ADMISSIBLE = "L[8,6,4,2] + L[12,8,0,0] + L[10,5,3,2]\n"
BLEND = "L[8,6,4,2] + L[12,8,0,0] + L[1,2,7,10] + L[0,3,6,11] + L[5,9,6,0]\n"
# a rank-5 sum whose two terms have degrees 14 and 13, and a zero element
MIXED_DEGREE = "a(0,6,5,2,1) + a(0,6,5,1,1)\n"
ZERO = "0\n"
# a Lambda sum of two degrees, and the unit, the one word of length 0
MIXED_LAMBDA = "L[1] + L[2]\n"
UNIT = "L[]\n"


def _mutant(text: str) -> str:
    """The catalog text with its first term deleted."""
    return " + ".join(text.split("+")[1:]).strip()


COMMANDS: list[list[str]] = [
    # edge cases that the general paths answer: mixed input refused by
    # the homogeneity checks, the unit at s = 0, Sq^0, and one-letter
    # and stable-range cells
    ["find-preimage", "--s", "1", "--in", "mixed_lambda.f2elt"],
    ["primitive-check", "--in", "mixed_degree.f2elt"],
    ["primitive-check", "--in", "mixed_degree.f2elt", "--format", "json"],
    ["find-preimage", "--s", "0", "--in", "unit.f2elt"],
    ["find-preimage", "--s", "0", "--in", "zero.f2elt"],
    ["transfer-image", "--s", "0", "--deg", "3"],
    ["steenrod", "--deg", "0", "--in", "u14.f2elt"],
    ["basis", "--s", "1", "--deg", "9"],
    ["homology", "--s", "1", "--deg", "1"],
    ["homology", "--s", "7", "--deg", "7"],
    ["homology", "--s", "6", "--deg", "7", "--format", "json"],
    # the element readers: a rank given, inferred, refused or not named,
    # and files of the wrong kind or of mixed arity or degree
    *[[*cmd, *rank, "--format", "json", "--in", "u14.f2elt"]
      for cmd in (["psi"], ["primitive-check"], ["steenrod", "--deg", "2"])
      for rank in ([], ["--rank", "5"])],
    ["psi", "--rank", "0", "--in", "u14.f2elt"],
    ["psi", "--in", "zero.f2elt"],
    ["psi", "--rank", "5", "--in", "zero.f2elt"],
    ["primitive-check", "--in", "mixed.f2elt"],
    ["psi", "--in", "d0.f2elt"],
    *[["verify", "--class", "h0d0", "--in", name, *fmt]
      for name in ("mixed_degree.f2elt", "zero.f2elt")
      for fmt in ([], ["--format", "json"])],
    *[["verify", "--class", cls, *fmt]
      for cls in ("h0d0", "h2e0", "h1h4c0")
      for fmt in ([], ["--format", "json"])],
    *[["verify", "--class", cls, "--in", f"{u}_mutant.f2elt", *fmt]
      for cls, u in (("h0d0", "u14"), ("h2e0", "u20"), ("h1h4c0", "u24"))
      for fmt in ([], ["--format", "json"])],
    ["verify", "--class", "h2e0", "--in", "u20.f2elt", "--format", "json"],
    ["verify", "--class", "h0d0", "--in", "mixed.f2elt"],
    ["primitive-basis", "--rank", "5", "--deg", "9"],
    ["primitive-basis", "--rank", "4", "--deg", "7", "--format", "json"],
    ["transfer-image", "--s", "5", "--deg", "14"],
    ["transfer-image", "--s", "5", "--deg", "9", "--format", "json"],
    *[cmd + ["--in", f"{u}.f2elt"]
      for u in ("u14", "u20", "u24")
      for cmd in (["primitive-check"], ["primitive-check", "--format", "json"],
                  ["steenrod", "--deg", "4"], ["steenrod", "--deg", "1"],
                  ["psi"], ["psi", "--rank", "5"])],
    ["primitive-check", "--in", "u14_mutant.f2elt"],
    ["find-preimage", "--s", "5", "--in", "h0.f2elt"],
    ["find-preimage", "--s", "1", "--in", "h0.f2elt", "--format", "json"],
    ["find-preimage", "--s", "3", "--in", "c0.f2elt"],
    ["find-preimage", "--s", "3", "--in", "c0.f2elt", "--format", "json"],
    *[["find-preimage", "--s", "5", "--in", name, *fmt]
      for name in PRODUCTS for fmt in ([], ["--format", "json"])],
    ["normalize", "--in", "h0.f2elt"],
    ["normalize", "--in", "chains.f2elt"],
    ["normalize", "--in", "chains.f2elt", "--format", "json"],
    ["homology", "--s", "5", "--deg", "14", "--format", "json"],
    *[["homology", "--s", s, "--deg", d, *fmt]
      for s, d in (("5", "20"), ("5", "24"), ("4", "20"), ("6", "30"))
      for fmt in ([], ["--format", "json"])],
    # the t = s + d = 21 diagonal, the last of the benchmark's chart
    *[["homology", "--s", str(s), "--deg", str(21 - s)] for s in range(22)],
    # s > d: the basis of (d, d) padded with zeros, and its rank
    ["homology", "--s", "12", "--deg", "5"],
    ["homology", "--s", "6", "--deg", "6"],
    ["homology", "--s", "9", "--deg", "4", "--format", "json"],
    ["basis", "--s", "9", "--deg", "4"],
    ["basis", "--s", "6", "--deg", "12", "--format", "json"],
    ["transfer-image", "--s", "5", "--deg", "20"],
    ["primitive-basis", "--rank", "5", "--deg", "14", "--format", "json"],
    ["primitive-basis", "--rank", "4", "--deg", "30"],
    ["transfer-image", "--s", "4", "--deg", "14", "--format", "json"],
    ["transfer-image", "--s", "4", "--deg", "17"],
    ["find-preimage", "--s", "4", "--in", "d0.f2elt"],
    # g1 at (4,20) is a nonzero class outside the image of Tr_4
    *[["find-preimage", "--s", "4", "--in", "g1.f2elt", *fmt]
      for fmt in ([], ["--format", "json"])],
    # primitive_basis re-checks 965 and 641 kernel vectors here
    ["transfer-image", "--s", "5", "--deg", "22", "--format", "json"],
    ["primitive-basis", "--rank", "5", "--deg", "20"],
    *[[cmd, "--in", name, *fmt]
      for cmd in ("diff", "sq0")
      for name in ("admissible.f2elt", "blend.f2elt")
      for fmt in ([], ["--format", "json"])],
    *[["basis", "--s", s, "--deg", d]
      for s, d in (("3", "7"), ("6", "20"), ("0", "3"), ("4", "0"))],
    # bases of at most three letters, the sizes the suffix tables hold
    ["basis", "--s", "2", "--deg", "9", "--format", "json"],
    ["basis", "--s", "3", "--deg", "12"],
    ["basis", "--s", "1", "--deg", "0"],
    *[["normalize", "--in", name] for name in MALFORMED],
    *[["psi", "--in", name] for name in MALFORMED],
    ["psi", "--rank", "3", "--in", "mixed.f2elt"],
    # the argument layer: help, usage errors, the basis guard and --force
    ["--help"],
    *[[name, "--help"]
      for name in ("normalize", "diff", "basis", "homology", "sq0", "steenrod",
                   "primitive-check", "primitive-basis", "psi", "verify",
                   "transfer-image", "find-preimage")],
    [],
    ["frobnicate"],
    ["basis", "--deg", "3"],
    ["homology", "--s", "1", "--deg", "2", "--format", "xml"],
    ["basis", "--s", "7", "--deg", "40"],
    ["primitive-basis", "--rank", "7", "--deg", "40"],
    ["transfer-image", "--s", "5", "--deg", "100"],
    ["basis", "--s", "2", "--deg", "3", "--force"],
]


def write_inputs(tree: str, workdir: str) -> None:
    def catalog_text(name: str) -> str:
        path = os.path.join(tree, "ltk", "catalog_data", f"{name}.f2elt")
        with open(path, encoding="utf-8") as fh:
            return fh.read()

    files = {f"{name}.f2elt": catalog_text(name) for name in CATALOG_INPUTS}
    for u in ("u14", "u20", "u24"):
        files[f"{u}_mutant.f2elt"] = _mutant(files[f"{u}.f2elt"])
    for file, (name, letters) in PRODUCTS.items():
        files[file] = catalog_text(name).replace("]", letters + "]")
    files.update(MALFORMED, **{"chains.f2elt": CHAINS, "admissible.f2elt": ADMISSIBLE,
                               "blend.f2elt": BLEND, "mixed_degree.f2elt": MIXED_DEGREE,
                               "zero.f2elt": ZERO, "mixed_lambda.f2elt": MIXED_LAMBDA,
                               "unit.f2elt": UNIT})
    for name, text in files.items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)


def run(tree: str, argv: list[str], workdir: str
        ) -> tuple[Optional[tuple[int, str, str]], float]:
    """The command's exit code, stdout and stderr, or None if it ran past
    TIMEOUT_S, and its wall seconds."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(tree))
    start = time.perf_counter()
    try:
        done = subprocess.run([sys.executable, "-c", RUN, *argv], cwd=workdir, env=env,
                              stdin=subprocess.DEVNULL, capture_output=True,
                              text=True, encoding="utf-8", timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, time.perf_counter() - start
    return (done.returncode, done.stdout, done.stderr), time.perf_counter() - start


def startup(trees: list[str]) -> list[Optional[tuple[int, float]]]:
    """For each tree, the modules that importing ltk and ltk.cli loads
    beyond a bare `python -S`, and the best wall seconds of STARTUPS
    interpreters that do that; None if one of them failed or timed out."""
    best: list[Optional[tuple[int, float]]] = [(0, float("inf"))] * len(trees)
    for _ in range(STARTUPS):
        for i, tree in enumerate(trees):
            if best[i] is None:
                continue
            env = dict(os.environ, PYTHONPATH=os.path.abspath(tree))
            start = time.perf_counter()
            try:
                done = subprocess.run([sys.executable, "-S", "-c", STARTUP], env=env,
                                      stdin=subprocess.DEVNULL, capture_output=True,
                                      text=True, timeout=TIMEOUT_S)
            except subprocess.TimeoutExpired:
                best[i] = None
                continue
            seconds = time.perf_counter() - start
            best[i] = None if done.returncode else (int(done.stdout),
                                                    min(best[i][1], seconds))
    return best


def _startup_text(result: Optional[tuple[int, float]]) -> str:
    return "failed" if result is None else f"{result[0]} modules, best {result[1]:.4f} s"


def _diff(label: str, old: str, new: str) -> list[str]:
    return list(difflib.unified_diff(old.splitlines(), new.splitlines(),
                                     f"old {label}", f"new {label}", lineterm=""))


def _lines(tree: str) -> int:
    """The number of lines in the tree's ltk/*.py."""
    total = 0
    for path in glob.glob(os.path.join(tree, "ltk", "*.py")):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


# tokens that hold no code of their own
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _code_lines(tree: str) -> int:
    """The number of code lines in the tree's ltk/*.py: lines that hold a
    token, less the lines of docstrings.  A string that spans lines holds
    each of them."""
    total = 0
    for path in glob.glob(os.path.join(tree, "ltk", "*.py")):
        with open(path, "rb") as fh:
            lines = {n for tok in tokenize.tokenize(fh.readline) if tok.type not in LAYOUT
                     for n in range(tok.start[0], tok.end[0] + 1)}
            fh.seek(0)
            module = ast.parse(fh.read())
        for node in ast.walk(module):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)) and ast.get_docstring(node, False):
                doc = node.body[0]
                lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
        total += len(lines)
    return total


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    old_tree, new_tree = argv
    differ, old_s, new_s = 0, 0.0, 0.0
    with tempfile.TemporaryDirectory() as workdir:
        write_inputs(old_tree, workdir)
        for cmd in COMMANDS:
            old, old_t = run(old_tree, cmd, workdir)
            new, new_t = run(new_tree, cmd, workdir)
            old_s += old_t
            new_s += new_t
            # a command that timed out differs, even from another timeout
            if old == new and old is not None:
                continue
            differ += 1
            print(f"DIFFERS: ltk {' '.join(cmd)}")
            if old is None or new is None:
                for label, result in (("old", old), ("new", new)):
                    if result is None:
                        print(f"  {label} timed out after {TIMEOUT_S} s")
                continue
            if old[0] != new[0]:
                print(f"  exit code {old[0]} -> {new[0]}")
            for label, a, b in (("stdout", old[1], new[1]), ("stderr", old[2], new[2])):
                for line in _diff(label, a, b):
                    print("  " + line)
    print(f"{len(COMMANDS)} commands, {differ} differ")
    print(f"wall seconds, all commands: old {old_s:.2f}, new {new_s:.2f}")
    print(f"lines in ltk/*.py: old {_lines(old_tree)}, new {_lines(new_tree)}")
    print(f"code lines in ltk/*.py: old {_code_lines(old_tree)}, "
          f"new {_code_lines(new_tree)}")
    old_start, new_start = map(_startup_text, startup([old_tree, new_tree]))
    print(f"start-up, import ltk, ltk.cli under python -S: old {old_start}; "
          f"new {new_start}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
