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
included.  Standard library only.
"""

from __future__ import annotations

import difflib
import os
import subprocess
import sys
import tempfile
import time

RUN = "import sys; from ltk.cli import run; sys.exit(run(sys.argv[1:]))"
TIMEOUT_S = 600

# input files written into the working directory; catalog entries are
# read from the first tree's catalog_data
CATALOG_INPUTS = ("u14", "u20", "u24", "h0", "c0", "d0")
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


def _mutant(text: str) -> str:
    """The catalog text with its first term deleted."""
    return " + ".join(text.split("+")[1:]).strip()


COMMANDS: list[list[str]] = [
    *[["verify", "--class", cls, *fmt]
      for cls in ("h0d0", "h2e0", "h1h4c0")
      for fmt in ([], ["--format", "json"])],
    ["verify", "--class", "h0d0", "--in", "u14_mutant.f2elt"],
    ["verify", "--class", "h0d0", "--in", "u14_mutant.f2elt", "--format", "json"],
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
    ["transfer-image", "--s", "5", "--deg", "20"],
    ["primitive-basis", "--rank", "5", "--deg", "14", "--format", "json"],
    ["primitive-basis", "--rank", "4", "--deg", "30"],
    ["transfer-image", "--s", "4", "--deg", "14", "--format", "json"],
    ["transfer-image", "--s", "4", "--deg", "17"],
    ["find-preimage", "--s", "4", "--in", "d0.f2elt"],
    *[[cmd, "--in", name, *fmt]
      for cmd in ("diff", "sq0")
      for name in ("admissible.f2elt", "blend.f2elt")
      for fmt in ([], ["--format", "json"])],
    *[["basis", "--s", s, "--deg", d]
      for s, d in (("3", "7"), ("6", "20"), ("0", "3"), ("4", "0"))],
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
    files["u14_mutant.f2elt"] = _mutant(files["u14.f2elt"])
    for file, (name, letters) in PRODUCTS.items():
        files[file] = catalog_text(name).replace("]", letters + "]")
    files.update(MALFORMED, **{"chains.f2elt": CHAINS, "admissible.f2elt": ADMISSIBLE,
                               "blend.f2elt": BLEND})
    for name, text in files.items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)


def run(tree: str, argv: list[str], workdir: str) -> tuple[tuple[int, str, str], float]:
    """The command's exit code, stdout and stderr, and its wall seconds."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(tree))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", RUN, *argv], cwd=workdir, env=env,
                          stdin=subprocess.DEVNULL, capture_output=True,
                          text=True, encoding="utf-8", timeout=TIMEOUT_S)
    return (done.returncode, done.stdout, done.stderr), time.perf_counter() - start


def _diff(label: str, old: str, new: str) -> list[str]:
    return list(difflib.unified_diff(old.splitlines(), new.splitlines(),
                                     f"old {label}", f"new {label}", lineterm=""))


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
            if old == new:
                continue
            differ += 1
            print(f"DIFFERS: ltk {' '.join(cmd)}")
            if old[0] != new[0]:
                print(f"  exit code {old[0]} -> {new[0]}")
            for label, a, b in (("stdout", old[1], new[1]), ("stderr", old[2], new[2])):
                for line in _diff(label, a, b):
                    print("  " + line)
    print(f"{len(COMMANDS)} commands, {differ} differ")
    print(f"wall seconds, all commands: old {old_s:.2f}, new {new_s:.2f}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
