"""Print the line count of each module under src/steinv and their total,
the figure the benchmark reports as `src.lines`.

The worktree is counted by perfbench/run.py's own counter, so both tools
give the same figures.  With --ref REV the counts at the git revision REV,
read through `git show`, and the change per module are printed beside
them.  pytest does not collect this file, and it needs nothing beyond
the standard library and git.

Usage: python tests/src_lines.py [--ref REV]
"""

import argparse
import importlib.util
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOTAL = "src.lines"


def load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def worktree_counts() -> dict:
    """{path: lines} for every module of the worktree, and their total."""
    run = load_run()
    counts = {p.relative_to(ROOT).as_posix(): run._lines(p) for p in sorted(run.SRC.rglob("*.py"))}
    counts[TOTAL] = sum(counts.values())
    return counts


def ref_counts(rev: str) -> dict:
    """{path: lines} for every module at the git revision rev, and their total."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                              text=True, encoding="utf-8").stdout

    paths = git("ls-tree", "-r", "--name-only", rev, "--", "src/steinv").splitlines()
    counts = {p: len(git("show", f"{rev}:{p}").splitlines()) for p in paths if p.endswith(".py")}
    counts[TOTAL] = sum(counts.values())
    return counts


def table(now: dict, then: dict = None, rev: str = None) -> str:
    """One row per module, the total last; with then, the counts at rev
    before the worktree's and the change after them.  A module missing
    on one side shows "-"."""
    names = sorted((now.keys() | (then or {}).keys()) - {TOTAL}) + [TOTAL]
    width = max(map(len, names))

    def row(name, *cells):
        return "  ".join([f"{name:<{width}}", *(f"{c:>8}" for c in cells)])

    if then is None:
        return "\n".join([row("module", "worktree")] + [row(n, now[n]) for n in names])
    rows = [row("module", rev, "worktree", "change")]
    for n in names:
        change = f"{now.get(n, 0) - then.get(n, 0):+d}"
        rows.append(row(n, then.get(n, "-"), now.get(n, "-"), change))
    return "\n".join(rows)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ref", help="a git revision to compare the worktree against")
    args = parser.parse_args(argv)
    try:
        then = ref_counts(args.ref) if args.ref else None
    except subprocess.CalledProcessError as e:
        parser.error(f"git cannot read {args.ref}: {e.stderr.strip()}")
    print(table(worktree_counts(), then, args.ref))


if __name__ == "__main__":
    main()
