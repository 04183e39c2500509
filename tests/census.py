"""Reachability census: which functions under ``src/repro`` a run reaches.

    python tests/census.py                          # both passes, the report
    python tests/census.py --list never tests-only  # ... and name each one

Every Python process of a pass, subprocesses and campaign pool workers
included, records the code objects it calls: a generated
``sitecustomize`` installs a ``sys.setprofile`` hook at start-up. The
*tier-1* pass is ``pytest -x -q``; the *paper* pass runs the examples,
``repro.bench all --quick --trace``, the ``repro.obs`` CLI, four
campaigns, the ledger's quick run and the pytest benchmarks. Both run
in a scratch copy of the tree, so no tracked file is written. A failing
tier-1 run aborts the census; a failing paper command is reported and
its recorded calls kept, because the recorder's overhead can push a
host-time gate below its floor.

An ``ast`` walk lists every function definition under ``src/repro``.
Each is *paper* (the paper pass called it), *tests-only* (only tier-1
did) or *never*. The script prints the three counts per package and
exits 1 when a never-called function is missing from
``tests/census_allow.txt``, or when an entry there names a function
that is gone or now called. An entry is ``path:qualname  # reason``.
"""

import argparse
import ast
import atexit
import cProfile
import os
import shutil
import subprocess
import sys
import tempfile
import threading
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
ALLOW = REPO / "tests" / "census_allow.txt"
CAMPAIGNS = ("smoke", "sql", "sparklike", "simscale")
KINDS = ("never", "tests-only", "paper")


def record(out_dir: str) -> None:
    """Record every code object this process calls; dump them at exit."""
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    def install():
        sys.setprofile(hook)
        threading.setprofile(hook)

    # Profile.disable() clears any profile hook: keep what the profiler
    # saw, then put the recorder back
    disable = cProfile.Profile.disable

    def disable_and_reinstall(self):
        disable(self)
        seen.update(e.code for e in self.getstats()
                    if not isinstance(e.code, str))
        install()

    def dump():
        sys.setprofile(None)
        with open(os.path.join(out_dir, f"{os.getpid()}.txt"), "a") as fh:
            fh.writelines(f"{c.co_filename}:{c.co_firstlineno}:{c.co_name}\n"
                          for c in seen)

    cProfile.Profile.disable = disable_and_reinstall
    atexit.register(dump)
    install()


def _commands(tree: Path) -> dict[str, list[list[str]]]:
    py, trace = sys.executable, str(tree / "trace.json")
    paper = [[py, str(p)] for p in sorted((tree / "examples").glob("*.py"))]
    paper += [[py, "-m", "repro.bench", "all", "--quick", "--trace", trace],
              [py, "-m", "repro.obs", "validate", trace],
              [py, "-m", "repro.obs", "report", trace]]
    for name in CAMPAIGNS:
        where = ["--quick", "--workspace", str(tree / "campaigns" / name)]
        paper += [[py, "-m", "repro.campaign", "run", name, "--workers",
                   "2", "--quiet", *where],
                  [py, "-m", "repro.campaign", "aggregate", name, *where]]
    paper += [[py, "benchmarks/ledger/run.py", "--quick"],
              [py, "-m", "pytest", "-q", "benchmarks", "--benchmark-disable"]]
    return {"tier1": [[py, "-m", "pytest", "-x", "-q"]], "paper": paper}


def run_passes(tmp: Path) -> dict[str, set[tuple[str, int, str]]]:
    """Run both passes in a copy of the tree made under ``tmp``; return
    ``(path under src/repro, first line, name)`` of every call, by pass."""
    tree, site = tmp / "tree", tmp / "site"
    shutil.copytree(REPO, tree, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".hypothesis", ".pytest_cache", "campaigns"))
    site.mkdir()
    calls = {}
    for name, commands in _commands(tree).items():
        out = tmp / name
        out.mkdir()
        (site / "sitecustomize.py").write_text(
            "import importlib.util as u\n"
            f"s = u.spec_from_file_location('census', {__file__!r})\n"
            "m = u.module_from_spec(s)\ns.loader.exec_module(m)\n"
            f"m.record({str(out)!r})\n")
        path = os.pathsep.join([str(site), str(tree / "src")])
        env = dict(os.environ, PYTHONPATH=path)
        for cmd in commands:
            print(f"census[{name}]: {' '.join(cmd[1:])}", flush=True)
            code = subprocess.run(cmd, cwd=tree, env=env,
                                  stdout=subprocess.DEVNULL).returncode
            if code and name == "tier1":
                raise SystemExit(f"census: tier-1 failed (exit {code})")
            if code:
                # a host-time gate (bench_simscale's events/s floor)
                # can miss under the recorder; calls made are kept
                print(f"census[{name}]: exit {code}, calls made are "
                      "recorded", file=sys.stderr, flush=True)
        calls[name] = set()
        for dump in out.glob("*.txt"):
            for line in dump.read_text().splitlines():
                path, lineno, func = line.rsplit(":", 2)
                _, sep, rel = path.rpartition("/src/repro/")
                if sep:
                    calls[name].add((rel, int(lineno), func))
    return calls


def definitions() -> dict[tuple[str, int, str], tuple[str, int]]:
    """``(path, first line, name) -> (qualname, lines)`` for every def;
    the first line is the first decorator's, as in ``co_firstlineno``."""
    defs = {}
    root = REPO / "src" / "repro"
    for file in sorted(root.rglob("*.py")):
        rel = file.relative_to(root).as_posix()

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.FunctionDef | ast.AsyncFunctionDef):
                    first = min([child.lineno] + [d.lineno for d in
                                                  child.decorator_list])
                    qualname = prefix + child.name
                    defs[rel, first, child.name] = (
                        qualname, child.end_lineno - first + 1)
                    walk(child, qualname + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    walk(child, prefix + child.name + ".")
                else:
                    walk(child, prefix)

        walk(ast.parse(file.read_text()), "")
    return defs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--list", nargs="+", choices=KINDS, default=(),
                        help="also print each function of these kinds")
    args = parser.parse_args()
    defs = definitions()  # before the passes copy the tree
    with tempfile.TemporaryDirectory() as tmp:
        calls = run_passes(Path(tmp))
    tier1, paper = calls["tier1"], calls["paper"]

    kinds, counts, lines = {}, Counter(), Counter()
    for key, (qualname, n) in sorted(defs.items()):
        kind = ("paper" if key in paper else
                "tests-only" if key in tier1 else "never")
        name = f"{key[0]}:{qualname}"
        # a property's getter and setter share a qualname: most reached
        kinds[name] = max(kind, kinds.get(name, kind), key=KINDS.index)
        for package in (key[0].split("/")[0].removesuffix(".py"), "total"):
            counts[package, kind] += 1
            lines[package, kind] += n
    print(f"\n{'package':<12}{'never':>14}{'tests-only':>14}{'paper':>14}"
          "    functions (lines)")
    for package in sorted({p for p, _ in counts} - {"total"}) + ["total"]:
        print(f"{package:<12}" + "".join(
            f"{f'{counts[package, k]} ({lines[package, k]})':>14}"
            for k in KINDS))

    allowed = {line.split("#")[0].strip(): line
               for line in ALLOW.read_text().splitlines()
               if line.strip() and not line.startswith("#")}
    for name, kind in kinds.items():
        if kind in args.list:
            print(f"{kind:<12}{name}")
    problems = [f"never called, not on the allowlist: {name}"
                for name, kind in kinds.items()
                if kind == "never" and name not in allowed]
    problems += [f"allowlisted but {'gone' if name not in kinds else 'called'}"
                 f": {name}" for name in allowed
                 if kinds.get(name) != "never"]
    problems += [f"allowlist entry without a reason: {line}"
                 for line in allowed.values() if "#" not in line]
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
