"""The package's public surface equals its callers.

Every public ``def`` and ``class`` of ``src/ddcauchy`` (module level or
in a class body; private and dunder names exempt) must be named, as a
whole word, in the code of some ``src`` module outside its own
definition line, or anywhere in ``perfbench/``, which wraps package
functions by their names as strings.  Names that only the tests use
belong in ``tests/``, the reference implementations in
``tests/oracles.py``.
"""

import ast
import collections
import io
import os
import pathlib
import re
import subprocess
import sys
import tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ddcauchy"


def _public_defs(tree):
    """(qualified name, name, line) of the public module- and class-level
    defs and classes, methods of private classes included."""
    out, todo = [], [("", node) for node in tree.body]
    while todo:
        owner, node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            if not node.name.startswith("_"):
                out.append((owner + node.name, node.name, node.lineno))
            if isinstance(node, ast.ClassDef):
                todo.extend((f"{owner}{node.name}.", child)
                            for child in node.body)
    return out


def test_every_public_name_has_a_caller_outside_the_tests():
    sources = {path: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    # identifier tokens only: strings and comments are not code
    lines = collections.defaultdict(set)  # name -> {(path, line)}
    for path, text in sources.items():
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type == tokenize.NAME:
                lines[tok.string].add((path, tok.start[0]))
    bench = "\n".join(path.read_text()
                      for path in sorted((ROOT / "perfbench").glob("*.py")))
    unused = []
    for path, text in sources.items():
        for qualname, name, line in _public_defs(ast.parse(text)):
            if (lines[name] <= {(path, line)}
                    and not re.search(rf"\b{name}\b", bench)):
                unused.append(f"{path.stem}.{qualname}")
    assert not unused, ("public names no src module and no perfbench "
                        "file calls: " + ", ".join(sorted(unused)))


def test_benchmark_loads_the_acceptance_module_alone(tmp_path):
    """perfbench imports ``tests/test_acceptance.py`` by its path with
    only ``src/`` and ``perfbench/`` on ``sys.path``: the module must load
    without ``conftest``, ``oracles`` or ``golden``, and every name that
    ``workloads.py`` reads from it must resolve."""
    read = set(re.findall(r"\bacc\.(\w+)",
                          (ROOT / "perfbench" / "workloads.py").read_text()))
    assert read >= {"test_criterion_04_iteration_robustness",
                    "test_criterion_06_fig7_rates",
                    "test_criterion_07_fig8_rates",
                    "test_criterion_08_data_fidelity_rate",
                    "NEG_SEPARATION", "SPECTRUM_A_FROZEN",
                    "SPECTRUM_B_FROZEN", "SPECTRUM_C_FROZEN"}
    script = ("import sys, workloads\n"
              "acc = workloads.load_acceptance(sys.argv[1])\n"
              "print(*[n for n in sys.argv[2:] if not hasattr(acc, n)])\n")
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    run = subprocess.run(
        [sys.executable, "-c", script, str(ROOT), *sorted(read)],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == [], f"unresolved: {run.stdout}"
