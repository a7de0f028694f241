"""Checks over the package's source text: every function it defines is used
by some workflow, and every file parses under the oldest supported Python."""

import ast
import sys
from pathlib import Path

import pytest

import pitchpilot
from pitchpilot.cli import main
from pitchpilot.engine import LoopConfig, Scenario, stability_probe

PACKAGE = Path(pitchpilot.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
OLDEST_PYTHON = (3, 10)   # pyproject.toml: requires-python = ">=3.10"


def _defs(path):
    """{(file, first line of the code object): qualified name} for every
    `def` in `path`.  A decorated function's code starts at its first
    decorator."""
    found = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = f"{prefix}{child.name}."
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([child.lineno]
                           + [d.lineno for d in child.decorator_list])
                found[str(path), line] = f"{path.stem}.{name[:-1]}"
            visit(child, name)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def test_every_function_is_reached_by_a_workflow(tmp_path, capsys):
    """Each CLI workflow and the stability probe, run once under a profile
    hook, enter every `def` in the package.  Code that only runs at import
    (module and class bodies) does not count."""
    defs = {}
    for path in sorted(PACKAGE.glob("*.py")):
        defs.update(_defs(path))
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno))

    def out(name):
        return ["--out", str(tmp_path / name)]

    short = ["--duration", "0.3"]
    runs = [
        ["simulate", *out("simulate"), *short,
         "--set", "loop.disturbance.amplitude=0.5"],
        ["ab", *out("ab"), *short],
        ["size", *out("size")],
        ["sweep", *out("sweep"), *short, "--values", "1:2,15"],
        # 0.5 s: a run of 501 rows fills a 250-row batch, so the tuner's
        # cost bound is entered.
        ["tune", *out("tune"), "--duration", "0.5", "--max-evals", "8"],
        ["metrics", "--trace", str(tmp_path / "ab" / "trace_a.csv")],
        ["simulate", *out("diverged"), "--no-noise", "--duration", "0.35",
         "--set", "loop.compensator.a=1e100"],
    ]
    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        codes = [main(argv) for argv in runs]
        stability_probe(LoopConfig(), Scenario(duration=0.3), [0.1, 0.3])
    finally:
        sys.setprofile(previous)
    capsys.readouterr()

    assert codes == [0, 0, 0, 0, 0, 0, 3]
    entered = {(str(Path(file).resolve()), line) for file, line in entered}
    unreached = sorted(name for key, name in defs.items()
                       if key not in entered)
    assert not unreached, f"no workflow enters {unreached}"


@pytest.mark.parametrize(
    "path", sorted([*PACKAGE.glob("*.py"), *TESTS.glob("*.py")]),
    ids=lambda path: f"{path.parent.name}/{path.name}")
def test_parses_under_the_oldest_supported_python(path):
    # The interpreter running the suite may be newer; this holds the
    # source to the grammar `requires-python` promises.
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
              feature_version=OLDEST_PYTHON)
