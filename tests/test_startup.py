"""Start-up budget: only the sampling paths load numpy and the process pool,
and no import loads the dataclasses or typing machinery.

Each check runs a fresh interpreter, since the test process itself has long
imported numpy.
"""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import degcount

SRC = str(Path(degcount.__file__).resolve().parents[1])

HEAVY = ("numpy", "concurrent.futures", "multiprocessing")

# what `dataclasses` and `typing` pull in; site preloads typing on some
# installs, so that check runs under python -S
INTROSPECTION = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing")

# one run of every command that counts or estimates; none of them samples
COUNTING = [
    ["count-exact", "--degrees", "1,3", "--n", "20", "--m", "20"],
    ["count-exact", "--degrees", "3", "--n", "3", "--m", "4"],
    ["count-asymptotic", "--degrees", "min=2", "--n", "1000", "--m", "1500"],
    ["sg-estimate", "--degrees", "even", "--n", "1000", "--m", "500"],
    ["marked", "--degrees", "even", "--n", "8", "--m", "4",
     "--u", "-1", "--v", "-1"],
    ["marked", "--degrees", "1,3", "--n", "3", "--m", "5"],
    ["report", "--degrees", "even", "--n", "16", "--m", "8", "--steps", "2"],
]


def python(code: str, *flags: str) -> subprocess.CompletedProcess:
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, *flags, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


def test_imports_leave_numpy_and_the_pool_unloaded():
    proc = python("import sys, degcount, degcount.cli\n"
                  f"print(*[m for m in {HEAVY!r} if m in sys.modules])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_imports_leave_dataclasses_and_typing_unloaded():
    proc = python("import sys, degcount, degcount.cli\n"
                  f"print(*[m for m in {INTROSPECTION!r} "
                  "if m in sys.modules])", "-S")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_package_holds_only_modules_the_library_imports():
    # test-only code, such as the brute-force oracle, lives under tests/
    names = [f"degcount.{m.name}" for m in pkgutil.iter_modules(degcount.__path__)]
    proc = python("import sys, degcount, degcount.cli\n"
                  f"print(*[m for m in {names!r} if m not in sys.modules])")
    assert proc.returncode == 0, proc.stderr
    assert "degcount.cli" in names and proc.stdout.split() == []


@pytest.mark.parametrize("argv", COUNTING,
                         ids=lambda a: f"{a[0]}-{a[2]}-n{a[4]}")
def test_counting_commands_run_without_numpy(argv):
    run = f"from degcount.cli import main; sys.exit(main({argv!r}))"
    with_numpy = python("import sys; " + run)
    without = python("import sys; sys.modules['numpy'] = None; " + run)
    assert without.stderr == with_numpy.stderr == ""
    assert without.returncode == with_numpy.returncode
    assert without.stdout == with_numpy.stdout


def test_multigraph_text_round_trip_without_numpy():
    proc = python(
        "import sys; sys.modules['numpy'] = None\n"
        "from degcount.multigraph import Multigraph\n"
        "g = Multigraph(4, [(3, 1), (2, 2), (1, 3), (4, 2)])\n"
        "text = g.to_text()\n"
        "assert text == '4 4\\n1 3\\n1 3\\n2 2\\n2 4\\n', text\n"
        "assert Multigraph.from_text(text) == g\n"
        "assert Multigraph.from_text(text).to_text() == text\n"
        "print('ok')")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ok"]
