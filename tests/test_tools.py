"""The scripts under ``tools/``."""

import os
import subprocess
import sys
from pathlib import Path

import toeplitzlda

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(toeplitzlda.__file__).resolve().parent.parent


def test_ab_fit_runs_one_round_with_this_checkout_on_both_sides():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_fit.py"), str(SRC), str(SRC),
         "--workload", "sweep-cli", "--rounds", "1"],
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    head, *rows = done.stdout.splitlines()
    assert head.startswith("sweep-cli (8 x 20, N_e = 96) toeplitz, 1 alternating rounds")
    sides = [row.split() for row in rows]
    assert [side[0] for side in sides] == ["parent", "change"]
    for side in sides:
        q1, median, q3 = map(float, side[1:4])
        assert 0.0 < q1 == median == q3  # one round: one time per side
    assert sum(int(side[-1]) for side in sides) <= 1


def line_count_rows(package: Path) -> dict[str, tuple[int, int]]:
    """``<module>: (lines, code lines)`` as ``tools/line_count.py`` prints them."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "line_count.py"), str(package)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()]
    return {name: (int(lines), int(code)) for name, lines, code in rows}


def test_line_count_sums_its_modules_and_counts_no_docstring_as_code(tmp_path):
    # On the package: the module rows sum to the total row, and no module
    # has more code lines than lines.
    package = Path(toeplitzlda.__file__).resolve().parent
    rows = line_count_rows(package)
    total = rows.pop("total")
    assert sorted(rows) == sorted(path.stem for path in package.glob("*.py"))
    assert tuple(map(sum, zip(*rows.values()))) == total
    assert all(0 <= code <= lines for lines, code in [*rows.values(), total])
    assert all(code > 0 for name, (_, code) in rows.items() if name != "__init__")
    # A string that is a statement on its own is no code; one in an
    # expression is.
    (tmp_path / "only_doc.py").write_text('"""A docstring\n\nover three lines."""\n')
    (tmp_path / "mixed.py").write_text(
        '"""Module docstring."""\n'
        "\n"
        "x = (1,  # a comment\n"
        "     2)\n"
        '"""A string statement on its own."""\n'
        "def f():\n"
        '    """Doc\n'
        '    string."""\n'
        '    return x + ("not",\n'
        '                """a docstring""")\n'
    )
    rows = line_count_rows(tmp_path)
    assert rows["only_doc"] == (3, 0)
    # Lines 3-4, 6 and 9-10 hold code; 1, 5 and 7-8 are docstrings.
    assert rows["mixed"] == (10, 5)
    assert rows["total"] == (13, 5)
