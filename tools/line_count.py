"""Count the lines of the package, per module and in total.

Prints ``<module> <lines> <code lines>`` for each module of
``src/toeplitzlda`` and a ``total`` row.  A code line holds a token of
the program: blank lines, comments and docstrings (a string that is a
statement on its own) are not code.

    python tools/line_count.py [package directory]
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "toeplitzlda"
#: Tokens that hold no program text.
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """The number of lines of ``path`` that hold a token of the program."""
    lines, statement = set(), []
    with path.open("rb") as source:
        for token in tokenize.tokenize(source.readline):
            if token.type in _LAYOUT:
                if token.type == tokenize.NEWLINE:
                    docstring = len(statement) == 1 and statement[0].type == tokenize.STRING
                    if not docstring:
                        for tok in statement:
                            lines.update(range(tok.start[0], tok.end[0] + 1))
                    statement = []
                continue
            statement.append(token)
    return len(lines)


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else PACKAGE
    total_lines = total_code = 0
    for path in sorted(package.glob("*.py")):
        n_lines = len(path.read_text(encoding="utf-8").splitlines())
        n_code = code_lines(path)
        total_lines += n_lines
        total_code += n_code
        print(f"{path.stem} {n_lines} {n_code}")
    print(f"total {total_lines} {total_code}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
