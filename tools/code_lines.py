"""Count the code lines of Python modules.

    python3 tools/code_lines.py [PATH]...

A code line is a line that holds part of a token other than a comment or a
docstring; blank lines, comment lines and docstring lines are left out. A
docstring is a string literal that forms a statement of its own, as the
first statement of a module, class or function does. Each PATH is a ``.py``
file or a directory, whose ``.py`` files are counted recursively (default:
``src/fwdsim``). Prints one line per module, then the total. Stdlib only.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

# Tokens that carry no code of their own: layout and the file's ends.
_LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}
# Tokens after which a string literal starts a statement.
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
                    tokenize.ENCODING}


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    tokens = [tok for tok in tokenize.generate_tokens(io.StringIO(source).readline)
              if tok.type not in (tokenize.COMMENT, tokenize.NL)]   # no code
    lines = set()
    prev = tokenize.ENCODING
    for i, tok in enumerate(tokens):
        after = tokens[i + 1].type if i + 1 < len(tokens) else tokenize.ENDMARKER
        docstring = (tok.type == tokenize.STRING and prev in _STATEMENT_START
                     and after in (tokenize.NEWLINE, tokenize.ENDMARKER))
        if tok.type not in _LAYOUT and not docstring:
            lines.update(range(tok.start[0], tok.end[0] + 1))
        prev = tok.type
    return len(lines)


def modules(paths: list[str]) -> list[Path]:
    """The ``.py`` files named by ``paths``, directories searched recursively."""
    found = []
    for name in paths:
        path = Path(name)
        found += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return found


def main(argv: list[str] | None = None) -> int:
    total = 0
    for path in modules(argv or ["src/fwdsim"]):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
