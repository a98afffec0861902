"""Line counts of each module of the lifisim package.

Prints two counts per module and their totals: `wc -l`, every line of
the file, and code lines, the lines that hold any token other than a
comment or a docstring. A docstring is a string literal that forms a
statement on its own. Blank lines count only under `wc -l`. Uses the
standard library only.

    python3 tools/count_lines.py              # src/lifisim
    python3 tools/count_lines.py path/to/pkg  # another directory
"""

import sys
import tokenize
from pathlib import Path

#: Tokens that put no code on their lines.
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
#: Tokens after which a new statement begins.
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}


def code_lines(path):
    """Number of lines of the Python file path that hold code."""
    with open(path, "rb") as fh:
        tokens = list(tokenize.tokenize(fh.readline))
    lines = set()
    start = True
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok.type in _LAYOUT:
            start = start or tok.type in _STATEMENT_START
            i += 1
            continue
        if start and tok.type == tokenize.STRING:
            # a string statement: strings, comments and line breaks up to
            # the end of the statement
            j = i
            while tokens[j].type in (tokenize.STRING, tokenize.NL,
                                     tokenize.COMMENT):
                j += 1
            if tokens[j].type in (tokenize.NEWLINE, tokenize.ENDMARKER):
                i = j
                continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
        start = False
        i += 1
    return len(lines)


def main(argv):
    root = Path(argv[1]) if len(argv) > 1 else (
        Path(__file__).resolve().parent.parent / "src" / "lifisim")
    total_wc = total_code = 0
    print(f"{'module':<20} {'wc -l':>7} {'code':>7}")
    for path in sorted(root.glob("*.py")):
        with open(path, "rb") as fh:
            wc = fh.read().count(b"\n")
        code = code_lines(path)
        total_wc += wc
        total_code += code
        print(f"{path.name:<20} {wc:>7} {code:>7}")
    print(f"{'total':<20} {total_wc:>7} {total_code:>7}")


if __name__ == "__main__":
    main(sys.argv)
