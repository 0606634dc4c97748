"""Print the two size measures of the package: its source lines and its
defaulted parameters.

    python tools/design_counts.py [PACKAGE_DIR]

PACKAGE_DIR defaults to src/finslerlab beside this tool.  Source lines are
the newline count of every *.py file in it, as `wc -l` gives.  A defaulted
parameter is a parameter with a default value (positional or keyword-only)
of a module-level function or of a method of a module-level class, read
from the AST; functions nested in functions and lambdas are not counted,
since no caller outside their body can set them.
"""

import ast
import sys
from pathlib import Path


def _defaults(fn):
    return len(fn.args.defaults) + sum(d is not None for d in fn.args.kw_defaults)


def defaulted_parameters(source):
    """The number of defaulted parameters of the module source."""
    count = 0
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            count += _defaults(node)
        elif isinstance(node, ast.ClassDef):
            count += sum(_defaults(sub) for sub in node.body
                         if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)))
    return count


def main(argv):
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).parent.parent / "src" / "finslerlab"
    sources = [p.read_text() for p in sorted(root.glob("*.py"))]
    print(f"src lines: {sum(s.count(chr(10)) for s in sources)}")
    print(f"defaulted parameters: {sum(defaulted_parameters(s) for s in sources)}")


if __name__ == "__main__":
    main(sys.argv)
