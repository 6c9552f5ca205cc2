"""The README's library tour runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"

# "<expr>  # <value>": an expression, two or more spaces, and its value
VALUE_LINE = re.compile(r"^(\S.*?)\s{2,}# (.+)$")


def test_library_tour_values():
    block = re.search(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S).group(1)
    lines, checked = [], 0
    for line in block.splitlines():
        match = VALUE_LINE.match(line)
        if match:
            expr, value = match.groups()
            line = f"assert ({expr}) == ({value}), {line!r}"
            checked += 1
        lines.append(line)
    assert checked >= 4
    exec(compile("\n".join(lines), str(README), "exec"), {})
