"""The python examples of README.md run, and print what their comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
# print(...)  # value  or  # value: explanation
PRINTED = re.compile(r"^print\(.*\)\s+# (.*?)(?::\s.*)?$")


def test_readme_examples_print_their_comments():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 2
    want = [m.group(1) for block in blocks for line in block.splitlines()
            if (m := PRINTED.match(line))]
    out = io.StringIO()
    namespace: dict = {}
    with contextlib.redirect_stdout(out):
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
    assert out.getvalue().splitlines() == want == ["(2, 2)", "2 (1, 1)", "[(0, 0), (1, 0)]"]
