import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quickstart_prints_its_comments():
    # The README's python block runs as written, and each print's line of
    # output is the comment on its line, or on the comment-only line below.
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    lines = block.splitlines()
    expected = []
    for k, line in enumerate(lines):
        if line.startswith("print("):
            comment = line.partition("#")[2] or lines[k + 1].partition("#")[2]
            expected.append(comment.strip())
    assert len(expected) == 5
    assert out.getvalue().splitlines() == expected
