"""Every ```python block of README.md runs as written."""

import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.S | re.M)
    assert blocks
    for k, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {k}", "exec"), {})
    assert capsys.readouterr().out
