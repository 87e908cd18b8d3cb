"""The README's Python example runs against the installed package."""
import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def test_readme_python_examples_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
