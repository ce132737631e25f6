"""The README's Python tour runs as written against the package."""

import os
import re

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")


def test_readme_tour_runs():
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    assert len(namespace["reg"].members()) == 4
