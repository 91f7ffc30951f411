"""The ```python blocks of README.md run as doctests.

Each block is parsed on its own: read as one text, the closing fence of a
block would count as the expected output of its last example.
"""

import doctest
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCK = re.compile(r"^```python\n(.*?)^```", re.M | re.S)


def _blocks():
    text = README.read_text()
    return [(text.count("\n", 0, m.start()) + 1, m.group(1))
            for m in BLOCK.finditer(text)]


BLOCKS = _blocks()


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("line, block", BLOCKS,
                         ids=[f"block{i}" for i in range(1, len(BLOCKS) + 1)])
def test_readme_block(line, block):
    test = doctest.DocTestParser().get_doctest(
        block, {}, f"README.md:{line}", str(README), line)
    runner = doctest.DocTestRunner(optionflags=doctest.ELLIPSIS)
    runner.run(test)
    result = runner.summarize(verbose=False)
    assert result.attempted > 0 and result.failed == 0
