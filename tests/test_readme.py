"""The README's "Quick tour" runs as a doctest.

Only the `>>>` lines inside the fenced block count: run over the whole
file, doctest would read the closing fence as expected output.
"""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_tour() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick tour", 1)[1]
    match = re.search(r"^```python\n(.*?)^```$", section, re.M | re.S)
    assert match, "the Quick tour has no ```python block"
    return match.group(1)


def test_quick_tour():
    block = _quick_tour()
    test = doctest.DocTestParser().get_doctest(block, {}, "README.md",
                                               str(README), 0)
    assert test.examples
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert runner.summarize(verbose=False).failed == 0
