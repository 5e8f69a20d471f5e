"""The examples in the documentation run as written.

The package docstring's quick tour and the README's ```pycon blocks go
through `doctest`, so an example whose printed output drifts from the
program fails here.
"""

import doctest
import re
from pathlib import Path

import bridgevar

README = Path(__file__).resolve().parent.parent / "README.md"


def run_examples(text, name):
    test = doctest.DocTestParser().get_doctest(text, {}, name, name, 0)
    assert test.examples, name
    report = []
    runner = doctest.DocTestRunner()
    runner.run(test, out=report.append)
    assert runner.failures == 0, "".join(report)


def test_package_quick_tour():
    run_examples(bridgevar.__doc__, "bridgevar.__doc__")


def test_readme_pycon_blocks():
    # the body of each block, without its closing fence, which doctest
    # would read as expected output
    blocks = re.findall(r"^```pycon\n(.*?)^```", README.read_text(),
                        re.M | re.S)
    assert len(blocks) >= 2
    run_examples("\n".join(blocks), "README.md")
