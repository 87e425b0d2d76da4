"""The README's library example runs and prints what the README says."""

import contextlib
import io
import re
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_example():
    """The python block under "## Library example"."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_prints_what_the_readme_documents():
    code = _library_example()
    # the outputs the README documents, as comments on its print lines
    documented = re.findall(r"^print\(.*\)\s+# (.+)$", code, re.M)
    assert documented == ["-1", "EXACT-SIGMA"]
    namespace, out = {}, io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), namespace)
    printed = out.getvalue().splitlines()
    assert printed[:2] == documented
    g, report = namespace["g"], namespace["report"]
    assert type(g.valuation(2)) is Fraction
    assert type(report.profile.v_m) is Fraction
    assert type(report.disc.v_radius) is Fraction
