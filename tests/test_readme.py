"""The README's Library example runs as written and shows the values it states."""

import os
import re

from etaforms import basis
from etaforms.basis import BasisCache

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_library_example(monkeypatch):
    with open(README, encoding="utf-8") as fh:
        [block] = re.findall(r"## Library\n\n```python\n(.*?)```", fh.read(), re.S)
    # the example uses the shared default cache; a fresh one keeps other tests' history out
    monkeypatch.setattr(basis, "_default_cache", BasisCache())
    names = {}
    exec(block, names)
    assert names["psi"].pretty(max_terms=4) == "q^-1 + 6q + 4q^2 - 3q^3"
    assert names["elem"].expansion.pretty(max_terms=3) == "q^-2 + 8q + 30q^2"
    assert names["elem"].haupt_poly == (-12, 0, 1)
    assert names["a_coeff"](6, 0, 1, 2) == 4
    assert names["report"].passed
    assert names["rows"] and all(row.status != "fail" for row in names["rows"])
