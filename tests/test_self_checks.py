"""Self-checks stay alive under ``python -O``: the package raises typed
errors, never ``assert`` statements or bare ``AssertionError``."""

import ast
from pathlib import Path

import lindisc

SOURCES = sorted(Path(lindisc.__file__).parent.glob("*.py"))


def _raises_assertion_error(node):
    exc = node.exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_sources_found():
    assert any(path.name == "discs.py" for path in SOURCES)


def test_no_assert_statements_or_assertion_errors():
    offenders = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert) or (
                isinstance(node, ast.Raise) and _raises_assertion_error(node)
            ):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, f"use CertificateError, not assert: {offenders}"
