import ast
from pathlib import Path

import chernpol
from chernpol import chern, rising


def test_no_assert_statements():
    # python -O strips asserts, so checks in the package must raise instead
    for path in Path(chernpol.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        found = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Assert)]
        assert not found, f"{path.name}: assert at lines {found}"


def test_one_out_of_domain_error():
    assert chern.OutOfDomainError is rising.OutOfDomainError
