"""Source lints over the test suites."""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_no_test_bypasses_a_constructor():
    """No test builds an object through object.__new__ or object.__setattr__:
    an object its constructor would refuse reaches only guards that no valid
    object reaches, and keeps such dead guards alive."""
    offenders = []
    for path in sorted([*REPO.glob("tests/*.py"), *REPO.glob("perfbench/*.py")]):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Attribute) and node.attr in ("__new__", "__setattr__")
                    and isinstance(node.value, ast.Name) and node.value.id == "object"):
                offenders.append(f"{path.relative_to(REPO)}:{node.lineno}")
    assert offenders == []
