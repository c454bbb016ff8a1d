"""Smoke test of the narrative demos: each one's imports resolve and it has a ``main``.

``run_name`` is not ``"__main__"``, so the guarded ``main()`` calls do not
run; the full demos take seconds each.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports(path):
    namespace = runpy.run_path(str(path), run_name="demo_import")
    assert callable(namespace["main"])
