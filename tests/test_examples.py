"""Every worked example under ``examples/`` runs to completion.

The examples are written against the public API, so running each
``main()`` here turns a renamed or deleted public name into a test
failure instead of a broken example.
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted(
    (Path(__file__).resolve().parent.parent / "examples").glob("*.py")
)


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(
        f"example_{path.stem}", path,
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_examples_found():
    assert len(EXAMPLES) >= 4


@pytest.mark.parametrize("path", EXAMPLES, ids=[p.stem for p in EXAMPLES])
def test_example_main_runs(path, capsys):
    _load(path).main()
    assert capsys.readouterr().out.strip()
