"""The mutant list of ``tools/mutants.py`` stays in step with the code."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = mutants  # its dataclass resolves annotations through it
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_old_text_occurs_once(mutant):
    # The tool stops at a mutant whose old text is gone or ambiguous.
    assert (ROOT / mutant.file).read_text().count(mutant.old) == 1
