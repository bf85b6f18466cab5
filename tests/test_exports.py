"""Every name a module lists in `__all__` resolves, so `from module import *` works."""
import importlib

import pytest


@pytest.mark.parametrize("module", [
    "inertbarrier", "inertbarrier.cli", "inertbarrier.gamma", "inertbarrier.harness",
    "inertbarrier.io", "inertbarrier.meanfield", "inertbarrier.particles",
])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
