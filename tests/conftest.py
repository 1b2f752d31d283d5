import sys

import pytest

from bargmann import numkernel


@pytest.fixture
def scan_calls(monkeypatch):
    """List that grows by one per ``as_complex_matrix`` call.

    The counting wrapper replaces the function under every name that binds it
    in a ``bargmann`` module, so an import such as
    ``from .numkernel import as_complex_matrix`` is counted too.
    """
    original = numkernel.as_complex_matrix
    calls = []

    def counting(a):
        calls.append(1)
        return original(a)

    for name, module in list(sys.modules.items()):
        if name == "bargmann" or name.startswith("bargmann."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return calls
