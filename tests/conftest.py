import sys

import numpy as np
import pytest

from bargmann import numkernel
from bargmann.states import validate_state


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


@pytest.fixture
def near_degenerate_trio():
    """[R, X, Y]: R's minimum eigengap 2e-8 passes ``GAP_TOL``; X and Y are
    I/4 plus a real (X) or imaginary (Y) 0.2 in the block where R is nearly
    degenerate, so each has gap 1.6e-17 with R but X and Y do not commute."""
    r = np.diag([0.4, 0.3 + 2e-8, 0.3, 0.0]).astype(complex)
    x = np.eye(4, dtype=complex) / 4
    x[1, 2] = x[2, 1] = 0.2
    y = np.eye(4, dtype=complex) / 4
    y[1, 2], y[2, 1] = 0.2j, -0.2j
    return [validate_state(r / np.trace(r).real), validate_state(x), validate_state(y)]
