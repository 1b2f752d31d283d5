"""Input generators and correctness references built on numpy alone.

Nothing here imports ``bargmann``: the benchmark builds its documents and
checks the program's outputs with independent code, so a defect in the
library cannot also hide in the check.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

# Rounding in a product trace of k factors is at most about k*d*eps times the
# product of the factors' Frobenius norms; at d <= 256 that is below 1e-12 of
# the scale, so this relative bound leaves a margin of more than 1e4.
REL_TOL = 1e-10


# --------------------------------------------------------------------------
# Generators
# --------------------------------------------------------------------------

def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag)).conj()


def hermitize(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().swapaxes(-1, -2)) / 2


def ginibre_state(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = hermitize(g @ g.conj().T)
    return m / np.trace(m).real


def real_state(d: int, rng: np.random.Generator) -> np.ndarray:
    """A state with real entries, so every invariant of such states is real."""
    g = rng.standard_normal((d, d))
    m = g @ g.T
    return (m / np.trace(m)).astype(complex)


def commuting_states(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n states diagonal in one Haar-random basis, shape (n, d, d)."""
    u = haar_unitary(d, rng)
    spectra = rng.dirichlet(np.ones(d), size=n)
    return hermitize(np.einsum("ij,nj,kj->nik", u, spectra, u.conj()))


def qubit_from_bloch(r: np.ndarray) -> np.ndarray:
    x, y, z = r
    return 0.5 * np.array([[1 + z, x - 1j * y], [x + 1j * y, 1 - z]])


# --------------------------------------------------------------------------
# Documents
# --------------------------------------------------------------------------

def write_document(path: Path, mats: np.ndarray) -> None:
    """Write states in the package's document schema ([re, im] entries)."""
    mats = np.ascontiguousarray(mats, dtype=complex)
    doc = {
        "dimension": int(mats.shape[1]),
        "states": [
            {"label": f"s{i}", "matrix": m.view(float).reshape(m.shape[0], -1, 2).tolist()}
            for i, m in enumerate(mats, start=1)
        ],
    }
    path.write_text(json.dumps(doc), encoding="utf-8")


_DIMENSION = re.compile(r'"dimension"\s*:\s*(\d+)')
_MATRIX_END = re.compile(r'[}"]')
_BRACKETS = str.maketrans("", "", "[]")


def read_document(path: Path) -> np.ndarray:
    """Matrices of a state-set document as an (n, d, d) array.

    Parses the numbers with ``np.fromstring`` rather than ``json`` so that the
    check of a 25 MB document holds far less memory than the program's own
    load, and the workload's peak resident memory stays the program's.
    """
    text = path.read_text(encoding="utf-8")
    found = _DIMENSION.search(text)
    if found is None:
        raise ValueError("document has no dimension")
    d = int(found.group(1))
    mats = []
    pos = text.find('"matrix"')
    while pos >= 0:
        start = text.index("[", pos)
        end = _MATRIX_END.search(text, start).start()
        body = text[start:end].translate(_BRACKETS).strip().rstrip(",")
        values = np.fromstring(body, dtype=float, sep=",")
        if values.size != 2 * d * d:
            raise ValueError(f"matrix has {values.size} numbers, expected {2 * d * d}")
        mats.append(values.view(complex).reshape(d, d))
        pos = text.find('"matrix"', end)
    return np.asarray(mats).reshape(-1, d, d)


# --------------------------------------------------------------------------
# Reference quantities
# --------------------------------------------------------------------------

def frob_sq(m: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm over the last two axes."""
    return np.sum(np.abs(m) ** 2, axis=(-2, -1))


def pair_tables(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For all ordered pairs (a, b): gap, tr(A^2 B^2) and the gap's tolerance.

    gap = 1/2 ||AB - BA||_F^2 and, for Hermitian A, B, tr(A^2 B^2) = ||AB||_F^2.
    """
    prod = mats[:, None] @ mats[None, :]
    gap = 0.5 * frob_sq(prod - prod.transpose(1, 0, 2, 3))
    norms = frob_sq(mats)
    return gap, frob_sq(prod), REL_TOL * np.outer(norms, norms)


def product_trace(mats) -> complex:
    acc = mats[0]
    for m in mats[1:]:
        acc = acc @ m
    return complex(np.trace(acc))


def overlap(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.real(np.vdot(a.conj().T, b)))


def min_eigengap(m: np.ndarray) -> float:
    return float(np.min(np.diff(np.linalg.eigvalsh(hermitize(m)))))
