"""The benchmark's three workloads: inputs made from a seed, ops, and checks.

An op is one or more ``bargmann`` command lines run through ``cli.main`` in
the benchmark's process. Its check runs after the op's timer has stopped and
returns ``None`` when every output matches the numpy references of
``reference.py``, otherwise the reason the op failed.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator

import numpy as np

import reference as ref

INCOHERENT, COHERENT = "set_incoherent", "set_coherent"
EXIT_OK, EXIT_FINDING, EXIT_ERROR = 0, 1, 2
# Estimates must lie within this many of their reported standard errors.
ESTIMATE_SIGMAS = 5.0


@dataclass(frozen=True)
class Call:
    """Exit code and captured streams of one ``cli.main`` call."""

    rc: int
    stdout: str
    stderr: str


@dataclass(frozen=True)
class Op:
    kind: str
    calls: tuple[tuple[str, ...], ...]
    check: Callable[[list[Call]], "str | None"]

    def run(self, main) -> tuple[float, list[Call], "str | None"]:
        """Time the op's calls through ``main``: (seconds, calls, what escaped main)."""
        calls = []
        start = perf_counter()
        try:
            for argv in self.calls:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = main(list(argv))
                calls.append(Call(rc, out.getvalue(), err.getvalue()))
        except Exception as exc:  # anything escaping main fails the op
            return perf_counter() - start, calls, f"raised {type(exc).__name__}: {exc}"
        return perf_counter() - start, calls, None


class _Reject(Exception):
    """Raised inside a check to reject the op's output with a reason."""


def _report(call: Call) -> dict:
    try:
        return json.loads(call.stdout)
    except json.JSONDecodeError:
        raise _Reject("stdout is not one JSON report") from None


def _expect(cond: bool, reason: str) -> None:
    if not cond:
        raise _Reject(reason)


def _checked(fn: Callable[[list[Call]], None]) -> Callable[[list[Call]], "str | None"]:
    def check(calls: list[Call]) -> "str | None":
        try:
            fn(calls)
        except _Reject as exc:
            return str(exc)
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            return f"malformed output ({type(exc).__name__}: {exc})"
        return None

    return check


class Workload:
    name = ""
    warmup_ops = 1

    def __init__(self, seed: int, workdir: Path, gap_tol: float, commute_tol: float):
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])
        self.seed = seed
        self.workdir = workdir
        self.gap_tol = gap_tol
        self.commute_tol = commute_tol
        # invariant_count of every coherence report checked, for the trace.
        self.invariant_counts: list[int] = []

    def ops(self) -> Iterator[Op]:
        raise NotImplementedError

    def probe(self, main) -> dict:
        """Known defects measured once before the timed loop, for the record line."""
        return {}

    def _check_coherence(self, call, mats, expected, reduced, tables=None):
        """Shared check of a ``coherence`` call against its document."""
        if call.rc == EXIT_ERROR:
            _expect(reduced, f"refused a full decision: {call.stderr.strip()}")
            gap = ref.min_eigengap(mats[0])
            _expect(
                "degenerate" in call.stderr and gap <= self.gap_tol,
                f"refusal not due: reference min eigengap {gap:.3e}",
            )
            return
        rep = _report(call)
        n = len(mats)
        _expect(rep["verdict"] == expected, f"verdict {rep['verdict']}, built {expected}")
        _expect(call.rc == (EXIT_OK if expected == INCOHERENT else EXIT_FINDING), f"exit {call.rc}")
        _expect(rep["mode"] == ("reduced" if reduced else "full"), f"mode {rep['mode']}")
        if reduced:
            rows, cols = np.zeros(n - 1, int), np.arange(1, n)
        else:
            rows, cols = np.triu_indices(n, 1)
        pairs = rep["pairs"]
        _expect(len(pairs) == len(rows), f"{len(pairs)} pairs reported")
        _expect(rep["invariant_count"] == 2 * len(rows), "invariant_count")
        got = np.array([p["indices"] for p in pairs]) - 1
        _expect(np.array_equal(got, np.column_stack([rows, cols])), "pair indices")
        gap, llkk, tol = tables if tables is not None else ref.pair_tables(mats)
        gaps = np.array([p["gap"] for p in pairs])
        d_llkk = np.array([p["delta_llkk"] for p in pairs])
        worst = np.max(np.abs(gaps - gap[rows, cols]) - tol[rows, cols])
        _expect(worst <= 0, f"pair gap off its reference by {worst:.3e} beyond tolerance")
        worst = np.max(np.abs(d_llkk - llkk[rows, cols]) - tol[rows, cols])
        _expect(worst <= 0, f"tr(A^2 B^2) off its reference by {worst:.3e} beyond tolerance")
        self.invariant_counts.append(rep["invariant_count"])


# --------------------------------------------------------------------------
# pairs-d4: full decisions on n=100 qubit-sized sets
# --------------------------------------------------------------------------

class PairsD4(Workload):
    """``coherence DOC`` in full mode, d=4, n=100 (4950 pairs per op).

    16 documents: 8 commuting sets, 4 Ginibre sets, 4 commuting sets with one
    Ginibre state swapped in. One document of each four of a kind has every
    state scaled to trace 0.01 or 100. The timed ops decide a document at
    trace t with ``--tol`` set to the default ``COMMUTE_TOL`` times t**4, the
    degree of the pair gap in the states; ``probe`` measures what the default
    tolerance gives on those documents.
    """

    name = "pairs-d4"
    # The probe's ops run the same path first.
    warmup_ops = 0
    D, N = 4, 100

    def __init__(self, seed, workdir, gap_tol, commute_tol):
        super().__init__(seed, workdir, gap_tol, commute_tol)
        rng = self.rng
        plan = [("commuting", 1.0)] * 6 + [("commuting", 0.01), ("commuting", 100.0)]
        for kind in ("ginibre", "mixed"):
            plan += [(kind, 1.0)] * 3 + [(kind, float(rng.choice([0.01, 100.0])))]
        self.docs = []
        for i in rng.permutation(len(plan)):
            kind, trace = plan[i]
            if kind == "ginibre":
                mats = np.array([ref.ginibre_state(self.D, rng) for _ in range(self.N)])
            else:
                mats = ref.commuting_states(self.D, self.N, rng)
                if kind == "mixed":
                    mats[rng.integers(self.N)] = ref.ginibre_state(self.D, rng)
            mats = mats * (trace / np.trace(mats, axis1=1, axis2=2).real)[:, None, None]
            path = workdir / f"pairs-{len(self.docs)}.json"
            ref.write_document(path, mats)
            expected = INCOHERENT if kind == "commuting" else COHERENT
            label = f"{kind} set, trace {trace:g}"
            self.docs.append((label, path, mats, expected, ref.pair_tables(mats), trace))

    def _op(self, label, path, mats, expected, tables, tol_args=()) -> Op:
        def check(calls):
            self._check_coherence(calls[0], mats, expected, False, tables)

        return Op(label, (("coherence", str(path)) + tol_args,), _checked(check))

    def ops(self):
        for *doc, trace in itertools.cycle(self.docs):
            tol_args = () if trace == 1 else ("--tol", repr(self.commute_tol * trace**4))
            yield self._op(*doc, tol_args)

    def probe(self, main):
        """Each scaled document decided once at the default tolerance (ROADMAP 3a)."""
        wrong = {}
        scaled = [doc for *doc, trace in self.docs if trace != 1]
        for doc in scaled:
            op = self._op(*doc)
            _, calls, raised = op.run(main)
            reason = raised or op.check(calls)
            if reason:
                wrong[op.kind] = reason
        return {"default_tol_on_scaled_docs": {"ops": len(scaled), "wrong": len(wrong),
                                               "reasons": wrong}}


# --------------------------------------------------------------------------
# dense-d256: the README round trip at d=256
# --------------------------------------------------------------------------

class DenseD256(Workload):
    """``random --dim 256 --count 4`` then ``coherence`` on the written file.

    Ensembles alternate commuting / ginibre_mixed op by op; every other pair
    of ops decides in reduced mode (``--reference 1``).
    """

    name = "dense-d256"
    warmup_ops = 1
    D, N = 256, 4

    def ops(self):
        path = self.workdir / "dense.json"
        for i in itertools.count():
            ensemble = "commuting" if i % 2 == 0 else "ginibre_mixed"
            reduced = (i // 2) % 2 == 1
            write = ("random", "--dim", str(self.D), "--count", str(self.N),
                     "--ensemble", ensemble, "--seed", str(self.seed * 100_000 + i),
                     "--out", str(path))
            decide = ("coherence", str(path)) + (("--reference", "1") if reduced else ())
            expected = INCOHERENT if ensemble == "commuting" else COHERENT

            def check(calls, expected=expected, reduced=reduced):
                try:
                    _expect(calls[0].rc == EXIT_OK, f"random exit {calls[0].rc}")
                    mats = _check_random_document(path, self.D, self.N)
                    self._check_coherence(calls[1], mats, expected, reduced)
                finally:
                    path.unlink(missing_ok=True)

            kind = f"{ensemble} round trip, {'reduced' if reduced else 'full'} mode"
            yield Op(kind, (write, decide), _checked(check))


def _check_random_document(path: Path, d: int, n: int, ensemble: str = "") -> np.ndarray:
    """A written ``random`` document reloads with d, n, unit traces, as states."""
    mats = ref.read_document(path)
    _expect(mats.shape == (n, d, d), f"document shape {mats.shape}, asked {(n, d, d)}")
    traces = np.trace(mats, axis1=1, axis2=2)
    _expect(np.max(np.abs(traces - 1)) <= 1e-9, "trace not 1")
    _expect(np.max(np.abs(mats - mats.conj().swapaxes(1, 2))) <= 1e-12, "not Hermitian")
    _expect(np.min(np.linalg.eigvalsh(ref.hermitize(mats))) >= -1e-10, "not positive")
    if ensemble == "haar_pure":
        _expect(np.max(np.abs(ref.frob_sq(mats) - 1)) <= 1e-9, "pure state not pure")
    elif ensemble == "random_diagonal":
        _expect(np.all(mats[:, ~np.eye(d, dtype=bool)] == 0), "diagonal state has off-diagonals")
    elif ensemble == "commuting":
        gap, _, tol = ref.pair_tables(mats)
        _expect(np.all(gap <= tol), "commuting set does not commute")
    return mats


# --------------------------------------------------------------------------
# toolkit-mix: every small subcommand, round robin
# --------------------------------------------------------------------------

class ToolkitMix(Workload):
    """Nine small-document subcommands in turn, with equal weight, d <= 16."""

    name = "toolkit-mix"
    warmup_ops = 9
    SHOTS = 10**6
    RANDOM_ENSEMBLES = ("ginibre_mixed", "haar_pure", "random_diagonal", "commuting")

    def __init__(self, seed, workdir, gap_tol, commute_tol):
        super().__init__(seed, workdir, gap_tol, commute_tol)
        rng = self.rng

        def doc(tag, mats):
            path = workdir / f"toolkit-{tag}.json"
            mats = np.asarray(mats)
            ref.write_document(path, mats)
            return str(path), mats

        def ginibre(d, n):
            return [ref.ginibre_state(d, rng) for _ in range(n)]

        # Each entry: (document, whether it was built commuting / real).
        self.inv_docs = [(doc("inv-g", ginibre(8, 4)), False),
                         (doc("inv-c", ref.commuting_states(8, 4, rng)), True)]
        self.gap_docs = [(doc("gap-g", ginibre(4, 2)), False),
                         (doc("gap-c", ref.commuting_states(4, 2, rng)), True)]
        self.qubit_docs = [(doc("qubit-g", ginibre(2, 4)), False),
                           (doc("qubit-c", ref.commuting_states(2, 4, rng)), True)]
        self.gram_docs = [(doc("gram-g", ginibre(16, 17)), False),
                          (doc("gram-c", ref.commuting_states(16, 17, rng)), True)]
        self.facet_docs = [(doc("facets-c", ref.commuting_states(4, 3, rng)), True),
                           (doc("facets-v", self._violating_trio(rng)), False)]
        self.imag_docs = [(doc("imag-g", ginibre(4, 3)), False),
                          (doc("imag-r", [ref.real_state(4, rng) for _ in range(3)]), True)]
        self.words = [tuple(rng.integers(1, 5, size=rng.integers(2, 9))) for _ in range(64)]

    @staticmethod
    def _violating_trio(rng):
        """Pure qubits at 0 and +-60 degrees in a random plane: z12+z13-z23 = 5/4."""
        n0 = rng.standard_normal(3)
        n0 /= np.linalg.norm(n0)
        m = np.cross(n0, rng.standard_normal(3))
        m /= np.linalg.norm(m)
        s = np.sqrt(3) / 2
        return [ref.qubit_from_bloch(r) for r in (n0, 0.5 * n0 + s * m, 0.5 * n0 - s * m)]

    def ops(self):
        makers = (self._invariant, self._estimate, self._estimate_gap, self._qubit_check,
                  self._gram, self._facets, self._imaginarity, self._paper_check,
                  self._random)
        for i in itertools.count():
            yield makers[i % len(makers)](i // len(makers))

    def _invariant(self, j):
        (path, mats), _ = self.inv_docs[j % 2]
        word = self.words[j % len(self.words)]
        text = ",".join(map(str, word))
        exact = ref.product_trace([mats[w - 1] for w in word])

        def check(calls):
            rep = _report(calls[0])
            _expect(calls[0].rc == EXIT_OK, f"exit {calls[0].rc}")
            _expect(rep["word"] == text, "word echo")
            err = abs(complex(rep["re"], rep["im"]) - exact)
            _expect(err <= 1e-12, f"invariant off by {err:.3e}")

        return Op("invariant", (("invariant", path, "--word", text),), _checked(check))

    def _estimate(self, j):
        (path, mats), _ = self.inv_docs[j % 2]
        word = self.words[(j * 7 + 3) % len(self.words)]
        exact = ref.product_trace([mats[w - 1] for w in word])
        argv = ("estimate", path, "--word", ",".join(map(str, word)),
                "--shots", str(self.SHOTS), "--seed", str(self.seed * 1000 + j))

        def check(calls):
            rep = _report(calls[0])
            _expect(calls[0].rc == EXIT_OK, f"exit {calls[0].rc}")
            _expect(rep["shots"] == 2 * self.SHOTS, "shots")
            for part, value in (("re", exact.real), ("im", exact.imag)):
                dev = abs(rep[part] - value)
                _expect(dev <= ESTIMATE_SIGMAS * rep[f"stderr_{part}"],
                        f"estimate {part} off by {dev:.3e}")

        return Op("estimate", (argv,), _checked(check))

    def _estimate_gap(self, j):
        (path, mats), _ = self.gap_docs[j % 2]
        exact = ref.pair_tables(mats)[0][0, 1]
        argv = ("estimate-gap", path, "--shots", str(self.SHOTS), "--seed", str(self.seed * 1000 + j))

        def check(calls):
            rep = _report(calls[0])
            _expect(calls[0].rc == EXIT_OK, f"exit {calls[0].rc}")
            dev = abs(rep["gap_estimate"] - exact)
            _expect(dev <= ESTIMATE_SIGMAS * rep["standard_error"], f"gap estimate off by {dev:.3e}")

        return Op("estimate-gap", (argv,), _checked(check))

    def _qubit_check(self, j):
        (path, mats), commuting = self.qubit_docs[j % 2]
        gap = ref.pair_tables(mats)[0]

        def check(calls):
            rep = _report(calls[0])
            _expect(rep["verdict"] == (INCOHERENT if commuting else COHERENT), "verdict")
            _expect(calls[0].rc == (EXIT_OK if commuting else EXIT_FINDING), f"exit {calls[0].rc}")
            rows, cols = np.triu_indices(len(mats), 1)
            _expect([p["indices"] for p in rep["pairs"]] == (np.column_stack([rows, cols]) + 1).tolist(),
                    "pair indices")
            for p, g in zip(rep["pairs"], gap[rows, cols]):
                _expect(p["commutes"] == commuting, "pair commutes flag")
                # For normalized qubits the residual equals the fourth-order gap.
                _expect(abs(p["residual"] - g) <= 1e-12, "residual off its gap")

        return Op("qubit-check", (("qubit-check", path),), _checked(check))

    def _gram(self, j):
        (path, mats), commuting = self.gram_docs[j % 2]
        d = mats.shape[1]
        # Orthonormal Bloch vectors of unit-trace states: <r_i, r_j> = tr(rho_i rho_j) - 1/d.
        gram = np.array([[ref.overlap(a, b) for b in mats] for a in mats]) - 1 / d
        w = np.linalg.eigvalsh(gram)
        rank = int(np.sum(w > 1e-9 * w[-1]))

        def check(calls):
            rep = _report(calls[0])
            _expect(rep["rank"] == rank, f"rank {rep['rank']}, reference {rank}")
            _expect(rep["verdict"] == (None if commuting else COHERENT), f"verdict {rep['verdict']}")
            _expect(calls[0].rc == (EXIT_OK if commuting else EXIT_FINDING), f"exit {calls[0].rc}")
            err = np.max(np.abs(np.array(rep["gram"]) - gram))
            _expect(err <= 1e-12, f"Gram matrix off by {err:.3e}")

        return Op("gram", (("gram", path),), _checked(check))

    def _facets(self, j):
        (path, mats), commuting = self.facet_docs[j % 2]
        z = (ref.overlap(mats[0], mats[1]), ref.overlap(mats[0], mats[2]), ref.overlap(mats[1], mats[2]))
        slacks = (1 - (z[0] + z[1] - z[2]), 1 - (z[0] - z[1] + z[2]), 1 - (-z[0] + z[1] + z[2]))

        def check(calls):
            rep = _report(calls[0])
            _expect(rep["member"] == commuting, "membership")
            _expect(calls[0].rc == (EXIT_OK if commuting else EXIT_FINDING), f"exit {calls[0].rc}")
            _expect(np.allclose(rep["point"], z, rtol=0, atol=1e-12), "overlaps")
            _expect(np.allclose(rep["facet_slacks"], slacks, rtol=0, atol=1e-12), "facet slacks")

        return Op("facets", (("facets", path),), _checked(check))

    def _imaginarity(self, j):
        (path, mats), real = self.imag_docs[j % 2]
        im = ref.product_trace(mats).imag
        comm = mats[1] @ mats[2] - mats[2] @ mats[1]
        rhs = float(np.sqrt(ref.frob_sq(mats[0]) * ref.frob_sq(comm)))

        def check(calls):
            rep = _report(calls[0])
            _expect(abs(rep["im_delta"] - im) <= 1e-12, "Im tr(rho1 rho2 rho3)")
            _expect(abs(rep["rhs"] - rhs) <= 1e-10, "bound rhs")
            _expect(rep["satisfied"] is True, "bound violated")
            _expect(calls[0].rc == (EXIT_OK if real else EXIT_FINDING), f"exit {calls[0].rc}")

        return Op("imaginarity", (("imaginarity", path),), _checked(check))

    def _paper_check(self, j):
        def check(calls):
            _expect(calls[0].rc == EXIT_OK, f"exit {calls[0].rc}")
            entries = _report(calls[0])
            _expect(len(entries) > 0 and all(e["pass"] is True for e in entries), "fixture mismatch")

        return Op("paper-check", (("paper-check",),), _checked(check))

    def _random(self, j):
        path = self.workdir / "toolkit-random.json"
        ensemble = self.RANDOM_ENSEMBLES[j % len(self.RANDOM_ENSEMBLES)]
        argv = ("random", "--dim", "8", "--count", "3", "--ensemble", ensemble,
                "--seed", str(self.seed * 1000 + j), "--out", str(path))

        def check(calls):
            try:
                _expect(calls[0].rc == EXIT_OK, f"exit {calls[0].rc}")
                _check_random_document(path, 8, 3, ensemble)
            finally:
                path.unlink(missing_ok=True)

        return Op("random", (argv,), _checked(check))


WORKLOADS = {cls.name: cls for cls in (PairsD4, DenseD256, ToolkitMix)}
