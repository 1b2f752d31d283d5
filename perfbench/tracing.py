"""Spans around the package's public functions, recorded from outside ``src/``.

``Tracer.install`` wraps each function named in ``SPANS`` and rebinds the
wrapper under every name that held the original in any ``bargmann`` module,
since ``from .numkernel import chain_product_trace`` copies the binding into
``criteria`` and ``invariants``. The stdlib ``json`` encoder and decoder are
timed through a stand-in for the ``json`` name in ``cli`` and ``io`` only.

A span is (name, parent span, op id, start, end, raised, extra). Spans stay in
memory, are written out when the run ends, and per-layer metrics come from
their self times: a span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from time import perf_counter

# Module -> public functions to wrap. A span is named "<module>.<function>".
SPANS = {
    "cli": ("main",),
    "io": ("load_state_set", "state_set_from_document", "matrix_from_json",
           "state_set_to_document", "matrix_to_json"),
    "states": ("validate_state", "random_state", "commuting_set", "haar_unitary",
               "bloch_map", "traceless_hermitian_basis", "overlap", "purity"),
    "numkernel": ("as_complex_matrix", "chain_product_trace", "hermitian_eig"),
    "invariants": ("bargmann_invariant",),
    "criteria": ("commutator_gap", "set_coherence_decide", "reduced_set_coherence",
                 "gram_bloch", "gram_rank_criterion", "c3_facet_check",
                 "imaginarity_witness", "qubit_criterion"),
    "estimator": ("estimate_invariant", "estimate_gap"),
    "fixtures": ("paper_check", "fixture"),
}
LAYERS = tuple(SPANS)
ENCODE, DECODE = "cli.json.dumps", "io.json.load"


def _chain_flops(args, result) -> int:
    """(k-1) * 8 d^3 real flops for a k-factor complex chain."""
    mats = args[0]
    return (len(mats) - 1) * 8 * len(mats[0]) ** 3


def _file_bytes(args, result) -> int:
    return os.fstat(args[0].fileno()).st_size


EXTRA = {
    "numkernel.chain_product_trace": _chain_flops,
    ENCODE: lambda args, result: len(result),
    DECODE: _file_bytes,
}


class _JsonStandIn:
    """The ``json`` module, with one function replaced by its traced wrapper."""

    def __init__(self, **replaced):
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(json, name)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = 0
        self._stack: list[int] = []
        self._plan: list[tuple[object, str, object, object]] = []

    def _wrap(self, name, fn):
        spans, stack, extra = self.spans, self._stack, EXTRA.get(name)

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, self.op, perf_counter(), 0.0, False, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[4] = perf_counter()
                stack.pop()
            if extra is not None:
                span[6] = extra(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _bindings(self) -> list[tuple[object, str, object, object]]:
        """(module, name, original, wrapper) for every name to rebind."""
        modules = [m for key, m in sys.modules.items()
                   if key == "bargmann" or key.startswith("bargmann.")]
        out = []
        for layer, names in SPANS.items():
            source = sys.modules[f"bargmann.{layer}"]
            for fname in names:
                original = getattr(source, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            out.append((module, attr, original, wrapper))
        cli, io = sys.modules["bargmann.cli"], sys.modules["bargmann.io"]
        out.append((cli, "json", cli.json, _JsonStandIn(dumps=self._wrap(ENCODE, json.dumps))))
        out.append((io, "json", io.json, _JsonStandIn(load=self._wrap(DECODE, json.load))))
        return out

    def install(self) -> None:
        """Rebind the wrappers. Cheap after the first call, so it can be
        done around single ops."""
        if not self._plan:
            self._plan = self._bindings()
        for module, attr, _, wrapper in self._plan:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._plan:
            setattr(module, attr, original)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\top\tname\tstart\tend\traised\textra\n")
            for i, (name, parent, op, start, end, raised, extra) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{op}\t{name}\t{start!r}\t{end!r}\t{int(raised)}\t{extra}\n")

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self seconds, extra sum and raised count."""
        child = [0.0] * len(self.spans)
        for name, parent, _, start, end, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, _, _, start, end, raised, extra), inner in zip(self.spans, child):
            t = out.setdefault(name, {"calls": 0, "self": 0.0, "extra": 0, "raised": 0})
            t["calls"] += 1
            t["self"] += end - start - inner
            t["extra"] += extra
            t["raised"] += raised
        return out


def layer_metrics(totals: dict, ops: int, invariant_counts: list[int]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per traced op, named as in BENCHMARK.json."""

    def pick(field, *names):
        return sum(totals.get(n, {}).get(field, 0) for n in names) / ops

    def ms(*names):
        return (1e3 * pick("self", *names), "ms")

    def calls(*names):
        return (pick("calls", *names), "count")

    validate = calls("states.validate_state")[0]
    scans = calls("numkernel.as_complex_matrix")[0]
    m = {
        "cli.self_ms": ms("cli.main"),
        "cli.encode_ms": ms(ENCODE),
        "cli.report_bytes": (pick("extra", ENCODE), "bytes"),
        "io.decode_ms": ms(DECODE),
        "io.parse_ms": ms("io.matrix_from_json"),
        "io.doc_ms": ms("io.state_set_from_document", "io.load_state_set"),
        "io.to_document_ms": ms("io.state_set_to_document", "io.matrix_to_json"),
        "io.bytes_read": (pick("extra", DECODE), "bytes"),
        "states.validate_calls": (validate, "count"),
        "states.validate_ms": ms("states.validate_state"),
        "states.sample_ms": ms("states.random_state", "states.commuting_set", "states.haar_unitary"),
        "states.bloch_calls": calls("states.bloch_map"),
        "states.bloch_ms": ms("states.bloch_map", "states.traceless_hermitian_basis"),
        "states.overlap_ms": ms("states.overlap", "states.purity"),
        "numkernel.scan_calls": (scans, "count"),
        "numkernel.scan_ms": ms("numkernel.as_complex_matrix"),
        "numkernel.scans_per_state": (scans / validate if validate else 0.0, "ratio"),
        "numkernel.chain_calls": calls("numkernel.chain_product_trace"),
        "numkernel.chain_ms": ms("numkernel.chain_product_trace"),
        "numkernel.chain_flops": (pick("extra", "numkernel.chain_product_trace"), "flop"),
        "numkernel.eig_calls": calls("numkernel.hermitian_eig"),
        "numkernel.eig_ms": ms("numkernel.hermitian_eig"),
        "invariants.calls": calls("invariants.bargmann_invariant"),
        "invariants.ms": ms("invariants.bargmann_invariant"),
        "criteria.pair_calls": calls("criteria.commutator_gap"),
        "criteria.pair_ms": ms("criteria.commutator_gap"),
        "criteria.decide_ms": ms("criteria.set_coherence_decide", "criteria.reduced_set_coherence"),
        "criteria.invariants_per_verdict": (
            sum(invariant_counts) / len(invariant_counts) if invariant_counts else 0.0, "count"),
        "criteria.aux_ms": ms("criteria.gram_bloch", "criteria.gram_rank_criterion",
                              "criteria.c3_facet_check", "criteria.imaginarity_witness",
                              "criteria.qubit_criterion"),
        "estimator.calls": calls("estimator.estimate_invariant", "estimator.estimate_gap"),
        "estimator.ms": ms("estimator.estimate_invariant", "estimator.estimate_gap"),
        "fixtures.ms": ms("fixtures.paper_check", "fixtures.fixture"),
    }
    for layer in LAYERS:
        raised = sum(t["raised"] for n, t in totals.items() if n.split(".")[0] == layer)
        m[f"{layer}.errors"] = (raised / ops, "count")
    return m
