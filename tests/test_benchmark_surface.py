"""The library names the benchmark in ``perfbench/`` wraps or calls still exist.

The benchmark lives outside the package and changes on its own schedule, so a
deletion in ``src/`` would otherwise show up only as a failed workload or, for
a span target, as a per-layer metric that silently reads 0.  Both files are
parsed with ``ast``, not imported, so nothing under ``perfbench/`` is touched.
"""

import ast
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

from lacunaria import diophantine, simulate
from lacunaria.mod1 import FracTopEngine, required_bits
from lacunaria.permute import identity, random_perm
from lacunaria.seqgen import gen_geometric, gen_power
from lacunaria.simulate import PartialSumEvaluator, clt_experiment, sample_points
from lacunaria.spectra import TrigPolynomial

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
LIBRARY_MODULES = {"diophantine", "mod1", "permute", "seqgen", "simulate", "spectra"}

# Names the benchmark still references that the library no longer has.
KNOWN_MISSING = {
    # deleted with FrequencyMultiset; the Tracer skips a missing module-level
    # target, so spectra.expand_frequencies.entries reads 0 until the
    # benchmark wraps the one exact expansion instead
    ("lacunaria.spectra", "expand_frequencies"),
}


def _parse(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def _span_targets() -> list[tuple[str, str]]:
    """(module, attribute path) of every entry of spans.TARGETS."""
    for node in _parse("spans.py").body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return [(ast.literal_eval(entry.elts[0]), ast.literal_eval(entry.elts[1]))
                    for entry in node.value.elts]
    raise AssertionError("perfbench/spans.py defines no TARGETS")


def _dotted(node: ast.Attribute) -> list[str] | None:
    """["simulate", "MixtureTarget", "cdf_with_tolerance"] for that chain, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id in LIBRARY_MODULES:
        return [node.id] + parts[::-1]
    return None


def _workload_references() -> list[tuple[str, str]]:
    """(module, attribute path) of every library attribute chain in workloads.py."""
    found = set()
    for node in ast.walk(_parse("workloads.py")):
        if isinstance(node, ast.Attribute):
            chain = _dotted(node)
            if chain is not None:
                found.add((f"lacunaria.{chain[0]}", ".".join(chain[1:])))
    return sorted(found)


def _owner(module_name: str, path: str):
    """(object holding the last attribute, that attribute's name), or (None, name)."""
    obj = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for part in owners:
        obj = getattr(obj, part, None)
    return obj, attr


def _span_target_resolves(module_name: str, path: str) -> bool:
    owner, attr = _owner(module_name, path)
    if owner is None:
        return False
    # the Tracer replaces a method in its class's own __dict__
    return attr in vars(owner) if "." in path else hasattr(owner, attr)


def test_collectors_see_the_benchmark():
    assert ("lacunaria.simulate", "MixtureTarget.cdf_with_tolerance") in _span_targets()
    assert ("lacunaria.simulate", "partial_sum") in _workload_references()


@pytest.mark.parametrize("module_name, path", sorted(set(_span_targets())))
def test_span_target_resolves(module_name, path):
    if (module_name, path) in KNOWN_MISSING:
        assert not _span_target_resolves(module_name, path), "back again: drop it from KNOWN_MISSING"
        return
    assert _span_target_resolves(module_name, path)


@pytest.mark.parametrize("module_name, path", _workload_references())
def test_workload_reference_resolves(module_name, path):
    owner, attr = _owner(module_name, path)
    assert hasattr(owner, attr)


def test_monte_carlo_reaches_the_wrapped_kernel(monkeypatch):
    # the mod1.tops span wraps FracTopEngine.tops, so the CLT workloads are
    # counted only while each sample calls it; a LIL window longer than one
    # block reads the same rows through tops_blocks
    calls = []
    for name in ("tops", "tops_blocks"):
        def counting(self, *args, _name=name, _kernel=getattr(FracTopEngine, name)):
            calls.append(_name)
            return _kernel(self, *args)

        monkeypatch.setattr(FracTopEngine, name, counting)
    seq, poly = gen_power(2, 0, 64), TrigPolynomial.parse("cos:1")
    clt_experiment(poly, seq, random_perm(64, 3), 64, 5, seed=2)
    assert calls == ["tops"] * 5
    monkeypatch.setattr(simulate, "_LIL_BLOCK", 16)
    evaluator = PartialSumEvaluator(poly, seq, identity(64), 64)
    evaluator.lil_trajectory(sample_points(evaluator.required, 1, 1)[0], 0.5)
    assert calls == ["tops"] * 5 + ["tops_blocks"]


def test_tops_keeps_the_shape_its_span_reads():
    # the mod1.tops.cells and mod1.tops.bytes_computed counters read
    # result.size and result.nbytes of each tops call: every kernel must
    # return a (rows, k) uint64 ndarray
    for seq, freqs, strategy in ((gen_power(2, -1, 8), [1, 2], "pow2-window"),
                                 (gen_power(3, 0, 8), [1, 3], "power-chain"),
                                 (gen_geometric("3/2", 2, 8), [1], "generic")):
        engine = FracTopEngine(seq, [1, 3, 8], freqs)
        assert engine.strategy == strategy
        result = engine.tops(sample_points(required_bits(seq.term(8), max(freqs)), 1, 5)[0])
        assert isinstance(result, np.ndarray) and result.dtype == np.uint64
        assert result.shape == (3, len(freqs)) and result.nbytes == 8 * result.size


def test_pair_histogram_keeps_the_shape_its_span_reads():
    # the diophantine.pair_evals counter reads len(args[0]) of each
    # _pair_histogram call: the term list must stay the first positional
    # argument, and the call must return (table, maxima)
    params = list(inspect.signature(diophantine._pair_histogram).parameters.values())
    assert params[0].name == "terms"
    assert params[0].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
    terms = gen_power(2, -1, 8).prefix(8)
    table, maxima = diophantine._pair_histogram(terms, 1, -2, [2, 4, 8],
                                                include_zero=False, drop_diagonal=False)
    assert isinstance(table, diophantine._SortedHistogram)
    assert maxima == [1, 3, 7] and table.max_count == 7
