"""Spans around calls into the lacunaria layers, recorded from outside.

A :class:`Tracer` wraps public functions and methods of the package modules
(plus two private hooks, see ``TARGETS``) while it is installed, and records
one span per call: id, parent id, name, start, end and the phase (set-up or
pass number) it belongs to.  Spans stay in memory; :meth:`Tracer.write`
dumps them as JSON lines when the run ends.  Nothing in ``src/`` changes:
wrapping happens by attribute replacement on the imported modules and
classes, and :meth:`Tracer.uninstall` puts the originals back.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict


def _tops_counts(args, result):
    return {"mod1.tops.cells": result.size,
            "mod1.tops.bytes_computed": result.nbytes}


def _pair_histogram_counts(args, result):
    n = len(args[0])
    return {"diophantine.pair_evals": n * n}


def _estimate_counts(args, result):
    return {"diophantine.count_multi_term.entries_est": result}


def _expand_counts(args, result):
    return {"spectra.expand_frequencies.entries": len(result)}


# (module, owner attribute path, span name, count hook)
TARGETS = [
    ("lacunaria.rng", "CounterRng.bits", "rng.bits", None),
    ("lacunaria.mod1", "FracTopEngine.tops", "mod1.tops", _tops_counts),
    ("lacunaria.simulate", "PartialSumEvaluator.__init__", "simulate.evaluator_build", None),
    ("lacunaria.simulate", "PartialSumEvaluator.sum", "simulate.sum", None),
    ("lacunaria.simulate", "clt_experiment", "simulate.clt_experiment", None),
    ("lacunaria.simulate", "EmpiricalDistribution.summary", "simulate.summary", None),
    ("lacunaria.simulate", "charfn_experiment", "simulate.charfn_experiment", None),
    ("lacunaria.simulate", "lil_trajectory", "simulate.lil_trajectory", None),
    ("lacunaria.simulate", "sample_points", "simulate.sample_points", None),
    ("lacunaria.simulate", "ks_distance", "simulate.ks_distance", None),
    ("lacunaria.simulate", "MixtureTarget.cdf_with_tolerance", "simulate.mixture_cdf", None),
    ("lacunaria.permute", "build_pairing_counterexample", "permute.build_pairing_counterexample", None),
    ("lacunaria.permute", "verify_certificate", "permute.verify_certificate", None),
    ("lacunaria.permute", "identity", "permute.identity", None),
    ("lacunaria.permute", "random_perm", "permute.random_perm", None),
    ("lacunaria.spectra", "mixture_profile", "spectra.mixture_profile", None),
    ("lacunaria.spectra", "mixture_charfn", "spectra.mixture_charfn", None),
    ("lacunaria.spectra", "exact_variance", "spectra.exact_variance", None),
    ("lacunaria.spectra", "expand_frequencies", "spectra.expand_frequencies", _expand_counts),
    ("lacunaria.diophantine", "d2_profile", "diophantine.d2_profile", None),
    ("lacunaria.diophantine", "d2star_profile", "diophantine.d2star_profile", None),
    ("lacunaria.diophantine", "count_multi_term", "diophantine.count_multi_term", None),
    ("lacunaria.diophantine", "profile_to_json", "diophantine.profile_to_json", None),
    # Private: the only places the number of (k, l) evaluations and the
    # multi-term table estimate are visible.  If a later version drops one,
    # its count reads 0.
    ("lacunaria.diophantine", "_pair_histogram", "diophantine.pair_histogram", _pair_histogram_counts),
    ("lacunaria.diophantine", "_estimate_entries", "diophantine.estimate_entries", _estimate_counts),
    ("lacunaria.seqgen", "gen_power", "seqgen.gen_power", None),
    ("lacunaria.seqgen", "gen_geometric", "seqgen.gen_geometric", None),
    ("lacunaria.seqgen", "gen_smooth", "seqgen.gen_smooth", None),
    ("lacunaria.seqgen", "gen_random_rstar", "seqgen.gen_random_rstar", None),
]


class Tracer:
    """In-memory span recorder; one instance per benchmark run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.phase = "setup"
        self.spans: list[tuple] = []  # (id, parent, name, start_ns, end_ns, phase)
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._stack: list[int] = []
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def count(self, name: str, value: int) -> None:
        """Add to a work counter of the current phase."""
        self.counts[self.phase][name] += int(value)

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer._stack.pop()
                tracer.spans.append((sid, parent, name, start, end, tracer.phase))
            if hook is not None:
                for key, value in hook(args, result).items():
                    tracer.count(key, value)
            return result

        return traced

    def install(self) -> None:
        """Replace every target by its traced wrapper, everywhere it is bound."""
        if self._saved:
            return
        loaded = [m for n, m in sys.modules.items()
                  if n == "lacunaria" or n.startswith("lacunaria.")]
        for module_name, path, name, hook in TARGETS:
            module = sys.modules[module_name]
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, hook))
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original, hook)
            for mod in loaded:
                if mod.__dict__.get(attr) is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- aggregation ----------------------------------------------------

    def phase_totals(self) -> dict[str, dict[str, float]]:
        """Per phase: calls, busy seconds and self seconds for every span name."""
        child_ns: dict[int, int] = defaultdict(int)
        for sid, parent, _, start, end, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for sid, _, name, start, end, phase in self.spans:
            totals = out[phase]
            totals[f"{name}.calls"] += 1
            totals[f"{name}.busy_s"] += (end - start) * 1e-9
            totals[f"{name}.self_s"] += (end - start - child_ns[sid]) * 1e-9
        for phase, counters in self.counts.items():
            for key, value in counters.items():
                out[phase][key] += value
        return out

    def layer_values(self, pass_phases: list[str]) -> dict[str, float]:
        """Set-up total plus the median over traced passes, for every key seen."""
        totals = self.phase_totals()
        setup = totals.get("setup", {})
        keys = set(setup)
        for phase in pass_phases:
            keys |= set(totals.get(phase, {}))
        values = {}
        for key in keys:
            per_pass = [totals.get(phase, {}).get(key, 0.0) for phase in pass_phases]
            values[key] = setup.get(key, 0.0) + (statistics.median(per_pass) if per_pass else 0.0)
        return values

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, phase in self.spans:
                fh.write(json.dumps({"run": self.run_id, "id": sid, "parent": parent,
                                     "name": name, "start_ns": start, "end_ns": end,
                                     "phase": phase}) + "\n")
