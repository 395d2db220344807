"""Every call the benchmark makes into a qlam module, timed from outside.

Workloads call the program only through a ``Layers`` object.  Untraced,
its attributes are the library functions themselves, so a call costs
one attribute lookup more than a direct call.  Traced, each attribute is
wrapped: it records a span ``(item, label, start, end)`` and counts the
exceptions that escape it against its module.  Nothing inside ``src/``
is instrumented.
"""

from __future__ import annotations

import time

from qlam import (
    cli,
    corpus,
    finite_models,
    metric_core,
    quant_deduction,
    rewrite_engine,
    term_metrics,
    term_syntax,
)

MODULES = (
    "term_syntax",
    "rewrite_engine",
    "term_metrics",
    "quant_deduction",
    "finite_models",
    "metric_core",
    "corpus",
    "cli",
)


def _dnf(context, t, s):
    return context.distance(t, s)


def _invoke(runner, args):
    return runner.invoke(cli.main, args)


# attribute -> (layer label "<module>.<call>", library function)
CALLS = {
    "parse": ("term_syntax.parse", term_syntax.parse_term),
    "parse_sort": ("term_syntax.parse", term_syntax.parse_sort),
    "print": ("term_syntax.print", term_syntax.print_term),
    "typecheck": ("term_syntax.typecheck", term_syntax.typecheck),
    "term_to_json": ("term_syntax.json", term_syntax.term_to_json),
    "term_from_json": ("term_syntax.json", term_syntax.term_from_json),
    "substitute": ("term_syntax.substitute", term_syntax.substitute),
    "normalize": ("rewrite_engine.normalize", rewrite_engine.normalize),
    "cl_reduce": ("rewrite_engine.cl_reduce", rewrite_engine.cl_reduce),
    "bracket_abstract": ("rewrite_engine.bracket_abstract", rewrite_engine.bracket_abstract),
    "enumerate": ("term_metrics.enumerate", term_metrics.enumerate_closed_nfs),
    "nf_depth": ("term_metrics.nf_depth", term_metrics.nf_depth),
    "project": ("term_metrics.project", term_metrics.project),
    "e_distance": ("term_metrics.e_distance", term_metrics.e_distance),
    "dnf": ("term_metrics.dnf", _dnf),
    "approx_apply": ("term_metrics.approx_apply", term_metrics.approx_apply),
    "fth": ("term_metrics.fth", term_metrics.fth_distance),
    "derive": ("quant_deduction.derive", quant_deduction.derive_equal_reducts),
    "check": ("quant_deduction.check", quant_deduction.check_derivation),
    "to_json": ("quant_deduction.to_json", quant_deduction.derivation_to_json),
    "from_json": ("quant_deduction.from_json", quant_deduction.derivation_from_json),
    "build_fts": ("finite_models.build_fts", finite_models.build_full_type_structure),
    "harness": ("finite_models.harness", finite_models.soundness_harness),
    "hom_distance": ("metric_core.hom_distance", metric_core.hom_distance),
    "exp_check": ("metric_core.exp_check", metric_core.check_exponentiable),
    "classify": ("metric_core.classify", metric_core.classify_space),
    "line_grid": ("metric_core.space", metric_core.FiniteMetricSpace.line_grid),
    "space_from_json": ("metric_core.space", metric_core.FiniteMetricSpace.from_json),
    "build": ("corpus.build", corpus.harness_corpus),
    "shift_maps": ("corpus.shift_maps", corpus.shift_maps),
    "invoke": ("cli.invoke", _invoke),
}

LABELS = tuple(sorted({label for label, _ in CALLS.values()}))

# Outcome counts read from return values, added by workloads in traced
# runs, and the ratios built from them over a call's count.
COUNTS = (
    "rewrite_engine.cl_steps",
    "rewrite_engine.out_of_fuel",
    "term_metrics.nfs_enumerated",
    "quant_deduction.nodes_checked",
    "quant_deduction.json_bytes",
    "finite_models.carrier_elems",
    "finite_models.records_satisfied",
    "finite_models.records_skipped",
    "finite_models.records_violated",
    "metric_core.points",
)
RATIOS = {
    "term_metrics.dnf_exact_ratio": ("term_metrics.dnf_exact", "term_metrics.dnf"),
    "term_metrics.fth_exhausted_ratio": ("term_metrics.fth_exhausted", "term_metrics.fth"),
}


class Layers:
    """The program as one workload pass sees it."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.item = -1
        self.spans: list[tuple[int, str, float, float]] = []
        self.counts: dict[str, int] = {}
        for attr, (label, fn) in CALLS.items():
            setattr(self, attr, self._wrap(label, fn) if traced else fn)

    def _wrap(self, label, fn):
        failed = label.split(".")[0] + ".failed"
        spans = self.spans
        counts = self.counts
        clock = time.perf_counter

        def call(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                counts[failed] = counts.get(failed, 0) + 1
                raise
            finally:
                spans.append((self.item, label, start, clock()))

        return call

    def count(self, name: str, value: int = 1) -> None:
        """Add to an outcome count; a no-op when untraced."""
        if self.traced:
            self.counts[name] = self.counts.get(name, 0) + value

    def busy(self) -> dict[str, tuple[int, float]]:
        """(calls, busy seconds) per label.  Layer spans never nest, so a
        span's self time is its duration."""
        out = {label: (0, 0.0) for label in LABELS}
        for _, label, start, end in self.spans:
            if label in out:
                calls, busy = out[label]
                out[label] = (calls + 1, busy + (end - start))
        return out


def ratio_metrics(counts: dict[str, int], busy: dict[str, tuple[int, float]]) -> dict[str, float]:
    """Each ratio over its call's count; 0 where the call was never made."""
    out = {}
    for name, (numerator, label) in RATIOS.items():
        calls = busy[label][0]
        out[name] = counts.get(numerator, 0) / calls if calls else 0.0
    return out
