"""Per-layer tracing of tlbraid from outside the package.

``install`` replaces public functions and methods of ``tlbraid.tl``,
``laurent``, ``bracket``, ``braid``, ``fibrep`` and ``cli`` by timing
wrappers, wherever a module or class holds them (``cli`` and the package
re-export names it imported, so every binding is patched). Spans are
aggregated by (layer, function) into call count, total time and self time;
a span's self time excludes its traced children *and* the tracer's own
bookkeeping around them, so self times approximate untraced costs. Hooks
record exact counts at the same boundaries.

Only the traced run of the benchmark installs this; the end-to-end metrics
come from untraced children.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.spans: dict[tuple[str, str], list] = {}  # -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self.peaks: dict[str, float] = {}
        self.route_results: dict[str, object] = {}
        self._children = [0.0]  # traced-child time of each open span

    def peak(self, key: str, value: float):
        if value > self.peaks.get(key, 0):
            self.peaks[key] = value

    def wrap(self, layer: str, name: str, fn, hook=None):
        """A wrapper of fn recording a (layer, name) span; hook(result, *args)
        runs after the span closes and returns the value handed back."""
        stat = self.spans.setdefault((layer, name), [0, 0.0, 0.0])
        children = self._children
        clock = time.perf_counter

        def traced(*args, **kwargs):
            entered = clock()
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = children.pop()
            stat[0] += 1
            stat[1] += elapsed
            stat[2] += elapsed - inner
            if hook is not None:
                result = hook(result, *args, **kwargs)
            children[-1] += clock() - entered
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def end_item(self):
        """Close an item: compare the two bracket routes if both ran."""
        results = self.route_results
        if "via_tl" in results and "state_sum" in results:
            self.counts["bracket.route_pairs"] += 1
            self.counts["bracket.route_agree"] += results["via_tl"] == results["state_sum"]
        results.clear()

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric except the import and overhead figures."""
        def calls(layer, name):
            return self.spans[(layer, name)][0]

        def total(layer, name):
            return self.spans[(layer, name)][1]

        def own(layer, name):
            return self.spans[(layer, name)][2]

        def ratio(a, b):
            return a / b if b else 0.0

        c = self.counts
        return {
            "tl.compose_calls": (calls("tl", "compose"), "count"),
            "tl.compose_self_s": (own("tl", "compose"), "s"),
            "tl.pairing_init_calls": (calls("tl", "pairing_init"), "count"),
            "tl.pairing_init_s": (own("tl", "pairing_init"), "s"),
            "tl.element_mul_calls": (calls("tl", "element_mul"), "count"),
            "tl.element_mul_self_s": (own("tl", "element_mul"), "s"),
            "tl.identity_compose_frac": (
                ratio(c["tl.identity_composes"], calls("tl", "compose")), "frac"),
            "tl.peak_width": (self.peaks.get("tl.width", 0), "diagrams"),
            "tl.mean_width": (
                ratio(c["tl.width_sum"], calls("tl", "element_mul")), "diagrams"),
            "tl.markov_trace_s": (total("tl", "markov_trace"), "s"),
            "laurent.mul_calls": (calls("laurent", "mul"), "count"),
            "laurent.mul_s": (own("laurent", "mul"), "s"),
            "laurent.mul_term_pairs": (c["laurent.term_pairs"], "count"),
            "laurent.max_coeff_bits": (self.peaks.get("laurent.bits", 0), "bits"),
            "bracket.state_sum_s": (total("bracket", "state_sum"), "s"),
            "bracket.states_visited": (c["bracket.states"], "count"),
            "bracket.via_tl_s": (total("bracket", "via_tl"), "s"),
            "bracket.route_agree_frac": (
                ratio(c["bracket.route_agree"], c["bracket.route_pairs"]), "frac"),
            "braid.letters": (c["braid.letters"], "count"),
            "braid.parse_s": (total("braid", "parse"), "s"),
            "cli.main_self_s": (own("cli", "main"), "s"),
            "fibrep.verify_model_s": (total("fibrep", "verify_model"), "s"),
            "fibrep.tl_generator_matrix_calls": (
                calls("fibrep", "tl_generator_matrix"), "count"),
            "fibrep.tl_generator_matrix_s": (own("fibrep", "tl_generator_matrix"), "s"),
            "fibrep.braid_generator_matrix_s": (
                own("fibrep", "braid_generator_matrix"), "s"),
            "fibrep.verify_self_s": (own("fibrep", "verify_model"), "s"),
            "fibrep.matmul_flops_computed": (c["fibrep.flops"], "flop"),
            "fibrep.dim": (self.peaks.get("fibrep.dim", 0), "rows"),
            "fibrep.dense_fill": (
                ratio(c["fibrep.nonzeros"], c["fibrep.entries"]), "frac"),
            "fibrep.max_residual": (self.peaks.get("fibrep.residual", 0.0), "1"),
        }


def install(tracer: Tracer) -> None:
    """Patch the traced functions of an imported tlbraid in place."""
    import numpy as np

    # import_module: the package re-exports a function named ``bracket``,
    # which shadows the submodule as an attribute.
    braid, bracket, cli, fibrep, laurent, tl = (
        importlib.import_module(f"tlbraid.{name}")
        for name in ("braid", "bracket", "cli", "fibrep", "laurent", "tl")
    )
    LaurentPoly, PlanarPairing, TLElement = laurent.LaurentPoly, tl.PlanarPairing, tl.TLElement
    holders = [m for name, m in sys.modules.items() if name.split(".")[0] == "tlbraid"]
    holders += [LaurentPoly, PlanarPairing, TLElement]
    counts = tracer.counts
    identities: dict[int, tuple] = {}

    def patch(original, layer, name, hook=None):
        traced = tracer.wrap(layer, name, original, hook)
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, attr, traced)

    def on_compose(result, upper, lower):
        n = lower.size
        if n not in identities:
            identities[n] = tuple(range(n, 2 * n)) + tuple(range(n))
        counts["tl.identity_composes"] += lower.partner == identities[n]
        return result

    def on_element_mul(result, a, b):
        if isinstance(result, TLElement):
            width = len(result.terms)
            counts["tl.width_sum"] += width
            tracer.peak("tl.width", width)
        return result

    def on_laurent_mul(result, a, b):
        if isinstance(result, LaurentPoly):
            other = len(b.terms) if isinstance(b, LaurentPoly) else int(b != 0)
            counts["laurent.term_pairs"] += len(a.terms) * other
            coeffs = result.terms.values()
            tracer.peak("laurent.bits", max((abs(x).bit_length() for x in coeffs), default=0))
        return result

    def on_state_sum(result, word):
        counts["bracket.states"] += 1 << len(word.letters)
        tracer.route_results["state_sum"] = result
        return result

    def on_via_tl(result, word):
        tracer.route_results["via_tl"] = result
        return result

    def on_parse(result, text, strands):
        counts["braid.letters"] += len(result.letters)
        return result

    class CountingArray(np.ndarray):
        """Counts the flops of every dense matmul verify_model performs."""

        def __matmul__(self, other):
            count_matmul(self, other)
            return np.ndarray.__matmul__(self, other)

        def __rmatmul__(self, other):
            count_matmul(other, self)
            return np.ndarray.__rmatmul__(self, other)

    def count_matmul(a, b):
        a, b = np.asarray(a), np.asarray(b)
        per_term = 8 if np.iscomplexobj(a) or np.iscomplexobj(b) else 2
        counts["fibrep.flops"] += per_term * a.shape[0] * a.shape[1] * b.shape[1]

    def on_tl_generator(result, n, *args, **kwargs):
        counts["fibrep.nonzeros"] += int(np.count_nonzero(result))
        counts["fibrep.entries"] += result.size
        tracer.peak("fibrep.dim", len(result))
        return result.view(CountingArray)

    def on_verify(result, *args, **kwargs):
        if result.passed:
            tracer.peak("fibrep.residual", max(c.residual for c in result.checks))
        return result

    patch(PlanarPairing.__init__, "tl", "pairing_init")
    patch(PlanarPairing.compose, "tl", "compose", on_compose)
    patch(TLElement.__mul__, "tl", "element_mul", on_element_mul)
    patch(tl.markov_trace, "tl", "markov_trace")
    patch(LaurentPoly.__mul__, "laurent", "mul", on_laurent_mul)
    patch(bracket.bracket_state_sum, "bracket", "state_sum", on_state_sum)
    patch(bracket.bracket_via_tl, "bracket", "via_tl", on_via_tl)
    patch(braid.parse_braid, "braid", "parse", on_parse)
    patch(cli.main, "cli", "main")
    patch(fibrep.verify_model, "fibrep", "verify_model", on_verify)
    patch(fibrep.tl_generator_matrix, "fibrep", "tl_generator_matrix", on_tl_generator)
    patch(fibrep.braid_generator_matrix, "fibrep", "braid_generator_matrix")
