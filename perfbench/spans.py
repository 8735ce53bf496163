"""Layer spans recorded from outside the program.

The traced run wraps each layer's entry points wherever a module of the
package has bound them, and replaces each registered check's ``run`` with a
wrapped copy.  A span records its name, its parent span, its start and end,
and for a few functions a count taken from the result.  Spans stay in memory
and are written out when the run ends.  The untraced run never imports this
module.

Only entry points are wrapped.  Helpers called once per element or per pair
(``mask_members``, ``additive_span``, ``is_graded``, ``ideal_sum`` and the
like) are left alone: a span each would cost more than the work they do, so
their time counts toward the caller's self time.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time

# layer module -> metric group -> functions whose self time forms the group
LAYERS = {
    "ring_core": {
        "build": (
            "make_cyclic_ring", "direct_product", "polynomial_quotient",
            "algebra_over_zn", "group_ring", "idealization", "module_self",
            "module_zn_quotient", "cyclic_group", "group_from_table",
        ),
        "revalidate": ("ring_from_tables",),
        "subring": ("subring_on", "unital_ring_on"),
    },
    "grading": {
        "build": (
            "validate_grading", "trivial_grading", "group_ring_grading",
            "idealization_grading", "poly_quotient_integer_grading",
            "explicit_grading",
        ),
        "classify": (
            "classify", "is_sigma_faithful", "is_e_faithful", "is_faithful",
            "is_strong", "is_first_strong", "support_is_subgroup",
        ),
    },
    "ideal_lattice": {
        "enum_graded": ("enumerate_graded_left_ideals",),
        "enum_all": ("enumerate_left_ideals", "enumerate_submodules"),
        "label": ("ideal_label",),
    },
    "graph_engine": {
        "graph": ("build_intersection_graph", "intersection_graph"),
        "invariants": (
            "graph_invariants", "diameter", "girth", "clique_number",
            "domination_number", "is_planar", "is_connected",
            "connected_components", "maximal_cliques", "is_complete",
            "is_null", "is_star", "is_regular", "star_center", "classify_shape",
        ),
    },
    "structure_maps": {
        "identity_ring": ("identity_component_ring",),
        "sim_partition": ("sim_partition",),
        "phi_iso": ("phi_iso_check",),
        "transfer": ("gamma_omega_transfer",),
        "quotient": ("quotient_graph", "induced_factor_grading"),
    },
    "ordered_grading": {
        "compare": ("ordered_comparison_check",),
        "lemma_ll": ("lemma_ll_check", "leading_ideal"),
    },
    "theorem_suite": {
        "run_all": ("run_all", "run_check"),
    },
    "cli": {
        "main": ("main",),
        "parse": ("parse_instance", "load_instance"),
    },
}

# groups that also report a call count
CALL_COUNTS = {
    "ring_core.build", "ring_core.subring", "grading.build",
    "ideal_lattice.label", "graph_engine.graph",
}
ENUM_GROUPS = ("ideal_lattice.enum_graded", "ideal_lattice.enum_all")


def _count(name: str, result):
    """What a span records from its result."""
    if name.startswith("ideal_lattice.enumerate_"):
        return (len(result),)
    if name == "graph_engine.build_intersection_graph":
        return (result.n, result.edge_count)
    return None


class Tracer:
    """Span recorder; one per traced run."""

    def __init__(self) -> None:
        # [name, parent index, start ns, end ns, count]
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, clock(), 0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            rec[4] = _count(name, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every entry point in every module of the package that binds
        it, and every registered check."""
        package = {k: m for k, m in sys.modules.items() if k == "idealgraphs" or k.startswith("idealgraphs.")}
        wrapped = {}
        for layer, groups in LAYERS.items():
            module = package[f"idealgraphs.{layer}"]
            for funcs in groups.values():
                for fname in funcs:
                    original = getattr(module, fname, None)
                    if original is None:
                        continue
                    wrapped[id(original)] = self.wrap(f"{layer}.{fname}", original)
        for module in package.values():
            for attr, value in list(vars(module).items()):
                if callable(value) and id(value) in wrapped:
                    setattr(module, attr, wrapped[id(value)])
        registry = package["idealgraphs.theorem_suite"]._REGISTRY
        for tid, check in list(registry.items()):
            registry[tid] = dataclasses.replace(
                check, run=self.wrap(f"theorem_suite.check.{tid}", check.run)
            )


def group_of(name: str) -> str | None:
    layer, _, fname = name.partition(".")
    if layer == "theorem_suite" and fname.startswith("check."):
        return name
    for group, funcs in LAYERS.get(layer, {}).items():
        if fname in funcs:
            return f"{layer}.{group}"
    return None


def layer_metrics(spans: list[list], rounds: int, check_ids) -> dict:
    """Per-round self times, call counts and result counts by group."""
    child_time = [0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    groups = [group_of(s[0]) for s in spans]
    self_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    for i, (name, parent, start, end, _) in enumerate(spans):
        g = groups[i]
        self_ns[g] = self_ns.get(g, 0) + (end - start - child_time[i])
        if parent < 0 or groups[parent] != g:
            calls[g] = calls.get(g, 0) + 1
    found = sum(s[4][0] for s in spans if s[4] and s[0].startswith("ideal_lattice.enumerate_"))
    graphs = [s[4] for s in spans if s[0] == "graph_engine.build_intersection_graph"]

    def per_round(x) -> float:
        return x / rounds

    out = {}
    for layer, groups_of_layer in LAYERS.items():
        for group in groups_of_layer:
            key = f"{layer}.{group}"
            out[f"{key}_s"] = per_round(self_ns.get(key, 0) / 1e9)
            if key in CALL_COUNTS:
                out[f"{key}_calls"] = per_round(calls.get(key, 0))
    out["ideal_lattice.enum_calls"] = per_round(sum(calls.get(g, 0) for g in ENUM_GROUPS))
    out["ideal_lattice.ideals_found"] = per_round(found)
    out["graph_engine.vertices"] = per_round(sum(n for n, _ in graphs))
    out["graph_engine.edges"] = per_round(sum(m for _, m in graphs))
    for tid in check_ids:
        key = f"theorem_suite.check.{tid}"
        out[f"{key}_s"] = per_round(self_ns.get(key, 0) / 1e9)
    out["trace.spans"] = per_round(len(spans))
    return out
