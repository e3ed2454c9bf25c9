"""Traced run of one amdesign command, and the per-layer metrics of its spans.

    PYTHONPATH=src python bench/shim.py SPANS_FILE -- <amdesign arguments>

runs ``amdesign.cli.run(arguments)`` in this process after rebinding the
functions listed in LAYERS with wrappers that record a span per call: layer,
function, start, end and parent span. Counters are kept by the same wrappers.
A name is rebound in every amdesign module namespace that holds it, because
``from .gf2core import dual`` copies the binding. Every binding is restored
before the spans are written. The program's source is not changed.
"""

from __future__ import annotations

import json
import sys
import time
from math import comb

# Layer (amdesign module) -> functions timed as spans of that layer.
LAYERS = {
    "gf2core": ("weight_distribution", "minimum_distance", "codewords_of_weight",
                "classify", "dual", "doubly_even_subcode", "read_generator_file"),
    "designs": ("support_design", "union", "is_t_design", "t_design_violation",
                "design_strength", "complement_design", "intersection_profile",
                "is_self_orthogonal_design", "mendelsohn_solve", "code_from_design",
                "read_design_file"),
    "harmonic": ("harm_basis", "harmonic_weight_enumerator", "zcf", "bachoc_transform",
                 "delsarte_design_check"),
    "ratlin": ("rref", "solve_columns", "nullspace"),
    "polyring": ("gleason_basis", "gleason_decompose", "vanishing_coefficient_search",
                 "weight_enumerator_poly", "macwilliams_transform_classical"),
    "catalog": ("builtin", "load_code", "pinned_type_i_16", "pinned_even_fsd_16",
                "search_type_i_16", "search_even_fsd"),
    "verify": ("assmus_mattson_check", "verify_thm_1_1", "verify_thm_1_2_type1",
               "verify_thm_1_2_fsd", "verify_thm_1_4_pipeline", "verify_cor_1_5",
               "strength_profile"),
}
# Methods timed as spans: (layer, class, method).
METHODS = (("harmonic", "HarmonicFunction", "tilde"),
           ("polyring", "HomPoly", "substitute_sum_diff"))
# The CLI's dispatched command functions are recognised by this prefix.
CLI_COMMAND_PREFIX = "_cmd_"


class Tracer:
    """Spans in memory: [layer, name, start, end, parent index, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []

    def count(self, name: str, amount: int = 1, index: int | None = None) -> None:
        if index is None:
            index = self.stack[-1] if self.stack else -1
        if index < 0:
            return
        counts = self.spans[index][5]
        counts[name] = counts.get(name, 0) + amount

    def span(self, layer: str, name: str, func, extra=None):
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([layer, name, 0.0, 0.0, self.stack[-1] if self.stack else -1, {}])
            self.stack.append(index)
            if extra is not None:
                extra(self, args)
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                self.spans[index][2:4] = [start, time.perf_counter()]
                self.stack.pop()
        wrapper.__wrapped__ = func
        return wrapper

    def walk(self, func):
        """Counts Gray-code walks and words; a walk's time falls in the span
        of the function that consumes it."""
        def wrapper(c):
            self.count("gf2core.walks")
            owner = self.stack[-1] if self.stack else -1
            words = 0
            try:
                for word in func(c):
                    words += 1
                    yield word
            finally:
                self.count("gf2core.words_visited", words, owner)
        wrapper.__wrapped__ = func
        return wrapper


def _scan_count(tracer, args):
    d, t = args[0], args[1]
    tracer.count("designs.scans")
    tracer.count("designs.subset_tests", comb(d.v, t) * d.b)


def _rref_count(tracer, args):
    matrix = args[0]
    tracer.count("ratlin.eliminations")
    tracer.count("ratlin.cells", len(matrix) * (len(matrix[0]) if matrix else 0))


def _candidate_count(tracer, args):
    tracer.count("catalog.candidates")


# Counters attached to a function's span: (module of the binding or None for
# every module, function) -> counter.
EXTRA = {
    (None, "is_t_design"): _scan_count,
    (None, "t_design_violation"): _scan_count,
    (None, "rref"): _rref_count,
    (None, "tilde"): lambda tracer, args: tracer.count("harmonic.tilde_calls"),
    (None, "substitute_sum_diff"): lambda tracer, args: tracer.count("polyring.sum_diff_calls"),
    # Every search candidate's spectrum is computed in catalog's namespace
    # (a survivor of the distance filter once more, for its dual).
    ("amdesign.catalog", "weight_distribution"): _candidate_count,
}


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Rebind the traced functions; returns what restore() needs."""
    import amdesign.cli  # noqa: F401  (loads every amdesign module)

    modules = {name: mod for name, mod in sys.modules.items()
               if name == "amdesign" or name.startswith("amdesign.")}
    saved = []

    def rebind(name, orig, make):
        for modname, mod in sorted(modules.items()):
            if getattr(mod, name, None) is orig:
                saved.append((mod, name, orig))
                setattr(mod, name, make(modname))

    for layer, names in LAYERS.items():
        for name in names:
            orig = getattr(modules[f"amdesign.{layer}"], name)
            func = _count_builds(tracer, orig) if name == "harm_basis" else orig

            def make(modname, layer=layer, name=name, func=func):
                extra = EXTRA.get((modname, name)) or EXTRA.get((None, name))
                return tracer.span(layer, name, func, extra)
            rebind(name, orig, make)
    iter_codewords = modules["amdesign.gf2core"].iter_codewords
    walk = tracer.walk(iter_codewords)
    rebind("iter_codewords", iter_codewords, lambda modname: walk)
    for layer, cls_name, name in METHODS:
        cls = getattr(modules[f"amdesign.{layer}"], cls_name)
        orig = cls.__dict__[name]
        saved.append((cls, name, orig))
        setattr(cls, name, tracer.span(layer, name, orig, EXTRA.get((None, name))))
    cli = modules["amdesign.cli"]
    for name in [n for n in vars(cli) if n.startswith(CLI_COMMAND_PREFIX)]:
        orig = getattr(cli, name)
        saved.append((cli, name, orig))
        setattr(cli, name, tracer.span("cli", name, orig))
    return saved


def _count_builds(tracer, cached):
    """harm_basis is memoised: a call is a build only when the cache missed."""
    def harm_basis(*args, **kwargs):
        misses = cached.cache_info().misses
        result = cached(*args, **kwargs)
        if cached.cache_info().misses > misses:
            tracer.count("harmonic.basis_builds")
        return result
    return harm_basis


def restore(saved) -> None:
    for owner, name, orig in reversed(saved):
        setattr(owner, name, orig)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: shim.py SPANS_FILE -- <amdesign arguments>", file=sys.stderr)
        return 2
    out_path, args = argv[0], argv[2:]
    t0 = time.perf_counter()
    import amdesign.cli as cli
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    saved = install(tracer)
    shim_s = time.perf_counter() - t0 - import_s
    try:
        rc = cli.run(args)
    finally:
        t1 = time.perf_counter()
        restore(saved)
        sys.stdout.flush()
        spans = json.dumps(tracer.spans)
        shim_s += time.perf_counter() - t1
        with open(out_path, "w") as f:
            f.write(json.dumps({"import_s": import_s, "shim_s": shim_s}) + "\n" + spans)
    return rc


# ----------------------------------------------------------------- metrics

COUNTERS = ("gf2core.walks", "gf2core.words_visited", "designs.scans",
            "designs.subset_tests", "harmonic.basis_builds", "harmonic.tilde_calls",
            "ratlin.eliminations", "ratlin.cells", "polyring.sum_diff_calls",
            "catalog.candidates")
SELF_TIMES = ("gf2core", "designs", "harmonic", "ratlin", "polyring", "catalog")


def read_spans(path) -> tuple[dict, list]:
    with open(path) as f:
        head = json.loads(f.readline())
        return head, json.loads(f.readline())


def command_metrics(spans: list, key: str | None) -> dict:
    """Per-layer counts and self times of one traced command, plus the
    verify.<key>.* metrics when the command carries a trace key."""
    out = dict.fromkeys(COUNTERS, 0)
    child_time = [0.0] * len(spans)
    for layer, name, start, end, parent, counts in spans:
        if parent >= 0:
            child_time[parent] += end - start
        for c, v in counts.items():
            out[c] += v
    for layer in SELF_TIMES:
        out[f"{layer}.self_s"] = 0.0
    out["harmonic.basis_s"] = 0.0
    dispatch = 0.0
    for i, (layer, name, start, end, parent, counts) in enumerate(spans):
        if layer == "cli":
            dispatch += end - start
        elif layer in SELF_TIMES:
            out[f"{layer}.self_s"] += end - start - child_time[i]
        if counts.get("harmonic.basis_builds"):
            out["harmonic.basis_s"] += end - start
    out["dispatch_s"] = dispatch
    if key is not None:
        walks, seconds = 0, 0.0
        for i, span in enumerate(spans):
            if span[0] == "verify" and span[4] >= 0 and spans[span[4]][0] == "cli":
                seconds += span[3] - span[2]
                walks += _subtree_count(spans, i, "gf2core.walks")
        out[f"verify.{key}.walks"] = walks
        out[f"verify.{key}.s"] = seconds
    return out


def _subtree_count(spans, root, counter):
    inside = {root}
    total = spans[root][5].get(counter, 0)
    for i in range(root + 1, len(spans)):
        if spans[i][4] in inside:
            inside.add(i)
            total += spans[i][5].get(counter, 0)
    return total


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
