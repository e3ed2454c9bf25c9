"""``amdesign code``: a code's parameters, class, dual and subcode."""

from __future__ import annotations

from ..gf2core import classify, doubly_even_subcode, dual, format_generator, weight_distribution
from .common import print_code, print_payload, read_code


def run_info(args) -> int:
    c = read_code(args)
    wd = weight_distribution(c)
    cls = classify(c, wd)
    dist = wd.min_nonzero() if c.dimension else None
    payload = {
        "length": c.n,
        "dimension": c.dimension,
        "size": c.size,
        "minimum_distance": dist,
        "class": cls.fields(),
        "weight_distribution": {str(w): a for w, a in sorted(wd.counts.items())},
    }
    flags = [name for name, value in cls.fields().items() if value is True]
    print_payload(args, payload, [
        f"length: {c.n}",
        f"dimension: {c.dimension}",
        f"size: {c.size}",
        f"minimum distance: {dist}",
        f"class: {', '.join(flags) or 'none'}; extremality: {cls.extremality}",
        "weights: " + " ".join(f"{w}:{a}" for w, a in sorted(wd.counts.items())),
    ])
    return 0


def run_dual(args) -> int:
    c = dual(read_code(args))
    return print_code(args, c, {"length": c.n, "rows": format_generator(c).split()})


def run_weights(args) -> int:
    wd = weight_distribution(read_code(args))
    payload = {"weight_distribution": {str(w): a for w, a in sorted(wd.counts.items())}}
    print_payload(args, payload,
                  [f"{w} {a}" for w, a in sorted(wd.counts.items())])
    return 0


def run_subcode(args) -> int:
    c = doubly_even_subcode(read_code(args))
    return print_code(args, c, {"length": c.n, "dimension": c.dimension,
                                "rows": format_generator(c).split()})
