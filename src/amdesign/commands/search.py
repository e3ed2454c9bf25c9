"""``amdesign search``: the seeded searches for [16,8,4] codes."""

from __future__ import annotations

from .. import catalog
from ..gf2core import BinaryCode, WeightDistribution, format_generator
from .common import print_code


def _search_payload(args, c: BinaryCode, wd: WeightDistribution) -> int:
    return print_code(args, c, {
        "length": c.n,
        "dimension": c.dimension,
        "rows": format_generator(c).split(),
        "weight_distribution": {str(w): a for w, a in wd.counts.items()},
    })


def run_type1(args) -> int:
    cfg = catalog.SearchConfig(seed=args.seed, max_iterations=args.max_iterations)
    return _search_payload(args, *catalog.search_type_i_16(cfg))


def run_fsd(args) -> int:
    cfg = catalog.SearchConfig(seed=args.seed, max_iterations=args.max_iterations)
    return _search_payload(args, *catalog.search_even_fsd(args.n, args.d, cfg))
