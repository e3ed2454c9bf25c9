"""``amdesign harmonic``: harmonic-space dimensions, harmonic weight
enumerators and the check of their dual transform."""

from __future__ import annotations

from .. import harmonic
from ..gf2core import PreconditionError, dual
from .common import print_payload, read_code


def run_basis_dim(args) -> int:
    dim = harmonic.harm_dimension(args.n, args.k)
    print_payload(args, {"n": args.n, "k": args.k, "dimension": dim}, [str(dim)])
    return 0


def run_wenum(args) -> int:
    c = read_code(args)
    basis = harmonic.harm_basis(c.n, args.k)
    if not 0 <= args.index < len(basis):
        raise PreconditionError(
            f"index out of range: Harm_{args.k}({c.n}) has {len(basis)} basis functions")
    w = harmonic.harmonic_weight_enumerator(c, basis[args.index])
    payload = {"k": args.k, "index": args.index, "degree": w.degree,
               "coefficients": [str(x) for x in w.coeffs], "zero": w.is_zero}
    print_payload(args, payload, [str(w)])
    return 0


def run_transform_check(args) -> int:
    c = read_code(args)
    dual_code = dual(c)
    basis = harmonic.harm_basis(c.n, args.k)
    images = [harmonic.bachoc_transform(w.divide_xy(args.k), args.k, c.size, c.n)
              for w in harmonic.harmonic_weight_enumerators(c, basis)]
    mismatches = [idx for idx, (image, w) in enumerate(
                      zip(images, harmonic.harmonic_weight_enumerators(dual_code, basis)))
                  if image != w.divide_xy(args.k)]
    count = len(basis)
    payload = {"k": args.k, "functions": count, "mismatches": mismatches}
    print_payload(args, payload, [
        f"{count} basis function(s), {len(mismatches)} mismatch(es)"])
    return 0 if not mismatches else 1
