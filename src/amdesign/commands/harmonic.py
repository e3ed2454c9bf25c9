"""``amdesign harmonic``: harmonic-space dimensions, harmonic weight
enumerators and the check of their dual transform."""

from __future__ import annotations

from .. import harmonic, polyring
from ..gf2core import PreconditionError, dual
from .common import print_payload, read_code


def run_basis_dim(args) -> int:
    dim = harmonic.harm_dimension(args.n, args.k)
    print_payload(args, {"n": args.n, "k": args.k, "dimension": dim}, [str(dim)])
    return 0


def run_wenum(args) -> int:
    c = read_code(args)
    basis = harmonic.harm_basis(c.n, args.k)
    # Harm_k(n) is empty for k > n/2: refused before --index is read.
    if not basis:
        raise PreconditionError(f"no basis functions exist for k={args.k}, n={c.n}")
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
    basis = harmonic.harm_basis(c.n, args.k)
    # Harm_k(n) is empty for k > n/2: refused before the dual is built.
    if not basis:
        raise PreconditionError(f"no basis functions exist for k={args.k}, n={c.n}")
    dual_code = dual(c)

    def quotients(code):
        return [polyring.HomPoly(c.n, tuple(row)).divide_xy(args.k)
                for row in harmonic.harmonic_weight_enumerators(code, basis)]

    zs = quotients(c)
    images = [harmonic.bachoc_transform(z, args.k, c.size, c.n) for z in zs]
    # A self-dual code is its own dual: its enumerators are read once.
    dual_zs = zs if dual_code == c else quotients(dual_code)
    mismatches = [idx for idx, (image, z) in enumerate(zip(images, dual_zs)) if image != z]
    count = len(basis)
    payload = {"k": args.k, "functions": count, "mismatches": mismatches}
    print_payload(args, payload, [
        f"{count} basis function(s), {len(mismatches)} mismatch(es)"])
    return 0 if not mismatches else 1
