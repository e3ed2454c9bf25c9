"""``amdesign poly``: Gleason coordinates of an enumerator and the
vanishing-coefficient scan of Lemma 4.1."""

from __future__ import annotations

from .. import harmonic, polyring
from ..gf2core import PreconditionError, weight_distribution
from .common import print_payload, read_code


def run_gleason(args) -> int:
    c = read_code(args)
    if args.t < 0:
        raise PreconditionError("t must be nonnegative")
    if args.t == 0:
        # Harm_0(n) is the constants, with the classical enumerator at index 0.
        if args.index != 0:
            raise PreconditionError(
                f"index out of range: Harm_0({c.n}) has 1 basis functions")
        p = polyring.weight_enumerator_poly(weight_distribution(c), c.n)
    else:
        # A t with no Gleason basis is refused before --index is read.
        polyring.gleason_basis(args.t, c.n)
        basis = harmonic.harm_basis(c.n, args.t)
        if not 0 <= args.index < len(basis):
            raise PreconditionError(
                f"index out of range: Harm_{args.t}({c.n}) has {len(basis)} basis functions")
        p = harmonic.zcf(c, basis[args.index])
    try:
        coeffs = polyring.gleason_decompose(p, args.t, c.n)
    except polyring.SpanError as err:
        payload = {"t": args.t, "in_span": False,
                   "residual": [str(x) for x in err.residual.coeffs]}
        print_payload(args, payload, [f"outside the invariant span: {err}"])
        return 1
    payload = {"t": args.t, "in_span": True,
               "coefficients": [str(x) for x in coeffs]}
    print_payload(args, payload,
                  ["coefficients: " + " ".join(str(x) for x in coeffs)])
    return 0


def run_lemma41(args) -> int:
    pairs = polyring.vanishing_coefficient_search(args.alpha_max)
    payload = {"alpha_max": args.alpha_max, "pairs": [list(p) for p in pairs]}
    print_payload(args, payload,
                  [f"alpha={a} i={i}" for a, i in pairs])
    return 0
