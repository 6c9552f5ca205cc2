"""`cubeharm verify`: identity suites over a generated basis or one given
polynomial, configured by flags or by a JSON job file."""

from __future__ import annotations

import math

from ._cli_common import (
    UsageError,
    _check_radius_power,
    _check_weight_degree,
    _degree_limit,
    _domain,
    _emit,
    _parse_exponents,
    _parse_input,
    _radius_bits,
)

# Largest degree limit `verify` parses --poly and --phi with (--deg above 16
# raises the limit to it).  A power costs one polynomial product per unit of
# its exponent, and the suite computes a radial factor, with factorials of
# the degree, per degree of the input and per coefficient of a profile.
# Measured as whole processes at degree 100: `--n 8 --poly (1+x1+x2)^100`
# (5151 terms) took 4.0 s, and the quadrature profile t^2 (1+t)^98 against
# (1+x1)^100 took 1.0 s, but 32 s at degree 200.  So this is at most about
# 4 s of work for one expression and one profile.
MAX_VERIFY_DEGREE = 100

# The most integrals `verify` may evaluate: per basis element (a monomial of
# degree <= --deg, or --poly) 2 for a surface mean and per --k value or
# quadrature profile, and m + 1 per Pizzetti profile.  As whole processes,
# `verify --n 2 --deg 8 --identities pizzetti --m 499` (67,500 integrals)
# took 2.3 s and `verify --n 8 --deg 6 --k 0,1,...,19` (126,000 integrals, a
# 10 MB report) 0.55 s.
MAX_VERIFY_INTEGRALS = 200_000

# Bits of all the powers of r in the radial factors of one `verify` run, as
# _check_radial_bits counts them.  MAX_RADIUS_POWER_BITS bounds one value,
# but the suite builds a factor per parameter, region, degree and profile
# coefficient, and reads each once per element of that degree: `verify --n 2
# --deg 8 --k 0,1,...,999 --identities volume` (0.6 G bits at --r 1e30, 2.0 G
# at 1e100) took 16 s and 66 s.  As whole processes on a 2-core Xeon at this
# budget, `--n 8 --deg 6 --k 0,...,19 --r 1e2985` (some 2,500 elements) took
# 3.5 s, `--n 3 --deg 40 --k 0 --r 1e3900` 2.6 s, that --k 0,...,999 request
# at --r 200 2.4 s and `--n 2000 --poly x1^2-x2^2 --k 0,1,2,3 --r 1e250`
# 2.0 s.  Re-measured once each radial factor took the power of r that
# grows with the dimension last (before it in brackets): 4.3 s (4.6-4.7 s),
# 1.3 s (3.7 s), 2.9 s (3.8-3.9 s) and 1.3 s (2.1 s).  So a request takes
# at most about 4 s.  Both of r's numerator and denominator may be large:
# no Fraction normalises by a gcd of two numbers of a dimension-sized power
# of r, and `--n 2 --poly x1^2 --identities volume --k 999 --r
# (10^400+1)/(10^400-1)` takes 2.9-3.2 s (3.1-3.3 s).  A --phi with many
# nonzero coefficients is summed over one common denominator, so `--n 2000
# --deg 100 --poly x1^2-x2^2 --identities quadrature --phi "t^2*(1+t)^98"
# --r 1e-8` takes 0.12 s.
MAX_VERIFY_RADIAL_BITS = 50_000_000

# Characters of a job file; a job is a few hundred.
MAX_JOB_CHARS = 1_000_000

# --identities token -> name of its identities.Identity member
_IDENTITY_TOKENS = {
    "surface": "SURFACE_MEAN",
    "volume": "VOLUME_MEAN",
    "quadrature": "WEIGHTED_QUADRATURE",
    "pizzetti": "PIZZETTI",
}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


# job file field -> (what its JSON value must be, check)
_JOB_FIELDS = {
    "n": ("an integer", _is_int),
    "r": ("a rational string or a number", lambda v: isinstance(v, (str, float)) or _is_int(v)),
    "deg": ("an integer", _is_int),
    "k": ("a list of integers", lambda v: isinstance(v, list) and all(map(_is_int, v))),
    "m": ("an integer", _is_int),
    "identities": ("a list of strings", _is_str_list),
    "phi": ("a list of strings", _is_str_list),
    "poly": ("a string", lambda v: isinstance(v, str)),
    "format": ('"json" or "csv"', lambda v: v in ("json", "csv")),
    "out": ("a string", lambda v: isinstance(v, str)),
}


def _load_job(args) -> None:
    """Fill the verify namespace from a JSON job file.

    The file is the whole configuration: {"n": 2, "r": "1/1", "deg": 8,
    "k": [0, 1], "m": 1, "identities": ["surface"], "phi": ["t^2/2"],
    "poly": "x1^2", "format": "json", "out": "report.json"}.  Unknown keys
    are rejected so typos fail loudly, and so is a value of the wrong JSON
    type.  A file of more than MAX_JOB_CHARS characters, or one nested
    deeper than the JSON reader recurses, cannot be read.
    """
    import json

    try:
        with open(args.job) as fh:
            text = fh.read(MAX_JOB_CHARS + 1)  # a device such as /dev/zero never ends
        if len(text) > MAX_JOB_CHARS:
            raise ValueError(f"more than {MAX_JOB_CHARS} characters")
        payload = json.loads(text)
    except (OSError, ValueError, RecursionError) as exc:  # RecursionError: deep nesting
        raise UsageError(f"cannot read job file {args.job!r}: {exc}")
    if not isinstance(payload, dict):
        raise UsageError("job file must hold a JSON object")
    unknown = set(payload) - set(_JOB_FIELDS)
    if unknown:
        raise UsageError(f"unknown job file fields: {sorted(unknown)}")
    for name, value in payload.items():
        expected, valid = _JOB_FIELDS[name]
        if not valid(value):
            raise UsageError(f"job file field {name!r} must be {expected}, got {json.dumps(value)}")
        if name in ("k", "identities"):
            value = ",".join(str(v) for v in value)
        elif name == "r":
            value = str(value)
        setattr(args, name, value)


def _check_radial_bits(d, degree: int, identities, config) -> None:
    """Refuse a suite whose radial factors, for elements of degree <=
    `degree`, hold more than MAX_VERIFY_RADIAL_BITS bits of powers of r.
    Each parameter of an identity makes one functional per region (a
    Pizzetti profile one per diagonal whose Laplacian link may be nonzero),
    and a functional one factor per even degree of an element (odd degrees
    integrate to zero) and one for a mass, each a sum of one term r^e per
    nonzero coefficient of its profile, with e <= n + degree + the profile's
    degree."""
    from .identities import Identity, default_pizzetti_profiles, default_quadrature_profiles

    functionals = []  # (count, nonzero coefficients, profile degree)
    for identity in identities:
        if identity is Identity.SURFACE_MEAN:
            functionals.append((2, 1, 0))
        elif identity is Identity.VOLUME_MEAN:
            functionals += [(2, 1, k + 1) for k in config.ks]
        elif identity is Identity.WEIGHTED_QUADRATURE:
            for phi in config.phis or default_quadrature_profiles():
                functionals.append((2, sum(map(bool, phi.coeffs)), phi.degree))
        else:
            for phi in config.phis or default_pizzetti_profiles(config.m):
                diagonals = min(config.m, (phi.degree + 1) // 2, degree // 2 + 1)
                functionals.append((1 + diagonals, sum(map(bool, phi.coeffs)), phi.degree))
    top = d.n + degree
    exponents = sum(f * c * (top + q) for f, c, q in functionals)
    bits = _radius_bits(d) * (degree // 2 + 2) * exponents
    if bits > MAX_VERIFY_RADIAL_BITS:
        raise UsageError(
            f"verify builds radial factors with about {bits} bits of powers of r "
            f"in all, above the limit of {MAX_VERIFY_RADIAL_BITS}"
        )


def run(args) -> int:
    if args.job:
        _load_job(args)
    if args.n is None:
        raise UsageError("--n is required (as a flag or a job file field)")
    d = _domain(args)
    names = []
    for token in args.identities.split(","):
        token = token.strip()
        if token not in _IDENTITY_TOKENS:
            raise UsageError(
                f"unknown identity {token!r}; choose from {','.join(_IDENTITY_TOKENS)}"
            )
        names.append(_IDENTITY_TOKENS[token])
    ks = _parse_exponents(args.k)
    degree_limit = _degree_limit(args)
    if (args.poly or args.phi) and degree_limit > MAX_VERIFY_DEGREE:
        # checked before parsing: a power costs one product per unit of its exponent
        raise UsageError(
            f"--deg {args.deg} raises the degree limit of --poly and --phi to {degree_limit}, "
            f"above the limit of {MAX_VERIFY_DEGREE}"
        )
    from .identities import Identity, SuiteConfig, run_suite
    from .kernel import BasisRequest, graded_basis

    request = BasisRequest(n=args.n, max_degree=args.deg, m=args.m)
    if not args.poly:
        request.validate()  # bounds the monomial count below
    # the degree limit also bounds a --phi profile and the default quadrature ones
    weight_degree = degree_limit
    if "VOLUME_MEAN" in names:
        weight_degree = max(weight_degree, _check_weight_degree("--k", max(ks), max(ks) + 1))
    if "PIZZETTI" in names and not args.phi:
        weight_degree = max(weight_degree, _check_weight_degree("--m", args.m, 2 * args.m + 2))
    profiles = len(args.phi or ())  # else 5 default quadrature and 3 Pizzetti ones
    per_element = {
        "SURFACE_MEAN": 2,
        "VOLUME_MEAN": 2 * len(ks),
        "WEIGHTED_QUADRATURE": 2 * (profiles or 5),
        "PIZZETTI": (args.m + 1) * (profiles or 3),
    }
    elements = 1 if args.poly else math.comb(args.n + args.deg, args.deg)
    integrals = elements * sum(per_element[name] for name in names)
    if integrals > MAX_VERIFY_INTEGRALS:
        raise UsageError(
            f"verify takes {integrals} integrals, above the limit of {MAX_VERIFY_INTEGRALS}"
        )
    _check_radius_power(d, args.n + degree_limit + weight_degree)
    phis = tuple(_parse_input(args, text, profile=True) for text in args.phi) if args.phi else None
    identities = [Identity[name] for name in names]
    config = SuiteConfig(ks=ks, m=args.m, phis=phis)
    degree = args.deg
    if args.poly:
        p = _parse_input(args, args.poly)
        degree = p.total_degree
    _check_radial_bits(d, degree, identities, config)
    basis = [("user[0]", p)] if args.poly else graded_basis(request)
    report = run_suite(basis, d, identities, config)
    data = report.to_csv() if args.format == "csv" else report.to_json()
    _emit(args, data)
    return 0 if report.all_pass else 2
