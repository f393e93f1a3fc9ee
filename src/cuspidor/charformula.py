"""Depth-zero character-sum evaluation in the finite model.

Per twist-orbit of roots: the orbit type (symmetric iff it contains the
negative), the residue splitting field GF(q^d), the quadratic character
standing in for the unramified chi-data, and the square class of the scale
factor a determined by the squared Gauss-sum normalization.  delta_II is the
exact product of the per-orbit quadratic values and theta_sum is the
Weyl-summed character value.

Leading constants (Kottwitz sign, Weyl discriminant, epsilon factor) are
local-constant quantities outside the finite model and enter only as
caller-supplied symbolic defaults.

The full character identities themselves are not desk-checkable (they need
p-adic harmonic analysis on both sides); the module's guarantees are
the square-class well-definedness of delta_II and the Weyl reindexing
invariance of theta_sum, which the acceptance suite sweeps.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from .cyclotomic import Cyc
from .errors import (
    FailedCheck,
    InvalidPoint,
    NotInOrbit,
    NotRealizable,
    SingularRoot,
)
from .exactcore import QV
from .ffield import FiniteField, MultCharacter
from .torus import FrobeniusTorus, TorusCharacter

ASYMMETRIC = "asymmetric"
SYMMETRIC_UNRAMIFIED = "symmetric-unramified"


class ChiOrbit:
    __slots__ = ("rep", "roots", "kind", "degree")

    def __init__(self, rep, roots, kind, degree):
        self.rep = rep
        self.roots = roots
        self.kind = kind
        self.degree = degree

    def to_json(self):
        return {"rep": list(self.rep), "size": len(self.roots),
                "kind": self.kind, "degree": self.degree}


class ChiData:
    __slots__ = ("torus", "orbits")

    def __init__(self, torus, orbits):
        self.torus = torus
        self.orbits = orbits

    def symmetric_orbits(self):
        return [o for o in self.orbits if o.kind == SYMMETRIC_UNRAMIFIED]

    def to_json(self):
        return [o.to_json() for o in self.orbits]


def classify_chi_data(torus: FrobeniusTorus) -> ChiData:
    """Orbit types of the twist acting on the roots.

    Symmetric iff the orbit of alpha contains -alpha; every symmetric orbit
    in this finite model is unramified (the residue world has no ramified
    quadratic extensions), so the kinds are asymmetric and
    symmetric-unramified only.
    """
    rd = torus.rd
    w = torus.w.matrix
    seen = set()
    orbits = []
    for a in rd.roots:
        if a in seen:
            continue
        orbit = [a]
        seen.add(a)
        cur = tuple(w.apply(a))
        while cur != a:
            orbit.append(cur)
            seen.add(cur)
            cur = tuple(w.apply(cur))
        neg = tuple(-x for x in a)
        kind = SYMMETRIC_UNRAMIFIED if neg in orbit else ASYMMETRIC
        orbits.append(ChiOrbit(a, tuple(orbit), kind, len(orbit)))
    return ChiData(torus, orbits)


class ModAData:
    """Per symmetric orbit: depth 0 and the square class of a_alpha.

    ``rows`` holds one (rep, alpha row on S(k), sign of a_alpha) triple per
    symmetric orbit, in the order of ``classes``, built once here from the
    torus's ``root_row``; delta_II and theta_sum read them instead of
    rebuilding them per point.

    ``terms(theta, field)`` is theta_sum's table for one (theta's row, e,
    field): it maps a point y of S(k) to (delta_II sign at y, e theta(y)
    mod e).  Those depend on the rows, theta's row, e and the field's sign
    table alone, so every call with that theta and field reuses them.  The
    tables hold at most |S(k)| entries each and are filled by theta_sum.
    """

    __slots__ = ("torus", "classes", "depth", "rows", "_terms")

    def __init__(self, torus, classes):
        self.torus = torus
        self.classes = classes  # orbit rep -> +1 / -1 (square / nonsquare)
        self.depth = 0
        self.rows = tuple((rep, torus.root_row(rep), sign)
                          for rep, sign in classes.items())
        self._terms = {}

    def sign(self, rep):
        return self.classes[tuple(rep)]

    def terms(self, theta, field) -> dict:
        """The table {y: (delta_II sign, e theta(y) mod e)} for theta and field."""
        key = (theta.row, theta.exponent, field)
        table = self._terms.get(key)
        if table is None:
            table = self._terms[key] = {}
        return table

    def to_json(self):
        return {str(list(k)): v for k, v in self.classes.items()}


def mod_a_data(theta: TorusCharacter, chi: ChiData = None,
               validate_bound: int = 2500) -> ModAData:
    """Square classes of the depth-zero a-data.

    The defining relation cannot hold pointwise at depth zero; the class is
    pinned by the squared Gauss-sum form of the chi-data normalization:
    sgn(a) g(psi)^2 = (-1)^((q_pm - 1)/2) q_alpha, and since g(psi)^2 =
    psi(-1) q_alpha for symmetric composites this gives sgn(a) =
    psi(-1) (-1)^((q_pm - 1)/2).

    The Gauss identity is verified exactly in every orbit field GF(q^d) of
    at most ``validate_bound`` elements.  Its inputs are fixed by the orbit
    degree d and the composite value ``base`` (the field is the torus's
    GF(q^d), and both signs follow from base, q^d and q^(d/2)), so it runs
    once per distinct (d, base) on a torus: a passed check is kept in the
    torus's memo under ("gauss_identity", d, base), and a failing one
    raises FailedCheck and keeps nothing.
    """
    t = theta.torus
    rd = t.rd
    if chi is None:
        chi = classify_chi_data(t)
    classes = {}
    for orbit in chi.symmetric_orbits():
        d = orbit.degree
        if d % 2:
            raise FailedCheck("symmetric orbit of odd size")
        coroot = rd.coroot(orbit.rep)
        base = theta.composite_with_coroot(coroot, d)
        if base == 0:
            raise SingularRoot("theta∘N∘alpha_vee is trivial on the orbit field")
        q_alpha = t.q ** d
        q_half = t.q ** (d // 2)
        psi_minus_one = base * ((q_alpha - 1) // 2) % 1
        if psi_minus_one not in (0, Fraction(1, 2)):
            raise FailedCheck("psi(-1) is not a sign")
        s1 = 1 if psi_minus_one == 0 else -1
        s2 = -1 if (q_half - 1) // 2 % 2 else 1
        sign = s1 * s2
        if q_alpha <= validate_bound:
            t._memo(("gauss_identity", d, base),
                    lambda: _validate_gauss_identity(t, base, d, sign, s2))
        classes[tuple(orbit.rep)] = sign
    return ModAData(t, classes)


def _validate_gauss_identity(t, base, d, sign, s2) -> bool:
    """g(psi)^2 = psi(-1) q exactly, so sgn(a) g(psi)^2 = (+-) q as claimed.

    Returns True, the flag ``mod_a_data`` keeps; FailedCheck otherwise.
    """
    field = t.extension_field(d)
    order = base.denominator
    if (field.q - 1) % order:
        raise FailedCheck(
            "composite character order does not divide q^d - 1")
    psi = MultCharacter(field, order, int(base * order) % order)
    g = psi.gauss_sum()
    gsq = g * g
    want = Cyc.rational(field.q) if psi(field.neg(field.one)) == Cyc.rational(1) \
        else Cyc.rational(-field.q)
    if not (gsq == want):
        raise FailedCheck("Gauss square identity fails")
    lhs = gsq * Fraction(sign)
    rhs = Cyc.rational(s2 * field.q)
    if not (lhs == rhs):
        raise FailedCheck("a-data normalization identity fails")
    return True


class DeltaResult:
    __slots__ = ("value", "skipped_orbits", "factors")

    def __init__(self, value, skipped_orbits, factors):
        self.value = value
        self.skipped_orbits = skipped_orbits
        self.factors = factors

    def to_json(self):
        return {"value": self.value.to_json(),
                "skipped": [list(r) for r in self.skipped_orbits],
                "factors": {str(list(k)): v for k, v in self.factors.items()}}


def delta_II(theta: TorusCharacter, gamma: QV, chi: ChiData, a: ModAData,
             field: FiniteField = None) -> DeltaResult:
    """Product over orbits of sgn((alpha(gamma) - 1)/a_alpha), exactly.

    Asymmetric orbits contribute 1; orbits with alpha(gamma) = 1 are skipped
    and reported, mirroring the product's own condition.  Only the square
    class of a enters; representatives within one orbit agree under the
    convention a_{-alpha} = -a_alpha.  The orbits and their rows are
    ``a.rows``.
    """
    t = theta.torus
    x = _check_point(t, gamma)
    if field is None:
        field = t.extension_field(t.splitting_degree)
    signs = field.sign_table(theta.exponent)
    skipped = []
    factors = {}
    for rep, row, a_sign in a.rows:
        f = _orbit_factor(row, x, signs)
        if f is None:
            skipped.append(rep)
        else:
            factors[tuple(rep)] = f * a_sign
    return DeltaResult(Cyc.rational(math.prod(factors.values())), skipped,
                       factors)


def _check_point(t, gamma: QV) -> tuple:
    """The S(k) coordinates of gamma; InvalidPoint unless it is in S(k) = ker(F - 1).

    The rank is checked on every call and the coordinates are read from the
    torus's ``point_coords`` table, which never stores a point outside
    S(k), so such a point raises InvalidPoint on every call.
    """
    if len(gamma.coords) != t.rd.rank:
        raise InvalidPoint(f"point has {len(gamma.coords)} coordinates, "
                           f"the torus has rank {t.rd.rank}")
    try:
        return t.point_coords(gamma)
    except ValueError:
        raise InvalidPoint(
            f"point {gamma!r} is not in S(k) = ker(F - 1)") from None


def _orbit_factor(row, x, signs):
    """sgn(alpha(gamma) - 1) for alpha's row on S(k) at coordinates x, or None.

    ``signs`` is the field's ``sign_table`` at e = exp S(k) = len(signs),
    and alpha(gamma) = zeta^k with k the dot product of row and x mod e.
    """
    s = signs[sum(map(mul, row, x)) % len(signs)]
    if s == 0:
        raise NotRealizable("alpha(gamma) does not live in the splitting field")
    return s


def delta_II_at_representative(theta, gamma, chi, a, orbit, rep,
                               field: FiniteField = None):
    """The orbit factor evaluated at any root rep of the orbit.

    Every root of the orbit is a w-translate of orbit.rep, so a_rep has the
    square class of a_{orbit.rep} by Frobenius transport.  The rule
    a_{-alpha} = -a_alpha agrees with it: -alpha lies in the same symmetric
    orbit, and -1 is a square in the even-degree orbit field.
    """
    t = theta.torus
    x = _check_point(t, gamma)
    if field is None:
        field = t.extension_field(t.splitting_degree)
    if tuple(rep) not in orbit.roots:
        raise NotInOrbit("representative not in the orbit")
    f = _orbit_factor(t.root_row(rep), x, field.sign_table(theta.exponent))
    return None if f is None else f * a.sign(orbit.rep)


def theta_sum(theta: TorusCharacter, gamma: QV, chi: ChiData, a: ModAData,
              weyl_set, field: FiniteField = None,
              leading: Fraction = Fraction(1)) -> Cyc:
    """sum over w of delta_II(gamma^w) theta(gamma^w), exactly.

    ``weyl_set`` is the finite model of N(S,G)(F)/S(F): matrices commuting
    with the twist.  The leading constants (Kottwitz sign, discriminant,
    epsilon factor) default to 1 and scale the result symbolically.

    Everything runs on S(k) coordinates with e = exp S(k): gamma's
    coordinates are read from the torus's point table (``point_coords``),
    and a gamma of the wrong rank or off S(k) raises InvalidPoint on every
    call; the Weyl images of a point of S(k) stay in S(k), and all of them
    are read in one lookup from the torus's table for the set
    (``weyl_images``), which raises InvalidWeylSet for a non-commuting m
    before any term is taken.  At each image y, the delta_II sign (the
    product of sgn(alpha(y) - 1) a_alpha over the rows kept on ``a``, read
    from the field's sign table) and theta(y) are integer dot products mod
    e, taken once per (theta, field, y) and kept in ``a.terms``; a y where
    some alpha(y) is not in the field raises NotRealizable and is not kept,
    so it raises on every call.  Each term is a sign times zeta_e^k, so the
    sum is one signed histogram at n = e / gcd(e, every k met), the lcm of
    theta's denominators, and one Cyc of conductor n.
    """
    t = theta.torus
    x = _check_point(t, gamma)
    if field is None:
        field = t.extension_field(t.splitting_degree)
    e = theta.exponent
    terms = a.terms(theta, field)
    counts = [0] * e            # signed count of the terms at zeta_e^k
    g = 0                       # gcd of the k met, so n = e / gcd(e, g)
    for y in t.weyl_images(weyl_set, x):
        term = terms.get(y)
        if term is None:
            term = terms[y] = _term(theta, a, y, field.sign_table(e))
        sign, k = term
        counts[k] += sign
        g = math.gcd(g, k)
    step = math.gcd(e, g)       # every k met is a multiple of step
    total = Cyc.from_root_multiplicities(e // step, counts[::step])
    return total if leading == 1 else total * leading


def _term(theta, a, y, signs) -> tuple:
    """(delta_II sign at y, e theta(y) mod e) at S(k) coordinates y."""
    sign = 1
    for _, row, a_sign in a.rows:
        f = _orbit_factor(row, y, signs)
        if f is not None:
            sign *= f * a_sign
    return sign, theta.scaled(y)
