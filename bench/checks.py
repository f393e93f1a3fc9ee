"""Output checks, computed apart from the program.

Every check takes plain values (numbers, tuples, the program's outputs) and
returns ``None`` when they are right or a one-line description of what is
wrong.  None of them compares against a stored copy of earlier output: each
uses either an independent computation (an integer determinant, a matrix
product) or a property the mathematics requires.  ``selftest.py`` feeds every
check a deliberately wrong value.
"""

from __future__ import annotations

from fractions import Fraction


# -- independent arithmetic ---------------------------------------------------

def det_int(rows):
    """Determinant of an integer matrix by fraction-free (Bareiss) elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def point_count(w_rows, q):
    """|S(F_q)| = |det(q·I - w)| for the torus twisted by the Weyl matrix w."""
    n = len(w_rows)
    return abs(det_int([[q * (i == j) - w_rows[i][j] for j in range(n)]
                        for i in range(n)]))


def mat_mul(a, b):
    cols = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols)
                 for row in a)


def weyl_order(kind, n):
    fact = 1
    for i in range(2, n + 1):
        fact *= i
    return {"A": fact * (n + 1), "B": 2 ** n * fact, "C": 2 ** n * fact,
            "D": 2 ** (n - 1) * fact}[kind]


def census_mass(census):
    """Σ count·dim² over (dimension, count) pairs."""
    return sum(count * dim * dim for dim, count in census)


# -- oracle ---------------------------------------------------------------------

def check_oracle(order, clifford_ok, census, dixon_ok, degrees):
    """Clifford and Dixon verdicts agree and both tables have mass |B|.

    ``degrees`` is the Dixon table's degree list, or None when B is abelian
    and the oracle built no table.
    """
    if clifford_ok != dixon_ok:
        return f"verdicts differ: clifford {clifford_ok}, dixon {dixon_ok}"
    if census_mass(census) != order:
        return f"census mass {census_mass(census)} != |B| = {order}"
    if degrees is not None and sum(d * d for d in degrees) != order:
        return f"Σ deg² = {sum(d * d for d in degrees)} != |B| = {order}"
    return None


def check_known_verdict(name, expected, clifford_ok, census, census_expected):
    if clifford_ok != expected:
        return f"{name}: multiplicity one {clifford_ok}, expected {expected}"
    got = {}
    for dim, count in census:
        got[dim] = got.get(dim, 0) + count
    if got != census_expected:
        return f"{name}: census {got}, expected {census_expected}"
    return None


def check_both_verdicts(seen):
    if set(seen) != {True, False}:
        return f"corpus verdicts {sorted(set(seen))}, expected both"
    return None


# -- tori -----------------------------------------------------------------------

def check_char_count(n_chars, w_rows, q):
    want = point_count(w_rows, q)
    if n_chars != want:
        return f"{n_chars} characters, |det(qI - w)| = {want}"
    return None


def check_stabilizer(matrices, order, centralizer_size, w_rows):
    """Stabilizer: listed size, abelian, inside C_W(w), order | |C_W(w)|."""
    if len(matrices) != order:
        return f"stabilizer lists {len(matrices)} elements, order {order}"
    for a in matrices:
        if mat_mul(a, w_rows) != mat_mul(w_rows, a):
            return "stabilizer element does not commute with w"
        for b in matrices:
            if mat_mul(a, b) != mat_mul(b, a):
                return "stabilizer is not abelian"
    if centralizer_size % order:
        return f"stabilizer order {order} does not divide |C_W(w)| = " \
               f"{centralizer_size}"
    return None


def check_left_kernel(rows):
    """``rows``: for each non-identity stabilizer element, whether each
    pairing value is trivial.  Each such element must pair nontrivially."""
    for trivial in rows:
        if all(trivial):
            return "a non-identity stabilizer element pairs trivially"
    return None


def check_verdict(what, got, want):
    if got != want:
        return f"{what} gives {got}, the independent test {want}"
    return None


def check_orbit(nonsingular, stab_orders, centralizer_size):
    """Over one C_W(w)-orbit: one verdict, and Σ|Stab| = |C_W(w)|."""
    if len(set(nonsingular)) != 1:
        return "non-singularity differs within a Weyl orbit"
    if nonsingular[0] and sum(stab_orders) != centralizer_size:
        return f"Σ|Stab| over the orbit = {sum(stab_orders)}, " \
               f"|C_W(w)| = {centralizer_size}"
    return None


# -- charsum ----------------------------------------------------------------------

def check_reindex(values, moves):
    """theta_sum is constant along Weyl reindexing.

    ``values[i]`` is the sum at the i-th point; ``moves`` lists (i, j) with
    point j the reindexed image of point i.
    """
    for i, j in moves:
        if not (values[i] == values[j]):
            return f"theta_sum differs between point {i} and its image {j}"
    return None


def check_delta_reps(per_orbit):
    """delta_II at every representative of an orbit gives one value."""
    for vals in per_orbit:
        if len(set(vals)) != 1:
            return f"delta_II depends on the representative: {sorted(set(map(str, vals)))}"
    return None


def check_gauss(q, g, norm_square):
    """g·ḡ = q."""
    if not (norm_square.is_rational() and norm_square.rational_value() == q):
        return f"g·conj(g) != q = {q}"
    return None


def check_hasse_davenport(m, g_ext, g_base):
    """-g(p^m) = (-g(p))^m."""
    power = -g_base
    for _ in range(m - 1):
        power = power * (-g_base)
    if not (-g_ext == power):
        return f"Hasse–Davenport fails at degree {m}"
    return None


# -- cli ------------------------------------------------------------------------

def cyc_is(value, rational):
    """A CLI cyclotomic payload equals the given rational."""
    return (value.get("conductor") == 1
            and [Fraction(c) for c in value.get("coeffs", [])]
            == [Fraction(rational)])


def check_cli_error(returncode, doc):
    if returncode not in (1, 2):
        return f"exit {returncode}, expected 1 or 2"
    if not isinstance(doc, dict) or doc.get("status") != "error":
        return "no JSON error document"
    return None
