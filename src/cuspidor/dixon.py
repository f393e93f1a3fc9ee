"""Independent character-table oracle (Dixon/Burnside class-algebra method).

Eigenvector search runs over GF(l) for a prime l = 1 mod exp(B); character
values are then lifted exactly into Q(zeta_exp(B)) by root-of-unity
multiplicity recovery, and all restriction multiplicities are computed in
exact cyclotomic arithmetic.  Abelian groups take a direct path: the dual of
their SNF presentation (``exactcore.abelian_basis``).  This module never
consults the Clifford machinery it checks.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

import numpy as np

from .cyclotomic import Cyc, cyc_sum
from .errors import TooLarge
from .exactcore import FinAb, abelian_basis, is_prime, mult_order
from .clifford import ConcreteGroup, ExtensionDescriptor


class CharacterTable:
    """Exact irreducible characters indexed by conjugacy classes."""

    __slots__ = ("classes", "chars", "class_of", "exponent", "group")

    def __init__(self, classes, chars, class_of, exponent, group):
        self.classes = classes
        self.chars = chars          # list of dicts: class index -> Cyc
        self.class_of = class_of
        self.exponent = exponent
        self.group = group

    def degrees(self):
        return sorted(int(ch[0].rational_value()) for ch in self.chars)

    def restriction_multiplicity(self, chi, a_char_fn, a_elements) -> int:
        """<chi|_A, rho> computed exactly; rho given as a -> Q/Z value."""
        total = cyc_sum(
            self.chars[chi][self.class_of[(a, self.group.ext.C.zero)]]
            * Cyc.from_qz(-a_char_fn(a)) for a in a_elements)
        out = total * Fraction(1, len(a_elements))
        if not out.is_rational():
            raise ArithmeticError("restriction multiplicity is not rational")
        r = out.rational_value()
        if r.denominator != 1 or r < 0:
            raise ArithmeticError("restriction multiplicity is not a count")
        return int(r)


def brute_force_census(group: ConcreteGroup) -> CharacterTable:
    """Conjugacy classes and the exact character table of B (|B| <= 512)."""
    if len(group.elements) > 512:
        raise TooLarge("oracle bounded at 512 elements")
    classes = group.conjugacy_classes()
    class_of = {}
    for i, cls in enumerate(classes):
        for x in cls:
            class_of[x] = i
    e = group.exponent()
    if group.is_abelian():
        chars = _abelian_characters(group, classes)
    else:
        chars = _dixon_characters(group, classes, class_of, e)
    table = CharacterTable(classes, chars, class_of, e, group)
    _validate_table(table, group)
    return table


def _validate_table(table, group):
    classes = table.classes
    n = len(classes)
    if len(table.chars) != n:
        raise ArithmeticError("#irreducibles != #classes")
    total = sum(int(ch[0].rational_value()) ** 2 for ch in table.chars)
    if total != len(group.elements):
        raise ArithmeticError("sum of squared degrees != |B|")
    # row orthogonality for a few rows
    for i in range(min(n, 4)):
        for j in range(min(n, 4)):
            acc = cyc_sum(Cyc.rational(len(classes[k]))
                          * table.chars[i][k] * table.chars[j][k].conj()
                          for k in range(n))
            want = len(group.elements) if i == j else 0
            if not (acc == Cyc.rational(want)):
                raise ArithmeticError("row orthogonality fails")


def _abelian_characters(group, classes):
    """Characters of an abelian B: the dual of its SNF presentation."""
    table = group.table
    factors, _, coords = abelian_basis(range(len(table)),
                                       lambda x, y: table[x][y], 0)
    dual = FinAb.abstract(factors)
    reps = [coords[group.number[cls[0]]] for cls in classes]
    return [{i: Cyc.from_qz(dual.char_value(x, a)) for i, a in enumerate(reps)}
            for x in dual.characters()]


def _dixon_characters(group, classes, class_of, e):
    """Characters from the eigenvectors of the class matrices, on numbers."""
    table = group.table
    order = len(table)
    n = len(classes)
    cls = [class_of[x] for x in group.elements]     # class of each number
    members = [[group.number[x] for x in ci] for ci in classes]
    reps = [ci[0] for ci in members]
    sizes = [len(ci) for ci in members]
    # class multiplication coefficients a_{ijk}
    mats = []
    for ci in members:
        m = [[0] * n for _ in range(n)]
        for x in ci:
            row = table[x]
            for j, rep in enumerate(reps):
                m[cls[row[rep]]][j] += 1
        mats.append(np.array(m, dtype=np.int64))
    ell = _find_prime(e, order)
    z_root = _primitive_root_power(ell, e)

    spaces = [np.eye(n, dtype=np.int64) % ell]
    for m in mats:
        new_spaces = []
        for basis in spaces:
            if basis.shape[1] == 1:
                new_spaces.append(basis)
                continue
            new_spaces.extend(_split_space(m, basis, ell))
        spaces = new_spaces
        if all(b.shape[1] == 1 for b in spaces):
            break
    if not all(b.shape[1] == 1 for b in spaces):
        raise ArithmeticError("class algebra failed to split")
    # per table: the power maps (class of rep^t, t < e), 1/|C_k| mod ell and
    # the inverse transform over the e-th roots of unity z_root^(-s t)
    powers = []
    for rep in reps:
        x, cls_of_powers = 0, []
        for _ in range(e):
            cls_of_powers.append(cls[x])
            x = table[x][rep]
        powers.append(cls_of_powers)
    inv_sizes = [pow(size, ell - 2, ell) for size in sizes]
    inv_class = [cls[group.inverses[rep]] for rep in reps]
    z_pow = [pow(z_root, k, ell) for k in range(e)]
    transform = [[z_pow[(-s * t) % e] for t in range(e)] for s in range(e)]
    e_inv = pow(e, ell - 2, ell)
    id_idx = cls[0]                 # the identity is number 0
    # eigenvalues omega_i = |C_i| chi(g_i)/chi(1) mod ell, one per vector
    chars = []
    for basis in spaces:
        vec = basis[:, 0]
        # normalize so the identity-class coordinate is 1
        if vec[id_idx] % ell == 0:
            raise ArithmeticError("eigenvector vanishes at the identity class")
        vec = (vec * pow(int(vec[id_idx]), ell - 2, ell)) % ell
        omegas = [int(vec[i]) for i in range(n)]
        # degree from the second orthogonality mass formula
        s = 0
        for i in range(n):
            s += omegas[i] * omegas[inv_class[i]] * inv_sizes[i]
        s %= ell
        d2 = (order * pow(int(s), ell - 2, ell)) % ell
        deg = _lift_square(d2, order, ell)
        # chi mod ell on each class
        chi_bar = [deg * w * inv for w, inv in zip(omegas, inv_sizes)]
        chars.append({i: _lift_value([chi_bar[k] for k in powers[i]], deg,
                                     transform, e_inv, ell)
                      for i in range(n)})
    return chars


def _split_space(m, basis, ell):
    """Split the column space of ``basis`` into eigenspaces of m over GF(l)."""
    k = basis.shape[1]
    # restriction r with m @ basis = basis @ r
    r = _solve_matrix(basis, (m @ basis) % ell, ell)
    eigs = _eigenvalues(r, ell)
    out = []
    for lam in eigs:
        ker = _null_space((r - lam * np.eye(k, dtype=np.int64)) % ell, ell)
        if ker.shape[1]:
            out.append((basis @ ker) % ell)
    total = sum(b.shape[1] for b in out)
    if total != k:
        raise ArithmeticError("eigenspace dimensions do not add up")
    return out


def _solve_matrix(a, b, ell):
    """x with a @ x = b (a injective), over GF(l)."""
    aug = np.concatenate([a % ell, b % ell], axis=1).astype(np.int64)
    rows, cols_a = a.shape
    red, piv = _rref(aug, ell)
    k = b.shape[1]
    x = np.zeros((cols_a, k), dtype=np.int64)
    for r, c in enumerate(piv):
        if c < cols_a:
            x[c, :] = red[r, cols_a:]
        else:
            if np.any(red[r, cols_a:] % ell):
                raise ArithmeticError("inconsistent solve")
    return x % ell


def _rref(m, ell):
    m = m.copy() % ell
    rows, cols = m.shape
    piv = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        pivot = None
        for i in range(r, rows):
            if m[i, c] % ell:
                pivot = i
                break
        if pivot is None:
            continue
        m[[r, pivot]] = m[[pivot, r]]
        inv = pow(int(m[r, c]), ell - 2, ell)
        m[r] = (m[r] * inv) % ell
        for i in range(rows):
            if i != r and m[i, c]:
                m[i] = (m[i] - m[i, c] * m[r]) % ell
        piv.append(c)
        r += 1
    return m, piv


def _null_space(m, ell):
    rows, cols = m.shape
    red, piv = _rref(m, ell)
    free = [c for c in range(cols) if c not in piv]
    if not free:
        return np.zeros((cols, 0), dtype=np.int64)
    basis = np.zeros((cols, len(free)), dtype=np.int64)
    for j, fc in enumerate(free):
        basis[fc, j] = 1
        for r, pc in enumerate(piv):
            basis[pc, j] = (-red[r, fc]) % ell
    return basis % ell


def _eigenvalues(r, ell):
    """Roots in GF(l) of the characteristic polynomial of r."""
    k = r.shape[0]
    poly = _charpoly(r, ell)
    out = []
    for lam in range(ell):
        acc = 0
        for c in reversed(poly):
            acc = (acc * lam + c) % ell
        if acc == 0:
            out.append(lam)
            if len(out) == k:
                break
    return out


def _charpoly(m, ell):
    """Characteristic polynomial coefficients (ascending) over GF(l)."""
    n = m.shape[0]
    # Hessenberg reduction then the standard recurrence
    h = m.copy() % ell
    for c in range(n - 2):
        pivot = None
        for r in range(c + 1, n):
            if h[r, c] % ell:
                pivot = r
                break
        if pivot is None:
            continue
        if pivot != c + 1:
            h[[c + 1, pivot]] = h[[pivot, c + 1]]
            h[:, [c + 1, pivot]] = h[:, [pivot, c + 1]]
        inv = pow(int(h[c + 1, c]), ell - 2, ell)
        for r in range(c + 2, n):
            f = (h[r, c] * inv) % ell
            if f:
                h[r] = (h[r] - f * h[c + 1]) % ell
                h[:, c + 1] = (h[:, c + 1] + f * h[:, r]) % ell
    # p_k(x) = charpoly of leading k x k block
    polys = [np.array([1], dtype=object)]
    for k in range(1, n + 1):
        # p_k = (x - h[k-1,k-1]) p_{k-1} - sum_i (prod of subdiagonal) h[i-1,k-1] p_{i-1}
        prev = polys[k - 1]
        term = np.concatenate([[0], prev])  # x * prev
        term = (term - int(h[k - 1, k - 1]) * np.concatenate([prev, [0]]))
        term = term % ell
        prod = 1
        for i in range(k - 1, 0, -1):
            prod = (prod * int(h[i, i - 1])) % ell
            coeff = (prod * int(h[i - 1, k - 1])) % ell
            if coeff:
                sub = polys[i - 1]
                padded = np.concatenate([sub, np.zeros(len(term) - len(sub),
                                                       dtype=object)])
                term = (term - coeff * padded) % ell
        polys.append(term % ell)
    return [int(c) % ell for c in polys[n]]


def _find_prime(e, order):
    bound = max(2 * int(math.isqrt(order)) + 1, e + 2, 3)
    ell = ((bound // e) + 1) * e + 1
    while True:
        if is_prime(ell):
            return ell
        ell += e


def _primitive_root_power(ell, e):
    for g in range(2, ell):
        if mult_order(g, ell) == ell - 1:
            return pow(g, (ell - 1) // e, ell)
    raise ArithmeticError("no primitive root found")


def _lift_square(d2, order, ell):
    for d in range(1, int(math.isqrt(order)) + 1):
        if (d * d) % ell == d2 % ell:
            return d
    raise ArithmeticError("degree lift failed")


def _lift_value(chi_bar, deg, transform, e_inv, ell):
    """chi(rep) lifted exactly via multiplicities of e-th roots of unity.

    ``chi_bar[t]`` is chi(rep^t) mod ell for t < e, and ``transform[s][t]``
    is z^(-s t) for the e-th root of unity z mod ell.
    """
    coeffs = []
    for row in transform:
        m_s = sum(map(operator.mul, chi_bar, row)) * e_inv % ell
        if m_s > deg:
            raise ArithmeticError("root-of-unity multiplicity out of range")
        coeffs.append(m_s)
    if sum(coeffs) != deg:
        raise ArithmeticError("eigenvalue multiplicities do not sum to the degree")
    return Cyc.from_root_multiplicities(len(transform), coeffs)


def restriction_multiplicities(ext: ExtensionDescriptor,
                               table: CharacterTable = None):
    """For each irreducible and each character rho of A: exact <chi|_A, rho>."""
    group = ConcreteGroup(ext)
    if table is None:
        table = brute_force_census(group)
    a = ext.A
    a_elements = list(a.elements())
    out = []
    for idx in range(len(table.chars)):
        per_rho = {}
        for rho in a.characters():
            m = table.restriction_multiplicity(
                idx, lambda x, _r=rho: a.char_value(_r, x), a_elements)
            if m:
                per_rho[rho] = m
        out.append(per_rho)
    return table, out


def oracle_multiplicity_one(ext: ExtensionDescriptor) -> bool:
    """Do all irreducibles of B restrict to A without repeats?

    For abelian B every irreducible is linear, so the answer is yes with no
    table needed.  Otherwise, for each irreducible chi of degree d the
    restriction multiplicities m_rho satisfy sum(m) = d (A abelian, all
    constituents linear) and sum(m^2) = <chi|_A, chi|_A>; every m is <= 1
    exactly when the two agree.
    """
    group = ConcreteGroup(ext)
    if group.is_abelian():
        return True
    table = brute_force_census(group)
    a = ext.A
    czero = ext.C.zero
    # group A-elements by (class, inverse class) with counts
    weights = {}
    for x in a.elements():
        i = table.class_of[(x, czero)]
        j = table.class_of[group.inv((x, czero))]
        weights[(i, j)] = weights.get((i, j), 0) + 1
    for ch in table.chars:
        d = int(ch[0].rational_value())
        if d == 1:
            continue
        acc = cyc_sum(Cyc.rational(w) * ch[i] * ch[j]
                      for (i, j), w in weights.items())
        if not acc.is_rational():
            raise ArithmeticError("restriction norm is not rational")
        if acc.rational_value() != d * a.order:
            return False
    return True
