"""Independent character-table oracle (Dixon/Burnside class-algebra method).

Eigenvector search runs over GF(l) for a prime l = 1 mod e = exp(B); each
character value is then lifted exactly as the integer multiplicities of the
e-th roots of unity among its eigenvalues.  Orthogonality and restriction
sums are integer histograms of root exponents mod e, each turned into one
exact element of Q(zeta_e); ``Cyc`` values of the table are built only on
demand.  Abelian groups take a direct path: the dual of their SNF
presentation (``exactcore.abelian_basis``).  This module never consults the
Clifford machinery it checks.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

import numpy as np

from .cyclotomic import Cyc
from .errors import TooLarge
from .exactcore import FinAb, abelian_basis, is_prime, mult_order
from .clifford import ConcreteGroup, ExtensionDescriptor


class CharacterTable:
    """Exact irreducible characters indexed by conjugacy classes.

    ``mults[i][k][s]`` is the multiplicity of zeta_e^s (e = ``exponent``)
    among the eigenvalues of the i-th irreducible at the k-th class
    representative, so chi_i(g_k) = sum_s mults[i][k][s] zeta_e^s; class 0
    is the identity and sum(mults[i][0]) is the degree.  ``terms`` holds the
    same vectors as their non-zero (s, m) pairs, and ``chars`` (a list of
    dicts: class index -> Cyc) is built from ``mults`` on first access.
    """

    __slots__ = ("classes", "mults", "terms", "class_of", "exponent", "group",
                 "_chars")

    def __init__(self, classes, mults, class_of, exponent, group):
        self.classes = classes
        self.mults = mults
        self.terms = [[tuple((s, c) for s, c in enumerate(m) if c) for m in row]
                      for row in mults]
        self.class_of = class_of
        self.exponent = exponent
        self.group = group
        self._chars = None

    @property
    def chars(self):
        if self._chars is None:
            e = self.exponent
            self._chars = [{k: Cyc.from_root_multiplicities(e, m)
                            for k, m in enumerate(row)} for row in self.mults]
        return self._chars

    def degrees(self):
        return sorted(sum(row[0]) for row in self.mults)

    def restriction_multiplicity(self, chi, a_char_fn, a_elements) -> int:
        """<chi|_A, rho> computed exactly; rho given as a -> Q/Z value.

        rho(a) = k/e because exp(A) divides e, so chi(a) zeta^(-k) moves
        chi(a)'s root multiplicities by -k: the sum is one histogram mod e.
        """
        e = self.exponent
        row = self.terms[chi]
        czero = self.group.ext.C.zero
        hist = [0] * e
        for a in a_elements:
            rho = Fraction(a_char_fn(a))
            k, rest = divmod(rho.numerator * e, rho.denominator)
            if rest:
                raise ArithmeticError("rho is not valued in the e-th roots of 1")
            for s, m in row[self.class_of[(a, czero)]]:
                hist[(s - k) % e] += m
        total = _rational_sum(e, hist)
        if total is None:
            raise ArithmeticError("restriction multiplicity is not rational")
        r, rest = divmod(total, len(a_elements))
        if rest or r < 0:
            raise ArithmeticError("restriction multiplicity is not a count")
        return int(r)


def _rational_sum(e, hist):
    """sum_s hist[s] zeta_e^s, built as one Cyc; None unless it is rational."""
    total = Cyc.from_root_multiplicities(e, hist)
    return total.rational_value() if total.is_rational() else None


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
        mults = _abelian_mults(group, classes, e)
    else:
        mults = _dixon_mults(group, classes, class_of, e)
    table = CharacterTable(classes, mults, class_of, e, group)
    _validate_table(table, group)
    return table


def _validate_table(table, group):
    """The table's exact check: at generator cost for an abelian B, else pairwise."""
    if group.is_abelian():
        _validate_abelian_table(table, group)
    else:
        _validate_orthogonality(table, group)


def _validate_abelian_table(table, group):
    """|B| distinct linear characters, checked at |B|^2 rank, exactly.

    Checked: there are |B| rows, every value is a single e-th root of unity
    (so every degree is 1), each row is multiplicative, chi(gh) =
    chi(g) chi(h) for g over ``group.generators`` and h over B, and the
    rows are pairwise distinct.  That is the full orthogonality sweep:
    - the g with chi(gh) = chi(g) chi(h) for every h are closed under
      products (chi(g1 g2 h) = chi(g1) chi(g2) chi(h) = chi(g1 g2) chi(h)),
      so in the finite B they form the subgroup the generators generate,
      which is B: each row is a homomorphism B -> C^x (and chi(1) = 1
      follows from chi(g) = chi(g) chi(1));
    - for two distinct homomorphisms chi != psi, chi conj(psi) is a
      nontrivial homomorphism, and multiplying its sum over B by a value
      chi conj(psi)(g0) != 1 only permutes the terms, so the rows are
      orthogonal; each row has norm |B| since every value has modulus 1;
    - |B| distinct homomorphisms are all of the dual group.
    """
    order = len(group.elements)
    if len(table.mults) != order or len(table.classes) != order:
        raise ArithmeticError("#irreducibles != |B|")
    e = table.exponent
    cls = [table.class_of[x] for x in group.elements]
    rows = set()
    gens = [group.number[g] for g in group.generators]
    mul = group.table
    for row in table.terms:
        if any(len(t) != 1 or t[0][1] != 1 for t in row):
            raise ArithmeticError("a character of an abelian group has "
                                  "degree other than 1")
        chi = [row[k][0][0] for k in cls]       # exponent of chi at each x
        if any(chi[mul[g][h]] != (chi[g] + chi[h]) % e
               for g in gens for h in range(order)):
            raise ArithmeticError("a character is not multiplicative")
        rows.add(tuple(chi))
    if len(rows) != order:
        raise ArithmeticError("two characters are equal")


def _validate_orthogonality(table, group):
    """Degree count and row orthogonality on every pair of rows, exactly.

    sum_k |C_k| chi_i(g_k) conj(chi_j(g_k)) = |B| [i == j] is one histogram
    mod e per pair i <= j, h[s - t] += |C_k| m_ik[s] m_jk[t]; the pairs
    j < i are the complex conjugates of these rational values.
    """
    n = len(table.classes)
    if len(table.mults) != n:
        raise ArithmeticError("#irreducibles != #classes")
    order = len(group.elements)
    if sum(d * d for d in table.degrees()) != order:
        raise ArithmeticError("sum of squared degrees != |B|")
    e = table.exponent
    sizes = [len(c) for c in table.classes]
    for i, row in enumerate(table.terms):
        weighted = [[(s, size * m) for s, m in terms]
                    for terms, size in zip(row, sizes)]
        for j in range(i, n):
            hist = [0] * e
            for left, right in zip(weighted, table.terms[j]):
                for s, a in left:
                    for t, b in right:
                        hist[(s - t) % e] += a * b
            if _rational_sum(e, hist) != (order if i == j else 0):
                raise ArithmeticError("row orthogonality fails")


def _abelian_mults(group, classes, e):
    """Characters of an abelian B: the dual of its SNF presentation.

    Every value is one e-th root of unity, so each vector is one-hot; the
    e vectors are shared.
    """
    table = group.table
    factors, _, coords = abelian_basis(range(len(table)),
                                       lambda x, y: table[x][y], 0)
    dual = FinAb.abstract(factors)
    reps = [coords[group.number[cls[0]]] for cls in classes]
    one_hot = [tuple(int(s == t) for t in range(e)) for s in range(e)]
    return [[one_hot[int(dual.char_value(x, a) * e)] for a in reps]
            for x in dual.characters()]


def _dixon_mults(group, classes, class_of, e):
    """Root multiplicities from the eigenvectors of the class matrices."""
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
    rows = []
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
        rows.append([_lift_value([chi_bar[k] for k in powers[i]], deg,
                                 transform, e_inv, ell) for i in range(n)])
    return rows


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
    """The multiplicities m_s of the e-th roots of unity in chi(rep).

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
    return tuple(coeffs)


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
    e = table.exponent
    # group A-elements by (class, inverse class) with counts
    weights = {}
    for x in a.elements():
        i = table.class_of[(x, czero)]
        j = table.class_of[group.inv((x, czero))]
        weights[(i, j)] = weights.get((i, j), 0) + 1
    for row, terms in zip(table.mults, table.terms):
        d = sum(row[0])
        if d == 1:
            continue
        # sum_x chi(x) chi(x^-1) as one histogram mod e
        hist = [0] * e
        for (i, j), w in weights.items():
            for s, u in terms[i]:
                for t, v in terms[j]:
                    hist[(s + t) % e] += w * u * v
        norm = _rational_sum(e, hist)
        if norm is None:
            raise ArithmeticError("restriction norm is not rational")
        if norm != d * a.order:
            return False
    return True
