"""Independent character-table oracle (Dixon/Burnside class-algebra method).

The class matrices are split into common eigenspaces over GF(l) for a prime
l = 1 mod e = exp(B).  Each eigenspace carries its basis and a left inverse
of it, so a class matrix restricts to it by one product, checked by one
more, and a split needs only the kernel of the restriction minus an
eigenvalue.  Every character value is then lifted exactly as the integer
multiplicities of the e-th roots of unity among its eigenvalues: one gather
of all rows over the power maps and one product with the e x e transform
over the roots of unity mod l.  Orthogonality of every pair of rows is one
integer Gram matrix over Z[C_e], and restriction sums are integer
histograms of root exponents mod e; both are reduced mod Phi_e by
``cyclotomic.power_basis``.  numpy holds every matrix of the split, the lift
and the Gram check.  ``Cyc`` values of the table are built only on demand.
Abelian groups take a direct path: the dual of their SNF presentation
(``exactcore.abelian_basis``).  This module never consults the Clifford
machinery it checks.  A failed self-check raises ``FailedCheck``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .cyclotomic import Cyc, power_basis
from .errors import FailedCheck, TooLarge
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
                raise FailedCheck("rho is not valued in the e-th roots of 1")
            for s, m in row[self.class_of[(a, czero)]]:
                hist[(s - k) % e] += m
        total, *irrational = power_basis(e, hist)
        if any(irrational):
            raise FailedCheck("restriction multiplicity is not rational")
        r, rest = divmod(total, len(a_elements))
        if rest or r < 0:
            raise FailedCheck("restriction multiplicity is not a count")
        return r


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
        raise FailedCheck("#irreducibles != |B|")
    e = table.exponent
    cls = [table.class_of[x] for x in group.elements]
    rows = set()
    gens = [group.number[g] for g in group.generators]
    mul = group.table
    for row in table.terms:
        if any(len(t) != 1 or t[0][1] != 1 for t in row):
            raise FailedCheck("a character of an abelian group has "
                              "degree other than 1")
        chi = [row[k][0][0] for k in cls]       # exponent of chi at each x
        if any(chi[mul[g][h]] != (chi[g] + chi[h]) % e
               for g in gens for h in range(order)):
            raise FailedCheck("a character is not multiplicative")
        rows.add(tuple(chi))
    if len(rows) != order:
        raise FailedCheck("two characters are equal")


def _validate_orthogonality(table, group):
    """Degree count and row orthogonality on every pair of rows, exactly.

    sum_k |C_k| chi_i(g_k) conj(chi_j(g_k)) = |B| [i == j] for all i, j at
    once: the coefficient of zeta_e^d on the left is
    gram[d][i, j] = sum_{k,s} |C_k| m_ik[s] m_jk[s - d], one integer
    product of the weighted rows with the rows rolled by d.  Reduced mod
    Phi_e, the Gram matrix must be |B| times the identity.  Its entries are
    at most |B| deg_i deg_j <= 512^3 when every multiplicity is at most its
    degree, far inside int64.
    """
    n = len(table.classes)
    if len(table.mults) != n:
        raise FailedCheck("#irreducibles != #classes")
    order = len(group.elements)
    if sum(d * d for d in table.degrees()) != order:
        raise FailedCheck("sum of squared degrees != |B|")
    e = table.exponent
    mults = np.array(table.mults, dtype=np.int64)
    sizes = np.array([len(c) for c in table.classes], dtype=np.int64)
    weighted = (mults * sizes[:, None]).reshape(n, -1)
    gram = np.empty((e, n, n), dtype=np.int64)
    for d in range(e):
        gram[d] = weighted @ np.roll(mults, d, axis=2).reshape(n, -1).T
    # row s: zeta_e^s on the power basis of Q(zeta_e)
    roots = np.array([power_basis(e, [0] * s + [1]) for s in range(e)],
                     dtype=np.int64)
    coords = np.tensordot(roots, gram, axes=(0, 0))
    if coords[1:].any() or (coords[0] != order * np.eye(n, dtype=int)).any():
        raise FailedCheck("row orthogonality fails")


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


def _class_matrices(group, classes, cls, reps, skip):
    """The class multiplication matrices a_{ijk}, except class ``skip``'s.

    Row k, column j of class i's matrix counts the x in C_i with x g_j in
    C_k, g_j = ``reps[j]`` the j-th representative.
    """
    table = group.table
    n = len(classes)
    mats = []
    for i, ci in enumerate(classes):
        if i == skip:
            continue
        m = np.zeros((n, n), dtype=np.int64)
        for x in ci:
            row = table[group.number[x]]
            for j, rep in enumerate(reps):
                m[cls[row[rep]], j] += 1
        mats.append(m)
    return mats


def _dixon_mults(group, classes, class_of, e):
    """Root multiplicities from the eigenvectors of the class matrices.

    Every array is int64.  For |B| <= 512, l <= 13,711 < 2^14
    (``_find_prime``), so a sum of at most 512 products of two residues, or
    of a residue and a class count, stays below 2^42.
    """
    table = group.table
    order = len(table)
    n = len(classes)
    cls = [class_of[x] for x in group.elements]     # class of each number
    reps = [group.number[ci[0]] for ci in classes]
    id_idx = cls[0]                 # the identity is number 0
    ell = _find_prime(e, order)
    # the identity class's matrix is I, which splits nothing
    spaces = [(np.eye(n, dtype=np.int64), np.eye(n, dtype=np.int64))]
    for m in _class_matrices(group, classes, cls, reps, id_idx):
        new_spaces = []
        for space in spaces:
            if space[0].shape[1] == 1:
                new_spaces.append(space)
            else:
                new_spaces.extend(_split_space(m, *space, ell))
        spaces = new_spaces
        if len(spaces) == n:
            break
    if len(spaces) != n:
        raise FailedCheck("class algebra failed to split")
    # eigenvalues omega_i = |C_i| chi(g_i)/chi(1) mod ell, one row per
    # eigenvector, normalized so the identity-class coordinate is 1
    vecs = np.array([basis[:, 0] for basis, _ in spaces])
    if not vecs[:, id_idx].all():
        raise FailedCheck("eigenvector vanishes at the identity class")
    scale = [pow(int(v), ell - 2, ell) for v in vecs[:, id_idx]]
    omegas = vecs * np.array(scale, dtype=np.int64)[:, None] % ell
    inv_sizes = np.array([pow(len(ci), ell - 2, ell) for ci in classes],
                         dtype=np.int64)
    inv_class = [cls[group.inverses[rep]] for rep in reps]
    # degrees from the second orthogonality mass formula
    mass = (omegas * omegas[:, inv_class] % ell * inv_sizes % ell).sum(axis=1)
    degs = np.array([_lift_square(order * pow(int(s), ell - 2, ell) % ell,
                                  order, ell) for s in mass % ell],
                    dtype=np.int64)
    # chi mod ell at every class, gathered over the power maps (the class of
    # rep^t, t < e), times the inverse transform z^(-s t) / e over the e-th
    # roots of unity z mod ell
    chi_bar = degs[:, None] * omegas % ell * inv_sizes % ell
    powers = []
    for rep in reps:
        x, cls_of_powers = 0, []
        for _ in range(e):
            cls_of_powers.append(cls[x])
            x = table[x][rep]
        powers.append(cls_of_powers)
    z_root = _primitive_root_power(ell, e)
    z_pow = [pow(z_root, k, ell) for k in range(e)]
    transform = np.array([[z_pow[(-s * t) % e] for s in range(e)]
                          for t in range(e)], dtype=np.int64)
    mults = (chi_bar[:, powers] @ transform % ell
             * pow(e, ell - 2, ell) % ell)
    if (mults > degs[:, None, None]).any():
        raise FailedCheck("root-of-unity multiplicity out of range")
    if (mults.sum(axis=2) != degs[:, None]).any():
        raise FailedCheck("eigenvalue multiplicities do not sum to the degree")
    return [[tuple(m) for m in row] for row in mults.tolist()]


def _split_space(m, basis, left, ell):
    """Split the column space of ``basis`` into eigenspaces of m over GF(l).

    ``left`` is a left inverse of ``basis`` (left @ basis = I), so the
    restriction r with m @ basis = basis @ r is left @ m @ basis once that
    equation is checked.  The kernel of r - lambda is the identity at its
    free rows, so those rows of ``left`` are a left inverse of its image.
    """
    k = basis.shape[1]
    image = m @ basis % ell
    r = left @ image % ell
    if ((basis @ r - image) % ell).any():
        raise FailedCheck("a class matrix does not leave an eigenspace "
                          "invariant")
    if not (r - r[0, 0] * np.eye(k, dtype=np.int64)).any():
        return [(basis, left)]
    out = []
    for lam in _eigenvalues(r, ell):
        ker, free = _null_space((r - lam * np.eye(k, dtype=np.int64)) % ell,
                                ell)
        if free:
            out.append((basis @ ker % ell, left[free]))
    if sum(len(lt) for _, lt in out) != k:
        raise FailedCheck("eigenspace dimensions do not add up")
    return out


def _rref(m, ell):
    """Reduced row echelon form over GF(l) and its pivot columns."""
    m = m % ell
    rows, cols = m.shape
    piv = []
    for c in range(cols):
        r = len(piv)
        if r == rows:
            break
        nonzero = m[r:, c].nonzero()[0]
        if not nonzero.size:
            continue
        pivot = r + int(nonzero[0])
        if pivot != r:
            m[[r, pivot]] = m[[pivot, r]]
        m[r] = m[r] * pow(int(m[r, c]), ell - 2, ell) % ell
        col = m[:, c].copy()
        col[r] = 0
        m = (m - col[:, None] * m[r]) % ell     # one outer product
        piv.append(c)
    return m, piv


def _null_space(m, ell):
    """A kernel basis over GF(l), the identity at its free rows; those rows."""
    cols = m.shape[1]
    red, piv = _rref(m, ell)
    free = [c for c in range(cols) if c not in piv]
    basis = np.zeros((cols, len(free)), dtype=np.int64)
    basis[free, range(len(free))] = 1
    basis[piv] = -red[:len(piv), free] % ell
    return basis, free


def _eigenvalues(r, ell):
    """Roots in GF(l) of the characteristic polynomial of r, ascending."""
    lams = np.arange(ell, dtype=np.int64)
    acc = np.zeros(ell, dtype=np.int64)
    for c in reversed(_charpoly(r, ell)):
        acc = (acc * lams + c) % ell
    return np.flatnonzero(acc == 0)[:r.shape[0]].tolist()


def _charpoly(m, ell):
    """Characteristic polynomial coefficients (ascending) over GF(l).

    m is brought to upper Hessenberg form h by a similarity over GF(l), one
    column at a time; the polynomials of the leading blocks of h then follow
    the standard recurrence.
    """
    n = m.shape[0]
    h = m % ell
    for c in range(n - 2):
        nonzero = h[c + 1:, c].nonzero()[0]
        if not nonzero.size:
            continue
        pivot = c + 1 + int(nonzero[0])
        if pivot != c + 1:
            h[[c + 1, pivot]] = h[[pivot, c + 1]]
            h[:, [c + 1, pivot]] = h[:, [pivot, c + 1]]
        # h -> L h L^-1, L = I - f e_(c+1)^T clearing column c below c + 1
        f = h[c + 2:, c] * pow(int(h[c + 1, c]), ell - 2, ell) % ell
        h[c + 2:] = (h[c + 2:] - f[:, None] * h[c + 1]) % ell
        h[:, c + 1] = (h[:, c + 1] + h[:, c + 2:] @ f) % ell
    h = h.tolist()
    # p_k = (x - h[k-1][k-1]) p_(k-1)
    #       - sum_i (prod of subdiagonal) h[i-1][k-1] p_(i-1)
    polys = [[1]]
    for k in range(1, n + 1):
        prev = polys[-1]
        term = [0] + prev
        for i, c in enumerate(prev):
            term[i] -= h[k - 1][k - 1] * c
        prod = 1
        for i in range(k - 1, 0, -1):
            prod = prod * h[i][i - 1] % ell
            coeff = prod * h[i - 1][k - 1] % ell
            if coeff:
                for j, c in enumerate(polys[i - 1]):
                    term[j] -= coeff * c
        polys.append([c % ell for c in term])
    return polys[n]


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
    raise FailedCheck("no primitive root found")


def _lift_square(d2, order, ell):
    for d in range(1, int(math.isqrt(order)) + 1):
        if (d * d) % ell == d2 % ell:
            return d
    raise FailedCheck("degree lift failed")


def restriction_multiplicities(ext: ExtensionDescriptor,
                               table: CharacterTable = None):
    """For each irreducible and each character rho of A: exact <chi|_A, rho>."""
    group = ConcreteGroup(ext)
    if table is None:
        table = brute_force_census(group)
    a = ext.A
    a_elements = list(a.elements())
    out = []
    for idx in range(len(table.mults)):
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
        norm, *irrational = power_basis(e, hist)
        if any(irrational):
            raise FailedCheck("restriction norm is not rational")
        if norm != d * a.order:
            return False
    return True
