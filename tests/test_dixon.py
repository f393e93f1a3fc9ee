import ast
import math
import operator
import pathlib
import random

import numpy as np
import pytest

import cuspidor.dixon as dixon

from cuspidor.clifford import (
    ConcreteGroup,
    ExtensionDescriptor,
    dihedral8_central_descriptor,
    has_multiplicity_one,
    q8_descriptor,
    random_descriptor,
)
from cuspidor.cyclotomic import Cyc, cyc_sum
from cuspidor.dixon import (
    CharacterTable,
    _find_prime,
    _lift_square,
    _primitive_root_power,
    _validate_table,
    brute_force_census,
    oracle_multiplicity_one,
    restriction_multiplicities,
)
from cuspidor.errors import FailedCheck
from cuspidor.exactcore import Mat


def small_groups():
    """q8, the central D8 and 8 random extensions of order <= 48, abelian
    ones among them."""
    rng = random.Random(9)
    return ([q8_descriptor(), dihedral8_central_descriptor()]
            + [random_descriptor(rng, max_order=48) for _ in range(8)])


def test_table_keeps_root_multiplicities():
    for ext in small_groups():
        table = brute_force_census(ConcreteGroup(ext))
        e = table.exponent
        for row, terms in zip(table.mults, table.terms):
            degree = sum(row[0])
            assert row[0][0] == degree
            for m, t in zip(row, terms):
                assert len(m) == e and min(m) >= 0 and sum(m) == degree
                assert t == tuple((s, c) for s, c in enumerate(m) if c)
        assert table.degrees() == sorted(sum(row[0]) for row in table.mults)


def test_corrupted_table_fails_row_orthogonality():
    group = ConcreteGroup(q8_descriptor())
    table = brute_force_census(group)
    # multiply one non-zero value at a non-identity class by zeta_e^-1:
    # rotating its multiplicity vector keeps every degree, so only the
    # orthogonality check can see it
    i, k = next((i, k) for i, row in enumerate(table.mults)
                for k in range(1, len(row))
                if not Cyc.from_root_multiplicities(table.exponent,
                                                    row[k]).is_zero())
    mults = [list(row) for row in table.mults]
    m = mults[i][k]
    mults[i][k] = m[1:] + m[:1]
    bad = CharacterTable(table.classes, mults, table.class_of,
                         table.exponent, group)
    assert bad.degrees() == table.degrees()
    with pytest.raises(ArithmeticError, match="row orthogonality fails"):
        _validate_table(bad, group)
    _validate_table(table, group)


def test_chars_are_built_once_from_the_multiplicities(monkeypatch):
    group = ConcreteGroup(dihedral8_central_descriptor())
    table = brute_force_census(group)
    calls = []
    build = Cyc.from_root_multiplicities

    def counting(n, coeffs):
        calls.append(n)
        return build(n, coeffs)

    monkeypatch.setattr(Cyc, "from_root_multiplicities",
                        staticmethod(counting))
    chars = table.chars
    assert table.chars is chars
    n = len(table.classes)
    assert len(calls) == n * n
    for row, values in zip(table.mults, chars):
        assert sorted(values) == list(range(n))
        for k, m in enumerate(row):
            assert values[k] == build(table.exponent, m)


def test_restriction_multiplicities_match_the_cyc_sum():
    # <chi|_A, rho> = (1/|A|) sum_a chi(a) conj(rho(a)), summed term by term
    # in Q(zeta_e) against the histogram the table computes
    for ext in small_groups():
        table, mults = restriction_multiplicities(ext)
        a = ext.A
        elems = list(a.elements())
        czero = ext.C.zero
        for chi, per in zip(table.chars, mults):
            for rho in a.characters():
                total = cyc_sum(chi[table.class_of[(x, czero)]]
                                * Cyc.from_qz(-a.char_value(rho, x))
                                for x in elems)
                assert total == Cyc.rational(len(elems) * per.get(rho, 0))


def test_oracle_norm_pairs_x_with_its_inverse():
    # the Heisenberg group mod 3 as (Z/3)^2 x| Z/3: each degree-3
    # irreducible restricts to A as an orbit of three characters with the
    # same non-trivial central character, so no constituent is conjugate to
    # another; sum_a chi(a) chi(a^-1) = 3 |A| while sum_a chi(a)^2 = 0
    ext = ExtensionDescriptor((3, 3), (3,), [Mat([[1, 0], [1, 1]])], {})
    table = brute_force_census(ConcreteGroup(ext))
    assert table.degrees() == [1] * 9 + [3, 3]
    assert has_multiplicity_one(ext)[0] is True
    assert oracle_multiplicity_one(ext) is True


def _pairwise_sweep_accepts(table, group):
    """The full check: degree count, sum of squared degrees, and
    orthogonality of every pair of rows, one histogram mod e per pair."""
    n = len(table.classes)
    order = len(group.elements)
    if len(table.mults) != n:
        return False
    if sum(sum(row[0]) ** 2 for row in table.mults) != order:
        return False
    e = table.exponent
    sizes = [len(c) for c in table.classes]
    for i in range(n):
        for j in range(n):
            hist = [0] * e
            for k, size in enumerate(sizes):
                for s, a in enumerate(table.mults[i][k]):
                    for t, b in enumerate(table.mults[j][k]):
                        if a and b:
                            hist[(s - t) % e] += size * a * b
            total = Cyc.from_root_multiplicities(e, hist)
            if not (total == Cyc.rational(order if i == j else 0)):
                return False
    return True


def _abelian_groups():
    """Abelian extensions of order <= 32, trivial and twisted cocycles."""
    rng = random.Random(12)
    found = [ConcreteGroup(ExtensionDescriptor.from_json(
        {"A": [4], "C": [2, 2], "action": [[[1]], [[1]]], "cocycle": []}))]
    while len(found) < 5:
        group = ConcreteGroup(random_descriptor(rng, max_order=32))
        if group.is_abelian() and len(group.elements) > 4:
            found.append(group)
    return found


def _with_mults(table, group, mults):
    return CharacterTable(table.classes, mults, table.class_of,
                          table.exponent, group)


@pytest.mark.parametrize("group", _abelian_groups(),
                         ids=lambda g: f"order{len(g.elements)}")
def test_abelian_check_matches_the_pairwise_sweep(group):
    from cuspidor.dixon import _validate_abelian_table
    table = brute_force_census(group)
    assert _pairwise_sweep_accepts(table, group)
    _validate_abelian_table(table, group)
    _assert_check_matches_the_sweep(table, group)


def _assert_check_matches_the_sweep(table, group):
    """Corrupt ``table`` 19 or 25 ways; ``_validate_table`` and the
    pairwise sweep give each corrupted table the same verdict."""
    rng = random.Random(len(group.elements))
    n = len(table.mults)
    e = table.exponent
    # zeta -> zeta^a for a unit a other than +-1, if there is one
    units = [a for a in range(2, e - 1) if math.gcd(a, e) == 1]
    corpus = []
    for _ in range(6):
        i, j = rng.sample(range(n), 2)
        k, k2 = rng.sample(range(n), 2)
        mults = [list(row) for row in table.mults]
        m = mults[i][k]
        mults[i][k] = m[-1:] + m[:-1]           # one entry times zeta_e
        corpus.append(mults)
        mults = [list(row) for row in table.mults]
        mults[j] = list(mults[i])               # two rows equal
        corpus.append(mults)
        mults = [list(row) for row in table.mults]
        mults[i][k], mults[i][k2] = mults[i][k2], mults[i][k]
        corpus.append(mults)                    # two entries of one row swapped
        if units:
            # one class's values all moved by a Galois automorphism: this
            # can keep the rational coordinate of every inner product
            inv = pow(units[0], -1, e)
            mults = [list(row) for row in table.mults]
            for row in mults:
                row[k] = tuple(row[k][t * inv % e] for t in range(e))
            corpus.append(mults)
    # a swap of two equal entries changes nothing and must pass both
    i = next(i for i, row in enumerate(table.mults) if row.count(row[0]) > 1)
    k, k2 = [k for k, m in enumerate(table.mults[i]) if m == table.mults[i][0]][:2]
    mults = [list(row) for row in table.mults]
    mults[i][k], mults[i][k2] = mults[i][k2], mults[i][k]
    corpus.append(mults)
    verdicts = []
    for mults in corpus:
        bad = _with_mults(table, group, mults)
        want = _pairwise_sweep_accepts(bad, group)
        try:
            _validate_table(bad, group)
            got = True
        except ArithmeticError:
            got = False
        assert got == want
        verdicts.append(got)
    assert verdicts.count(False) >= 12 and verdicts[-1]


def _non_abelian_groups(count):
    """The first ``count`` non-abelian random_descriptor(Random(k), 128)."""
    found = []
    k = 0
    while len(found) < count:
        group = ConcreteGroup(random_descriptor(random.Random(k), 128))
        if not group.is_abelian():
            found.append((k, group))
        k += 1
    return found


@pytest.mark.parametrize("k, group", _non_abelian_groups(4),
                         ids=lambda v: f"k{v}" if isinstance(v, int) else
                         f"order{len(v.elements)}")
def test_gram_check_matches_the_pairwise_sweep(k, group):
    table = brute_force_census(group)
    if k == 0:
        assert (len(group.elements), len(table.classes)) == (64, 40)
    _assert_check_matches_the_sweep(table, group)


def test_a_wrong_class_matrix_fails_the_invariance_check(monkeypatch):
    # the class matrices commute, so each leaves every common eigenspace of
    # the earlier ones invariant; one count off in the second matrix breaks
    # that on the eigenspaces of the first (the order-64 group at k = 0)
    group = ConcreteGroup(random_descriptor(random.Random(0), 128))
    build = dixon._class_matrices

    def one_count_off(*args):
        mats = build(*args)
        mats[1] = mats[1].copy()
        mats[1][0, 1] += 1
        return mats

    monkeypatch.setattr(dixon, "_class_matrices", one_count_off)
    with pytest.raises(FailedCheck, match="does not leave an eigenspace"):
        brute_force_census(group)


@pytest.mark.parametrize("name, wrong, message", [
    # a degree one too large scales every lifted value off the integers
    ("_lift_square", lambda *args: _lift_square(*args) + 1,
     "multiplicity out of range"),
    # z = 1 is no primitive e-th root: every exponent gets the mean of chi
    ("_primitive_root_power", lambda ell, e: 1, "do not sum to the degree"),
])
def test_a_wrong_lift_fails_its_check(monkeypatch, name, wrong, message):
    group = ConcreteGroup(random_descriptor(random.Random(0), 128))
    monkeypatch.setattr(dixon, name, wrong)
    with pytest.raises(FailedCheck, match=message):
        brute_force_census(group)


def test_dixon_raises_only_failed_check_or_too_large():
    tree = ast.parse(pathlib.Path(dixon.__file__).read_text())
    raised = {node.exc.func.id for node in ast.walk(tree)
              if isinstance(node, ast.Raise)}
    assert raised == {"FailedCheck", "TooLarge"}


# -- the table as built before whole-array kernels, kept as the reference ------

def _frozen_dixon_mults(group, classes, class_of, e):
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
            new_spaces.extend(_frozen_split_space(m, basis, ell))
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
        rows.append([_frozen_lift_value([chi_bar[k] for k in powers[i]], deg,
                                 transform, e_inv, ell) for i in range(n)])
    return rows


def _frozen_split_space(m, basis, ell):
    """Split the column space of ``basis`` into eigenspaces of m over GF(l)."""
    k = basis.shape[1]
    # restriction r with m @ basis = basis @ r
    r = _frozen_solve_matrix(basis, (m @ basis) % ell, ell)
    eigs = _frozen_eigenvalues(r, ell)
    out = []
    for lam in eigs:
        ker = _frozen_null_space((r - lam * np.eye(k, dtype=np.int64)) % ell, ell)
        if ker.shape[1]:
            out.append((basis @ ker) % ell)
    total = sum(b.shape[1] for b in out)
    if total != k:
        raise ArithmeticError("eigenspace dimensions do not add up")
    return out


def _frozen_solve_matrix(a, b, ell):
    """x with a @ x = b (a injective), over GF(l)."""
    aug = np.concatenate([a % ell, b % ell], axis=1).astype(np.int64)
    rows, cols_a = a.shape
    red, piv = _frozen_rref(aug, ell)
    k = b.shape[1]
    x = np.zeros((cols_a, k), dtype=np.int64)
    for r, c in enumerate(piv):
        if c < cols_a:
            x[c, :] = red[r, cols_a:]
        else:
            if np.any(red[r, cols_a:] % ell):
                raise ArithmeticError("inconsistent solve")
    return x % ell


def _frozen_rref(m, ell):
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


def _frozen_null_space(m, ell):
    rows, cols = m.shape
    red, piv = _frozen_rref(m, ell)
    free = [c for c in range(cols) if c not in piv]
    if not free:
        return np.zeros((cols, 0), dtype=np.int64)
    basis = np.zeros((cols, len(free)), dtype=np.int64)
    for j, fc in enumerate(free):
        basis[fc, j] = 1
        for r, pc in enumerate(piv):
            basis[pc, j] = (-red[r, fc]) % ell
    return basis % ell


def _frozen_eigenvalues(r, ell):
    """Roots in GF(l) of the characteristic polynomial of r."""
    k = r.shape[0]
    poly = _frozen_charpoly(r, ell)
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


def _frozen_charpoly(m, ell):
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


def _frozen_lift_value(chi_bar, deg, transform, e_inv, ell):
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


def _frozen_rational_sum(e, hist):
    total = Cyc.from_root_multiplicities(e, hist)
    return total.rational_value() if total.is_rational() else None


def _frozen_restriction(table, ext):
    """<chi|_A, rho> for each row and each rho, one histogram mod e each."""
    e = table.exponent
    a = ext.A
    elems = list(a.elements())
    out = []
    for row in table.terms:
        per_rho = {}
        for rho in a.characters():
            hist = [0] * e
            for x in elems:
                k = a.char_value(rho, x) * e
                for s, m in row[table.class_of[(x, ext.C.zero)]]:
                    hist[int(s - k) % e] += m
            r = _frozen_rational_sum(e, hist) / len(elems)
            if r:
                per_rho[rho] = int(r)
        out.append(per_rho)
    return out


def _frozen_oracle(table, group):
    ext = group.ext
    a = ext.A
    e = table.exponent
    for row, terms in zip(table.mults, table.terms):
        d = sum(row[0])
        hist = [0] * e
        for x in a.elements():
            i = table.class_of[(x, ext.C.zero)]
            j = table.class_of[group.inv((x, ext.C.zero))]
            for s, u in terms[i]:
                for t, v in terms[j]:
                    hist[(s + t) % e] += u * v
        if _frozen_rational_sum(e, hist) != d * a.order:
            return False
    return True


@pytest.mark.parametrize("k, group", _non_abelian_groups(12),
                         ids=lambda v: f"k{v}" if isinstance(v, int) else
                         f"order{len(v.elements)}")
def test_table_matches_the_frozen_build(k, group):
    table = brute_force_census(group)
    classes = group.conjugacy_classes()
    class_of = {x: i for i, c in enumerate(classes) for x in c}
    mults = _frozen_dixon_mults(group, classes, class_of, group.exponent())
    assert table.classes == classes
    assert table.mults == mults
    assert all(type(c) is int for row in table.mults for m in row for c in m)
    frozen = CharacterTable(classes, mults, class_of, group.exponent(), group)
    ext = group.ext
    assert oracle_multiplicity_one(ext) is _frozen_oracle(frozen, group)
    assert restriction_multiplicities(ext, table)[1] \
        == _frozen_restriction(frozen, ext)
