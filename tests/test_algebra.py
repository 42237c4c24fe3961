"""Quaternion algebra, the 2x2 complex embedding, and the trace forms."""

import numpy as np
import pytest

from qpquant import algebra as alg


def basis(k):
    e = np.zeros(4)
    e[k] = 1.0
    return e


def test_multiplication_table():
    # ei ej for all pairs, spot values e1 e2 = e3 and e2 e1 = -e3
    expect = {
        (1, 2): (3, 1.0), (2, 1): (3, -1.0),
        (2, 3): (1, 1.0), (3, 2): (1, -1.0),
        (3, 1): (2, 1.0), (1, 3): (2, -1.0),
    }
    for i in (1, 2, 3):
        sq = alg.qmul(basis(i), basis(i))
        assert np.allclose(sq, -basis(0))
    for (i, j), (k, s) in expect.items():
        assert np.allclose(alg.qmul(basis(i), basis(j)), s * basis(k))
    for i in range(4):
        assert np.allclose(alg.qmul(basis(0), basis(i)), basis(i))
        assert np.allclose(alg.qmul(basis(i), basis(0)), basis(i))


def test_product_expansion_example():
    # (e1 + e2)(e1 - e2) = -2 e3 by expanding through the table
    a = basis(1) + basis(2)
    b = basis(1) - basis(2)
    assert np.allclose(alg.qmul(a, b), -2.0 * basis(3))


def test_random_quaternion_identities(rng):
    x = rng.standard_normal((10_000, 4))
    y = rng.standard_normal((10_000, 4))
    z = rng.standard_normal((10_000, 4))
    xy = alg.qmul(x, y)
    assoc = alg.qmul(xy, z) - alg.qmul(x, alg.qmul(y, z))
    scale = np.abs(alg.qmul(x, alg.qmul(y, z))).max()
    assert np.abs(assoc).max() <= 1e-12 * max(scale, 1.0)
    # theta is an anti-homomorphism and an involution
    assert np.abs(alg.qconj(alg.qconj(x)) - x).max() == 0.0
    anti = alg.qconj(xy) - alg.qmul(alg.qconj(y), alg.qconj(x))
    assert np.abs(anti).max() <= 1e-12 * max(scale, 1.0)
    # multiplicativity of the norm and x theta(x) = |x|^2 e0
    assert np.abs(alg.qnorm(xy) - alg.qnorm(x) * alg.qnorm(y)).max() <= 1e-12 * scale
    sq = alg.qmul(x, alg.qconj(x))
    assert np.abs(sq[:, 0] - alg.qnorm(x) ** 2).max() <= 1e-12 * scale
    assert np.abs(sq[:, 1:]).max() <= 1e-12 * scale


def test_rho_basis_images():
    assert np.allclose(alg.rho(basis(0)), np.eye(2))
    assert np.allclose(alg.rho(basis(1)), np.diag([1j, -1j]))
    # rho is an algebra homomorphism: rho(e1 e2) = rho(e1) rho(e2) = rho(e3)
    assert np.allclose(alg.rho(basis(1)) @ alg.rho(basis(2)), alg.rho(basis(3)))


def test_rho_homomorphism_random(rng):
    x = rng.standard_normal((2000, 4)) + 1j * rng.standard_normal((2000, 4))
    y = rng.standard_normal((2000, 4)) + 1j * rng.standard_normal((2000, 4))
    lhs = alg.rho(alg.qmul(x, y))
    rhs = alg.rho(x) @ alg.rho(y)
    assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(rhs).max()
    # round trip
    assert np.abs(alg.rho_inv(alg.rho(x)) - x).max() <= 1e-12 * np.abs(x).max()


def test_rho_conjugation_determinant(rng):
    h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    m = alg.rho(h)
    # rho(h theta(h)) = det(rho(h)) Id
    lhs = alg.rho(alg.qmul(h, np.concatenate([[h[0]], -h[1:]])))
    assert np.allclose(lhs, np.linalg.det(m) * np.eye(2))


def random_hermitian(rng, m):
    x = rng.standard_normal((m, m, 4))
    return 0.5 * (x + alg.theta_transpose(x))


def test_jordan_symmetry(rng):
    for _ in range(25):
        m = rng.integers(2, 5)
        X = random_hermitian(rng, m)
        Y = random_hermitian(rng, m)
        Z = random_hermitian(rng, m)
        # commutativity and the associativity-of-trace identity
        assert np.abs(alg.jordan(X, Y) - alg.jordan(Y, X)).max() < 1e-12 * (1 + np.abs(X).max() * np.abs(Y).max())
        lhs = alg.inner_r(alg.jordan(X, Y), Z)
        rhs = alg.inner_r(X, alg.jordan(Y, Z))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))
        assert abs(np.sum(alg.qtrace(X)[1:])) < 1e-12


def test_complexify_identity_and_norms(rng):
    ident = np.zeros((2, 2, 4))
    ident[0, 0, 0] = ident[1, 1, 0] = 1.0
    c = alg.complexify(ident)
    assert np.allclose(c, np.eye(4))
    assert np.isclose(alg.fro_norm(c) ** 2, 4.0)
    # the off-diagonal e0 pair: tr(Q0 o Q0) = 2 and Frobenius^2 = 4
    q0 = np.zeros((2, 2, 4))
    q0[0, 1, 0] = q0[1, 0, 0] = 1.0
    assert np.isclose(alg.inner_r(q0, q0), 2.0)
    assert np.isclose(alg.fro_norm(alg.complexify(q0)) ** 2, 4.0)
    # blockwise embedding is an algebra homomorphism
    X = rng.standard_normal((3, 3, 4)) + 1j * rng.standard_normal((3, 3, 4))
    Y = rng.standard_normal((3, 3, 4)) + 1j * rng.standard_normal((3, 3, 4))
    assert np.abs(alg.complexify(alg.qmat_mul(X, Y)) - alg.complexify(X) @ alg.complexify(Y)).max() < 1e-12 * 100
    assert np.abs(alg.complexify_inv(alg.complexify(X)) - X).max() < 1e-13 * np.abs(X).max()


def test_cbilinear_conventions(rng):
    # <A, quat_conj(A)>_C = tr(A A^*)/2 for arbitrary complex matrices
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    val = alg.cbilinear(a, alg.quat_conj_c(a))
    assert np.isclose(val, 0.5 * np.sum(np.abs(a) ** 2))
    # restriction to real quaternion matrices is the flat Euclidean pairing
    X = rng.standard_normal((3, 3, 4))
    Y = rng.standard_normal((3, 3, 4))
    lhs = alg.cbilinear(alg.complexify(X), alg.complexify(Y))
    assert np.isclose(lhs.real, float(np.sum(X * Y)))
    assert abs(lhs.imag) < 1e-12 * max(1.0, abs(lhs.real))
    # a batch of A against one fixed M pairs row by row
    batch = rng.standard_normal((5, 6, 6)) + 1j * rng.standard_normal((5, 6, 6))
    rows = np.array([alg.cbilinear(x, a) for x in batch])
    assert np.abs(alg.cbilinear(batch, a) - rows).max() < 1e-14 * np.abs(rows).max()
    # sharp fixes hermitian matrices
    H = random_hermitian(rng, 3)
    ch = alg.complexify(H)
    assert np.abs(alg.sharp(ch) - ch).max() < 1e-12 * np.abs(ch).max()
    # J is built once per size and shared, so no caller may write to it
    jj = alg.jmat(3)
    assert jj is alg.jmat(3) and not jj.flags.writeable
    assert np.array_equal(jj, np.kron(np.eye(3), [[0.0, 1.0], [-1.0, 0.0]]))


# the three-operand einsum definitions the kernels replaced, kept as oracles
def qmul_ref(a, b):
    return np.einsum("...a,...b,abc->...c", a, b, alg.QTABLE)


def qmat_mul_ref(x, y):
    return np.einsum("...ika,...kjb,abc->...ijc", x, y, alg.QTABLE)


def complexify_ref(x):
    x = np.asarray(x, dtype=complex)
    m = x.shape[-3]
    blocks = alg.rho(x)
    out = blocks.transpose(tuple(range(blocks.ndim - 4)) + (-4, -2, -3, -1))
    return out.reshape(x.shape[:-3] + (2 * m, 2 * m))


def draw(rng, shape, complex_):
    x = rng.standard_normal(shape)
    return x + 1j * rng.standard_normal(shape) if complex_ else x


@pytest.mark.parametrize("complex_", [False, True])
def test_qmul_is_its_einsum_definition(rng, complex_):
    for sa, sb in [((4,), (4,)), ((3, 1, 4), (1, 3, 4)), ((65_536, 4), (65_536, 4))]:
        a, b = draw(rng, sa, complex_), draw(rng, sb, complex_)
        got, want = alg.qmul(a, b), qmul_ref(a, b)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.abs(got - want).max() <= 1e-15 * np.abs(a).max() * np.abs(b).max()


@pytest.mark.parametrize("complex_", [False, True])
def test_qmat_mul_is_its_einsum_definition(rng, complex_):
    for m in (1, 2, 3, 4):
        x, y = draw(rng, (m, m, 4), complex_), draw(rng, (m, m, 4), complex_)
        got, want = alg.qmat_mul(x, y), qmat_mul_ref(x, y)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.abs(got - want).max() <= 1e-15 * m * np.abs(x).max() * np.abs(y).max()


@pytest.mark.parametrize("complex_", [False, True])
def test_complexify_is_its_blockwise_definition(rng, complex_):
    # every entry of complexify(x) is one or two signed coefficients of x, so
    # the product with the cached map adds only exact zeros to them
    for shape in [(2, 2, 4), (3, 3, 4), (50, 3, 3, 4), (2, 5, 4, 4, 4)]:
        x = draw(rng, shape, complex_)
        got = alg.complexify(x)
        assert got.dtype == complex and np.array_equal(got, complexify_ref(x))


def test_kernel_tables_are_read_only_and_built_once():
    assert not alg._QTABLE16.flags.writeable
    assert np.array_equal(alg._QTABLE16, alg.QTABLE.reshape(16, 4))
    for m in (1, 2, 3):
        cmap = alg._complexify_map(m)
        assert cmap is alg._complexify_map(m) and not cmap.flags.writeable
        assert cmap.shape == (4 * m * m, 4 * m * m)
        assert np.array_equal(cmap, complexify_ref(np.eye(4 * m * m).reshape(-1, m, m, 4))
                              .reshape(4 * m * m, -1))
