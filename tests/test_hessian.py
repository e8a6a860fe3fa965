import numpy as np
import pytest

from urelunet.hessian import stack_hessians
from urelunet.polyfit import PolyNarxModel, PolyTerm, enumerate_terms, monomials


def hessian_at(model, u):
    return stack_hessians(model, u[None]).data[:, :, 0]


def reference_stack(model, P):
    """Per-entry reference: each Hessian entry from its own reduced monomial."""
    N, m = P.shape
    H = np.zeros((m, m, N))

    def reduced(red):
        col = np.ones(N)
        for j, e in enumerate(red):
            if e:
                col *= P[:, j] ** e
        return col

    for term, c in zip(model.terms, model.coeffs):
        exps = np.array(term.exponents)
        vars_present = np.nonzero(exps)[0]
        for ia, a in enumerate(vars_present):
            if exps[a] >= 2:
                red = exps.copy()
                red[a] -= 2
                H[a, a, :] += c * exps[a] * (exps[a] - 1) * reduced(red)
            for b in vars_present[ia + 1 :]:
                red = exps.copy()
                red[a] -= 1
                red[b] -= 1
                val = c * exps[a] * exps[b] * reduced(red)
                H[a, b, :] += val
                H[b, a, :] += val
    return H


def random_model(m, degree, seed):
    rng = np.random.default_rng(seed)
    terms = enumerate_terms(m, degree)
    return PolyNarxModel(terms=tuple(terms), coeffs=rng.normal(size=len(terms)), m=m)


def fd_hessian(model, u, step=1e-5):
    m = model.m
    exponents = [t.exponents for t in model.terms]

    def f(v):
        return (monomials(exponents, v) @ model.coeffs)[0]

    H = np.zeros((m, m))
    for a in range(m):
        for b in range(m):
            pp, mm, pm, mp = (u.copy() for _ in range(4))
            pp[a] += step; pp[b] += step
            mm[a] -= step; mm[b] -= step
            pm[a] += step; pm[b] -= step
            mp[a] -= step; mp[b] += step
            H[a, b] = (
                f(pp) - f(pm) - f(mp) + f(mm)
            ) / (4 * step * step)
    return H


def test_cross_product_term():
    model = PolyNarxModel(terms=(PolyTerm((1, 1)),), coeffs=np.array([1.0]), m=2)
    np.testing.assert_array_equal(
        hessian_at(model, np.array([5.0, -2.0])), [[0, 1], [1, 0]]
    )


def test_cubic_univariate():
    model = PolyNarxModel(terms=(PolyTerm((3,)),), coeffs=np.array([1.0]), m=1)
    np.testing.assert_allclose(hessian_at(model, np.array([2.0])), [[12.0]])


def test_matches_finite_differences():
    model = random_model(3, 3, seed=0)
    rng = np.random.default_rng(1)
    for _ in range(5):
        u = rng.normal(size=3)
        H = hessian_at(model, u)
        Hfd = fd_hessian(model, u)
        scale = max(np.abs(Hfd).max(), 1.0)
        assert np.abs(H - Hfd).max() / scale <= 1e-6


def test_slices_are_symmetric():
    model = random_model(4, 3, seed=2)
    pts = np.random.default_rng(3).normal(size=(20, 4))
    tensor = stack_hessians(model, pts)
    for k in range(20):
        S = tensor.data[:, :, k]
        assert np.abs(S - S.T).max() <= 1e-12


def test_linearity_in_model():
    ta = random_model(3, 3, seed=4)
    tb = random_model(3, 3, seed=5)
    combined = PolyNarxModel(
        terms=ta.terms, coeffs=ta.coeffs + tb.coeffs, m=3
    )
    pts = np.random.default_rng(6).normal(size=(7, 3))
    Hsum = stack_hessians(ta, pts).data + stack_hessians(tb, pts).data
    np.testing.assert_allclose(stack_hessians(combined, pts).data, Hsum, atol=1e-12)


def test_affine_model_zero_tensor():
    terms = (PolyTerm((0, 0)), PolyTerm((1, 0)), PolyTerm((0, 1)))
    model = PolyNarxModel(terms=terms, coeffs=np.array([3.0, -1.0, 2.0]), m=2)
    tensor = stack_hessians(model, np.random.default_rng(7).normal(size=(5, 2)))
    assert np.all(tensor.data == 0)


def test_quadratic_model_constant_slices():
    model = random_model(3, 2, seed=8)
    pts = np.random.default_rng(9).normal(size=(10, 3))
    tensor = stack_hessians(model, pts)
    first = tensor.data[:, :, 0]
    for k in range(1, 10):
        np.testing.assert_allclose(tensor.data[:, :, k], first, atol=1e-12)


def test_stack_matches_pointwise():
    model = random_model(4, 3, seed=10)
    pts = np.random.default_rng(11).normal(size=(6, 4))
    tensor = stack_hessians(model, pts)
    for k in range(6):
        np.testing.assert_allclose(
            tensor.data[:, :, k], hessian_at(model, pts[k]), rtol=1e-12, atol=1e-12
        )


@pytest.mark.parametrize("m, degree", [(4, 3), (10, 3), (30, 2)])
def test_stack_matches_per_entry_reference(m, degree):
    model = random_model(m, degree, seed=15)
    pts = np.random.default_rng(16).normal(size=(9, m))
    np.testing.assert_array_equal(stack_hessians(model, pts).data, reference_stack(model, pts))


def test_benchmark_shape():
    model = random_model(5, 3, seed=12)
    pts = np.random.default_rng(13).normal(size=(100, 5))
    assert stack_hessians(model, pts).data.shape == (5, 5, 100)


def test_dimension_mismatch():
    model = random_model(3, 2, seed=14)
    with pytest.raises(ValueError):
        stack_hessians(model, np.zeros(4)[None])
