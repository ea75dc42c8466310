import random
from fractions import Fraction as F

import pytest

from ainfkit import (
    SignQuery,
    eta_from_phases,
    shifted_degree,
    sign_boundary_insertion,
    sign_fibre_product,
    sign_zeta,
    vdim_formulas,
)
from ainfkit.errors import DegeneratePhaseError, UndefinedSignError


def test_whitney_phase_data():
    for n in range(2, 9):
        r_minus = [F(-1, 4)] * n
        r_plus = [F(5, 4)] + [F(1, 4)] * (n - 1)
        assert eta_from_phases(n, r_minus, r_plus) == n + 1
        assert eta_from_phases(n, r_plus, r_minus) == -1


def test_eta_small_differences():
    n = 4
    r_minus = [F(0)] * n
    r_plus = [F(1, 3)] * n  # differences in (0, 1): all floors 0
    assert eta_from_phases(n, r_minus, r_plus) == n
    assert eta_from_phases(n, r_plus, r_minus) == 0


def test_eta_pairing_random(rng):
    for _ in range(100):
        n = rng.randint(1, 5)
        r_minus = [F(rng.randint(-8, 8), rng.choice([3, 4, 5, 7])) for _ in range(n)]
        r_plus = [F(rng.randint(-8, 8), rng.choice([3, 4, 5, 7])) for _ in range(n)]
        try:
            e1 = eta_from_phases(n, r_minus, r_plus)
        except DegeneratePhaseError:
            continue
        assert e1 + eta_from_phases(n, r_plus, r_minus) == n


def test_degenerate_phase_is_an_error():
    with pytest.raises(DegeneratePhaseError):
        eta_from_phases(1, [F(0)], [F(2)])


def test_shifted_degrees():
    assert shifted_degree("manifold", 3, n=3) == -1
    assert shifted_degree("double-point", 0, eta=5) == 4
    assert shifted_degree("family-manifold", 3, n=3, dim_t=1) == 0
    assert shifted_degree("family-double-point", 1, eta=2, dim_t=2) == 2


def test_vdim_main_and_cases():
    assert vdim_formulas("main", maslov=4, k=3, n=5) == 4 + 3 - 2 + 5
    assert vdim_formulas("main", maslov=0, k=2, n=3, etas=[2, 1]) == 0 + 2 - 2 + 3 - 3
    assert vdim_formulas("withChains", maslov=2, n=3, degs=[1, -1]) == 2 - 2 + 3 - 0
    d0 = vdim_formulas("withChains", maslov=2, n=3, degs=[1, 0])
    d1 = vdim_formulas("withChains", maslov=2, n=3, degs=[1, 0],
                       zero_in_I=True, eta0=4)
    assert d0 - d1 == 4


def test_vdim_modified_identity(rng):
    # modified equals main plus the sum of the etas
    for _ in range(200):
        maslov = 2 * rng.randint(-2, 3)
        k, n = rng.randint(0, 5), rng.randint(1, 6)
        etas = [rng.randint(-2, 5) for _ in range(rng.randint(0, 4))]
        assert vdim_formulas("modified", maslov=maslov, k=k, n=n) == \
            vdim_formulas("main", maslov=maslov, k=k, n=n, etas=etas) + sum(etas)


def test_vdim_family_adds_dim_t(rng):
    for _ in range(50):
        maslov, k, n, t = 2, rng.randint(0, 4), rng.randint(1, 5), rng.randint(0, 3)
        etas = [rng.randint(0, 3)]
        assert vdim_formulas("family", maslov=maslov, k=k, n=n, etas=etas, dim_t=t) \
            == vdim_formulas("main", maslov=maslov, k=k, n=n, etas=etas) + t


def test_vdim_chain_degrees():
    assert vdim_formulas("vcDegree", mu=1, degs=[2, -1]) == 1 - 2 + 1
    assert vdim_formulas("splitChainDegree", maslov2=4, degs_block=[1, 1]) == 1 - 4 + 2


def test_vdim_missing_parameter():
    with pytest.raises(ValueError):
        vdim_formulas("main", maslov=0, k=1)


@pytest.mark.parametrize("kind, params, name", [
    ("main", {"maslov": 1.5, "k": 2, "n": 3}, "maslov"),
    ("main", {"maslov": True, "k": 2, "n": 3}, "maslov"),
    ("main", {"maslov": 2, "k": "2", "n": 3}, "k"),
    ("main", {"maslov": 2, "k": 2, "n": 3, "etas": [1, 0.5]}, "etas"),
    ("main", {"maslov": 2, "k": 2, "n": 3, "etas": 1}, "etas"),
    ("vcDegree", {"mu": 1, "degs": [1, False]}, "degs"),
    ("withChains", {"maslov": 2, "n": 3, "degs": [], "zero_in_I": 1, "eta0": 4}, "zero_in_I"),
    ("partial", {"maslov": 2, "n": 3, "degs_prefix": [], "degs_tail": [],
                 "i_in_I1": "yes", "eta_i": 1}, "i_in_I1"),
])
def test_vdim_refuses_a_parameter_of_the_wrong_type(kind, params, name):
    # a float, a string or a bool where an integer belongs once read as one
    with pytest.raises(ValueError, match=name):
        vdim_formulas(kind, **params)


def test_zeta2_embedded_reduction(rng):
    for _ in range(200):
        n, i, k1, k2 = (rng.randint(0, 5), rng.randint(1, 4),
                        rng.randint(1, 4), rng.randint(0, 4))
        q = SignQuery(n=n, i=i, k1=k1, k2=k2)
        assert sign_zeta("zeta2", q) == (-1) ** ((n + i + k2 * (k1 + i)) % 2)


def test_zeta2_spec_example():
    q = SignQuery(n=2, i=1, k1=1, k2=2)
    assert sign_zeta("zeta2", q) == -1  # (-1)^(2+1+2*2)


def test_zeta3_identity_chain_normalization(rng):
    # degs = -1 off the index set and eta - 1 on it: sign must be +1
    for _ in range(300):
        n = rng.randint(0, 6)
        k = rng.randint(0, 5)
        members = sorted(rng.sample(range(1, k + 1), rng.randint(0, k)))
        etas = {pos: rng.randint(-2, 5) for pos in members}
        degs = [etas[j] - 1 if j in etas else -1 for j in range(1, k + 1)]
        zero_in = rng.random() < 0.5
        q = SignQuery(n=n, k=k, degs=degs, eta_by_index=etas,
                      zero_in_I=zero_in, eta0=rng.randint(-2, 5) if zero_in else 0)
        assert sign_zeta("zeta3", q) == 1


def test_zeta4_is_zeta1_times_family_parity(rng):
    for _ in range(300):
        q = SignQuery(
            n=rng.randint(0, 5), i=rng.randint(1, 4), k2=rng.randint(0, 4),
            dim_t=rng.randint(0, 3),
            eta_prefix=[rng.randint(0, 4) for _ in range(rng.randint(0, 3))],
            eta_block=[rng.randint(0, 4) for _ in range(rng.randint(0, 3))],
            i_in_I1=rng.random() < 0.5, eta_i=rng.randint(0, 4),
        )
        q.zero_in_I2 = q.i_in_I1
        assert sign_zeta("zeta4", q) == sign_zeta("zeta1", q) * (-1) ** (q.dim_t % 2)


def test_zeta5_is_zeta3_with_family_weight(rng):
    for _ in range(200):
        k = rng.randint(0, 4)
        members = sorted(rng.sample(range(1, k + 1), rng.randint(0, k)))
        q = SignQuery(
            n=rng.randint(0, 5), k=k,
            degs=[rng.randint(-2, 4) for _ in range(k)],
            eta_by_index={pos: rng.randint(-1, 4) for pos in members},
            dim_t=rng.randint(0, 3),
            zero_in_I=rng.random() < 0.5, eta0=rng.randint(0, 4),
        )
        extra = sum((k - j) * (q.degs[j - 1] + 1) for j in range(1, k + 1))
        extra -= sum((k - p) * v for p, v in q.eta_by_index.items())
        expect = sign_zeta("zeta3", q) * (-1) ** ((q.dim_t * extra) % 2)
        assert sign_zeta("zeta5", q) == expect


def test_zeta_mixed_membership_is_undefined():
    q = SignQuery(n=1, i=1, k2=1, i_in_I1=True, zero_in_I2=False)
    with pytest.raises(UndefinedSignError):
        sign_zeta("zeta1", q)


def test_face_sign():
    assert sign_boundary_insertion("face", SignQuery(i=1, j=0, degs=[])) == -1
    # j + 1 + deg f_1 = 1 + 1 + 1 odd
    assert sign_boundary_insertion("face", SignQuery(i=2, j=1, degs=[1])) == -1
    assert sign_boundary_insertion("face", SignQuery(i=2, j=1, degs=[2])) == 1


def test_split_times_insert_equals_vcsplit(rng):
    # with the split-off chain's degree from the dimension formula and even
    # Maslov index, the product of the two signs collapses
    for _ in range(10_000):
        n = rng.randint(0, 5)
        k = rng.randint(1, 5)
        k2 = rng.randint(0, k)
        i = rng.randint(1, k - k2 + 1)
        degs = [rng.randint(-2, 4) for _ in range(k)]
        maslov2 = 2 * rng.randint(-2, 2)
        g_deg = 1 - maslov2 + sum(degs[i - 1: i - 1 + k2])
        split = sign_boundary_insertion("split", SignQuery(n=n, i=i, k2=k2, degs=degs))
        insert = sign_boundary_insertion("insert", SignQuery(i=i, deg_f=g_deg, degs=degs))
        vc = sign_boundary_insertion("vcSplit", SignQuery(n=n, i=i, degs=degs))
        assert split * insert == vc


def test_family_split_is_vcsplit_times_parity(rng):
    for _ in range(500):
        n, i = rng.randint(0, 4), rng.randint(1, 4)
        degs = [rng.randint(-2, 3) for _ in range(4)]
        q = SignQuery(n=n, i=i, degs=degs)
        assert sign_boundary_insertion("familySplit", q) == \
            -sign_boundary_insertion("vcSplit", q)


def test_fibre_product_signs():
    assert sign_fibre_product("boundaryLeft", 3, 3) == 1
    assert sign_fibre_product("boundaryLeft", 2, 1) == -1
    assert sign_fibre_product("assocRegroup", 1, 1, 1) == 1
    assert sign_fibre_product("assocRegroup", 1, 1, 2) == -1


def test_swap_sign_involution(rng):
    for _ in range(500):
        a, b, y = rng.randint(-3, 6), rng.randint(-3, 6), rng.randint(0, 5)
        s1 = sign_fibre_product("swap", a, b, y)
        s2 = sign_fibre_product("swap", b, a, y)
        assert s1 == s2        # symmetric under exchanging the factors
        assert s1 * s2 == 1    # applying the swap twice is the identity


def test_insertion_signs_ignore_eta_data(rng):
    # face/split/insert depend only on n, i, j, k2 and the shifted degrees
    for _ in range(100):
        q1 = SignQuery(n=2, i=2, j=1, k2=1, degs=[1, 0, 2])
        q2 = SignQuery(n=2, i=2, j=1, k2=1, degs=[1, 0, 2],
                       eta_prefix=[rng.randint(0, 9)],
                       eta_block=[rng.randint(0, 9)],
                       eta0=rng.randint(0, 9))
        for kind in ("face", "split", "insert", "vcSplit", "familySplit"):
            assert sign_boundary_insertion(kind, q1) == sign_boundary_insertion(kind, q2)


def test_zeta2_is_zeta1_times_swap(rng):
    # the reversed-order boundary sign must equal the direct one times the
    # fibre-product swap sign, with virtual dimensions from the closed form;
    # this pins the branchy case analysis of both formulas against each other
    for _ in range(3000):
        mixed = rng.random() < 0.5
        zero_in_I = rng.random() < 0.5
        n = rng.randint(0, 5)
        k2 = rng.randint(0, 3)
        k1 = rng.randint(max(1, 1), 4)
        i = rng.randint(1, k1)
        pre = [rng.randint(0, 4) for _ in range(rng.randint(0, 2))]
        blk = [rng.randint(0, 4) for _ in range(rng.randint(0, 2))]
        tail = [rng.randint(0, 4) for _ in range(rng.randint(0, 2))]
        eta_i = rng.randint(0, n)
        eta0 = rng.randint(0, n)
        q = SignQuery(n=n, i=i, k1=k1, k2=k2, eta_prefix=pre, eta_block=blk,
                      eta_tail=tail, i_in_I1=mixed, zero_in_I2=mixed,
                      eta_i=eta_i, zero_in_I=zero_in_I, eta0=eta0)
        maslov1 = 2 * rng.randint(-1, 2)
        maslov2 = 2 * rng.randint(-1, 2)
        etas_1 = sum(pre) + sum(tail) + (eta_i if mixed else 0) \
            + (eta0 if zero_in_I else 0)
        etas_2 = sum(blk) + ((n - eta_i) if mixed else 0)
        v1 = vdim_formulas("main", maslov=maslov1, k=k1, n=n, etas=[etas_1])
        v2 = vdim_formulas("main", maslov=maslov2, k=k2, n=n, etas=[etas_2])
        dim_y = 0 if mixed else n
        swap = sign_fibre_product("swap", v2, v1, dim_y)
        assert sign_zeta("zeta2", q) == sign_zeta("zeta1", q) * swap, q
