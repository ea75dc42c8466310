"""Closed-form index, degree, dimension and sign arithmetic.

Everything here is integer arithmetic: signs are parities of exact integer
expressions, indices come from floors of rational phase differences.  The
formulas take explicit membership flags for the index-set case splits rather
than inferring them from the data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DegeneratePhaseError, UndefinedSignError
from .novikov import as_fraction


def eta_from_phases(n: int, r_minus, r_plus) -> int:
    """Double-point index from phase data; angles are r*pi.

    eta = n + sum_j floor(r_plus_j - r_minus_j); requires every difference
    off the integers, and the companion identity eta(-,+) + eta(+,-) = n is
    rechecked on the swapped inputs.
    """
    if len(r_minus) != n or len(r_plus) != n:
        raise ValueError(f"need {n} phases per sheet")
    r_minus = [as_fraction(x) for x in r_minus]
    r_plus = [as_fraction(x) for x in r_plus]
    diffs = [p - m for m, p in zip(r_minus, r_plus)]
    for dd in diffs:
        if dd.denominator == 1:
            raise DegeneratePhaseError(f"phase difference {dd} lies in pi*Z")
    eta = n + sum(math.floor(dd) for dd in diffs)
    partner = n + sum(math.floor(-dd) for dd in diffs)
    assert eta + partner == n, "floor pairing identity failed"
    return eta


def shifted_degree(target: str, a: int, n=None, eta=None, dim_t=None) -> int:
    """Shifted cohomological degree of an a-simplex of chains.

    manifold: n - a - 1; double-point: eta - a - 1; the family variants add
    dim T.
    """
    if target == "manifold":
        return n - a - 1
    if target == "double-point":
        return eta - a - 1
    if target == "family-manifold":
        return dim_t + n - a - 1
    if target == "family-double-point":
        return dim_t + eta - a - 1
    raise ValueError(f"unknown target {target!r}")


def vdim_formulas(kind: str, **params) -> int:
    """Closed-form virtual dimensions and virtual-chain degrees.

    Kinds and their parameters (maslov is the even integer mu_L(beta)); a
    parameter is an int, a list of ints (etas, degs...) or a bool (the
    membership flags), and anything else raises ValueError:

    main            maslov, k, n, etas (list over I)
    withChains      maslov, n, degs, zero_in_I, eta0 (if zero_in_I)
    partial         maslov, n, degs_prefix, degs_tail, zero_in_I1, eta0,
                    i_in_I1, eta_i
    modified        maslov, k, n
    modifiedChains  maslov, n, degs
    family          maslov, k, n, etas, dim_t
    familyChains    maslov, n, degs, dim_t, zero_in_I, eta0 (if zero_in_I)
    vcDegree        mu (the e-power), degs                  [degree 1-2mu+sum]
    splitChainDegree maslov2, degs_block                    [1-maslov2+sum]
    """
    p = dict(params)
    for name, value in p.items():
        if value is None:
            continue
        if name in ("zero_in_I", "zero_in_I1", "i_in_I1"):
            if type(value) is not bool:
                raise ValueError(f"{kind}: {name} must be true or false")
        elif name in ("etas", "degs", "degs_prefix", "degs_tail", "degs_block"):
            if type(value) not in (list, tuple) or any(type(x) is not int for x in value):
                raise ValueError(f"{kind}: {name} must be a list of integers")
        elif type(value) is not int:  # bools are ints to Python, not here
            raise ValueError(f"{kind}: {name} must be an integer")

    def need(*names):
        missing = [x for x in names if p.get(x) is None]
        if missing:
            raise ValueError(f"{kind}: missing parameter(s) {missing}")

    if kind == "main":
        need("maslov", "k", "n")
        return p["maslov"] + p["k"] - 2 + p["n"] - sum(p.get("etas") or [])
    if kind == "withChains":
        need("maslov", "n", "degs")
        out = p["maslov"] - 2 + p["n"] - sum(p["degs"])
        if p.get("zero_in_I"):
            need("eta0")
            out -= p["eta0"]
        return out
    if kind == "partial":
        need("maslov", "n", "degs_prefix", "degs_tail")
        out = p["maslov"] - 1 + p["n"] - sum(p["degs_prefix"]) - sum(p["degs_tail"])
        if p.get("zero_in_I1"):
            need("eta0")
            out -= p["eta0"]
        if p.get("i_in_I1"):
            need("eta_i")
            out -= p["eta_i"]
        return out
    if kind == "modified":
        need("maslov", "k", "n")
        return p["maslov"] + p["k"] - 2 + p["n"]
    if kind == "modifiedChains":
        need("maslov", "n", "degs")
        return p["maslov"] - 2 + p["n"] - sum(p["degs"])
    if kind == "family":
        need("maslov", "k", "n", "dim_t")
        return p["maslov"] + p["k"] - 2 + p["n"] - sum(p.get("etas") or []) + p["dim_t"]
    if kind == "familyChains":
        need("maslov", "n", "degs", "dim_t")
        out = p["maslov"] - 2 + p["dim_t"] + p["n"] - sum(p["degs"])
        if p.get("zero_in_I"):
            need("eta0")
            out -= p["eta0"]
        return out
    if kind == "vcDegree":
        need("mu", "degs")
        return 1 - 2 * p["mu"] + sum(p["degs"])
    if kind == "splitChainDegree":
        need("maslov2", "degs_block")
        return 1 - p["maslov2"] + sum(p["degs_block"])
    raise ValueError(f"unknown vdim kind {kind!r}")


@dataclass
class SignQuery:
    """Parameter bag for the branchy orientation signs.

    Only the fields a given formula needs have to be set; the membership
    flags are explicit because the case splits are about index-set
    membership, not values.
    """

    n: int = 0
    i: int = 0
    j: int = 0
    k: int = 0
    k1: int = 0
    k2: int = 0
    dim_t: int = 0
    degs: list = field(default_factory=list)       # deg f_1 .. deg f_k
    eta_prefix: list = field(default_factory=list)  # eta_alpha(j), j in I, 0 < j < i
    eta_block: list = field(default_factory=list)   # eta_alpha(l), l in I, i <= l < i+k2
    eta_tail: list = field(default_factory=list)    # eta_alpha(l), l in I, i+k2 <= l <= k
    eta_by_index: dict = field(default_factory=dict)  # position (1..k) -> eta, for zeta3/5
    zero_in_I: bool = False
    eta0: int = 0
    i_in_I1: bool = False
    zero_in_I2: bool = False
    eta_i: int = 0  # eta_{alpha_1(i)} when i is in I_1
    deg_f: int = 0  # the inserted chain's degree (insert kind)


def _parity(x: int) -> int:
    return -1 if x % 2 else 1


def _zeta_case(q: SignQuery):
    if q.i_in_I1 != q.zero_in_I2:
        raise UndefinedSignError(
            "i in I_1 and 0 in I_2 must agree; the mixed cases have an empty "
            "fibre product and no sign is defined"
        )
    return q.i_in_I1  # == q.zero_in_I2


def sign_zeta(kind: str, q: SignQuery) -> int:
    """The five boundary-orientation signs.

    zeta1: boundary splitting of the plain moduli space;
    zeta2: the same with the fibre product order reversed (reduces to
           (-1)^(n+i+k2(k1+i)) in the embedded case I = empty);
    zeta3: chain fibre products versus the plain space (normalized to +1 at
           the identity-chain query);
    zeta4: zeta1 for a dim T family;
    zeta5: zeta3 for a dim T family.
    """
    if kind == "zeta1" or kind == "zeta4":
        mixed = _zeta_case(q)
        left = q.i + sum(q.eta_prefix)
        right = 1 + q.k2 + sum(q.eta_block) + (q.eta_i if mixed else 0)
        expo = q.n + left * right
        if kind == "zeta4":
            expo += q.dim_t
        return _parity(expo)
    if kind == "zeta2":
        # reversing the fibre product multiplies zeta1 by the swap sign
        # (-1)^((vdim1 - dim Y)(vdim2 - dim Y)); in every branch the output
        # marked point's index enters the first factor's dimension, so eta0
        # appears in the tail factor whenever 0 is in I
        mixed = _zeta_case(q)
        expo = q.n + q.i + sum(q.eta_prefix)
        blk = q.k2 + sum(q.eta_block) + (q.eta_i if mixed else 0)
        tail = q.k1 + q.i + sum(q.eta_tail)
        if mixed:
            tail += q.n - q.eta_i  # eta_{alpha_2(0)} = n - eta_{alpha_1(i)}
        if q.zero_in_I:
            tail += q.eta0
        return _parity(expo + blk * tail)
    if kind == "zeta3" or kind == "zeta5":
        degs = q.degs
        k = q.k if q.k else len(degs)
        eta = q.eta_by_index
        expo = 0
        for pos, eta_val in eta.items():
            if pos == 0:
                continue
            inner = sum(degs[j - 1] + 1 for j in range(1, pos + 1))
            inner -= sum(ev for pp, ev in eta.items() if 0 < pp <= pos)
            expo += (q.n - eta_val) * inner
        second = sum((k - j) * (degs[j - 1] + 1) for j in range(1, k + 1))
        second -= sum((k - pp) * ev for pp, ev in eta.items() if pp != 0)
        weight = q.n + 1 if kind == "zeta3" else q.dim_t + q.n + 1
        expo += weight * second
        if q.zero_in_I:
            expo += q.eta0 * (
                sum(d + 1 for d in degs) - sum(ev for pp, ev in eta.items() if pp != 0)
            )
        return _parity(expo)
    raise ValueError(f"unknown zeta kind {kind!r}")


def sign_boundary_insertion(kind: str, q: SignQuery) -> int:
    """Boundary and insertion signs for virtual chains.

    face:        (-1)^(j + 1 + sum_{l<i} deg f_l)
    split:       (-1)^(n + (1 + sum_{l<i} deg)(1 + sum_block deg))
    insert:      (-1)^((1 + deg f)(1 + sum_{l<i} deg))
    vcSplit:     (-1)^(n + 1 + sum_{l<i} deg)
    familySplit: (-1)^(n + sum_{l<i} deg)        [dim T = 1 family]
    """
    prefix = sum(q.degs[: q.i - 1]) if q.i >= 1 else 0
    if kind == "face":
        return _parity(q.j + 1 + prefix)
    if kind == "split":
        block = sum(q.degs[q.i - 1: q.i - 1 + q.k2])
        return _parity(q.n + (1 + prefix) * (1 + block))
    if kind == "insert":
        return _parity((1 + q.deg_f) * (1 + prefix))
    if kind == "vcSplit":
        return _parity(q.n + 1 + prefix)
    if kind == "familySplit":
        return _parity(q.n + prefix)
    raise ValueError(f"unknown insertion kind {kind!r}")


def sign_fibre_product(kind: str, *dims) -> int:
    """Orientation conventions for fibre products of Kuranishi spaces.

    boundaryLeft(vdim_x1, dim_y):          (-1)^(vdim X1 + dim Y)
    swap(vdim_x1, vdim_x2, dim_y):         (-1)^((vdim X1 - dim Y)(vdim X2 - dim Y))
    assocRegroup(dim_y1, dim_y2, vdim_x2): (-1)^(dim Y2 (dim Y1 + vdim X2))
    """
    if kind == "boundaryLeft":
        vdim_x1, dim_y = dims
        return _parity(vdim_x1 + dim_y)
    if kind == "swap":
        vdim_x1, vdim_x2, dim_y = dims
        return _parity((vdim_x1 - dim_y) * (vdim_x2 - dim_y))
    if kind == "assocRegroup":
        dim_y1, dim_y2, vdim_x2 = dims
        return _parity(dim_y2 * (dim_y1 + vdim_x2))
    raise ValueError(f"unknown fibre product kind {kind!r}")
