import itertools
import math
import re
import sys
import threading
import warnings

import numpy as np
import pytest

from conftest import fresh_geometry, mat_close, real_matrix, same_bits
from qflag.coset import (MAX_HAAR_FIBERS, GrassmannPoint, _action,
                         _gram_factors, coset_element, coset_generator,
                         cross_ratio,
                         curvature_det, curvature_det_gap,
                         curvature_trace,
                         fundamental_action,
                         grassmann_from_coset, haar_average, inner_product,
                         inversion_invariance_residual, lft_apply,
                         lft_apply_second_form, metric_form,
                         metric_form_expanded, metric_form_hermitian,
                         metric_invariance_residual, pushforward_tangent,
                         transport_identities, trivial_action)
from qflag.errors import (DegenerateQuadruple, DimensionMismatch, NonSquare,
                          NotHyperHermitian, PairingFailure, QflagError,
                          ShapeMismatch,
                          SingularDenominator, SingularMatrix, TooManyFibers)
from qflag.forms import curvature_blocks
from qflag.quaternion import (HURWITZ_UNITS, Quaternion, random_quaternion,
                              random_unit_quaternion)
from qflag.quatmat import (GroupElement, QuatMatrix, _inverses, _stack, _wrap,
                           block_matrix, eigvals_hyperhermitian, expm,
                           func_hermitian,
                           random_group_element, random_quatmat,
                           random_skew_adjoint)
from qflag.verify import s3_moments

rng = np.random.default_rng(303)


def random_point(j=2, k=2, scale=0.5):
    return GrassmannPoint(random_quatmat(rng, j, k, scale))


# -- coset parameterisation -----------------------------------------------------

def test_coset_element_zero_is_identity():
    assert mat_close(coset_element(QuatMatrix.zeros(2, 3)).m,
                     QuatMatrix.identity(5), 1e-13)


def test_coset_element_scalar_case():
    t = 0.9
    ge = coset_element(real_matrix([[t]]))
    assert abs(ge.m.a[0, 0, 0] - math.cos(t)) < 1e-13
    assert abs(ge.m.a[0, 1, 0] - math.sin(t)) < 1e-13
    assert abs(ge.m.a[1, 0, 0] + math.sin(t)) < 1e-13


def test_coset_element_matches_exponential():
    for _ in range(200):
        xi = random_quatmat(rng, 2, 2, 0.6)
        closed = coset_element(xi).m
        series = expm(coset_generator(xi))
        assert (closed - series).max_abs() < 1e-9


def test_grassmann_point_consistency():
    # X = Z (1 - Z*Z)^{-1/2} agrees with (1 - ZZ*)^{-1/2} Z
    for _ in range(100):
        xi = random_quatmat(rng, 2, 2, 0.4)
        x = grassmann_from_coset(xi).x
        z = func_hermitian(xi @ xi.adjoint(), "sinc_sqrt") @ xi
        other = func_hermitian(QuatMatrix.identity(2) - z @ z.adjoint(),
                               "invsqrt") @ z
        assert (x - other).max_abs() < 1e-9


@pytest.mark.parametrize("j, k", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2)])
def test_grassmann_from_coset_is_the_coset_element_acting_on_the_origin(j, k):
    # X = Z (1 - Z* Z)^{-1/2} against the linear fractional action of
    # coset_element(xi) on the origin, B D^{-1} with B = Z and
    # D = cos sqrt(xi* xi); xi is scaled to largest singular values from
    # 0.05 to 1.2
    draws = np.random.default_rng(21)
    origin = GrassmannPoint(QuatMatrix.zeros(j, k))
    for top in np.linspace(0.05, 1.2, 24):
        xi = random_quatmat(draws, j, k)
        gram_top = eigvals_hyperhermitian(xi @ xi.adjoint())[-1]
        xi = xi * (top / math.sqrt(gram_top))
        want = lft_apply(coset_element(xi), origin).x
        got = grassmann_from_coset(xi).x
        assert (got - want).max_abs() <= 1e-11 * want.max_abs(), top


def test_coset_element_z_gram_bounded():
    for _ in range(100):
        xi = random_quatmat(rng, 2, 2, 1.0)
        g = coset_element(xi)
        z = QuatMatrix(g.m.a[:2, 2:])
        from qflag.quatmat import eigvals_hyperhermitian
        evs = eigvals_hyperhermitian(z @ z.adjoint())
        assert evs.max() <= 1.0 + 1e-10


# -- the linear fractional action --------------------------------------------------

def test_lft_identity_fixes_points():
    x = random_point()
    eye = GroupElement(QuatMatrix.identity(4))
    assert (lft_apply(eye, x).x - x.x).max_abs() < 1e-14


def test_lft_origin_maps_to_bd_inverse():
    g = random_group_element(rng, 4)
    a, b, c, d = g.m.blocks(2, 2)
    y = lft_apply(g, GrassmannPoint(QuatMatrix.zeros(2, 2))).x
    assert (y - b @ d.inv()).max_abs() < 1e-10
    second = -(a.adjoint().inv() @ c.adjoint())
    assert (y - second).max_abs() < 1e-10


def test_lft_two_forms_agree():
    for _ in range(500):
        g = random_group_element(rng, 4)
        x = random_point()
        y1 = lft_apply(g, x).x
        y2 = lft_apply_second_form(g, x).x
        assert (y1 - y2).max_abs() < 1e-9


def test_lft_group_action_law():
    for _ in range(500):
        g1 = random_group_element(rng, 4)
        g2 = random_group_element(rng, 4)
        x = random_point()
        composed = lft_apply(g2, lft_apply(g1, x))
        direct = lft_apply(g2 @ g1, x)
        assert (composed.x - direct.x).max_abs() < 1e-8


def test_lft_rectangular_partition():
    g = random_group_element(rng, 3)
    x = GrassmannPoint(random_quatmat(rng, 1, 2, 0.5))
    y1 = lft_apply(g, x).x
    y2 = lft_apply_second_form(g, x).x
    assert (y1 - y2).max_abs() < 1e-9
    # points that do not fit Sp(3), on every route through the action
    for shape in ((2, 2), (1, 1)):
        point = GrassmannPoint(QuatMatrix.zeros(*shape))
        for call in (lambda: lft_apply(g, point),
                     lambda: pushforward_tangent(g, point, point.x),
                     lambda: transport_identities(g, point, point)):
            with pytest.raises(DimensionMismatch):
                call()


def test_lft_singular_denominator():
    # block-swap group element sends the origin to infinity: C 0 + D = 0
    zero = QuatMatrix.zeros(2, 2)
    eye = QuatMatrix.identity(2)
    from qflag.quatmat import block_matrix
    swap = GroupElement(block_matrix([[zero, eye], [-eye, zero]]))
    with pytest.raises(SingularDenominator):
        lft_apply(swap, GrassmannPoint(QuatMatrix.zeros(2, 2)))


def nan_point():
    x = QuatMatrix.zeros(2, 2)
    x.a[1, 0, 3] = np.nan
    return GrassmannPoint(x)


def test_lft_nan_point_is_singular():
    g = GroupElement(QuatMatrix.identity(4))
    with pytest.raises(SingularDenominator):
        lft_apply(g, nan_point())
    with pytest.raises(SingularDenominator):
        lft_apply_second_form(g, nan_point())


# -- projective identities -----------------------------------------------------------

def test_transport_identities_on_random_draws():
    for _ in range(500):
        g = random_group_element(rng, 4)
        xa, xb = random_point(), random_point()
        res = transport_identities(g, xa, xb)
        assert max(res.values()) < 1e-9


def test_transport_identities_identity_element():
    eye = GroupElement(QuatMatrix.identity(4))
    res = transport_identities(eye, random_point(), random_point())
    assert max(res.values()) < 1e-12


def test_transport_identities_coincident_points():
    g = random_group_element(rng, 4)
    xa = random_point()
    res = transport_identities(g, xa, GrassmannPoint(xa.x))
    assert res["difference_a"] < 1e-12
    assert res["difference_b"] < 1e-12


def test_transport_identity_manual_recheck():
    # recompute the first identity by hand as an independent evaluation
    g = random_group_element(rng, 4)
    xa, xb = random_point(), random_point()
    a, b, c, d = g.m.blocks(2, 2)
    ya = lft_apply(g, xa).x
    yb = lft_apply(g, xb).x
    eye = QuatMatrix.identity(2)
    lhs = eye + ya @ yb.adjoint()
    left = (-(xa.x @ b.adjoint()) + a.adjoint()).inv()
    right = (-(b @ xb.x.adjoint()) + a).inv()
    rhs = left @ (eye + xa.x @ xb.x.adjoint()) @ right
    assert (lhs - rhs).max_abs() < 1e-9


def test_transport_identities_error_paths():
    # For a group element, A* - X B* is singular exactly when C X + D is (the
    # image leaves the chart), and the inverses of C X + D go first.  Only a
    # matrix off the group, built here without the membership check, makes
    # a transport factor singular on its own.
    infinity = "the point is mapped to infinity"
    factor = "transport factor is singular"
    off_group = real_matrix([[0.0, 1.0], [1.0, 1.0]])     # A = 0, B = C = D = 1
    swap = real_matrix([[0.0, 1.0], [-1.0, 0.0]])         # A = D = 0
    eye = QuatMatrix.identity(2)
    origin = GrassmannPoint(QuatMatrix.zeros(1, 1))
    two = GrassmannPoint(real_matrix([[2.0]]))
    cases = [
        # A* = 0 is singular; C 0 + D = 1 is not
        (off_group, origin, origin, factor),
        # only A* - Xb B* = -Xb and A - B Xb* are singular
        (off_group, two, origin, factor),
        # C 0 + D = 0, and A* = 0 as well: the old order raised this first
        (swap, origin, origin, infinity),
        # only C Xb + D = 0 is singular
        (swap, GrassmannPoint(real_matrix([[1.0]])), origin, infinity),
    ]
    for m, pa, pb, message in cases:
        with pytest.raises(SingularDenominator, match=message):
            transport_identities(GroupElement(m, check=False), pa, pb)
        # the same element in the middle of a batch of identities
        batch = GroupElement(QuatMatrix(np.stack([eye.a, m.a, eye.a])),
                             check=False)
        with pytest.raises(SingularDenominator, match=message):
            transport_identities(batch, pa, pb)
        # one element on a batch of points of which only the middle is bad
        points = [GrassmannPoint(QuatMatrix(np.stack([two.x.a, p.x.a, two.x.a])))
                  for p in (pa, pb)]
        with pytest.raises(SingularDenominator, match=message):
            transport_identities(GroupElement(m, check=False), *points)


def test_grouped_calls_solve_and_diagonalise_once_per_group(monkeypatch):
    # one inv or eigh per group at any shape: transport_identities inverts
    # C X + D, then A* - X B*; cross_ratio inverts in 1 call; coset_element
    # takes cos_sqrt and sinc_sqrt of G*G, the Gram routes factor 1 + G and
    # 1 + G*G, for the (j+k)-square G = coset_generator(X)
    counts = {"inv": 0, "eigh": 0}
    for name in counts:
        def counted(*args, _name=name, _fn=getattr(np.linalg, name), **kw):
            counts[_name] += 1
            return _fn(*args, **kw)
        monkeypatch.setattr(np.linalg, name, counted)

    def check(g, pts, du, dv, expected):
        def geometry_calls():
            # the four calls at one point share its two inverses and its
            # two inverse square roots
            for call in GEOMETRY_CALLS.values():
                call(pts[3], du, dv)

        calls = {"transport": lambda: transport_identities(g, pts[0], pts[1]),
                 "cross_ratio": lambda: cross_ratio(*pts),
                 "coset_element": lambda: coset_element(pts[2].x),
                 "geometry": geometry_calls, "geometry again": geometry_calls}
        for name, want in expected.items():
            counts.update(inv=0, eigh=0)
            calls[name]()
            assert counts == dict(zip(("inv", "eigh"), want)), name

    # a square point
    g = GroupElement(expm(random_skew_adjoint(rng, 4, 0.7)))
    pts = [random_point() for _ in range(4)]
    du, dv = random_quatmat(rng, 2, 2), random_quatmat(rng, 2, 2)
    check(g, pts, du, dv, {"transport": (2, 0), "cross_ratio": (1, 0),
                           "coset_element": (0, 1), "geometry": (1, 1),
                           "geometry again": (0, 0)})
    # a 1 x 2 point: the same counts
    local = np.random.default_rng(613)
    g = GroupElement(expm(random_skew_adjoint(local, 3, 0.7)))
    pts = [GrassmannPoint(random_quatmat(local, 1, 2, 0.5)) for _ in range(4)]
    du, dv = random_quatmat(local, 1, 2), random_quatmat(local, 1, 2)
    check(g, pts, du, dv, {"transport": (2, 0), "coset_element": (0, 1),
                           "geometry": (1, 1), "geometry again": (0, 0)})
    # internal results skip re-validation; the public constructor does not
    with pytest.raises(DimensionMismatch):
        QuatMatrix(np.zeros((2, 2)))


def per_side_transport(g, xa, xb):
    """transport_identities with each of its four inverses on its own: the
    action at each point alone, then A* - X B* at each point; the other two
    factors are adjoints of these."""
    j, k = xa.rows, xa.cols
    a, b, _, _ = g.m.blocks(j, k)
    eye_j, eye_k = QuatMatrix.identity(j), QuatMatrix.identity(k)
    _, _, ya, ra = _action(g, xa)
    _, _, yb, rb = _action(g, xb)
    la = (a.adjoint() - xa @ b.adjoint()).inv()
    lb = (a.adjoint() - xb @ b.adjoint()).inv()
    rb_star, la_star = lb.adjoint(), ra.adjoint()

    def worst(m):
        return np.abs(m.a).max(axis=(-3, -2, -1))

    return {"one_plus_y_ystar": worst(eye_j + ya @ yb.adjoint()
                                      - la @ (eye_j + xa @ xb.adjoint())
                                      @ rb_star),
            "one_plus_ystar_y": worst(eye_k + ya.adjoint() @ yb
                                      - la_star @ (eye_k + xa.adjoint() @ xb)
                                      @ rb),
            "difference_a": worst(ya - yb - la @ (xa - xb) @ rb),
            "difference_b": worst(ya - yb - lb @ (xa - xb) @ ra)}


def test_grouped_factors_have_the_bits_of_per_side_factors():
    local = np.random.default_rng(614)
    for n in (1, 2, 3):
        for batch in ((), (3,)):
            x = QuatMatrix(local.normal(0.0, 0.5, batch + (n, n, 4)))
            left = QuatMatrix.identity(n) + x @ x.adjoint()
            right = QuatMatrix.identity(n) + x.adjoint() @ x
            # both Gram routes against each side factored alone
            got = _gram_factors(x, "inv") + _gram_factors(x, "invsqrt")
            want = [left.inv(), right.inv(), func_hermitian(left, "invsqrt"),
                    func_hermitian(right, "invsqrt")]
            for mine, theirs in zip(got, want, strict=True):
                assert mat_close(mine, theirs, 1e-13)
            # coset_element against one spectrum per side
            xi = QuatMatrix(local.normal(0.0, 0.5, batch + (n, n, 4)))
            xi_adj = xi.adjoint()
            z = func_hermitian(xi @ xi_adj, "sinc_sqrt") @ xi
            want = block_matrix([[func_hermitian(xi @ xi_adj, "cos_sqrt"), z],
                                 [-z.adjoint(),
                                  func_hermitian(xi_adj @ xi, "cos_sqrt")]])
            assert mat_close(coset_element(xi).m, want, 1e-13)
            # every transport residual, the group element single or batched
            for g_batch in ((), batch):
                gens = QuatMatrix(local.normal(
                    0.0, 0.7, g_batch + (2 * n, 2 * n, 4)))
                g = GroupElement(expm((gens - gens.adjoint()) * 0.5))
                xa, xb = (QuatMatrix(local.normal(0.0, 0.5, batch + (n, n, 4)))
                          for _ in range(2))
                got = transport_identities(g, GrassmannPoint(xa),
                                           GrassmannPoint(xb))
                assert same_bits(got, per_side_transport(g, xa, xb))


def test_cross_ratio_invariance():
    for _ in range(500):
        g = random_group_element(rng, 4)
        pts = [random_point() for _ in range(4)]
        before = cross_ratio(*pts)
        after = cross_ratio(*[lft_apply(g, p) for p in pts])
        assert abs(before - after) <= 1e-8 * max(1.0, abs(before))


def test_cross_ratio_permutation_symmetry():
    # negating the two inverted differences leaves the value unchanged
    pa, pb, pc, pd = [random_point() for _ in range(4)]
    base = cross_ratio(pa, pb, pc, pd)
    flipped = (pa.x - pb.x) @ (pb.x - pc.x).inv() @ (pc.x - pd.x) \
        @ (pd.x - pa.x).inv()
    assert abs(flipped.trace().w - base) < 1e-10 * max(1.0, abs(base))


def test_cross_ratio_zero_numerator():
    pa = random_point()
    pc, pd = random_point(), random_point()
    # coincident first pair gives a vanishing numerator factor
    assert cross_ratio(pa, GrassmannPoint(pa.x), pc, pd) == 0.0


def test_cross_ratio_refuses_points_of_another_size():
    small = GrassmannPoint(QuatMatrix.identity(1))
    local = np.random.default_rng(36)
    pts = [GrassmannPoint(random_quatmat(local, 2, 2, 0.5)) for _ in range(3)]
    with pytest.raises(DimensionMismatch):
        cross_ratio(small, *pts)


def test_cross_ratio_degenerate_gate():
    pa, pb, pd = random_point(), random_point(), random_point()
    with pytest.raises(DegenerateQuadruple):
        cross_ratio(pa, pb, GrassmannPoint(pb.x), pd)


# -- the invariant metric ---------------------------------------------------------------

GEOMETRY_CALLS = {
    "metric_form": lambda p, du, dv: metric_form(p, du),
    "metric_form_expanded": lambda p, du, dv: metric_form_expanded(p, du),
    "metric_form_hermitian": lambda p, du, dv: metric_form_hermitian(p, du),
    "curvature_blocks": curvature_blocks,
}


def geometry_draw(local, batch=(), j=2, k=3):
    """A j x k point and two tangents, of batch shape ``batch``."""
    return [QuatMatrix(local.normal(0.0, scale, batch + (j, k, 4)))
            for scale in (0.5, 1.0, 1.0)]


def test_a_points_two_gram_inverses_take_one_inv_call_in_either_order(
        monkeypatch):
    calls = []
    inv = QuatMatrix.inv

    def counted(self, *args):
        calls.append(self.shape)
        return inv(self, *args)

    monkeypatch.setattr(QuatMatrix, "inv", counted)
    local = np.random.default_rng(615)
    dx = random_quatmat(local, 2, 2)
    for first, second in ((metric_form, metric_form_expanded),
                          (metric_form_expanded, metric_form)):
        point = GrassmannPoint(random_quatmat(local, 2, 2, 0.5))
        calls.clear()
        first(point, dx)
        second(point, dx)
        assert calls == [(4, 4)], first.__name__


def test_a_points_gram_pair_is_built_once_for_both_routes(monkeypatch):
    calls = []
    identity = QuatMatrix.identity

    def counted(n):
        calls.append(n)
        return identity(n)

    monkeypatch.setattr(QuatMatrix, "identity", staticmethod(counted))
    x, du, dv = geometry_draw(np.random.default_rng(620))
    point = GrassmannPoint(x)
    for call in GEOMETRY_CALLS.values():
        call(point, du, dv)
    # 1 + G and 1 + G*G (5 x 5 for G = coset_generator(X)), once each
    assert calls == [5, 5]


def test_mis_shaped_tangents_raise_shape_mismatch_naming_both_shapes():
    point = random_point(2, 3)
    good, bad = random_quatmat(rng, 2, 3), random_quatmat(rng, 3, 2)
    message = re.escape("tangent shape (3, 2) != point shape (2, 3)")
    for name, call in GEOMETRY_CALLS.items():
        # the metric forms read only the first tangent
        pairs = [(bad, good)] + [(good, bad)] * (name == "curvature_blocks")
        for du, dv in pairs:
            with pytest.raises(ShapeMismatch, match=message):
                call(point, du, dv)


def test_shared_gram_factors_give_the_bits_of_fresh_calls():
    local = np.random.default_rng(608)
    for batch in ((), (3,)):
        draws = [geometry_draw(local, batch) for _ in range(2)]
        # a point with the first one's entries in the transposed shape
        flipped = QuatMatrix(draws[0][0].a.reshape(batch + (3, 2, 4)))
        draws.append([flipped] + geometry_draw(local, batch, 3, 2)[1:])
        points = [GrassmannPoint(x) for x, _, _ in draws]
        want = [fresh_geometry(*d) for d in draws]
        for order in itertools.permutations(GEOMETRY_CALLS):
            # each order twice at one point, then at the others
            for i in (0, 0, 1, 2):
                _, du, dv = draws[i]
                for name in order:
                    got = GEOMETRY_CALLS[name](points[i], du, dv)
                    assert same_bits(got, want[i][name])


def test_shared_gram_factors_follow_an_in_place_edit_of_the_point():
    local = np.random.default_rng(609)
    for batch in ((), (3,)):
        x, du, dv = geometry_draw(local, batch)
        point = GrassmannPoint(x)
        # each call after an edit of another entry: first, middle, last
        for entry, (name, call) in zip((0, 11, 17, -1), GEOMETRY_CALLS.items()):
            before = call(point, du, dv)
            x.a.reshape(batch + (-1,))[..., entry] += 0.25
            want = fresh_geometry(x, du, dv)[name]
            assert same_bits(call(point, du, dv), want)
            assert not same_bits(before, want)


def test_failed_gram_factors_are_not_stored():
    local = np.random.default_rng(610)
    x, du, dv = geometry_draw(local, (), 2, 2)
    want = fresh_geometry(x, du, dv)
    bad = nan_point()
    bad_batch = GrassmannPoint(QuatMatrix(np.stack([x.a, bad.x.a, x.a])))
    for name, call in GEOMETRY_CALLS.items():
        for point in (bad, bad_batch):
            errors = []
            for _ in range(2):
                with pytest.raises(QflagError) as info:
                    call(point, du, dv)
                errors.append((type(info.value), str(info.value)))
            assert errors[0] == errors[1]
            assert same_bits(call(GrassmannPoint(x), du, dv), want[name])


def test_stored_gram_factors_are_read_only():
    point = random_point(2, 3)
    for route in ("inv", "invsqrt"):
        for factor in _gram_factors(point.x, route):
            with pytest.raises(ValueError):
                factor.a[0, 0, 0] = 1.0
    dx = random_quatmat(rng, 2, 3)
    assert same_bits(metric_form(point, dx),
                     fresh_geometry(point.x, dx, dx)["metric_form"])


def test_shared_gram_factors_hold_under_threads():
    local = np.random.default_rng(611)
    draws = [geometry_draw(local) for _ in range(4)]
    want = [fresh_geometry(*d) for d in draws]
    wrong, done = [], []

    def work(i):
        x, du, dv = draws[i]
        point = GrassmannPoint(x)
        for _ in range(30):
            for name, call in GEOMETRY_CALLS.items():
                if not same_bits(call(point, du, dv), want[i][name]):
                    wrong.append((i, name))
        done.append(i)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(done) == [0, 1, 2, 3] and not wrong


def test_metric_nan_point_is_refused():
    with pytest.raises(QflagError):
        metric_form(nan_point(), QuatMatrix.identity(2))
    with pytest.raises(QflagError):
        metric_form_expanded(nan_point(), QuatMatrix.identity(2))


def test_metric_flat_origin():
    dx = random_quatmat(rng, 2, 2)
    ds = metric_form(GrassmannPoint(QuatMatrix.zeros(2, 2)), dx)
    assert abs(ds - float((dx.a ** 2).sum())) < 1e-12


def test_metric_two_versions_agree():
    for _ in range(500):
        x, dx = random_point(), random_quatmat(rng, 2, 2)
        assert abs(metric_form(x, dx) - metric_form_expanded(x, dx)) < 1e-10


def test_metric_matches_hermitian_sandwich():
    for _ in range(200):
        x, dx = random_point(), random_quatmat(rng, 2, 2)
        assert abs(metric_form(x, dx)
                   - metric_form_hermitian(x, dx)) < 1e-10


def test_metric_scalar_case():
    q = random_quaternion(rng)
    dq = random_quaternion(rng)
    p = GrassmannPoint(QuatMatrix([[q.to_array()]]))
    ds = metric_form(p, QuatMatrix([[dq.to_array()]]))
    assert abs(ds - dq.norm_sq() / (1 + q.norm_sq()) ** 2) < 1e-13


def test_metric_form_matches_the_closed_form_far_from_the_origin():
    # X = U diag(s, 1) W for group elements U, W: 1 + XX* = U diag(g) U* and
    # 1 + X*X = W* diag(g) W with g = (1 + s^2, 2), so the line element is
    # sum_ab |(U* dX W*)_ab|^2 / (g_a g_b).  metric_form inverts 1 + G, of
    # condition about s; 1 + XX* has condition s^2
    for s, bound in ((1e3, 1e-12), (1e4, 1e-11)):
        g = np.array([1.0 + s * s, 2.0])
        for seed in range(10):
            local = np.random.default_rng(seed)
            u, w = (random_group_element(local, 2).m for _ in range(2))
            dx = random_quatmat(local, 2, 2)
            x = u @ real_matrix(np.diag([s, 1.0])) @ w
            rotated = u.adjoint() @ dx @ w.adjoint()
            exact = ((rotated.a ** 2).sum(axis=-1) / np.outer(g, g)).sum()
            got = metric_form(GrassmannPoint(x), dx)
            assert abs(got - exact) <= bound * exact, (s, seed)


def test_metric_positive():
    for _ in range(100):
        x, dx = random_point(), random_quatmat(rng, 2, 2)
        if dx.max_abs() > 1e-6:
            assert metric_form(x, dx) > 0.0


def test_metric_shape_gate():
    with pytest.raises(ShapeMismatch):
        metric_form(random_point(), random_quatmat(rng, 3, 2))


def test_metric_invariance_under_pushforward():
    eye = GroupElement(QuatMatrix.identity(4))
    x, dx = random_point(), random_quatmat(rng, 2, 2)
    assert metric_invariance_residual(eye, x, dx) < 1e-9
    for _ in range(500):
        g = random_group_element(rng, 4)
        x, dx = random_point(scale=0.4), random_quatmat(rng, 2, 2)
        assert metric_invariance_residual(g, x, dx) < 1e-11


def test_pushforward_matches_central_differences_of_lft_apply():
    # oracle: (g(X + h dX) - g(X - h dX)) / 2h, good to O(h^2)
    local = np.random.default_rng(3031)
    h = 1e-5
    for j, k in ((1, 1), (2, 2), (1, 3), (3, 1)):
        g = random_group_element(local, j + k)
        x = GrassmannPoint(random_quatmat(local, j, k, 0.4))
        dx = random_quatmat(local, j, k)
        plus = lft_apply(g, GrassmannPoint(x.x + dx * h)).x
        minus = lft_apply(g, GrassmannPoint(x.x - dx * h)).x
        oracle = (plus - minus) * (0.5 / h)
        assert (pushforward_tangent(g, x, dx) - oracle).max_abs() < 1e-8


def test_metric_inversion_invariance_scalar():
    draws = rng.normal(0.0, 1.0, (200, 2, 1, 1, 4))
    keep = np.linalg.norm(draws[:, 0, 0, 0], axis=-1) >= 0.1
    q, dq = QuatMatrix(draws[keep, 0]), QuatMatrix(draws[keep, 1])
    res = inversion_invariance_residual(GrassmannPoint(q), dq)
    assert res.shape == (int(keep.sum()),)
    assert res.max() < 1e-12
    singles = [inversion_invariance_residual(GrassmannPoint(QuatMatrix(x)),
                                             QuatMatrix(dx))
               for x, dx in zip(q.a, dq.a)]
    assert all(type(v) is np.float64 for v in singles)
    assert np.array_equal(res, singles)


def test_metric_inversion_invariance_square_and_gates():
    # X -> X^{-1} is the block swap acting on square coordinates
    assert inversion_invariance_residual(random_point(2, 2),
                                         random_quatmat(rng, 2, 2)) < 1e-12
    with pytest.raises(NonSquare):
        inversion_invariance_residual(random_point(1, 2),
                                      random_quatmat(rng, 1, 2))
    with pytest.raises(SingularMatrix):
        inversion_invariance_residual(GrassmannPoint(QuatMatrix.zeros(1, 1)),
                                      random_quatmat(rng, 1, 1))


def test_block_inverse_identities_at_group_image_of_origin():
    # 1 + Y Y* = (A A*)^{-1} and 1 + Y* Y = (D D*)^{-1} for Y the image of 0
    for _ in range(50):
        g = random_group_element(rng, 4)
        a, b, c, d = g.m.blocks(2, 2)
        y = lft_apply(g, GrassmannPoint(QuatMatrix.zeros(2, 2))).x
        eye = QuatMatrix.identity(2)
        assert (eye + y @ y.adjoint()
                - (a @ a.adjoint()).inv()).max_abs() < 1e-10
        assert (eye + y.adjoint() @ y
                - (d @ d.adjoint()).inv()).max_abs() < 1e-10


def test_tangent_through_connection_and_metric2():
    # along g(t) = g0 exp(tS) the pulled-back form is constant, w = S, and
    # the image of the origin moves by dY = (A*)^{-1} S12 D^{-1}; the line
    # element of that tangent equals Tr(w12 w12*), the sum of squared
    # components of the off-diagonal block
    from qflag.quatmat import random_skew_adjoint
    for _ in range(20):
        g0 = random_group_element(rng, 4)
        gen = random_skew_adjoint(rng, 4)
        t0, h = 0.3, 1e-6
        origin = GrassmannPoint(QuatMatrix.zeros(2, 2))

        def image_at(t):
            g = GroupElement(g0.m @ expm(gen * t), check=False)
            return lft_apply(g, origin).x

        dy_fd = (image_at(t0 + h) - image_at(t0 - h)) * (0.5 / h)
        gt = GroupElement(g0.m @ expm(gen * t0), check=False)
        a, _, _, d = gt.m.blocks(2, 2)
        s12 = QuatMatrix(gen.a[:2, 2:])
        dy_formula = a.adjoint().inv() @ s12 @ d.inv()
        assert (dy_fd - dy_formula).max_abs() < 1e-6
        ds = metric_form(GrassmannPoint(image_at(t0)), dy_formula)
        assert abs(ds - float((s12.a ** 2).sum())) < 1e-10


# -- curvature invariants -----------------------------------------------------------------

def test_curvature_trace_zero_matrix():
    lhs, rhs = curvature_trace(QuatMatrix.zeros(1, 3))
    assert abs(lhs - rhs) < 1e-12
    assert lhs == pytest.approx(6.0)   # embedded identity trace 2n


def test_curvature_trace_identity():
    for n, k in ((3, 1), (5, 2), (6, 3)):
        for _ in range(100):
            q = random_quatmat(rng, k, n, 0.8)
            lhs, rhs = curvature_trace(q)
            assert abs(lhs - rhs) < 1e-9
    # each side on its own, against the eigenvalues lam of Q* Q and mu of
    # Q Q*: an error shared by both sides fails here
    local = np.random.default_rng(3304)
    for k, n in ((1, 2), (2, 3), (2, 5), (3, 3)):
        q = random_quatmat(local, k, n, 0.8)
        lam = eigvals_hyperhermitian(q.adjoint() @ q)
        mu = eigvals_hyperhermitian(q @ q.adjoint())
        lhs, rhs = curvature_trace(q)
        assert abs(lhs - 2.0 * np.sum(1.0 / (1.0 + lam))) < 1e-12
        assert abs(rhs - 2.0 * (n - k)
                   - 2.0 * np.sum(1.0 / (1.0 + mu))) < 1e-12
    # a stacked input gives arrays of the batch shape, equal to the singles
    q = QuatMatrix(np.stack([random_quatmat(rng, 2, 5, 0.8).a
                             for _ in range(6)]).reshape(2, 3, 2, 5, 4))
    lhs, rhs = curvature_trace(q)
    assert lhs.shape == rhs.shape == (2, 3)
    assert np.abs(lhs - rhs).max() < 1e-9
    assert (lhs[1, 2], rhs[1, 2]) == curvature_trace(QuatMatrix(q.a[1, 2]))
    # k and n come off the shape, so the identity holds with n - k negative
    # (5 x 2, rhs offset -6) and zero (3 x 3), singly and in a batch
    local = np.random.default_rng(3303)
    for k, n in ((5, 2), (3, 3)):
        q = QuatMatrix(local.normal(0.0, 0.8, (7, k, n, 4)))
        lhs, rhs = curvature_trace(q)
        assert lhs.shape == rhs.shape == (7,)
        assert np.abs(lhs - rhs).max() < 1e-9
        single_lhs, single_rhs = curvature_trace(QuatMatrix(q.a[3]))
        assert type(single_lhs) is np.float64
        assert abs(single_lhs - single_rhs) < 1e-9
        assert single_lhs == pytest.approx(lhs[3], rel=1e-12)


def test_curvature_trace_scalar_oracle():
    q = random_quatmat(rng, 1, 1, 0.8)
    qq = Quaternion.from_array(q.a[0, 0]).norm_sq()
    lhs, rhs = curvature_trace(q)
    assert lhs == pytest.approx(2.0 / (1.0 + qq), abs=1e-12)
    assert rhs == pytest.approx(2.0 / (1.0 + qq), abs=1e-12)


def test_curvature_det():
    assert curvature_det(QuatMatrix.zeros(1, 3)) == pytest.approx(1.0)
    q = random_quatmat(rng, 1, 1, 0.9)
    qq = Quaternion.from_array(q.a[0, 0]).norm_sq()
    n, k = 1, 1
    assert curvature_det(q) == pytest.approx((1 + qq) ** (-(k + n)),
                                             rel=1e-12)
    for _ in range(200):
        q = random_quatmat(rng, 2, 4, 0.7)
        val = curvature_det(q)   # internal embedding cross-check
        assert 0.0 < val <= 1.0 + 1e-12
    # k > n and k = n: |1 + Q Q*| = |1 + Q* Q| (Sylvester), so the n x k
    # adjoint has the same determinant and the same exponent k + n
    local = np.random.default_rng(3304)
    for k, n in ((5, 2), (3, 3)):
        q = QuatMatrix(local.normal(0.0, 0.7, (5, k, n, 4)))
        vals = curvature_det(q)
        assert vals.shape == (5,)
        assert np.all((vals > 0.0) & (vals <= 1.0 + 1e-12))
        assert np.allclose(vals, curvature_det(q.adjoint()), rtol=1e-10,
                           atol=0.0)
        single = curvature_det(QuatMatrix(q.a[2]))
        assert type(single) is np.float64
        assert single == pytest.approx(vals[2], rel=1e-12)


def test_curvature_det_gap_batch_equals_the_singles():
    qs = [random_quatmat(rng, 2, 4, 0.7) for _ in range(20)]
    det, gap = curvature_det_gap(QuatMatrix(np.stack([q.a for q in qs])))
    singles = [curvature_det_gap(q) for q in qs]
    assert all(type(d) is np.float64 and type(g) is np.float64
               for d, g in singles)
    assert np.array_equal(det, [d for d, _ in singles])
    assert np.array_equal(gap, [g for _, g in singles])
    assert gap.max() < 1e-13
    assert np.all(det >= 1.0)


def test_curvature_det_refuses_disagreeing_routes(monkeypatch):
    import qflag.coset as coset_mod
    real = coset_mod.eigvals_hyperhermitian
    monkeypatch.setattr(coset_mod, "eigvals_hyperhermitian",
                        lambda p: real(p) * 1.01)
    with pytest.raises(PairingFailure):
        curvature_det(random_quatmat(rng, 2, 4, 0.7))


# -- batched points and group elements ----------------------------------------------

def test_batched_coset_calls_equal_the_stacked_singles():
    local = np.random.default_rng(606)    # own stream
    count = 6
    gens = [random_skew_adjoint(local, 4, 0.7) for _ in range(count)]
    pts = [[random_quatmat(local, 2, 2, 0.5) for _ in range(count)]
           for _ in range(4)]
    dxs = [random_quatmat(local, 2, 2) for _ in range(count)]

    def stack(mats):
        return QuatMatrix(np.stack([m.a for m in mats]))

    singles = [GroupElement(expm(s)) for s in gens]
    g = GroupElement(expm(stack(gens)))
    batch = [GrassmannPoint(stack(p)) for p in pts]
    dx = stack(dxs)

    def single_points(i):
        return [GrassmannPoint(p[i]) for p in pts]

    def same_matrices(got, per_draw):
        return np.array_equal(got.a, np.stack([m.a for m in per_draw]))

    def same_floats(got, per_draw):
        assert all(type(v) is np.float64 for v in per_draw)
        return isinstance(got, np.ndarray) and np.array_equal(got, per_draw)

    for action in (lft_apply, lft_apply_second_form):
        assert same_matrices(action(g, batch[0]).x,
                             [action(singles[i], single_points(i)[0]).x
                              for i in range(count)])
    res = transport_identities(g, batch[0], batch[1])
    per_draw = [transport_identities(singles[i], *single_points(i)[:2])
                for i in range(count)]
    for key, values in res.items():
        assert same_floats(values, [r[key] for r in per_draw])
    assert same_floats(cross_ratio(*batch),
                       [cross_ratio(*single_points(i)) for i in range(count)])
    for form in (metric_form, metric_form_expanded, metric_form_hermitian):
        assert same_floats(form(batch[0], dx),
                           [form(single_points(i)[0], dxs[i])
                            for i in range(count)])
    qs = pts[2]
    for call in (curvature_trace, curvature_det_gap):
        got, per_draw = call(stack(qs)), [call(q) for q in qs]
        for side in (0, 1):
            assert same_floats(got[side], [r[side] for r in per_draw])
    assert same_floats(curvature_det(stack(qs)), [curvature_det(q) for q in qs])
    us, vs = [q.a[0] for q in pts[2]], [q.a[1] for q in pts[3]]
    assert same_floats(inner_product(np.stack(us), np.stack(vs)),
                       [inner_product(u, v) for u, v in zip(us, vs)])
    assert same_floats(metric_invariance_residual(g, batch[0], dx),
                       [metric_invariance_residual(singles[i],
                                                   single_points(i)[0], dxs[i])
                        for i in range(count)])
    assert same_matrices(pushforward_tangent(g, batch[0], dx),
                         [pushforward_tangent(singles[i], single_points(i)[0],
                                              dxs[i]) for i in range(count)])
    xis = pts[3]
    assert same_matrices(coset_generator(stack(xis)),
                         [coset_generator(xi) for xi in xis])
    assert same_matrices(coset_element(stack(xis)).m,
                         [coset_element(xi).m for xi in xis])


def test_nonconforming_operands_raise_dimension_mismatch():
    local = np.random.default_rng(612)

    def tangent(batch):
        return QuatMatrix(local.normal(0.0, 1.0, batch + (2, 2, 4)))

    g3 = GroupElement(expm(QuatMatrix(np.stack(
        [random_skew_adjoint(local, 4, 0.7).a for _ in range(3)]))))
    p3, p5 = (GrassmannPoint(tangent(batch) * 0.5) for batch in ((3,), (5,)))
    calls = [
        lambda: QuatMatrix.identity(2) + QuatMatrix.identity(3),
        lambda: QuatMatrix.identity(2) - QuatMatrix.identity(3),
        lambda: tangent((3,)) @ tangent((5,)),
        lambda: lft_apply(g3, p5),
        lambda: transport_identities(g3, p5, p5),
        lambda: transport_identities(GroupElement(QuatMatrix.identity(4)),
                                     p3, p5),
        lambda: cross_ratio(p3, p5, p3, p3),
        lambda: cross_ratio(p5, p3, p3, p5),
        lambda: metric_form(p3, tangent((5,))),
        lambda: curvature_blocks(p3, tangent((5,)), tangent((5,))),
    ]
    for call in calls:
        with pytest.raises(DimensionMismatch):
            call()


def test_batched_coset_calls_raise_the_single_error():
    local = np.random.default_rng(607)
    quad = [GrassmannPoint(QuatMatrix(local.normal(0.0, 0.5, (3, 2, 2, 4))))
            for _ in range(4)]
    cross_ratio(*quad)
    # the third quadruple repeats a point, so its inverted difference is singular
    quad[3].x.a[2] = quad[0].x.a[2]
    with pytest.raises(DegenerateQuadruple):
        cross_ratio(*quad)
    # a group element that maps one of the points to infinity
    x = GrassmannPoint(QuatMatrix(np.zeros((3, 1, 1, 4))))
    swap = real_matrix([[0.0, 1.0], [-1.0, 0.0]])
    rot = [QuatMatrix.identity(2), swap, QuatMatrix.identity(2)]
    g = GroupElement(QuatMatrix(np.stack([m.a for m in rot])))
    lft_apply(GroupElement(QuatMatrix(np.stack([rot[0].a, rot[2].a]))),
              GrassmannPoint(QuatMatrix(np.zeros((2, 1, 1, 4)))))
    with pytest.raises(SingularDenominator):
        lft_apply(g, x)
    with pytest.raises(SingularDenominator):
        pushforward_tangent(g, x, QuatMatrix(np.ones((3, 1, 1, 4))))


# -- Haar averaging ------------------------------------------------------------------------

def diagonal_entries(shifted):
    """alpha on (N, n, n, 4) group elements: their n diagonal entries."""
    idx = np.arange(shifted.shape[-2])
    return shifted[:, idx, idx]


def test_haar_trivial_action_constant_alpha():
    x = random_group_element(rng, 2)
    target = np.array([Quaternion(1.0).to_array(), Quaternion(0, 1.0).to_array()])
    f = haar_average(lambda shifted: np.broadcast_to(target, (len(shifted), 2, 4)),
                     trivial_action, x)
    assert f.shape == (2, 4)
    assert np.sqrt(((f - target) ** 2).sum(axis=-1)).max() < 1e-14


def _shifted(x, n):
    """x xi for a random fiber element xi, and the conjugates of xi."""
    xi = [random_unit_quaternion(rng) for _ in range(n)]
    xi_conj = np.array([u.conj().to_array() for u in xi])
    return (GroupElement(x.m @ QuatMatrix.diag([u.to_array() for u in xi]),
                         check=False), xi_conj)


def test_haar_equivariance_is_exact():
    for n in (2, MAX_HAAR_FIBERS):
        x = random_group_element(rng, n)
        x_xi, xi_conj = _shifted(x, n)
        f_shift = haar_average(diagonal_entries, fundamental_action, x_xi)
        moved = fundamental_action(
            xi_conj, haar_average(diagonal_entries, fundamental_action, x))
        assert np.sqrt(((f_shift - moved) ** 2).sum(axis=-1)).max() <= 1e-12


def test_haar_inner_product_fiber_independent():
    for n in (2, MAX_HAAR_FIBERS):
        x = random_group_element(rng, n)
        values = []
        for trial in range(2):
            f = haar_average(diagonal_entries, fundamental_action,
                             _shifted(x, n)[0])
            values.append(inner_product(f, f))
        assert abs(values[0] - values[1]) <= 1e-12


def test_haar_average_is_repeatable():
    x = random_group_element(rng, 2)
    first = haar_average(diagonal_entries, fundamental_action, x)
    assert np.array_equal(first,
                          haar_average(diagonal_entries, fundamental_action, x))


def test_haar_average_matches_a_per_node_loop():
    # reference: every one of the 24^2 node pairs replayed through
    # unbatched products and Quaternion arithmetic
    local = np.random.default_rng(505)
    x = random_group_element(local, 2)
    got = haar_average(diagonal_entries, fundamental_action, x)
    units = [Quaternion.from_array(u) for u in HURWITZ_UNITS]
    acc = [Quaternion()] * 2
    for pair in itertools.product(units, repeat=2):
        shifted = x.m @ QuatMatrix.diag([u.to_array() for u in pair])
        acc = [acc[c] + pair[c] * Quaternion.from_array(shifted.a[c, c])
               for c in range(2)]
    nodes = len(units) ** 2
    assert nodes == 576
    expect = np.array([(q * (1.0 / nodes)).to_array() for q in acc])
    assert np.abs(got - expect).max() < 1e-13
    loop_inner = sum(q.norm_sq() for q in acc) / nodes ** 2
    assert abs(inner_product(got, got) - loop_inner) < 1e-13
    # the array actions against their scalar definitions
    eta, vec = local.normal(size=(2, 2, 4)), local.normal(size=(2, 2, 4))
    left = fundamental_action(eta, vec)
    for n in range(2):
        for c in range(2):
            q = Quaternion.from_array(eta[n, c]) * Quaternion.from_array(vec[n, c])
            assert np.abs(left[n, c] - q.to_array()).max() < 1e-15
    assert trivial_action(eta, vec) is vec


def test_haar_average_refuses_more_fibers_before_any_work(monkeypatch):
    def untouched(*args):
        raise AssertionError("work started above the fiber ceiling")

    monkeypatch.setattr(QuatMatrix, "__matmul__", untouched)
    x = GroupElement(QuatMatrix.identity(MAX_HAAR_FIBERS + 1), check=False)
    with pytest.raises(TooManyFibers):
        haar_average(untouched, untouched, x)


def test_fiber_element_is_group_member():
    units = [random_unit_quaternion(rng) for _ in range(3)]
    GroupElement(QuatMatrix.diag([u.to_array() for u in units]), tol=1e-12)


def test_s3_sampling_mean():
    draws = 1_000_000
    means, fourth = s3_moments(np.random.default_rng(77), draws)
    sigma = 0.5 / math.sqrt(draws)
    assert np.abs(means).max() < 4.0 * sigma
    assert abs(fourth - 0.125) < 4.0 / math.sqrt(640.0 * draws)


# -- products that share an operand keep the bits of separate products --------
# Each rewritten call against its earlier formula, written out here with
# one product per operand: lft_apply_second_form, the transport
# differences, metric_form_expanded and curvature_blocks.

def _outcome(call, *args):
    """``call(*args)`` with every warning an error: its result (a point's
    matrix for a point), or the class and message of the QflagError it
    raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = call(*args)
        except QflagError as exc:
            return type(exc), str(exc)
    return out.x if isinstance(out, GrassmannPoint) else out


def _separate_second_form(g, point):
    x = point.x
    a, b, c, d = g.m.blocks(point.j, point.k)
    den = -(x @ b.adjoint()) + a.adjoint()
    den_inv = den.inv(SingularDenominator(
        "A* - X B* is singular; the point is mapped to infinity"))
    return GrassmannPoint(den_inv @ (x @ d.adjoint() - c.adjoint()))


def _separate_transport(g, pa, pb):
    xa, xb = pa.x, pb.x
    a, b, _, _ = g.m.blocks(pa.j, pa.k)
    both = _stack([xa, xb], g.m.batch)
    _, _, y, r = _action(g, both)
    (ya, yb), (ra, rb) = map(_wrap, y.a), map(_wrap, r.a)
    eye_j, eye_k = QuatMatrix.identity(pa.j), QuatMatrix.identity(pa.k)
    la, lb = _inverses(
        [a.adjoint() - xa @ b.adjoint(), a.adjoint() - xb @ b.adjoint()],
        SingularDenominator("transport factor is singular"))
    rb_star, la_star = lb.adjoint(), ra.adjoint()

    def worst(m):
        return np.abs(m.a).max(axis=(-3, -2, -1), initial=0.0)

    diff = ya - yb
    return {"one_plus_y_ystar": worst(eye_j + ya @ yb.adjoint()
                                      - la @ (eye_j + xa @ xb.adjoint())
                                      @ rb_star),
            "one_plus_ystar_y": worst(eye_k + ya.adjoint() @ yb
                                      - la_star @ (eye_k + xa.adjoint() @ xb)
                                      @ rb),
            "difference_a": worst(diff - la @ (xa - xb) @ rb),
            "difference_b": worst(diff - lb @ (xa - xb) @ ra)}


def _scalar_trace(m):
    return m.a[..., 0].diagonal(0, -2, -1).sum(axis=-1)


def _separate_expanded(point, dx):
    x = point.x
    left = _gram_factors(x, "inv")[0]
    term1 = left @ dx @ dx.adjoint()
    term2 = left @ dx @ x.adjoint() @ left @ x @ dx.adjoint()
    return _scalar_trace(term1 - term2)


def _separate_curvature(point, du, dv):
    y = point.x
    astar, dmat = _gram_factors(y, "invsqrt")
    w_u = astar @ du @ dmat
    w_v = astar @ dv @ dmat
    s1_inv, s2_inv = _gram_factors(y, "inv")
    return {"omega11": w_u @ w_v.adjoint() - w_v @ w_u.adjoint(),
            "omega22": w_u.adjoint() @ w_v - w_v.adjoint() @ w_u,
            "r11": (du @ s2_inv @ dv.adjoint() @ s1_inv
                    - dv @ s2_inv @ du.adjoint() @ s1_inv).trace(),
            "r22": (du.adjoint() @ s1_inv @ dv @ s2_inv
                    - dv.adjoint() @ s1_inv @ du @ s2_inv).trace()}


def _pinned_calls(g, pa, pb, du, dv):
    """(rewritten call, its separate-product formula, arguments)."""
    return [(lft_apply_second_form, _separate_second_form, (g, pa)),
            (transport_identities, _separate_transport, (g, pa, pb)),
            (metric_form_expanded, _separate_expanded, (pa, du)),
            (curvature_blocks, _separate_curvature, (pa, du, dv))]


def _batched_group_element(local, n, batch):
    gens = QuatMatrix(local.normal(0.0, 0.7, batch + (n, n, 4)))
    return GroupElement(expm((gens - gens.adjoint()) * 0.5))


# (j, k), then the batch shapes of the group element, the points and the
# tangents: single, batched, mixed, and empty batches and matrices
PIN_CASES = [(shape, batches)
             for shape in ((1, 1), (2, 2), (3, 3), (1, 2), (2, 1), (3, 1),
                           (1, 3), (0, 2), (2, 0))
             for batches in (((), (), ()), ((4,), (4,), (4,)),
                             ((), (4,), ()), ((4,), (), (2, 4)),
                             ((0,), (0,), (0,)))]


@pytest.mark.parametrize("shape, batches", PIN_CASES)
def test_rewritten_calls_keep_the_bits_of_separate_products(shape, batches):
    local = np.random.default_rng(617)
    (j, k), (g_batch, x_batch, d_batch) = shape, batches
    g = _batched_group_element(local, j + k, g_batch)
    pa, pb = (GrassmannPoint(QuatMatrix(local.normal(0.0, 0.5, x_batch
                                                     + (j, k, 4))))
              for _ in range(2))
    du, dv = (QuatMatrix(local.normal(0.0, 1.0, d_batch + (j, k, 4)))
              for _ in range(2))
    for new, old, args in _pinned_calls(g, pa, pb, du, dv):
        want = _outcome(old, *args)
        assert not isinstance(want, tuple), want
        assert same_bits(_outcome(new, *args), want), new.__name__


def _swap(n):
    """The block swap [[0, 1], [1, 0]] of Sp(2n): A = D = 0, B = C = 1."""
    eye = QuatMatrix.identity(n)
    zero = QuatMatrix.zeros(n, n)
    return GroupElement(block_matrix([[zero, eye], [eye, zero]]))


def _in_batch(x, batch):
    """``x`` as the middle matrix of a batch of three; the other two are X
    with a NaN read as 0 and each diagonal scalar part set to 1, well
    inside every ceiling."""
    if not batch:
        return x
    fine = x.a.copy()
    np.nan_to_num(fine, copy=False)
    fine[..., range(x.rows), range(x.rows), 0] = 1.0
    return QuatMatrix(np.stack([fine, x.a, fine]))


@pytest.mark.parametrize("batch", [(), (3,)])
def test_rewritten_calls_fail_as_separate_products_do(batch):
    local = np.random.default_rng(618)
    du, dv = random_quatmat(local, 2, 2), random_quatmat(local, 2, 2)
    other = GrassmannPoint(QuatMatrix(local.normal(0.0, 0.5, (2, 2, 4))))
    nan = QuatMatrix.identity(2)
    nan.a[1, 0, 3] = np.nan
    cases = {
        # a NaN entry: every call fails quietly
        "nan": (GroupElement(QuatMatrix.identity(4)), nan,
                [SingularDenominator, SingularDenominator, SingularMatrix,
                 NotHyperHermitian]),
        # X = 0 under the block swap: A* - X B* = -X is exactly singular
        "singular": (_swap(2), QuatMatrix.zeros(2, 2),
                     [SingularDenominator, SingularDenominator, None, None]),
        # -X one step past the condition ceiling
        "past the ceiling": (_swap(2), real_matrix(np.diag([1.0, 1e-13])),
                             [SingularDenominator, SingularDenominator,
                              None, None]),
        # 1 + G at condition about 1e13, past the ceiling of the Gram
        # inverse
        "gram past the ceiling": (GroupElement(QuatMatrix.identity(4)),
                                  real_matrix(np.diag([1e13, 1.0])),
                                  [None, None, SingularMatrix,
                                   SingularMatrix]),
    }
    for name, (g, x, errors) in cases.items():
        point = GrassmannPoint(_in_batch(x, batch))
        for (new, old, args), error in zip(
                _pinned_calls(g, point, other, du, dv), errors):
            want = _outcome(old, *args)
            if error is not None:
                assert want[0] is error, (name, new.__name__, want)
            assert same_bits(_outcome(new, *args), want), (name, new.__name__)
