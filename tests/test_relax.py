import json
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import grid_minimum
from soskit import cli, relax, sdp
from soskit.apcount import density_certificate, density_program, mono_program
from soskit.moment import monomial_vector
from soskit.poly import (
    EXACT,
    FLOAT,
    Polynomial,
    mono_mul,
    monomials_graded_lex,
    monomials_up_to_degree,
    motzkin,
)
from soskit.relax import (
    Certificate,
    PolyProgram,
    add_ball_constraint,
    build_moment_primal,
    build_sos_dual,
    check_order,
    check_sos,
    extract_certificate,
    float_identity_tol,
    rationalize_certificate,
    verify_certificate,
)
from soskit.symmetry import GroupAction


def disk_program():
    f = Polynomial(2, {(2, 0): 1, (0, 2): 1})
    g = Polynomial(2, {(0, 0): 1, (2, 0): -1, (0, 2): -1})
    return PolyProgram(2, f, ineqs=(g,))


def ball_quartic(n, seed):
    """A dense quartic with coefficients in {-1, -0.9, ..., 1} on the unit ball."""
    rng = random.Random(seed)
    terms = {m: Fraction(rng.randint(-10, 10), 10) for m in monomials_up_to_degree(n, 4)}
    return add_ball_constraint(PolyProgram(n, Polynomial(n, terms)), 1)


class TestBuildSosDual:
    def test_square_unconstrained(self):
        p = PolyProgram(1, Polynomial(1, {(2,): 1}))
        prob, info = build_sos_dual(p, 2)
        sol = sdp.solve(prob)
        assert sol.status == sdp.OPTIMAL
        assert abs(sol.primal_obj) < 1e-7
        cert = extract_certificate(sol, info, p)
        v = verify_certificate(p, cert, mode=cert.mode)
        assert v.ok()
        # one valid Gram for x^2 over (1, x) is [[0,0],[0,1]]
        q = np.array(cert.gram[0], dtype=float)
        assert abs(q[1, 1] - 1.0) < 1e-6

    def test_motzkin_sos_program_infeasible(self):
        p = PolyProgram(2, motzkin())
        prob, _ = build_sos_dual(p, 6)
        sol = sdp.solve(prob, max_iter=60)
        assert sol.status != sdp.OPTIMAL  # no value of the shift makes it SOS

    def test_disk_optimum_zero(self):
        p = disk_program()
        prob, _ = build_sos_dual(p, 2)
        sol = sdp.solve(prob)
        assert sol.status == sdp.OPTIMAL
        gmin = grid_minimum(p, 81)
        assert abs(sol.primal_obj) < 1e-6
        assert sol.primal_obj <= gmin + 1e-6

    @pytest.mark.parametrize("p, s", [(ball_quartic(4, 3), 4), (PolyProgram(2, motzkin()), 6),
                                      (mono_program(6), 2)],
                             ids=["ball quartic", "motzkin", "mono n=6"])
    def test_trivial_group_gives_the_unreduced_build(self, p, s):
        # no generators, or the identity alone: every orbit has one member, so
        # each multiplier stays a Gram block and the SosDualInfo is returned
        want = pickle.dumps(build_sos_dual(p, s))
        for gens in ([], [tuple(range(p.n))]):
            assert pickle.dumps(build_sos_dual(p, s, action=GroupAction(p.n, gens))) == want

    def test_order_too_small(self):
        with pytest.raises(ValueError):
            build_sos_dual(PolyProgram(1, Polynomial(1, {(4,): 1})), 2)
        with pytest.raises(ValueError):
            check_order(disk_program(), 1)


def standard_forms(prob):
    """The bytes of both standard forms sdp.solve may hand to the IPM."""
    q = prob if prob.sense == "min" else prob.negated()
    return [[np.asarray(a).tobytes() for a in (f.dims, f.rows, f.free, f.c, f.free_obj, f.b)]
            for f in (sdp._standardize(q),
                      sdp._standardize(sdp.dual_of(q).negated()))]


def loop_sos_dual(p, s):
    """build_sos_dual of a program without equalities, each block entry
    added pair by pair and term by term, one row per monomial in
    monomials_graded_lex order."""
    monos = monomials_graded_lex(p.n, s)
    row_of = {m: k for k, m in enumerate(monos)}
    rows = [sdp.LinearRow(rhs=float(p.objective.coefficient_of(m)), rel="==", label=str(m))
            for m in monos]
    rows[0].free[0] = 1.0
    dims = []
    for bi, g in enumerate((Polynomial.constant(p.n, 1),) + p.ineqs):
        basis = monomial_vector(p.n, (s - g.degree()) // 2)
        dims.append(len(basis))
        acc = {}
        for i, a in enumerate(basis):
            for j, b in enumerate(basis):
                for gm, gc in g.terms.items():
                    alpha = mono_mul(mono_mul(a, b), gm)
                    acc.setdefault(alpha, np.zeros((len(basis),) * 2))[i, j] += float(gc)
        for alpha, blk in acc.items():
            rows[row_of[alpha]].blocks[bi] = blk
    return sdp.SdpProblem(block_dims=dims, C=[np.zeros((d, d)) for d in dims], n_free=1,
                          free_obj=np.array([1.0]), rows=rows, sense="max",
                          free_names=["lambda"])


def loop_check_sos_problem(f, d):
    """check_sos's phase-I problem, each entry added pair by pair, with t in
    every row α = 2β of a basis monomial β."""
    basis = monomial_vector(f.n, d)
    rows = []
    for alpha in monomials_up_to_degree(f.n, 2 * d):
        a = np.zeros((len(basis),) * 2)
        for i, u in enumerate(basis):
            for j, v in enumerate(basis):
                if mono_mul(u, v) == alpha:
                    a[i, j] += 1.0
        square = all(e % 2 == 0 for e in alpha) and sum(alpha) // 2 <= d
        rows.append(sdp.LinearRow(blocks={0: a}, free={0: -1.0} if square else {},
                                  rhs=float(f.coefficient_of(alpha)), rel="=="))
    return sdp.SdpProblem(block_dims=[len(basis)], C=[np.zeros((len(basis),) * 2)], n_free=1,
                          free_obj=np.array([1.0]), rows=rows, sense="min", free_names=["t"])


class TestGramRows:
    @pytest.mark.parametrize("p, s", [(ball_quartic(4, 3), 4), (PolyProgram(2, motzkin()), 6)],
                             ids=["ball quartic", "motzkin"])
    def test_sos_dual_matches_pair_loop(self, p, s):
        prob, _ = build_sos_dual(p, s)
        assert standard_forms(prob) == standard_forms(loop_sos_dual(p, s))

    @pytest.mark.parametrize("f, d", [(ball_quartic(4, 3).objective, 2), (motzkin(), 3)],
                             ids=["ball quartic", "motzkin"])
    def test_check_sos_matches_pair_loop(self, monkeypatch, f, d):
        class Built(Exception):
            pass

        def stop(prob, **kw):
            raise Built(prob)

        monkeypatch.setattr(sdp, "solve", stop)
        with pytest.raises(Built) as built:
            check_sos(f, d)
        assert standard_forms(built.value.args[0]) == standard_forms(loop_check_sos_problem(f, d))


class TestBuildMomentPrimal:
    def test_disk_dirac_at_origin(self):
        p = disk_program()
        prob, info = build_moment_primal(p, 2)
        sol = sdp.solve(prob)
        assert sol.status == sdp.OPTIMAL
        assert abs(sol.primal_obj) < 1e-6
        # the Dirac moment vector at the origin is feasible with objective 0
        y = np.zeros(prob.n_free)
        y[info.moment_index[(0, 0)]] = 1.0
        rep = sdp.check_feasible(prob, [], y)
        assert rep.feasible(1e-12)
        assert rep.objective == 0.0

    def test_interval_minimum(self):
        p = PolyProgram(1, Polynomial(1, {(1,): 1}),
                        ineqs=(Polynomial(1, {(1,): 1, (0,): -1}),
                               Polynomial(1, {(0,): 2, (1,): -1})))
        prob, _ = build_moment_primal(p, 2)
        sol = sdp.solve(prob)
        gmin = grid_minimum(p, 601, box=2.5)
        assert abs(sol.primal_obj - 1.0) < 1e-6
        assert sol.primal_obj <= gmin + 1e-6

    def test_constant_shift(self):
        p = disk_program()
        shifted = PolyProgram(2, p.objective + Polynomial.constant(2, 5), p.ineqs)
        a = sdp.solve(build_moment_primal(p, 2)[0]).primal_obj
        b = sdp.solve(build_moment_primal(shifted, 2)[0]).primal_obj
        assert abs((b - a) - 5.0) < 1e-6

    def test_dirac_moments_of_feasible_point(self, corpus):
        # the moments y_a = x*^a of a feasible point x* satisfy every row and
        # matrix inequality of the moment side, with objective f(x*)
        for entry in corpus:
            point = (1.0, 0.0) if entry.name == "circle_eq" else (0.0,) * entry.program.n
            for s in entry.orders:
                prob, info = build_moment_primal(entry.program, s)
                y = np.zeros(prob.n_free)
                for m, j in info.moment_index.items():
                    y[j] = np.prod([x ** e for x, e in zip(point, m)])
                rep = sdp.check_feasible(prob, [], y)
                assert rep.feasible(1e-9), (entry.name, s)
                expect = entry.program.objective.to_float().evaluate(point)
                assert abs(rep.objective - expect) < 1e-12, (entry.name, s)

    def test_returned_moment_vector_is_feasible(self):
        # the solution mapping must hand back a usable moment vector
        p = PolyProgram(1, Polynomial(1, {(1,): 1}),
                        ineqs=(Polynomial(1, {(1,): 1, (0,): -1}),
                               Polynomial(1, {(0,): 2, (1,): -1})))
        prob, info = build_moment_primal(p, 2)
        sol = sdp.solve(prob)
        rep = sdp.check_feasible(prob, [], sol.free)
        assert rep.max_violation() < 1e-6
        assert abs(rep.objective - sol.primal_obj) < 1e-6
        assert abs(sol.free[info.moment_index[(1,)]] - 1.0) < 1e-5  # y_x at the optimum


class TestBallConstraint:
    def test_appends_ball(self):
        p = PolyProgram(2, Polynomial(2, {(1, 0): 1}))
        q = add_ball_constraint(p, 1)
        assert len(q.ineqs) == 1
        assert q.ineqs[0] == Polynomial(2, {(0, 0): 1, (2, 0): -1, (0, 2): -1})

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            add_ball_constraint(disk_program(), 0)

    def test_two_balls_value_unchanged(self):
        p = PolyProgram(2, Polynomial(2, {(1, 0): 1, (0, 1): 1}))
        one = add_ball_constraint(p, 1)
        two = add_ball_constraint(one, 4)
        assert len(two.ineqs) == 2
        a = sdp.solve(build_sos_dual(one, 2)[0]).primal_obj
        b = sdp.solve(build_sos_dual(two, 2)[0]).primal_obj
        assert abs(a - b) < 1e-6

    def test_ball_redundant_for_01_program(self):
        from soskit.apcount import density_relaxation_program
        p = density_relaxation_program(5, 2)
        with_ball = add_ball_constraint(p, 5)
        a = sdp.solve(build_sos_dual(p, 3, eq_mult_degrees=[0] * 5)[0]).primal_obj
        b = sdp.solve(build_sos_dual(with_ball, 3, eq_mult_degrees=[0] * 5)[0]).primal_obj
        assert abs(a - b) < 1e-5


class TestCheckSos:
    def test_perfect_square(self):
        r = check_sos(Polynomial(1, {(2,): 1, (1,): 2, (0,): 1}), 1)
        assert r.status == "feasible"
        q = np.array(r.certificate.gram[0], dtype=float)
        assert np.allclose(q, [[1.0, 1.0], [1.0, 1.0]], atol=1e-5)

    def test_motzkin_not_sos(self):
        r = check_sos(motzkin(), 3)
        assert r.status == "infeasible"
        assert r.margin > 1e-3

    def test_negative_somewhere(self):
        r = check_sos(Polynomial(1, {(2,): 1, (0,): -1}), 1)
        assert r.status == "infeasible"

    def test_odd_degree(self):
        r = check_sos(Polynomial(1, {(3,): 1}), 2)
        assert r.status == "infeasible"

    def test_feasible_implies_nonnegative_sampled(self):
        rng = random.Random(12)
        f1 = Polynomial(2, {(1, 0): 1, (0, 1): -2, (0, 0): 1})
        f2 = Polynomial(2, {(2, 0): 1, (1, 1): 1})
        f = f1 * f1 + f2 * f2
        r = check_sos(f, 2)
        assert r.status == "feasible"
        ff = f.to_float()
        for _ in range(1000):
            x = [rng.uniform(-3, 3), rng.uniform(-3, 3)]
            assert ff.evaluate(x) >= -1e-9


class TestCertificates:
    def test_disk_certificate_verifies(self):
        p = disk_program()
        prob, info = build_sos_dual(p, 2)
        sol = sdp.solve(prob)
        cert = extract_certificate(sol, info, p)
        v = verify_certificate(p, cert, mode=cert.mode)
        assert v.ok()
        assert abs(float(cert.lam)) < 1e-6
        # certified bound holds at feasible samples
        rng = random.Random(1)
        f = p.objective.to_float()
        hits = 0
        while hits < 1000:
            x = [rng.uniform(-1, 1), rng.uniform(-1, 1)]
            if x[0] ** 2 + x[1] ** 2 <= 1:
                hits += 1
                assert f.evaluate(x) >= float(cert.lam) - 1e-9

    def test_constant_objective(self):
        p = PolyProgram(1, Polynomial.constant(1, 1))
        prob, info = build_sos_dual(p, 2)
        sol = sdp.solve(prob)
        cert = extract_certificate(sol, info, p)
        assert abs(float(cert.lam) - 1.0) < 1e-7
        for q in cert.gram:
            assert np.max(np.abs(np.array(q, dtype=float))) < 1e-6

    def test_corrupted_gram_reported(self):
        p = disk_program()
        prob, info = build_sos_dual(p, 2)
        sol = sdp.solve(prob)
        cert = Certificate(lam=float(sol.free[info.lambda_index]),
                           gram=[np.array(sol.X[b]) for b in info.gram_blocks],
                           eq_multipliers=[], orders=list(info.gram_orders), mode=FLOAT)
        cert.gram[0][0, 0] += 0.5
        v = verify_certificate(p, cert, mode=FLOAT)
        assert not v.ok()
        assert abs(float(v.identity_residual.coefficient_of((0, 0)))) > 0.4

    @pytest.mark.parametrize("solve", ["disk", "square"])
    def test_exact_certificate_is_the_rounding(self, monkeypatch, solve):
        seen, real = [], relax._exact_if_verified

        def kept(p, cert):
            seen.append((cert, real(p, cert)))
            return seen[-1][1]

        monkeypatch.setattr(relax, "_exact_if_verified", kept)
        if solve == "disk":
            p = disk_program()
            prob, info = build_sos_dual(p, 2)
            cert = extract_certificate(sdp.solve(prob), info, p)
        else:  # (x^2 - 1)^2
            cert = check_sos(Polynomial(1, {(4,): 1, (2,): -2, (0,): 1}), 2).certificate
        [(floats, out)] = seen
        assert out is cert and cert.mode == EXACT and floats.mode == FLOAT
        rounding = rationalize_certificate(floats)
        assert cert.lam == rounding.lam
        assert cert.gram == rounding.gram
        assert cert.eq_multipliers == rounding.eq_multipliers
        assert all(type(v) is Fraction for q in cert.gram for row in q for v in row)

    def test_corrupted_exact_entry_reports_the_whole_residual(self, tmp_path, capsys):
        p = disk_program()
        prob, info = build_sos_dual(p, 2)
        cert = extract_certificate(sdp.solve(prob), info, p)
        assert cert.mode == EXACT
        d = Fraction(1, 7)
        cert.gram[1][0][0] += d  # the constant sigma_1 gains d, times 1 - x^2 - y^2
        v = verify_certificate(p, cert, mode=EXACT)
        assert v.identity_residual == Polynomial(2, {(0, 0): d, (2, 0): -d, (0, 2): -d})
        assert v.psd_ok is None
        cert_file, prog_file = tmp_path / "cert.json", tmp_path / "disk.json"
        cert_file.write_text(json.dumps(cert.to_json()))
        prog_file.write_text(json.dumps(p.to_json()))
        assert cli.main(["cert", "verify", str(cert_file), str(prog_file)]) == 1
        assert json.loads(capsys.readouterr().out)["residual_terms"] == 3

    def test_rationalize_caps_denominator(self):
        cert = Certificate(lam=1 / 3, gram=[np.array([[1 / 3]])],
                           eq_multipliers=[], orders=[0], mode=FLOAT)
        exact = rationalize_certificate(cert)
        assert exact.lam == Fraction(1, 3)
        assert exact.gram[0][0][0] == Fraction(1, 3)

    def test_verify_rejects_wrong_shapes(self):
        p = disk_program()
        cert = Certificate(lam=Fraction(0), gram=[[[Fraction(0)]]],
                           eq_multipliers=[], orders=[0], mode=EXACT)
        with pytest.raises(ValueError):
            verify_certificate(p, cert, mode=EXACT)  # missing the sigma_1 Gram

    def test_exact_mode_requires_rational(self):
        p = PolyProgram(1, Polynomial(1, {(2,): 1}))
        cert = Certificate(lam=0.0, gram=[np.zeros((2, 2))], eq_multipliers=[],
                           orders=[1], mode=FLOAT)
        with pytest.raises(ValueError):
            verify_certificate(p, cert, mode=EXACT)

    def test_certificate_json_round_trip(self):
        p = disk_program()
        prob, info = build_sos_dual(p, 2)
        cert = extract_certificate(sdp.solve(prob), info, p)
        back = Certificate.from_json(cert.to_json(), p.n)
        assert back.mode == cert.mode
        assert back.orders == cert.orders
        v = verify_certificate(p, back, mode=back.mode)
        assert v.ok()


class TestVerifyOrder:
    @staticmethod
    def count_exact_psd(monkeypatch):
        calls = []
        real = sdp.is_psd_exact

        def counting(M):
            calls.append(len(M))
            return real(M)

        monkeypatch.setattr(sdp, "is_psd_exact", counting)
        return calls

    def test_failed_identity_skips_psd_test(self, monkeypatch):
        p = ball_quartic(4, seed=1)
        prob, info = build_sos_dual(p, 4)
        sol = sdp.solve(prob)
        assert sol.status == sdp.OPTIMAL
        cert = extract_certificate(sol, info, p)
        assert cert.mode == FLOAT  # the entrywise rounding did not verify
        rounded = rationalize_certificate(cert)
        calls = self.count_exact_psd(monkeypatch)
        v = verify_certificate(p, rounded, mode=EXACT)
        assert not v.identity_residual.is_zero()
        assert not v.ok()
        assert v.psd_ok is None and v.psd_failures is None
        assert calls == []

    def test_exact_attempt_rounds_only_what_it_reads(self, monkeypatch):
        # the rounded identity is nonzero at its first monomial, the constant,
        # which reads one entry of each Gram and λ: the attempt stops there
        p = ball_quartic(4, seed=1)
        prob, info = build_sos_dual(p, 4)
        sol = sdp.solve(prob)
        assert sol.status == sdp.OPTIMAL
        rounded, real = [], relax._rounded
        monkeypatch.setattr(relax, "_rounded", lambda v: rounded.append(v) or real(v))
        cert = extract_certificate(sol, info, p)
        assert cert.mode == FLOAT
        assert sum(len(q) ** 2 for q in cert.gram) == 250
        assert 0 < len(rounded) <= 250 // 10

    def test_holding_identity_gets_psd_test(self, monkeypatch):
        calls = self.count_exact_psd(monkeypatch)
        v = verify_certificate(density_program(5, 2), density_certificate(5, 2),
                               mode=EXACT)
        assert v.ok() and v.psd_failures == []
        assert calls

    def test_verdict_owns_its_tolerance(self):
        tol = float_identity_tol(Polynomial(1, {(2,): 1}))  # 2e-6 for f = x^2

        def verdict(lam, mode, q11=1):  # the residual is the constant lam
            gram = np.diag([0.0, q11]) if mode == FLOAT else [[0, 0], [0, q11]]
            cert = Certificate(lam=lam, gram=[gram], eq_multipliers=[],
                               orders=[1], mode=mode)
            return verify_certificate(PolyProgram(1, Polynomial(1, {(2,): q11})),
                                      cert, mode=mode)

        inside, outside = verdict(0.99 * tol, FLOAT), verdict(1.01 * tol, FLOAT)
        assert inside.tol == tol and inside.ok()
        assert not outside.ok() and outside.psd_ok is None
        exact = verdict(Fraction(1, 10 ** 9), EXACT)
        assert exact.tol == 0 and not exact.ok() and exact.psd_ok is None
        assert verdict(Fraction(0), EXACT).ok()
        negative = verdict(Fraction(0), EXACT, q11=-1)  # identity holds, Gram is not PSD
        assert not negative.ok() and negative.psd_failures == [0]


class TestHierarchySpot:
    def test_monotone_and_bracketed(self, corpus):
        for entry in corpus[:3]:
            gmin = grid_minimum(entry.program, entry.grid_points)
            prev = None
            for s in entry.orders:
                prob, _ = build_sos_dual(entry.program, s)
                sol = sdp.solve(prob)
                assert sol.status == sdp.OPTIMAL, entry.name
                assert sol.primal_obj <= gmin + 1e-6, entry.name
                if prev is not None:
                    assert sol.primal_obj >= prev - 1e-6, entry.name
                prev = sol.primal_obj

    def test_weak_duality_across_pair(self, corpus):
        # at orders 3, 3 and 5 the moment side's dual has empty 0 = 0 rows
        # (free moments in no matrix entry), which facial reduction drops
        for entry in corpus[:3]:
            for s in entry.orders:
                sos = sdp.solve(build_sos_dual(entry.program, s)[0])
                mom = sdp.solve(build_moment_primal(entry.program, s)[0])
                assert mom.status == sdp.OPTIMAL, (entry.name, s)
                assert mom.primal_obj >= sos.primal_obj - 1e-6, (entry.name, s)
                assert mom.primal_obj <= sos.primal_obj + 1e-6, (entry.name, s)
