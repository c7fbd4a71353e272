import concurrent.futures
import json
import random
from fractions import Fraction

import numpy as np
import pytest

from soskit import cli, relax, sdp
from soskit.poly import Polynomial, motzkin
from soskit.relax import PolyProgram

from conftest import ball_quartic


@pytest.fixture
def disk_file(tmp_path):
    f = Polynomial(2, {(2, 0): 1, (0, 2): 1})
    g = Polynomial(2, {(0, 0): 1, (2, 0): -1, (0, 2): -1})
    path = tmp_path / "disk.json"
    path.write_text(json.dumps(PolyProgram(2, f, ineqs=(g,)).to_json()))
    return str(path)


@pytest.fixture
def motzkin_file(tmp_path):
    path = tmp_path / "motzkin.json"
    path.write_text(json.dumps(PolyProgram(2, motzkin()).to_json()))
    return str(path)


@pytest.fixture
def c5_file(tmp_path):
    path = tmp_path / "c5.txt"
    path.write_text("0 1\n1 2\n2 3\n3 4\n4 0\n")
    return str(path)


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out, parse_constant=_reject_constant) if out.strip() else None


class TestPopSolve:
    def test_disk(self, capsys, disk_file, tmp_path):
        cert = str(tmp_path / "cert.json")
        code, data = run(capsys, "pop", "solve", disk_file, "--order", "2",
                         "--cert-out", cert)
        assert code == 0
        assert abs(data["bound"]) < 1e-6
        assert data["result"]["status"] == "optimal"
        assert data["verified"]
        assert data["certificate_path"] == cert

    def test_exact_certificate_verified_once(self, capsys, disk_file, monkeypatch):
        exact, psd = [], []
        verify, is_psd_exact = relax.verify_certificate, sdp.is_psd_exact

        def counted_verify(prog, cert, mode=relax.EXACT):
            if mode == relax.EXACT:
                exact.append(cert)
            return verify(prog, cert, mode=mode)

        monkeypatch.setattr(relax, "verify_certificate", counted_verify)
        monkeypatch.setattr(sdp, "is_psd_exact", lambda M: psd.append(M) or is_psd_exact(M))
        code, data = run(capsys, "pop", "solve", disk_file, "--order", "2")
        assert code == 0
        assert data["verified"] and data["certificate_mode"] == relax.EXACT
        assert len(exact) == 1
        assert len(psd) == 2

    def test_motzkin_inconclusive_exit(self, capsys, motzkin_file):
        code, data = run(capsys, "pop", "solve", motzkin_file, "--order", "6")
        assert code == 2  # the SOS program is infeasible, never optimal

    def test_malformed_input(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 2}')
        code = cli.main(["pop", "solve", str(bad)])
        err = capsys.readouterr().err
        assert code == 1
        assert "objective" in err

    def test_missing_file(self, capsys):
        assert cli.main(["pop", "solve", "/nonexistent.json"]) == 1

    def test_sym_flag_rejected(self, capsys, disk_file):
        assert cli.main(["pop", "solve", disk_file, "--sym"]) == 1
        assert "apcount" in capsys.readouterr().err

    def test_moment_side(self, capsys, disk_file):
        code, data = run(capsys, "pop", "solve", disk_file, "--moment", "--order", "2")
        assert code == 0
        assert abs(data["bound"]) < 1e-6

    def test_moment_side_has_no_certificate(self, capsys, disk_file, tmp_path):
        cert = tmp_path / "cert.json"
        code = cli.main(["pop", "solve", disk_file, "--moment", "--order", "2",
                         "--cert-out", str(cert)])
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert not cert.exists()


def _spot_check_loop(prog, lam, seed, tol):
    """The point-by-point reference for cli._spot_check."""
    rng = random.Random(seed)
    f = prog.objective.to_float()
    gs = [g.to_float() for g in prog.ineqs]
    hs = [h.to_float() for h in prog.eqs]
    checked = violations = 0
    for _ in range(2000):
        x = [rng.uniform(-1.5, 1.5) for _ in range(prog.n)]
        if any(g.evaluate(x) < -1e-9 for g in gs):
            continue
        if any(abs(h.evaluate(x)) > 1e-7 for h in hs):
            continue
        checked += 1
        if f.evaluate(x) < lam - 1e-6 - tol:
            violations += 1
    return {"feasible_samples": checked, "objective_below_bound": violations}


class TestOrderBelowDegree:
    @pytest.mark.parametrize("argv, message", [
        (["pop", "solve", "{}", "--order", "2"], "order 2 below objective degree 4"),
        (["pop", "solve", "{}", "--order", "2", "--moment"], "order 2 below objective degree 4"),
        (["pop", "solve", "{}", "--order", "0"], "relaxation order must be >= 1"),
        (["pop", "sos-check", "{}", "--order", "2"], "basis degree 1 too small for deg f = 4"),
        (["sdp", "export-sdpa", "{}", "out.dat", "--order", "2"],
         "order 2 below objective degree 4"),
    ], ids=["pop-solve", "pop-solve-moment", "pop-solve-order-0", "sos-check", "export-sdpa"])
    def test_error_exit(self, capsys, tmp_path, monkeypatch, argv, message):
        path = tmp_path / "quartic.json"
        path.write_text('{"n":1,"objective":[{"exps":[4],"coef":"1"}]}')
        monkeypatch.chdir(tmp_path)
        assert cli.main([a.format(path) for a in argv]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert not captured.out
        assert not (tmp_path / "out.dat").exists()


class TestSpotCheck:
    def test_counts_match_the_point_by_point_loop(self):
        # the seed-1 pop-ball quartics, in the benchmark's order; lam at the
        # objective's median over [-1, 1]^n leaves some feasible points below
        # it and some above
        quartics = random.Random(1)
        progs = [ball_quartic(n, quartics) for n in (2, 4, 4, 4, 5, 5, 5, 6, 7)]
        rng = np.random.default_rng(0)
        # 1e-7 x0^2 = 0 holds to 1e-7 exactly where |x0| <= 1
        progs.append(PolyProgram(2, Polynomial(2, {(4, 0): 1, (1, 1): -2, (0, 2): 1}),
                                 ineqs=(Polynomial(2, {(0, 0): 2, (0, 2): -1}),),
                                 eqs=(Polynomial(2, {(2, 0): Fraction(1, 10**7)}),)))
        below = above = 0
        for prog in progs:
            f = prog.objective.to_float()
            lam = float(np.median([f.evaluate(list(x))
                                   for x in rng.uniform(-1, 1, size=(50, prog.n))]))
            got = cli._spot_check(prog, lam, 1, 1e-8)
            assert got == _spot_check_loop(prog, lam, 1, 1e-8)
            assert 0 < got["feasible_samples"] < 2000
            below += got["objective_below_bound"]
            above += got["feasible_samples"] - got["objective_below_bound"]
        assert below > 0 and above > 0


class TestSosCheck:
    def test_motzkin_infeasible(self, capsys, motzkin_file):
        code, data = run(capsys, "pop", "sos-check", motzkin_file, "--order", "6")
        assert code == 0
        assert data["status"] == "infeasible"

    def test_square_feasible(self, capsys, tmp_path):
        p = PolyProgram(1, Polynomial(1, {(2,): 1, (1,): 2, (0,): 1}))
        path = tmp_path / "sq.json"
        path.write_text(json.dumps(p.to_json()))
        code, data = run(capsys, "pop", "sos-check", str(path), "--order", "2")
        assert code == 0 and data["status"] == "feasible"

    def test_odd_degree_margin_is_null(self, capsys, tmp_path):
        path = tmp_path / "cube.json"
        path.write_text(json.dumps(PolyProgram(1, Polynomial(1, {(3,): 1})).to_json()))
        code, data = run(capsys, "pop", "sos-check", str(path), "--order", "4")
        assert code == 0 and data["status"] == "infeasible"
        assert data["margin"] is None


class TestCertVerify:
    def _make_cert(self, capsys, tmp_path, p, D):
        prog_path = tmp_path / "prog.json"
        cert_path = tmp_path / "cert.json"
        from soskit.apcount import density_certificate, density_program
        prog_path.write_text(json.dumps(density_program(p, D).to_json()))
        cert_path.write_text(json.dumps(density_certificate(p, D).to_json()))
        return str(cert_path), str(prog_path)

    def test_density_pass(self, capsys, tmp_path):
        cert, prog = self._make_cert(capsys, tmp_path, 7, 3)
        code, data = run(capsys, "cert", "verify", cert, prog)
        assert code == 0
        assert data["residual_terms"] == 0 and data["psd_ok"]

    def test_tampered_lambda(self, capsys, tmp_path):
        cert, prog = self._make_cert(capsys, tmp_path, 5, 4)
        data = json.loads(open(cert).read())
        data["lambda"] = "4"  # off by one
        open(cert, "w").write(json.dumps(data))
        code, out = run(capsys, "cert", "verify", cert, prog)
        assert code == 1
        assert out["residual_terms"] == 1  # the constant monomial survives
        assert out["psd_ok"] is None and out["psd_failures"] is None  # PSD test skipped

    def test_dimension_mismatch(self, capsys, tmp_path):
        cert, _ = self._make_cert(capsys, tmp_path, 5, 4)
        prog2 = tmp_path / "other.json"
        prog2.write_text(json.dumps(
            PolyProgram(5, Polynomial.constant(5, 1)).to_json()))
        code = cli.main(["cert", "verify", cert, str(prog2)])
        err = capsys.readouterr().err
        assert code == 1
        assert "Gram" in err or "dimension" in err

    @pytest.mark.parametrize("orders, named", [([1], "σ0"), ([], "orders")])
    def test_gram_does_not_fit_orders(self, capsys, tmp_path, orders, named):
        prog = tmp_path / "square.json"
        prog.write_text(json.dumps(PolyProgram(1, Polynomial(1, {(2,): 1})).to_json()))
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps({"lambda": "0", "grams": [[["1"]]],
                                    "eq_multipliers": [], "orders": orders}))
        code = cli.main(["cert", "verify", str(cert), str(prog)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and named in err


class TestUsage:
    @pytest.mark.parametrize("argv", [
        ["apcount", "density", "--p", "x", "--D", "2"],
        ["apcount", "density", "--p", "5", "--D", "2", "--order", "3"],
        ["pop", "solve", "f.json", "--bogus"],
        ["sdp", "solve"],
        ["theta"],
        ["cert", "verify", "c.json"],
        [],
    ])
    def test_usage_error_is_an_error_not_inconclusive(self, capsys, argv):
        assert cli.main(argv) == cli.EXIT_ERROR
        assert "usage: soskit" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["sdp", "solve", "--help"],
                                      ["apcount", "density", "-h"]])
    def test_help_exits_zero(self, capsys, argv):
        assert cli.main(argv) == cli.EXIT_OK
        assert "usage: soskit" in capsys.readouterr().out


class TestSdpa:
    def test_export_import_solve(self, capsys, disk_file, tmp_path):
        dat = str(tmp_path / "disk.dat-s")
        code, info = run(capsys, "sdp", "export-sdpa", disk_file, dat, "--order", "2")
        assert code == 0
        code, back = run(capsys, "sdp", "import-sdpa", dat)
        assert code == 0
        assert back["roundtrip_ok"]
        assert back["variables"] == info["variables"]
        code, sol = run(capsys, "sdp", "solve", dat)
        assert code == 0
        # exported form is the negated max problem; optimum 0 either way
        assert abs(sol["primal_obj"]) < 1e-6

    def test_inequality_rows_round_trip_through_solve(self, capsys, tmp_path):
        # max <C, X> + u  s.t.  tr X + u <= 1,  X01 == 1/5,  0 <= u <= 1/4:
        # the exported file holds the rows as one diagonal matrix inequality
        c = np.array([[1.0, 0.5], [0.5, 2.0]])
        prob = sdp.SdpProblem(
            block_dims=[2], C=[c], n_free=1, free_obj=np.array([1.0]),
            rows=[sdp.LinearRow(blocks={0: np.eye(2)}, free={0: 1.0}, rhs=1.0, rel="<="),
                  sdp.LinearRow(blocks={0: np.array([[0.0, 0.5], [0.5, 0.0]])}, rhs=0.2),
                  sdp.LinearRow(free={0: 1.0}, rhs=0.25, rel="<="),
                  sdp.LinearRow(free={0: -1.0}, rhs=0.0, rel="<=")],
            sense="max")
        dat = tmp_path / "ineq.dat-s"
        dat.write_text(sdp.export_sdpa(sdp.to_sdpa_form(prob)))
        code, back = run(capsys, "sdp", "import-sdpa", str(dat))
        assert code == 0 and back["roundtrip_ok"] and back["blocks"][-1] == -5
        code, sol = run(capsys, "sdp", "solve", str(dat))
        assert code == 0 and sol["status"] == "optimal"
        direct = sdp.solve(prob)
        assert direct.status == sdp.OPTIMAL
        assert abs(sol["primal_obj"] + direct.primal_obj) < 1e-6  # exported negated

    def test_bad_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.dat-s"
        bad.write_text("not an sdpa file")
        assert cli.main(["sdp", "solve", str(bad)]) == 1
        assert cli.main(["sdp", "import-sdpa", str(bad)]) == 1
        assert capsys.readouterr().err.count("error: bad SDPA file") == 2

    def test_zero_block_size(self, capsys, tmp_path):
        # one variable, one 0x0 block: no SDPA block, so no IPM run
        bad = tmp_path / "zero.dat-s"
        bad.write_text("1\n1\n0\n1.0\n")
        assert cli.main(["sdp", "solve", str(bad)]) == 1
        assert "error: bad SDPA file" in capsys.readouterr().err

    def test_gap_example_reports_marginal(self, capsys, tmp_path):
        # inf x1 over the 3x3 pencil of the duality-gap pair: the solve ends
        # optimal at 0, but with no interior, which the JSON must say
        F0, F1, F2 = np.zeros((3, 3)), np.zeros((3, 3)), np.zeros((3, 3))
        F0[2, 2] = F1[2, 2] = F1[0, 1] = F1[1, 0] = F2[1, 1] = 1.0
        gap = sdp.SdpProblem(n_free=2, free_obj=np.array([1.0, 0.0]),
                             lmis=[sdp.MatrixIneq(dim=3, const=F0, coeffs={0: F1, 1: F2})])
        dat = tmp_path / "gap.dat-s"
        dat.write_text(sdp.export_sdpa(sdp.to_sdpa_form(gap)))
        code, sol = run(capsys, "sdp", "solve", str(dat))
        assert code == 0 and sol["status"] == "optimal" and abs(sol["primal_obj"]) < 1e-6
        assert sol["marginal"] is True

    def test_missing_file(self, capsys):
        assert cli.main(["sdp", "import-sdpa", "/nonexistent.dat-s"]) == 1
        assert "error: input file not found" in capsys.readouterr().err


class TestSymReduce:
    def test_theta_c5(self, capsys, c5_file):
        code, data = run(capsys, "sym", "reduce", "--graph", c5_file,
                         "--action", "dihedral 5")
        assert code == 0
        assert data["orbit_count"] == 3
        assert data["agreement"] < 1e-6

    def test_bad_action(self, capsys, c5_file):
        assert cli.main(["sym", "reduce", "--graph", c5_file,
                         "--action", "sporadic 5"]) == 1

    def test_malformed_graph(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1\n1 x\n")
        assert cli.main(["sym", "reduce", "--graph", str(bad),
                         "--action", "dihedral 5"]) == 1
        assert "error: bad edge list" in capsys.readouterr().err


class TestApcount:
    def test_mono(self, capsys):
        code, data = run(capsys, "apcount", "mono", "--n", "5", "--sym")
        assert code == 0
        assert data["oracle"] == 1
        assert data["bound"] <= 1 + 1e-6

    def test_density_oracle_follows_the_subset_limit(self, capsys, monkeypatch):
        # comb(5, 2) = 10 subsets
        monkeypatch.setattr(cli, "ORACLE_MAX_SUBSETS", 10)
        _, data = run(capsys, "apcount", "density", "--p", "5", "--D", "2", "--sym")
        assert data["oracle"] == 0
        monkeypatch.setattr(cli, "ORACLE_MAX_SUBSETS", 9)
        _, data = run(capsys, "apcount", "density", "--p", "5", "--D", "2", "--sym")
        assert data["oracle"] is None

    def test_parser_built_once_and_options_reset(self, capsys, monkeypatch):
        built = []

        def counting():
            built.append(1)
            return build()

        build = cli.build_parser
        cli._parser.cache_clear()
        monkeypatch.setattr(cli, "build_parser", counting)
        try:
            _, first = run(capsys, "apcount", "mono", "--n", "5", "--sym")
            _, second = run(capsys, "apcount", "mono", "--n", "5")
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1
        assert first["params"]["sym"] is True
        assert second["params"]["sym"] is False

    def test_density(self, capsys, tmp_path):
        cert = str(tmp_path / "d.cert.json")
        code, data = run(capsys, "apcount", "density", "--p", "5", "--D", "4",
                         "--cert-out", cert)
        assert code == 0 and data["params"]["order"] == 3
        assert 3 - 1e-6 <= data["bound"] <= 4 + 1e-6
        assert data["certificate_verified"]
        # every emitted certificate re-verifies through cert verify
        prog = tmp_path / "prog.json"
        from soskit.apcount import density_program
        prog.write_text(json.dumps(density_program(5, 4).to_json()))
        assert cli.main(["cert", "verify", cert, str(prog)]) == 0
        capsys.readouterr()

    def test_tables_small(self, capsys):
        code, data = run(capsys, "apcount", "tables", "--min", "3", "--max", "6")
        assert code == 0
        assert data["violations"] == []
        assert [r["n"] for r in data["rows"]] == [3, 4, 5, 6]
        row5 = data["rows"][2]
        assert row5["brute_force_R"] == 1
        assert row5["table_lower"] == "1"

    def test_tables_rows_8_and_12(self, capsys):
        code, data = run(capsys, "apcount", "tables", "--min", "8", "--max", "12")
        assert code == 0
        row8 = data["rows"][0]
        assert (row8["brute_force_R"], row8["table_lower"], row8["table_upper"]) == (0, "0", "0")
        row12 = data["rows"][4]
        assert -2 <= row12["brute_force_R"] <= 16
        assert (row12["table_lower"], row12["table_upper"]) == ("-2", "16")

    @pytest.mark.parametrize("argv", [
        ["density", "--p", "6", "--D", "2"],
        ["density", "--p", "9", "--D", "2", "--sym"],
        ["mono", "--n", "2"],
        ["tables", "--min", "10", "--max", "5", "--pretty"],
        ["tables", "--min", "10", "--max", "5"],
    ])
    def test_bad_parameters(self, capsys, argv):
        assert cli.main(["apcount"] + argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert not captured.out

    def test_tables_jobs_capped_at_row_count(self, capsys, monkeypatch):
        made = []

        class InProcess:
            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcess)
        code, data = run(capsys, "apcount", "tables", "--min", "3", "--max", "5", "--jobs", "64")
        assert code == 0
        assert made == [3]
        assert [r["n"] for r in data["rows"]] == [3, 4, 5]

    def test_tables_deterministic(self, capsys, tmp_path):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert cli.main(["apcount", "tables", "--min", "3", "--max", "5",
                         "--seed", "7", "--out", a]) == 0
        assert cli.main(["apcount", "tables", "--min", "3", "--max", "5",
                         "--seed", "7", "--out", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()


class TestTheta:
    def test_compute(self, capsys, c5_file):
        code, data = run(capsys, "theta", "compute", "--graph", c5_file)
        assert code == 0
        assert abs(data["bound"] - 5 ** 0.5) < 1e-6

    def test_prime(self, capsys, c5_file):
        code, data = run(capsys, "theta", "prime", "--graph", c5_file)
        assert code == 0
        assert 2 - 1e-6 <= data["bound"] <= 5 ** 0.5 + 1e-6

    @pytest.mark.parametrize("kind", ["compute", "prime"])
    def test_classes(self, capsys, c5_file, kind):
        code, data = run(capsys, "theta", kind, "--graph", c5_file)
        assert code == 0 and data["classes"] == 3

    def test_classes_null_on_fallback(self, capsys, tmp_path):
        path = tmp_path / "p4.txt"
        path.write_text("0 1\n1 2\n2 3\n")
        code, data = run(capsys, "theta", "compute", "--graph", str(path))
        assert code == 0 and data["classes"] is None
        assert abs(data["bound"] - 2) < 1e-6

    @pytest.mark.parametrize("kind", ["compute", "prime"])
    def test_no_edges_no_vertices(self, capsys, tmp_path, kind):
        empty = tmp_path / "empty.txt"
        empty.write_text("# no edges\n")
        assert cli.main(["theta", kind, "--graph", str(empty)]) == 1
        err = capsys.readouterr().err
        assert "error: bad edge list" in err and "no vertices" in err

    @pytest.mark.parametrize("kind", ["compute", "prime"])
    def test_missing_graph(self, capsys, kind):
        assert cli.main(["theta", kind, "--graph", "/nonexistent.txt"]) == 1
        assert "error: input file not found" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["1 x", "1", "2 2"])
    def test_malformed_graph(self, capsys, tmp_path, line):
        bad = tmp_path / "bad.txt"
        bad.write_text(f"0 1\n{line}\n")
        assert cli.main(["theta", "compute", "--graph", str(bad)]) == 1
        assert "error: bad edge list" in capsys.readouterr().err
