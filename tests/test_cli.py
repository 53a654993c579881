"""Command-line interface: table formatting, verify suites, argument and
environment validation."""

import json
import os
import pstats
import subprocess
import sys
from pathlib import Path

import pytest

from drinfeld import cli
from drinfeld.algebra import FiniteField, Pol, parse_pol, polys_below_degree
from drinfeld.carlitz import TorsionContext
from drinfeld.series import UExpansion

GOLDEN_Q3_THETA_RANGE6 = """\
[j,i]:

[1, 1], [1, 3], [1, 5],
[2, 2], [2, 4], [2, 6],
[3, 1], [3, 3], [3, 5],
[4, 2], [4, 4], [4, 6],
[5, 1], [5, 3], [5, 5],
[6, 2], [6, 4], [6, 6]."""


def run(capsys, argv):
    code = cli.main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


class TestFieldOfOrder:
    def test_prime_and_prime_power(self):
        assert cli.field_of_order(3).order == 3
        assert cli.field_of_order(9).order == 9
        assert cli.field_of_order(25).order == 25

    def test_rejects_non_prime_power(self):
        for bad in (1, 6, 12, 0, -3):
            with pytest.raises(ValueError):
                cli.field_of_order(bad)


class TestTable:
    def test_text_golden(self, capsys):
        code, out, err = run(capsys, ["table", "--q", "3", "--modulus", "t",
                                      "--range", "6"])
        assert code == 0 and not err
        assert out == GOLDEN_Q3_THETA_RANGE6 + "\n"

    def test_json_and_csv_agree(self, capsys):
        code, jout, _ = run(capsys, ["table", "--q", "3", "--modulus", "t",
                                     "--range", "4", "--format", "json"])
        assert code == 0
        pairs = json.loads(jout)["pairs"]
        code, cout, _ = run(capsys, ["table", "--q", "3", "--modulus", "t",
                                     "--range", "4", "--format", "csv"])
        assert code == 0
        lines = cout.strip().splitlines()
        assert lines[0] == "j,i"
        assert [[int(x) for x in ln.split(",")] for ln in lines[1:]] == pairs

    def test_range_zero_prints_nothing(self, capsys):
        code, out, err = run(capsys, ["table", "--q", "3", "--modulus", "t",
                                      "--range", "0"])
        assert code == 0 and out == "" and not err

    def test_q2_linear_modulus(self, capsys):
        # over F_2 at t+1 the generator is theta + 1, the one monic residue
        # 1 gives the sum lambda^j, never zero: the full grid
        code, out, err = run(capsys, ["table", "--q", "2", "--modulus", "t+1",
                                      "--range", "3", "--format", "csv"])
        assert code == 0 and not err
        assert out == "j,i\n" + "".join("%d,%d\n" % (j, i) for j in (1, 2, 3)
                                        for i in (1, 2, 3))

    def test_default_matches_embedded_golden(self):
        npol = parse_pol(cli.field_of_order(5), "t^2+2")
        assert set(cli.table_pairs(5, npol, 23)) == set(
            cli.golden_table_pairs())


def _running_product_table_pairs(q, npol, rng):
    """table_pairs as it was with a running product of the torsion values
    and the code beta(zeta)^(|n|-1-i) recomputed for every (j, i, beta)."""
    field = npol.field
    ctx = TorsionContext(npol, ext_degree=npol.degree)
    size = q ** npol.degree
    zeta = min(ctx.primes[0].roots_in(ctx.big))
    pairs = []
    betas = [b for b in polys_below_degree(field, npol.degree) if b]
    vals = {b.c: b.eval_in(ctx.big, zeta, ctx.emb) for b in betas}
    powers = {b.c: ctx.exp_value(b) for b in betas}
    for j in range(1, rng + 1):
        for i in range(1, rng + 1):
            acc = ctx.ring.zero
            for b in betas:
                v = vals[b.c]
                if not v:
                    continue
                code = ctx.big.pow(v, (size - 1 - i) % (size - 1))
                acc = acc + powers[b.c].scale_const(code)
            if acc:
                pairs.append((j, i))
        powers = {key: powers[key] * ctx.exp_value(Pol(field, key))
                  for key in powers}
    return pairs


def _full_sum_table_pairs(q, npol, rng):
    """table_pairs as it was before it skipped the rows i != j mod q-1 and
    the non-monic beta: one combine over all rng rows and every residue
    beta for every j."""
    field = npol.field
    ctx = TorsionContext(npol, ext_degree=npol.degree)
    size = q ** npol.degree
    zeta = min(ctx.primes[0].roots_in(ctx.big))
    codes, pows = [], []
    for b in polys_below_degree(field, npol.degree):
        v = b.eval_in(ctx.big, zeta, ctx.emb)
        if v:
            codes.append([ctx.big.pow(v, (size - 1 - i) % (size - 1))
                          for i in range(1, rng + 1)])
            pows.append(ctx.powers(ctx.exp_value(b), rng + 1))
    rows = list(zip(*codes))
    return [(j, i) for j in range(1, rng + 1) for i, acc in
            enumerate(ctx.ring.combine([pw[j] for pw in pows], rows), 1) if acc]


class TestTablePairs:
    @pytest.mark.parametrize("q, modulus, rng", [
        (3, "t^2+t", 12), (3, "t^2+1", 12), (4, "t^2+t+1", 20),
        (2, "t^4+t", 10)])
    def test_matches_running_product(self, q, modulus, rng):
        # at t^2+t the first prime is t, so beta(zeta) = 0 for beta = t;
        # t^4+t = t(t+1)(t^2+t+1) over F_2 has two linear primes
        npol = parse_pol(cli.field_of_order(q), modulus)
        assert cli.table_pairs(q, npol, rng) == _running_product_table_pairs(
            q, npol, rng)

    @pytest.mark.parametrize("q, modulus, rng", [
        (5, "t^2+2", 23), (3, "t", 6), (3, "t^2+t", 12), (4, "t^2+t+1", 30),
        (2, "t^3+t+1", 10), (9, "t", 20), (3, "t^3+2*t+1", 15),
        (5, "t^2+t", 26)])
    def test_skipped_rows_are_zero(self, q, modulus, rng):
        # the rows i != j mod q-1 that table_pairs skips sum to zero
        npol = parse_pol(cli.field_of_order(q), modulus)
        assert cli.table_pairs(q, npol, rng) == _full_sum_table_pairs(
            q, npol, rng)

    def test_sums_over_monic_residues_only(self, monkeypatch):
        # q = 5, t^2+2: the 6 monic beta give every sum up to sign, so the
        # torsion values of the 18 other units are never computed
        seen = []

        class Recording(TorsionContext):
            __slots__ = ()

            def exp_value(self, beta):
                seen.append(beta)
                return super().exp_value(beta)
        monkeypatch.setattr(cli, "TorsionContext", Recording)
        npol = parse_pol(cli.field_of_order(5), "t^2+2")
        assert set(cli.table_pairs(5, npol, 23)) == set(
            cli.golden_table_pairs())
        assert sorted(b.c for b in seen) == sorted(
            b.c for b in polys_below_degree(npol.field, 2) if b.is_monic())

    def test_evaluates_each_beta_once(self, monkeypatch):
        # the rows beta(zeta)^(-i) share one evaluation of beta(zeta) per
        # beta, so the table's evaluations do not grow with its range: at
        # q = 5, t^2+2, beta = 0 and the 6 monic beta, besides the roots
        calls = []
        eval_in = Pol.eval_in
        monkeypatch.setattr(Pol, "eval_in", lambda self, *args: calls.append(
            self.c) or eval_in(self, *args))
        npol = parse_pol(cli.field_of_order(5), "t^2+2")
        counts = []
        for rng in (1, 23):
            del calls[:]
            cli.table_pairs(5, npol, rng)
            counts.append(len(calls))
            betas = [c for c in calls if c != npol.c]
            assert sorted(betas) == sorted(
                [()] + [b.c for b in polys_below_degree(npol.field, 2)
                        if b.is_monic()])
        assert counts[0] == counts[1]


class TestVerify:
    def test_all_suites_match_golden(self, capsys):
        # every suite at the default flags, byte for byte
        golden = Path(__file__).with_name("golden_verify.txt").read_text()
        code, out, _ = run(capsys, ["verify"])
        assert code == 0
        assert out == golden

    def test_normproj_reports_on_an_integral_twist(self, capsys,
                                                   monkeypatch):
        # a normalized twist with no den (here its own numerators) gives
        # reports, not a traceback: the integrality check reads the den
        # only where there is one, and the numerators, being the values
        # now, are integral; the closed forms, over n, then differ
        twist = cli.twist_normalized
        monkeypatch.setattr(cli, "twist_normalized", lambda f, chi, ctx: (
            UExpansion(ctx, twist(f, chi, ctx).nums, f.prec, f.meta)))
        code, out, err = run(capsys, ["verify", "--suite", "normproj"])
        reports = [json.loads(ln) for ln in out.strip().splitlines()]
        assert [r["identity"] for r in reports] == [
            "normproj-closed-form"] * 2 + ["normproj-integrality"]
        assert reports[-1]["pass"] and reports[-1]["witness"] is None
        assert not any(r["pass"] for r in reports[:2])
        assert code == 1 and not err

    def test_unknown_suite_exit_2(self, capsys):
        code, out, err = run(capsys, ["verify", "--suite", "bogus"])
        assert code == 2 and "unknown suite" in err

    def test_fast_suite_passes(self, capsys):
        code, out, err = run(capsys, ["verify", "--suite", "convolution"])
        assert code == 0
        reports = [json.loads(ln) for ln in out.strip().splitlines()]
        assert reports and all(r["pass"] for r in reports)

    def test_twist_commute_suite(self, capsys):
        code, out, _ = run(capsys, ["verify", "--suite", "twist-commute",
                                    "--precision", "10"])
        assert code == 0
        for ln in out.strip().splitlines():
            r = json.loads(ln)
            assert r["pass"] and r["identity"]

    def test_unread_flags_are_rejected(self, capsys):
        for flag, value in (("--weight", "2"), ("--type", "1"),
                            ("--var", "x"), ("--q", "7"),
                            ("--modulus", "t^3"),
                            ("--char", "chi{p=t; e=1}")):
            with pytest.raises(SystemExit) as exc:
                cli.main(["verify", flag, value])
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["verify", "--suite", "normproj", "--precision", "-3"],
        ["verify", "--suite", "eigen", "--precision", "0"],
        ["verify", "--suite", "eigen", "--hecke-degree-bound", "0"],
        ["table", "--q", "3", "--modulus", "t", "--range", "-1"],
    ], ids=["precision-negative", "precision-zero", "hecke-bound-zero",
            "table-range-negative"])
    def test_vacuous_parameters_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "must be at least" in capsys.readouterr().err

    def test_no_command_prints_help(self, capsys):
        code, out, _ = run(capsys, [])
        assert code == 2 and "usage" in out.lower()

    def test_domain_error_exit_2(self, capsys):
        code, _, err = run(capsys, ["table", "--q", "6"])
        assert code == 2 and "error:" in err

    def test_field_too_large_exit_2(self, capsys):
        code, out, err = run(capsys, ["table", "--q", "4093"])
        assert code == 2 and out == ""
        assert "error: F_4093 is too large" in err

    @pytest.mark.parametrize("argv, refused", [
        (["--q", "1024"], 1024 ** 2), (["--q", "1021"], 1021 ** 2),
        (["--q", "11", "--modulus", "t^3+1"], 11 ** 3)])
    def test_oversized_extension_refused_before_any_field(
            self, capsys, monkeypatch, argv, refused):
        # F_(q^deg) is refused before F_q is built: a wrapper on
        # FiniteField.__init__ records every field built during the run
        built = []
        init = FiniteField.__init__

        def recording(field, p, n):
            init(field, p, n)
            built.append(field.order)
        monkeypatch.setattr(FiniteField, "__init__", recording)
        code, out, err = run(capsys, ["table"] + argv)
        assert code == 2 and out == ""
        assert "error: F_%d is too large" % refused in err
        assert all(order <= 32 for order in built), built

    @pytest.mark.parametrize("argv, name", [
        (["--q", "3", "--modulus", "t^2000000"], "(3^2000000)"),
        (["--q", "2", "--modulus", "t^100000000"], "(2^100000000)")])
    def test_huge_degree_refused_from_the_terms(self, capsys, monkeypatch,
                                                argv, name):
        # the degree is read off the parsed terms: no dense coefficient
        # list, no field and no integer q^deg is built
        def fail(*args):
            raise AssertionError("built before the refusal")
        monkeypatch.setattr(Pol, "from_int_coeffs", fail)
        monkeypatch.setattr(FiniteField, "__init__", fail)
        code, out, err = run(capsys, ["table"] + argv)
        assert code == 2 and out == ""
        assert ("error: F_%s is too large for tabulated arithmetic (order at"
                " most 1024)" % name) in err

    def test_huge_q_refused_before_factoring(self, capsys, monkeypatch):
        # a 20-digit prime: trial division up to its square root would run
        # for hours, so the size is checked before q is factored
        def fail(q):
            raise AssertionError("factored before the refusal")
        monkeypatch.setattr(cli, "prime_power", fail)
        code, out, err = run(capsys, ["table", "--q",
                                      "10000000000000000051"])
        assert code == 2 and out == ""
        assert "error: F_10000000000000000051 is too large" in err

    def test_extension_degree_is_read_mod_p(self, capsys):
        # 5t^5 vanishes over F_5, so the modulus has degree 2 and the table
        # is the default one, not refused for F_(5^5)
        plain = run(capsys, ["table", "--range", "6"])
        padded = run(capsys, ["table", "--range", "6",
                              "--modulus", "5t^5+t^2+2"])
        assert padded == plain and plain[0] == 0 and plain[1]

    def test_profile_writes_stats_and_keeps_stdout(self, capsys, tmp_path):
        argv = ["verify", "--suite", "convolution"]
        plain = run(capsys, argv)
        path = tmp_path / "verify.prof"
        profiled = run(capsys, argv + ["--profile", str(path)])
        assert profiled == plain and plain[0] == 0
        stats = pstats.Stats(str(path)).stats
        assert any(name == "suite_convolution" and file.endswith("cli.py")
                   for file, _, name in stats)


class TestModuleEntry:
    def test_python_m_matches_main(self, capsys):
        argv = ["table", "--q", "3", "--modulus", "t", "--range", "6",
                "--format", "json"]
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p])
        done = subprocess.run([sys.executable, "-m", "drinfeld"] + argv,
                              capture_output=True, text=True, env=env,
                              timeout=120)
        code, out, _ = run(capsys, argv)
        assert done.returncode == code == 0
        assert done.stdout == out


class TestThreadsEnv:
    def test_invalid_values_exit_2(self, capsys, monkeypatch):
        for bad in ("0", "-2", "lots"):
            monkeypatch.setenv("DRINFELD_THREADS", bad)
            code, _, err = run(capsys, ["table", "--q", "3", "--modulus", "t",
                                        "--range", "0"])
            assert code == 2 and "DRINFELD_THREADS" in err

    def test_valid_value_accepted(self, capsys, monkeypatch):
        monkeypatch.setenv("DRINFELD_THREADS", "4")
        code, _, err = run(capsys, ["table", "--q", "3", "--modulus", "t",
                                    "--range", "0"])
        assert code == 0 and not err
