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
from drinfeld.algebra import Pol, parse_pol, polys_below_degree
from drinfeld.carlitz import TorsionContext

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
    """table_pairs as it was before it skipped the rows i != j mod q-1:
    one combine over all rng rows for every j."""
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
        (3, "t^2+t", 12), (3, "t^2+1", 12), (4, "t^2+t+1", 20)])
    def test_matches_running_product(self, q, modulus, rng):
        # at t^2+t the first prime is t, so beta(zeta) = 0 for beta = t
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


class TestVerify:
    def test_all_suites_match_golden(self, capsys):
        # every suite at the default flags, byte for byte
        golden = Path(__file__).with_name("golden_verify.txt").read_text()
        code, out, _ = run(capsys, ["verify"])
        assert code == 0
        assert out == golden

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
