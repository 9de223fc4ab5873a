import gc
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import interax
from interax import games
from interax.cli import parse_builtin, parse_player_list, run


class TestBuiltinSpecs:
    def test_unanimity_with_range(self):
        g = parse_builtin("unanimity:n=5,set=0-2")
        assert g.n == 5
        assert g.value([0, 1, 2]) == 1.0
        assert g.value([0, 1]) == 0.0

    def test_plus_joined_players(self):
        assert parse_player_list("1+3") == [1, 3]
        assert parse_player_list("0-1+5") == [0, 1, 5]

    def test_majority_and_crosses(self):
        assert parse_builtin("majority:n=4").value([0, 1]) == 1.0
        assert parse_builtin("linear-crosses:c=3").value([0, 1, 2]) == 6.0

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown builtin"):
            parse_builtin("lottery:n=3")

    def test_missing_option(self):
        with pytest.raises(ValueError, match="needs option"):
            parse_builtin("majority")

    def test_unknown_option(self):
        with pytest.raises(ValueError, match="unknown option"):
            parse_builtin("majority:n=3,zeal=7")


class TestIndexCommand:
    def test_reference_table(self, capsys):
        rc = run(["index", "--builtin", "linear-crosses:c=3",
                  "--method", "stv", "--k", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        rows = [line.split() for line in out.strip().split("\n")[3:]]
        singles = [float(r[-1]) for r in rows if r[-2] == "1"]
        pairs = [float(r[-1]) for r in rows if r[-2] == "2"]
        assert singles == [1.0, 1.0, 1.0]
        assert pairs == [1.0, 1.0, 1.0]

    def test_error_budget_at_k_equal_n_is_exact(self, capsys):
        # the one size-n set gets the same derivative from every ordering
        rc = run(["index", "--builtin", "product:n=3", "--k", "3", "--mode", "sample",
                  "--epsilon", "0.1", "--delta", "0.1", "--seed", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "range_source=exact" in out and "samples=1" in out
        grand = out.strip().split("\n")[-1].split()
        assert grand[:4] == ["0", "1", "2", "3"] and float(grand[-1]) == 1.0

    def test_csv_round_trip_bit_for_bit(self, tmp_path):
        emitted = tmp_path / "game.json"
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["game", "emit", "--builtin", "majority:n=4",
                    "--format", "tabular", "--out", str(emitted)]) == 0
        assert run(["index", "--tabular", str(emitted), "--k", "2",
                    "--format", "csv", "--out", str(a)]) == 0
        assert run(["index", "--builtin", "majority:n=4", "--k", "2",
                    "--format", "csv", "--out", str(b)]) == 0
        assert a.read_text() == b.read_text()

    def test_mobius_emit_round_trip(self, tmp_path):
        emitted = tmp_path / "game.json"
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["game", "emit", "--builtin", "linear-crosses:c=2",
                    "--format", "mobius", "--out", str(emitted)]) == 0
        doc = json.loads(emitted.read_text())
        assert doc["format"] == "mobius"
        assert run(["index", "--mobius", str(emitted), "--k", "2",
                    "--format", "csv", "--out", str(a)]) == 0
        assert run(["index", "--builtin", "linear-crosses:c=2", "--k", "2",
                    "--format", "csv", "--out", str(b)]) == 0
        assert a.read_text() == b.read_text()

    def test_sii_main_effects(self, tmp_path):
        out = tmp_path / "m.csv"
        rc = run(["index", "--builtin", "linear-crosses:c=3", "--method", "sii",
                  "--k", "2", "--main-effects", "--format", "csv",
                  "--out", str(out)])
        assert rc == 0
        assert "sii" in out.read_text()

    def test_restrict(self, tmp_path):
        out = tmp_path / "r.json"
        rc = run(["index", "--builtin", "majority:n=5", "--k", "2",
                  "--restrict", "0+2+4", "--format", "json", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        players = {tuple(v["set"]) for v in doc["values"]}
        assert (0, 2) in players and (3,) not in {p for p in players if len(p) == 1}

    def test_sampled_meta_records_seed(self, tmp_path):
        out = tmp_path / "s.json"
        rc = run(["index", "--builtin", "product:n=12", "--k", "2",
                  "--mode", "sample", "--samples", "64", "--seed", "77",
                  "--format", "json", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["meta"]["seed"] == 77
        assert doc["meta"]["samples"] == 64

    def test_auto_seed_is_printed(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        rc = run(["index", "--builtin", "product:n=8", "--k", "2",
                  "--mode", "sample", "--samples", "16",
                  "--format", "json", "--out", str(out)])
        assert rc == 0
        err = capsys.readouterr().err
        assert "seed auto-chosen" in err
        doc = json.loads(out.read_text())
        assert doc["meta"]["seed"] is not None

    def test_oracle_mode(self, capsys):
        rc = run(["index", "--builtin", "majority:n=3", "--k", "2",
                  "--mode", "oracle", "--format", "csv"])
        assert rc == 0
        assert "permutation-oracle" not in capsys.readouterr().out  # csv is bare

    def test_threads_flag_keeps_results(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["index", "--builtin", "majority:n=8", "--k", "2",
                    "--threads", "1", "--format", "csv", "--out", str(a)]) == 0
        assert run(["index", "--builtin", "majority:n=8", "--k", "2",
                    "--threads", "4", "--format", "csv", "--out", str(b)]) == 0
        assert a.read_text() == b.read_text()

    def test_threads_flag_is_ignored(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        sampled = ["index", "--builtin", "majority:n=8", "--k", "2", "--mode", "sample",
                   "--samples", "40", "--seed", "3", "--format", "csv"]
        assert run([*sampled, "--out", str(a)]) == 0
        assert run([*sampled, "--threads", "3", "--out", str(b)]) == 0
        assert a.read_text() == b.read_text()

    def test_module_entry_point(self):
        env = dict(os.environ, PYTHONPATH=str(Path(interax.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "interax.cli", "index", "--builtin", "majority:n=3",
             "--k", "1", "--format", "csv"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        rows = proc.stdout.splitlines()[1:]
        assert [float(row.rsplit(",", 1)[1]) for row in rows] == [1 / 3] * 3

    def test_import_leaves_out_numpy_polynomial(self):
        # the quadrature rule loads numpy.polynomial on first use, not at start-up
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, interax.cli; print('numpy.polynomial' in sys.modules)"],
            capture_output=True, text=True, env=env, timeout=60,
            cwd=Path(interax.__file__).parents[2])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_mom_mode(self, tmp_path):
        out = tmp_path / "m.json"
        rc = run(["index", "--builtin", "linear-crosses:c=3", "--k", "2",
                  "--mode", "mom", "--groups", "3", "--per-group", "50",
                  "--seed", "5", "--format", "json", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["meta"]["groups"] == 3


class TestVerifyCommands:
    def test_axioms_pass(self, capsys):
        rc = run(["verify", "axioms", "--builtin", "majority:n=3",
                  "--k", "2", "--seed", "11"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("PASS") == 5
        assert "efficiency: residual" in out

    def test_taylor_quadrature(self, capsys):
        rc = run(["verify", "taylor", "--builtin", "linear-crosses:c=4",
                  "--k", "2", "--mode", "quadrature"])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out


class TestAnalyzeCommands:
    def test_majority_sweep_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        plot = tmp_path / "sweep.gp"
        rc = run(["analyze", "majority", "--min-n", "3", "--max-n", "12",
                  "--out", str(out), "--gnuplot", str(plot)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("n,")
        signs = [line.split(",")[3] for line in lines[1:]]
        assert signs == ["-", "+", "+", "-", "-", "+", "+", "-", "-", "+"]
        assert "plot" in plot.read_text()

    def test_crosses(self, tmp_path):
        out = tmp_path / "crosses.csv"
        rc = run(["analyze", "crosses", "--c", "3", "--out", str(out)])
        assert rc == 0
        assert "linear-crosses,3,stv_pair,1.0" in out.read_text()


class TestAggregateCommand:
    def test_rank_two_files(self, tmp_path):
        g1 = tmp_path / "g1.json"
        g2 = tmp_path / "g2.json"
        out = tmp_path / "rank.csv"
        assert run(["game", "emit", "--builtin", "linear-crosses:c=3",
                    "--out", str(g1)]) == 0
        assert run(["game", "emit", "--builtin", "linear-crosses:c=-3",
                    "--out", str(g2)]) == 0
        rc = run(["aggregate", "--games", str(g1), str(g2), "--k", "2",
                  "--aggregation", "mean-abs", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "set,size,aggregation,k,value,rank"
        assert len(lines) == 7


class TestExitCodes:
    def test_missing_file_is_domain_error(self, capsys):
        rc = run(["index", "--tabular", "/nonexistent/game.json"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, capsys):
        rc = run(["index", "--builtin", "majority:n=3", "--bogus"])
        assert rc == 2

    def test_bad_builtin_is_domain_error(self, capsys):
        rc = run(["index", "--builtin", "nonsense:n=3"])
        assert rc == 1

    def test_size_guard_is_domain_error(self, capsys):
        rc = run(["index", "--builtin", "majority:n=30", "--mode", "exact"])
        assert rc == 1
        assert "n <= 24" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", [["sample", "--samples", "1"],
                                      ["mom", "--groups", "1", "--per-group", "1"]])
    def test_sampler_size_guard_fails_fast(self, mode):
        env = dict(os.environ, PYTHONPATH=str(Path(interax.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "interax.cli", "index", "--builtin", "majority:n=64",
             "--k", "40", "--mode", *mode, "--seed", "1"],
            capture_output=True, text=True, env=env, timeout=10)
        assert proc.returncode == 1
        assert "error:" in proc.stderr

    def test_games_with_terms_pass_the_size_guard(self, capsys):
        rc = run(["index", "--builtin", "unanimity:n=40,set=0-2", "--mode", "exact",
                  "--k", "2", "--format", "csv"])
        assert rc == 0
        rows = [line.split(",") for line in capsys.readouterr().out.strip().split("\n")[1:]]
        pairs = {row[0]: float(row[4]) for row in rows if row[1] == "2"}
        assert len(pairs) == 40 * 39 // 2
        for ids, value in pairs.items():
            inside = all(int(i) <= 2 for i in ids.split())
            assert value == (1 / 3 if inside else 0.0)

    def test_oracle_guard(self, capsys):
        rc = run(["index", "--builtin", "majority:n=12", "--mode", "oracle"])
        assert rc == 1

    def test_two_sources_rejected(self, capsys):
        rc = run(["index", "--builtin", "majority:n=3",
                  "--tabular", "x.json"])
        assert rc == 1

    def test_external_requires_n(self, capsys):
        rc = run(["index", "--external", "some-command"])
        assert rc == 1

    def test_malformed_json_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = run(["index", "--tabular", str(bad)])
        assert rc == 1
        assert str(bad) in capsys.readouterr().err


class TestExternalViaCli:
    def test_non_finite_reply_is_domain_error(self, capsys):
        prog = ("import sys\n"
                "for line in sys.stdin:\n"
                "    line = line.strip()\n"
                "    if line.startswith('INIT'): print('OK', flush=True)\n"
                "    elif line == 'QUIT': break\n"
                "    else: print('nan', flush=True)\n")
        rc = run(["index", "--external", f'{sys.executable} -c "{prog}"', "--n", "3",
                  "--k", "1", "--format", "csv"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert "error:" in captured.err and "non-finite" in captured.err

    def test_external_matches_builtin(self, tmp_path, majority_child_command):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        rc = run(["index", "--external", majority_child_command, "--n", "3",
                  "--k", "2", "--format", "csv", "--out", str(a)])
        rc2 = run(["index", "--builtin", "majority:n=3", "--k", "2",
                   "--format", "csv", "--out", str(b)])
        assert rc == 0 and rc2 == 0
        assert a.read_text() == b.read_text()

    @pytest.mark.parametrize("verify", [["axioms", "--seed", "11"], ["taylor"]],
                             ids=["axioms", "taylor"])
    def test_verify_closes_the_child(self, verify, majority_child_command, monkeypatch,
                                     capsys):
        attached = []
        attach = games.attach_external
        monkeypatch.setattr(games, "attach_external",
                            lambda *args: attached.append(attach(*args)) or attached[-1])
        # an unclosed pipe warns from a finalizer, where an error-filtered
        # warning cannot propagate; the unraisable hook catches it instead
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            rc = run(["verify", verify[0], "--external", majority_child_command,
                      "--n", "3", "--k", "2", *verify[1:]])
            # the child has exited before the game is collected
            assert [game._child.returncode for game in attached] == [0]
            attached.clear()
            gc.collect()
        assert rc == 0
        assert "FAIL" not in capsys.readouterr().out
        assert unraisable == []
