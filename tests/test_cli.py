"""End-to-end command line coverage: outputs, formats, and exit codes."""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import zsflow.cli
import zsflow.dynamics
import zsflow.equilibrium
import zsflow.prefgraph
from zsflow import (
    Game,
    NoEquilibriumError,
    build_graph,
    content_of,
    load_game,
    lyapunov_rates,
    parse_game,
    sink_component,
    uniform_profile,
)
from zsflow.cli import main

from dynamics_oracle import log_rk4_flow


# analyze outputs recorded with the Fraction per-pair graph builder, the
# profile-keyed Tarjan and the 2^rows content scan (see graph_oracle.py);
# verify outputs recorded with the Fraction symmetrisation check and the
# per-point Lyapunov and embedding loops, before the margin keys existed;
# symmetrise outputs recorded when Game stored its payoffs as Fraction rows.
GOLDEN = Path(__file__).resolve().parent / "golden"
MARGINS = {"symmetrisation": ("pairs_checked",), "lyapunov": ("min_rate", "max_fd_gap")}


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_full_space_attractor_text(self, capsys, games_dir):
        code, out, _ = run_cli(capsys, "analyze", str(games_dir / "matching_pennies.json"))
        assert code == 0
        assert "game: 2x2 non-symmetric" in out
        assert "4 nodes, 4 arcs, 0 tied pair(s), 1 component(s)" in out
        assert "attractor: whole strategy space" in out
        assert "support in sink PASS" in out

    def test_diamond_json_report(self, capsys, games_dir):
        code, out, _ = run_cli(
            capsys, "analyze", str(games_dir / "diamond.json"), "--format", "json"
        )
        assert code == 0
        manifest = json.loads(out)
        report = manifest["report"]
        assert manifest["passed"] is True
        assert report["graph"]["components"] == 2
        assert report["sink"]["size"] == 8
        assert report["attractor_is_full_space"] is False
        assert report["content"]["maximal_subgames"] == [
            {"rows": ["a", "b", "c"], "cols": ["b", "c"]},
            {"rows": ["b", "c"], "cols": ["a", "b", "c"]},
        ]
        x, y = report["nash"]["equilibrium"]
        assert x == pytest.approx([0.0, 0.5, 0.5], abs=1e-9)
        assert y == pytest.approx([0.0, 0.5, 0.5], abs=1e-9)

    def test_diamond_attractor_text(self, capsys, games_dir):
        code, out, _ = run_cli(capsys, "analyze", str(games_dir / "diamond.json"))
        assert code == 0
        assert "attractor: {a,b,c}x{b,c}; {b,c}x{a,b,c}" in out

    def test_dot_export_highlights_sink(self, capsys, games_dir, tmp_path):
        dot = tmp_path / "diamond.dot"
        code, out, _ = run_cli(
            capsys, "analyze", str(games_dir / "diamond.json"), "--dot", str(dot)
        )
        assert code == 0 and f"wrote: {dot}" in out
        text = dot.read_text()
        assert text.count("fillcolor=lightgrey") == 8
        assert '"a,a"' in text and "->" in text

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "analyze", str(tmp_path / "nope.json"))
        assert code == 2 and "error:" in err

    def test_game_path_through_a_file_exits_2(self, capsys, tmp_path):
        # A file used as a directory raises NotADirectoryError, an OSError.
        (tmp_path / "plain.txt").write_text("")
        code, out, err = run_cli(capsys, "analyze", str(tmp_path / "plain.txt" / "x.json"))
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err

    def test_malformed_game(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"mode": "non-symmetric", "matrix": [[1, 2], [3]]}')
        code, _, err = run_cli(capsys, "analyze", str(bad))
        assert code == 2 and "error:" in err

    def test_deeply_nested_game_exits_2(self, capsys, tmp_path):
        # json.loads gives up on such nesting with a RecursionError.
        deep = tmp_path / "deep.json"
        deep.write_text('{"mode": "non-symmetric", "matrix": ' + "[" * 10**5 + "]" * 10**5 + "}")
        code, out, err = run_cli(capsys, "analyze", str(deep))
        assert code == 2 and out == ""
        assert err.startswith("error: invalid JSON") and err.count("\n") == 1

    def test_large_payoffs_keep_the_support(self, capsys, tmp_path):
        # The equilibrium tolerance is relative to the payoff scale: at 1e9 an
        # absolute one rejected every candidate and analyze crashed.
        matrix = [[-3, 6, 1, -8], [4, -2, 7, 0], [-5, 9, -1, 3], [2, -7, 5, -4]]
        supports = []
        for scale in (1, 10**9):
            path = tmp_path / f"game_{scale}.json"
            scaled = [[v * scale for v in row] for row in matrix]
            path.write_text(json.dumps({"mode": "non-symmetric", "matrix": scaled}))
            code, out, _ = run_cli(capsys, "analyze", str(path), "--format", "json")
            assert code == 0, scale
            supports.append(json.loads(out)["report"]["nash"]["support"])
        assert supports[0] == supports[1]

    def test_nash_failure_exits_3(self, capsys, games_dir, monkeypatch):
        def fail(g):
            raise NoEquilibriumError("support enumeration found no equilibrium")

        monkeypatch.setattr(zsflow.equilibrium, "_enumerate_equilibria", fail)
        code, out, err = run_cli(capsys, "analyze", str(games_dir / "diamond.json"))
        assert code == 3 and out == ""
        assert err.startswith("nash solving failed:") and len(err.splitlines()) == 1

    def test_builds_the_graph_once(self, capsys, games_dir, monkeypatch):
        calls = []

        def counted(g):
            calls.append(g)
            return build_graph(g)

        monkeypatch.setattr(zsflow.cli, "build_graph", counted)
        monkeypatch.setattr(zsflow.equilibrium, "build_graph", counted)
        code, _, _ = run_cli(capsys, "analyze", str(games_dir / "diamond.json"))
        assert code == 0 and len(calls) == 1

    @pytest.mark.parametrize("parent", ["plain.txt", "missing"])
    def test_bad_dot_path_fails_before_any_work(
        self, capsys, games_dir, tmp_path, monkeypatch, parent
    ):
        # The DOT path is checked before the graph, content and Nash layers run.
        (tmp_path / "plain.txt").write_text("")

        def fail(*args):
            raise AssertionError("the work started before the DOT path was checked")

        monkeypatch.setattr(zsflow.cli, "build_graph", fail)
        monkeypatch.setattr(zsflow.cli, "solve_nash", fail)
        code, out, err = run_cli(
            capsys, "analyze", str(games_dir / "diamond.json"),
            "--dot", str(tmp_path / parent / "x.dot"),
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["plain.txt"]

    @pytest.mark.parametrize(
        "stem", ["diamond", "matching_pennies", "rock_paper_scissors", "tie_heavy"]
    )
    def test_graph_passes(self, capsys, games_dir, monkeypatch, stem):
        # One chain pass for the condensation, which also counts the ties,
        # one masked pass each for the chosen and the essential support, and
        # one node mask, the content's, which validates the sink it is given;
        # the Nash verdicts read the graph's cached sink mask, and the
        # supports' masks come from the arrays.
        calls = {"_chains": 0, "node_mask": 0}
        for owner, name in ((zsflow.prefgraph, "_chains"), (Game, "node_mask")):
            real = getattr(owner, name)

            def counted(*args, real=real, name=name):
                calls[name] += 1
                return real(*args)

            for module in (owner, zsflow.prefgraph, zsflow.equilibrium, zsflow.cli):
                if getattr(module, name, None) is real:
                    monkeypatch.setattr(module, name, counted)
        game = GOLDEN / "tie_heavy.json" if stem == "tie_heavy" else games_dir / f"{stem}.json"
        code, _, _ = run_cli(capsys, "analyze", str(game), "--format", "json")
        assert code == 0 and calls == {"_chains": 3, "node_mask": 1}

    @pytest.mark.parametrize(
        "stem", ["diamond", "matching_pennies", "rock_paper_scissors", "tie_heavy"]
    )
    def test_enumerates_once(self, capsys, games_dir, monkeypatch, stem):
        calls = []
        enumerate_equilibria = zsflow.equilibrium._enumerate_equilibria

        def counted(g):
            calls.append(g)
            return enumerate_equilibria(g)

        monkeypatch.setattr(zsflow.equilibrium, "_enumerate_equilibria", counted)
        game = GOLDEN / "tie_heavy.json" if stem == "tie_heavy" else games_dir / f"{stem}.json"
        code, _, _ = run_cli(capsys, "analyze", str(game), "--format", "json")
        assert code == 0 and len(calls) == 1

    @pytest.mark.parametrize("labels", ["5", '"ab"'])
    @pytest.mark.parametrize("key", ["row_labels", "col_labels"])
    def test_label_list_not_a_list(self, capsys, tmp_path, key, labels):
        bad = tmp_path / "bad.json"
        bad.write_text(f'{{"mode": "non-symmetric", "matrix": [[1, 2], [3, 4]], "{key}": {labels}}}')
        code, out, err = run_cli(capsys, "analyze", str(bad))
        assert code == 2 and out == ""
        assert err == f"error: {key} must be a list of strings\n"

    @pytest.mark.parametrize("stem", ["diamond", "rock_paper_scissors", "tie_heavy"])
    @pytest.mark.parametrize("dot", [False, True])
    def test_condenses_once_and_builds_arcs_only_for_dot(
        self, capsys, games_dir, tmp_path, monkeypatch, dot, stem
    ):
        graphs, condensed = [], []
        condense = zsflow.prefgraph._condense

        def built(g):
            graphs.append(build_graph(g))
            return graphs[-1]

        def counted(pg):
            condensed.append(pg)
            return condense(pg)

        monkeypatch.setattr(zsflow.cli, "build_graph", built)
        monkeypatch.setattr(zsflow.prefgraph, "_condense", counted)
        game = GOLDEN / "tie_heavy.json" if stem == "tie_heavy" else games_dir / f"{stem}.json"
        argv = ["analyze", str(game)]
        if dot:
            argv += ["--dot", str(tmp_path / f"{stem}.dot")]
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0 and len(graphs) == 1 and len(condensed) == 1
        # pg.arc_count and the condensation, symmetric or not, build no arcs;
        # only the DOT file reads them.
        assert ("arcs" in vars(graphs[0])) == dot

    @pytest.mark.parametrize("stem", ["diamond", "rock_paper_scissors", "tie_heavy"])
    def test_finds_the_sink_once_and_condenses_once(self, capsys, games_dir, monkeypatch, stem):
        # analyze runs the closures of one sink search, whose cached sink the
        # Nash verdicts reuse, and one condensation, for the components.
        calls = {"_closures": 0, "_condense": 0}
        for name in calls:
            real = getattr(zsflow.prefgraph, name)

            def counted(*args, real=real, name=name):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(zsflow.prefgraph, name, counted)
        game = GOLDEN / "tie_heavy.json" if stem == "tie_heavy" else games_dir / f"{stem}.json"
        sink_component(build_graph(load_game(str(game))))
        search = calls["_closures"]
        code, _, _ = run_cli(capsys, "analyze", str(game), "--format", "json")
        assert code == 0 and calls == {"_closures": 2 * search, "_condense": 1}

    @pytest.mark.parametrize(
        "stem", ["diamond", "matching_pennies", "rock_paper_scissors", "tie_heavy", "rational"]
    )
    def test_outputs_match_golden(self, capsys, games_dir, tmp_path, monkeypatch, stem):
        game = (GOLDEN if stem in ("tie_heavy", "rational") else games_dir) / f"{stem}.json"
        shutil.copy(game, tmp_path / f"{stem}.json")
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(
            capsys, "analyze", f"{stem}.json", "--format", "json", "--dot", f"{stem}.dot"
        )
        assert code == 0
        assert out.encode() == (GOLDEN / f"{stem}.analyze.json").read_bytes()
        assert (tmp_path / f"{stem}.dot").read_bytes() == (GOLDEN / f"{stem}.dot").read_bytes()


class TestSimulate:
    def test_csv_and_manifest(self, capsys, games_dir, tmp_path):
        csv = tmp_path / "run.csv"
        code, out, _ = run_cli(
            capsys,
            "simulate",
            str(games_dir / "diamond.json"),
            "--start",
            "0.2,0.5,0.3;0.4,0.3,0.3",
            "--horizon",
            "5",
            "--csv",
            str(csv),
            "--format",
            "json",
        )
        assert code == 0
        manifest = json.loads(out)
        assert manifest["result"]["samples"] == 501
        assert manifest["result"]["final_time"] == 5.0
        assert 0.0 < manifest["result"]["final_sink_mass"] <= 1.0
        header = csv.read_text().splitlines()[0]
        assert header == "t,p1:a,p1:b,p1:c,p2:a,p2:b,p2:c,x_H,payoff,dist_content"

    def test_sink_mass_within_one(self, capsys, tmp_path):
        # On this seeded 30x30 game the on-sink and off-sink mass sums each
        # land a few ulps past 1; reported as shares of their sum they cannot.
        game, csv = tmp_path / "g30.json", tmp_path / "g30.csv"
        matrix = np.random.default_rng(30).integers(-9, 10, (30, 30)).tolist()
        game.write_text(json.dumps({"mode": "non-symmetric", "matrix": matrix}))
        code, out, _ = run_cli(
            capsys, "simulate", str(game), "--start", "random", "--horizon", "200",
            "--format", "json", "--csv", str(csv), "--out-dir", str(tmp_path),
        )
        assert code == 0
        assert 0.0 <= json.loads(out)["result"]["final_sink_mass"] <= 1.0
        lines = csv.read_text().splitlines()
        column = lines[0].split(",").index("x_H")
        x_H = np.array([float(line.split(",")[column]) for line in lines[1:]])
        assert len(x_H) == 20001 and (x_H >= 0.0).all() and (x_H <= 1.0).all()

    def test_default_output_path(self, capsys, games_dir, tmp_path):
        code, out, _ = run_cli(
            capsys,
            "simulate",
            str(games_dir / "matching_pennies.json"),
            "--horizon",
            "1",
            "--out-dir",
            str(tmp_path),
        )
        assert code == 0
        assert (tmp_path / "matching_pennies_trajectory.csv").exists()

    def test_zero_horizon_single_sample(self, capsys, games_dir, tmp_path):
        code, out, _ = run_cli(
            capsys,
            "simulate",
            str(games_dir / "rock_paper_scissors.json"),
            "--start",
            "0.2,0.3,0.5",
            "--horizon",
            "0",
            "--out-dir",
            str(tmp_path),
            "--format",
            "json",
        )
        assert code == 0
        manifest = json.loads(out)
        assert manifest["result"]["samples"] == 1
        assert manifest["result"]["final_time"] == 0.0
        csv = tmp_path / "rock_paper_scissors_trajectory.csv"
        assert len(csv.read_text().splitlines()) == 2

    def test_svg_output(self, capsys, games_dir, tmp_path):
        svg = tmp_path / "run.svg"
        code, _, _ = run_cli(
            capsys,
            "simulate",
            str(games_dir / "diamond.json"),
            "--horizon",
            "2",
            "--out-dir",
            str(tmp_path),
            "--svg",
            str(svg),
        )
        assert code == 0
        assert svg.read_text().startswith("<svg")

    def test_random_start_is_seeded(self, capsys, games_dir, tmp_path):
        paths = []
        for name in ("a.csv", "b.csv"):
            csv = tmp_path / name
            code, _, _ = run_cli(
                capsys,
                "simulate",
                str(games_dir / "matching_pennies.json"),
                "--start",
                "random",
                "--seed",
                "7",
                "--horizon",
                "1",
                "--csv",
                str(csv),
            )
            assert code == 0
            paths.append(csv)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_bad_start_specs(self, capsys, games_dir, tmp_path):
        game = str(games_dir / "diamond.json")
        for spec in ("0.2,0.8", "0.5,0.5,0;0.5,0.6,0", "x,y,z;0.5,0.25,0.25"):
            code, _, err = run_cli(
                capsys, "simulate", game, "--start", spec, "--out-dir", str(tmp_path)
            )
            assert code == 2, spec
            assert "error:" in err

    def test_csv_path_through_a_file_exits_2(self, capsys, games_dir, tmp_path):
        (tmp_path / "plain.txt").write_text("")
        code, _, err = run_cli(
            capsys, "simulate", str(games_dir / "diamond.json"), "--horizon", "1",
            "--csv", str(tmp_path / "plain.txt" / "x.csv"),
        )
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("parent", ["plain.txt", "missing"])
    def test_bad_svg_path_fails_before_integrating(
        self, capsys, games_dir, tmp_path, monkeypatch, parent
    ):
        # The SVG path is checked with the CSV path, before the integration
        # runs and before the CSV is written.
        (tmp_path / "plain.txt").write_text("")
        calls = []
        monkeypatch.setattr(zsflow.cli, "integrate", lambda *a, **k: calls.append(a))
        csv = tmp_path / "a.csv"
        code, out, err = run_cli(
            capsys, "simulate", str(games_dir / "diamond.json"), "--horizon", "1",
            "--csv", str(csv), "--svg", str(tmp_path / parent / "x.svg"),
        )
        assert code == 2 and out == "" and not calls
        assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
        assert not csv.exists()

    def test_text_reports_the_manifest_distance(self, capsys, games_dir, tmp_path):
        # The text line prints dist_content, the mass off the sink, which is
        # not 1 - x_H in floating point (here about 1e-53 against 0 or 1e-16).
        argv = [
            "simulate", str(games_dir / "diamond.json"), "--start", "random",
            "--horizon", "20", "--out-dir", str(tmp_path),
        ]
        _, text, _ = run_cli(capsys, *argv)
        _, js, _ = run_cli(capsys, *argv, "--format", "json")
        dist = json.loads(js)["result"]["final_dist_content"]
        assert 0.0 < dist < 1e-40
        assert f"(dist_content = {dist:.3e})" in text

    def test_non_finite_horizon(self, capsys, games_dir, tmp_path):
        game = str(games_dir / "matching_pennies.json")
        for horizon in ("inf", "nan"):
            code, _, err = run_cli(
                capsys, "simulate", game, "--horizon", horizon, "--out-dir", str(tmp_path)
            )
            assert code == 2, horizon
            assert "error:" in err

    def test_unrepresentable_horizon_exits_2(self, capsys, games_dir, tmp_path, monkeypatch):
        # 10**14 samples of 6 floats (4.3 PiB), and 10**10 + 1 samples of 4
        # floats (298 GiB): the sample cap refuses both before the flow
        # allocates or steps anything.
        def refuse(*args):
            raise AssertionError("the flow ran")

        monkeypatch.setattr(zsflow.dynamics, "_flow", refuse)
        row = tmp_path / "row.json"
        row.write_text(json.dumps({"mode": "non-symmetric", "matrix": [[1, -1, 0]]}))
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        runs = [
            ((str(games_dir / "diamond.json"), "--horizon", "1e12"), 600000000000006),
            ((str(row), "--step", "1e-300", "--horizon", "1e-290"), 40000000004),
        ]
        for argv, size in runs:
            tracemalloc.start()
            try:
                code, out, err = run_cli(capsys, "simulate", *argv, "--out-dir", str(out_dir))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 2 and out == ""
            assert err == f"error: trajectory of {size} sampled values is over the cap 134217728\n"
            assert peak < 2**20
            assert not list(out_dir.iterdir())

    def test_overflowing_step_count_exits_2(self, capsys, games_dir, tmp_path):
        # horizon / step is inf: rejected by the config, before any allocation.
        code, out, err = run_cli(
            capsys, "simulate", str(games_dir / "matching_pennies.json"), "--horizon", "1e306",
            "--step", "0.001", "--out-dir", str(tmp_path),
        )
        assert code == 2 and out == ""
        assert err == "error: horizon / step overflows the step count\n"
        assert not list(tmp_path.iterdir())

    def test_overflowing_flow_exits_3_quietly(self, capsys, tmp_path):
        # Matching pennies at 10**308: the first RK4 step overflows.  The
        # finite check reports it, and numpy warns about nothing on the way.
        big = 10**308
        game = tmp_path / "loud.json"
        game.write_text(json.dumps({"mode": "non-symmetric", "matrix": [[big, -big], [-big, big]]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys, "simulate", str(game), "--step", "0.1", "--horizon", "1",
                "--start", "0.5,0.5;0.9,0.1", "--out-dir", str(tmp_path),
            )
        assert code == 3 and out == ""
        assert err == "integration failed: non-finite state at step 1 (t = 0.1)\n"

    @pytest.mark.parametrize("scale", [10**4, 10**5])
    def test_large_payoffs_integrate_like_the_reference(self, capsys, tmp_path, monkeypatch, scale):
        # Unshifted, a stage's exp overflows once step * max|M| passes about
        # 700; each stage shifts by the block maximum, so these runs finish
        # with the result of the per-block reference loop.
        game = tmp_path / "mp.json"
        game.write_text(json.dumps({"mode": "non-symmetric", "matrix": [[scale, -scale], [-scale, scale]]}))
        runs = []
        for flow in (zsflow.dynamics._flow, log_rk4_flow):
            monkeypatch.setattr(zsflow.dynamics, "_flow", flow)
            csv = tmp_path / f"{flow.__name__}.csv"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, _ = run_cli(
                    capsys, "simulate", str(game), "--step", "0.1", "--horizon", "200",
                    "--start", "0.8,0.2;0.3,0.7", "--csv", str(csv), "--format", "json",
                )
            assert code == 0
            runs.append((json.loads(out)["result"], np.loadtxt(csv, delimiter=",", skiprows=1)))
        (got, got_rows), (want, want_rows) = runs
        assert got_rows.shape == (2001, 8) and np.isfinite(got_rows).all()
        assert np.abs(got_rows - want_rows).max() <= 1e-12
        assert got["final_payoff"] == want["final_payoff"] == scale

    def test_has_no_method_option(self, capsys, games_dir):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", str(games_dir / "diamond.json"), "--method", "rk4-log"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --method" in capsys.readouterr().err


class TestVerify:
    def test_single_scope_text(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--scope", "graph", "--count", "15")
        assert code == 0
        assert "graph: PASS  checked 15 game(s)" in out
        assert "verification PASS" in out

    def test_all_scopes_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--scope", "all", "--count", "4", "--format", "json"
        )
        assert code == 0
        manifest = json.loads(out)
        assert manifest["passed"] is True
        assert [r["scope"] for r in manifest["result"]] == [
            "graph",
            "symmetrisation",
            "embedding",
            "lyapunov",
            "nash",
        ]

    def test_count_zero_warns(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--scope", "graph", "--count", "0")
        assert code == 0
        assert "vacuous" in err

    def test_negative_count(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--count", "-1")
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize(
        "scope, count", [("graph", 40), ("symmetrisation", 40), ("lyapunov", 30), ("nash", 20)]
    )
    def test_reports_match_golden(self, capsys, scope, count):
        code, out, _ = run_cli(
            capsys, "verify", "--scope", scope, "--count", str(count), "--seed", "11",
            "--format", "json",
        )
        assert code == 0
        manifest = json.loads(out)
        detail = manifest["result"][0]["detail"]
        margins = [detail.pop(key) for key in MARGINS.get(scope, ())]
        assert (json.dumps(manifest, indent=2) + "\n").encode() == (
            GOLDEN / f"{scope}.verify.json"
        ).read_bytes()
        assert all(isinstance(v, (int, float)) for v in margins)
        assert not set(detail) & {k for keys in MARGINS.values() for k in keys}


class TestSymmetrise:
    def test_round_trip(self, capsys, games_dir, tmp_path):
        out_path = tmp_path / "mp_sym.json"
        code, out, _ = run_cli(
            capsys,
            "symmetrise",
            str(games_dir / "matching_pennies.json"),
            "--out",
            str(out_path),
        )
        assert code == 0 and "4 profile strategies" in out
        sg = parse_game(out_path.read_text())
        assert sg.symmetric and sg.n == 4
        assert sg.row_labels == ("H,H", "H,T", "T,H", "T,T")
        # The emitted file is itself analyzable.
        code, _, _ = run_cli(capsys, "analyze", str(out_path))
        assert code == 0

    @pytest.mark.parametrize("stem", ["matching_pennies", "diamond", "rational"])
    def test_output_matches_golden(self, capsys, games_dir, tmp_path, monkeypatch, stem):
        game = GOLDEN / "rational.json" if stem == "rational" else games_dir / f"{stem}.json"
        shutil.copy(game, tmp_path / f"{stem}.json")
        monkeypatch.chdir(tmp_path)
        out_name = f"{stem}.symmetrise.json"
        code, _, _ = run_cli(capsys, "symmetrise", f"{stem}.json", "--out", out_name)
        assert code == 0
        assert (tmp_path / out_name).read_bytes() == (GOLDEN / out_name).read_bytes()

    @pytest.mark.parametrize("parent", ["plain.txt", "missing"])
    def test_bad_out_path_fails_before_any_work(
        self, capsys, games_dir, tmp_path, monkeypatch, parent
    ):
        (tmp_path / "plain.txt").write_text("")

        def fail(*args):
            raise AssertionError("symmetrise ran before the output path was checked")

        monkeypatch.setattr(zsflow.cli, "symmetrise", fail)
        code, out, err = run_cli(
            capsys, "symmetrise", str(games_dir / "matching_pennies.json"),
            "--out", str(tmp_path / parent / "x.json"),
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["plain.txt"]

    def test_rejects_symmetric_input(self, capsys, games_dir, tmp_path):
        code, _, err = run_cli(
            capsys,
            "symmetrise",
            str(games_dir / "rock_paper_scissors.json"),
            "--out-dir",
            str(tmp_path),
        )
        assert code == 2 and "error:" in err


class TestDeterminism:
    def test_analyze_json_repeatable(self, capsys, games_dir):
        outs = []
        for _ in range(2):
            _, out, _ = run_cli(
                capsys, "analyze", str(games_dir / "diamond.json"), "--format", "json"
            )
            outs.append(out)
        assert outs[0] == outs[1]

    def test_verify_json_repeatable(self, capsys):
        for scope in ("symmetrisation", "lyapunov"):  # both report margins
            outs = []
            for _ in range(2):
                _, out, _ = run_cli(
                    capsys, "verify", "--scope", scope, "--count", "10",
                    "--format", "json",
                )
                outs.append(out)
            assert outs[0] == outs[1]


@pytest.mark.parametrize("stem", ["diamond", "rock_paper_scissors"])
def test_sink_paths_never_condense(capsys, games_dir, tmp_path, monkeypatch, stem):
    # Only analyze reports components; every other use of the sink finds it
    # by closures, so a Tarjan call anywhere on these paths fails the test.
    def refuse(*args):
        raise AssertionError("the sink path condensed the graph")

    monkeypatch.setattr(zsflow.prefgraph, "_strong_components", refuse)
    game = str(games_dir / f"{stem}.json")
    g = load_game(game)
    sink = sink_component(build_graph(g))
    assert content_of(sink, g).subgames
    assert lyapunov_rates(g, [uniform_profile(g)]).shape == (1,)
    assert run_cli(capsys, "simulate", game, "--horizon", "1", "--out-dir", str(tmp_path))[0] == 0
    assert run_cli(capsys, "verify", "--scope", "graph", "--count", "40", "--seed", "5")[0] == 0


@pytest.mark.parametrize("stem", ["diamond", "rock_paper_scissors"])
def test_simulate_reads_the_sink_mask(capsys, games_dir, tmp_path, monkeypatch, stem):
    # The mass series come from the graph's cached sink mask: simulate builds
    # no profile set of the sink and masks none.
    def refuse(*args, **kwargs):
        raise AssertionError("simulate went through profile sets")

    monkeypatch.setattr(zsflow.cli, "sink_component", refuse)
    monkeypatch.setattr(zsflow.prefgraph, "sink_component", refuse)
    monkeypatch.setattr(Game, "profiles", refuse)
    monkeypatch.setattr(Game, "node_mask", refuse)
    game = str(games_dir / f"{stem}.json")
    for start in ("uniform", "random"):
        code, _, _ = run_cli(
            capsys, "simulate", game, "--start", start, "--horizon", "1",
            "--svg", str(tmp_path / "run.svg"), "--out-dir", str(tmp_path),
        )
        assert code == 0


def test_builds_the_parser_once(capsys, games_dir):
    zsflow.cli._build_parser.cache_clear()
    for _ in range(2):
        assert run_cli(capsys, "analyze", str(games_dir / "matching_pennies.json"))[0] == 0
    info = zsflow.cli._build_parser.cache_info()
    assert info.misses == 1 and info.hits == 1


def test_module_entry_point(games_dir):
    proc = subprocess.run(
        [sys.executable, "-m", "zsflow.cli", "analyze", str(games_dir / "matching_pennies.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "attractor: whole strategy space" in proc.stdout
