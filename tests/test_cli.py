"""CLI tests: exit codes, output stability, config validation."""

import copy
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from specbox.blackbox import TAGS
from specbox.boundary import (
    EpsilonLadder,
    boundary_value,
    density_from_record,
    point_mass,
    point_mass_scan,
)
from specbox.cli import (
    AVERAGE_HEADER,
    CERTIFY_HEADER,
    CLASSIFY_HEADER,
    DENSITY_HEADER,
    GREENS_HEADER,
    main,
)
from specbox.config import (
    MAX_GRID_POINTS,
    MAX_NODES_PER_PIECE,
    build_run_config,
    load_config,
    parse_grid_flag,
)
from specbox.errors import (
    ConfigError,
    NearSingularError,
    PointMassPresentError,
    UndeterminedLimitError,
)
from specbox.resolvent import green

from conftest import random_model


def remark2_config(**extra) -> dict:
    band = [
        {"interval": [-2.0, -1.0], "poly": [1.0]},
        {"interval": [1.0, 2.0], "poly": [1.0]},
    ]
    cfg = {
        "model": {
            "system": {
                "matrix": [[[0.0, 0.0]]],
                "delta_l": [[1.0, 0.0]],
                "delta_r": [[1.0, 0.0]],
            },
            "reservoir_left": {"atoms": [], "pieces": band},
            "reservoir_right": {"atoms": [], "pieces": band},
        },
        "coupling": {"lambda": 1.0, "nu": 1.0},
        "grid": {"start": 1.05, "stop": 1.95, "points": 5},
    }
    cfg.update(extra)
    return cfg


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(remark2_config()))
    return str(path)


class TestConfig:
    def test_grid_flag(self):
        grid = parse_grid_flag("0:1:5")
        assert np.allclose(grid, np.linspace(0, 1, 5))
        with pytest.raises(ConfigError):
            parse_grid_flag("0:1")
        with pytest.raises(ConfigError):
            parse_grid_flag("0:1:0")

    def test_build_roundtrip(self, config_file):
        cfg = build_run_config(load_config(config_file))
        assert cfg.model is not None
        assert cfg.coupling.lam == 1.0 and cfg.coupling.nu == 1.0
        assert len(cfg.grid) == 5

    def test_field_level_errors(self):
        bad = remark2_config()
        bad["model"]["system"]["matrix"] = [[[0.0, 0.0], [1.0, 0.0]],
                                            [[0.0, 0.0], [1.0, 0.0]]]
        with pytest.raises(ConfigError) as exc:
            build_run_config(bad)
        assert "model" in str(exc.value)

    @pytest.mark.parametrize("path, value, field", [
        (("reservoir_left", "pieces", 0, "poly"), 5, "model.reservoir_left.pieces[0].poly"),
        (("reservoir_left", "pieces", 1, "poly"), None, "model.reservoir_left.pieces[1].poly"),
        (("system", "matrix"), [[[1, 2]], [[0.5, 0], [-1, 0]]], "model.system.matrix[0]"),
    ])
    def test_malformed_model_names_field(self, path, value, field):
        bad = remark2_config()
        node = bad["model"]
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with pytest.raises(ConfigError) as exc:
            build_run_config(bad)
        assert exc.value.field == field

    @pytest.mark.parametrize("grid, field", [
        ({"list": 5}, "grid.list"),
        ({"list": [0.0] * (MAX_GRID_POINTS + 1)}, "grid.list"),
        ({"start": 0, "stop": 1, "points": 10**30}, "grid.points"),
        ({"start": 0, "stop": 1, "points": MAX_GRID_POINTS + 1}, "grid.points"),
        ({"start": -1e308, "stop": 1e308, "points": 3}, "grid"),
    ])
    def test_grid_rejected_before_allocation(self, grid, field):
        with pytest.raises(ConfigError) as exc:
            build_run_config(remark2_config(grid=grid))
        assert exc.value.field == field

    def test_grid_cap(self):
        cfg = build_run_config(remark2_config(
            grid={"start": 0, "stop": 1, "points": MAX_GRID_POINTS}))
        assert len(cfg.grid) == MAX_GRID_POINTS
        with pytest.raises(ConfigError, match="grid.points"):
            parse_grid_flag(f"0:1:{MAX_GRID_POINTS + 1}")

    def test_nodes_cap(self):
        cfg = build_run_config(remark2_config(oracle={"nodes_per_piece": MAX_NODES_PER_PIECE}))
        assert cfg.nodes_per_piece == MAX_NODES_PER_PIECE == 2000
        for nodes in (1, MAX_NODES_PER_PIECE + 1, 10**30):
            with pytest.raises(ConfigError) as exc:
                build_run_config(remark2_config(oracle={"nodes_per_piece": nodes}))
            assert exc.value.field == "oracle.nodes_per_piece"

    def test_ladder_needs_four_rungs(self):
        with pytest.raises(ConfigError, match="ladder"):
            build_run_config(remark2_config(ladder={"ratio": 1e-300}))

    def test_ladder_rung_cap(self):
        # imported first: without the cap, the ratio 1 - 1e-8 below would
        # allocate about 1.8e9 rungs
        from specbox.boundary import MAX_RUNGS

        log_span = math.log(1e-9 / 0.1)  # the default eps_min / eps_max
        at_cap = math.exp(log_span / (MAX_RUNGS - 0.5))
        over_cap = math.exp(log_span / (MAX_RUNGS + 0.5))
        assert math.floor(log_span / math.log(over_cap)) + 1 == MAX_RUNGS + 1
        cfg = build_run_config(remark2_config(ladder={"ratio": at_cap}))
        assert len(cfg.ladder.epsilons()) == MAX_RUNGS
        for ratio in (over_cap, 1 - 1e-8):
            with pytest.raises(ConfigError, match="ladder") as exc:
                build_run_config(remark2_config(ladder={"ratio": ratio}))
            assert exc.value.field == "ladder"

    def test_non_hermitian_rejected(self):
        bad = remark2_config()
        bad["model"]["system"]["matrix"] = [
            [[0.0, 0.0], [1.0, 0.0]],
            [[0.5, 0.0], [0.0, 0.0]],
        ]
        with pytest.raises(ConfigError) as exc:
            build_run_config(bad)
        assert "Hermitian" in str(exc.value)

    def test_bad_tolerance(self):
        with pytest.raises(ConfigError):
            build_run_config(remark2_config(tolerances={"zero_tol": -1.0}))
        with pytest.raises(ConfigError):
            build_run_config(remark2_config(tolerances={"bogus": 1.0}))

    def test_flag_overrides(self, config_file):
        cfg = build_run_config(
            load_config(config_file),
            {"lam": 2.0, "nu": None, "grid": "0:1:3", "nodes": 10, "eps_min": 1e-7,
             "eps_max": None, "seed": 42, "out_format": "csv", "out_path": None},
        )
        assert cfg.coupling.lam == 2.0 and cfg.coupling.nu == 1.0
        assert len(cfg.grid) == 3
        assert cfg.nodes_per_piece == 10
        assert cfg.ladder.eps_min == 1e-7
        assert cfg.seed == 42 and cfg.out_format == "csv"

    def test_flags_write_document_fields(self, config_file):
        raw = load_config(config_file)
        cfg = build_run_config(raw, {"nu": 0.5, "eps_max": 0.05, "out_path": "x.csv"})
        assert cfg.coupling.lam == 1.0 and cfg.coupling.nu == 0.5
        assert cfg.ladder.eps_max == 0.05 and cfg.out_path == "x.csv"
        assert raw == remark2_config()  # the parsed document is left as it was
        with pytest.raises(ConfigError, match="coupling.lambda"):
            build_run_config(raw, {"lam": float("nan")})
        with pytest.raises(ConfigError, match="oracle.nodes_per_piece"):
            build_run_config(raw, {"nodes": 1})


class TestExitCodes:
    def test_scenario_remark2_success(self, capsys):
        code = main(["scenario", "remark2", "--lambda", "1", "--nu", "1",
                     "--nodes", "200"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["residual"] <= 1e-10
        assert payload["weight_estimate"] == pytest.approx(1 / 3, abs=1e-4)
        assert payload["point_mass_at_zero"] == pytest.approx(1 / 3, abs=1e-4)
        assert payload["exceptional_sets"]["N"] == "DEGENERATE_WHOLE_LINE"

    def test_scenario_remark2_atom_from_the_scan(self, monkeypatch, capsys):
        # the atom at 0 comes from K's null space, never from the ladder: its
        # weight is 1 / (1 + lam^2 + nu^2) within 1e-12 at every coupling
        import specbox.boundary

        def refuse(*args, **kwargs):
            raise AssertionError("scenario remark2 called point_mass")

        monkeypatch.setattr(specbox.boundary, "point_mass", refuse)
        strengths = ["0", "0.1", "1", "10", "1e3"]
        for lam in strengths:
            for nu in strengths:
                code = main(["scenario", "remark2", "--lambda", lam, "--nu", nu,
                             "--nodes", "20"])
                payload = json.loads(capsys.readouterr().out)
                assert code == 0
                want = payload["expected_weight"]
                assert abs(payload["point_mass_at_zero"] - want) <= 1e-12 * want, (lam, nu)

    def test_scenario_remark2_nodes_over_cap_exits_1(self, monkeypatch, capsys):
        import tracemalloc

        import specbox.resolvent

        def refuse(n):
            raise AssertionError("the quadrature rule was built")

        monkeypatch.setattr(specbox.resolvent, "_gauss_legendre", refuse)
        tracemalloc.start()
        try:
            code = main(["scenario", "remark2", "--lambda", "1", "--nu", "1",
                         "--nodes", "100000000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert code == 1
        assert "oracle.nodes_per_piece" in err and "Traceback" not in err
        assert peak < 2**20

    def test_wide_reservoir_piece(self, tmp_path, capsys):
        # the moments of [0, 1e7] overflow from m = 43: the far-field series
        # once gave NaN, so greens exited 3 and chi_l read UNDETERMINED
        doc = json.loads(SAMPLE_PATH.read_text())
        doc["model"]["reservoir_left"] = {"pieces": [{"interval": [0, 1e7], "poly": [1.0]}]}
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc))
        assert main(["greens", "--config", str(path), "--grid", "4e7:5e7:2"]) == 0
        table = json.loads(capsys.readouterr().out)["table"]
        for row in table:
            value = complex(*row["pairs"]["chi_l|chi_l"])
            assert math.isfinite(value.real) and math.isfinite(value.imag)
        assert main(["classify", "--config", str(path), "--grid", "4e7:5e7:2"]) == 0
        points = json.loads(capsys.readouterr().out)["points"]
        for p in points:
            assert p["chi_l"]["status"] == "FINITE_NONZERO"
            # log((b - E)/(a - E)) = log(1 - 1e7 / E) on the real axis
            assert p["chi_l"]["value"][0] == pytest.approx(math.log(1 - 1e7 / p["E"]), rel=1e-9)

    @pytest.mark.parametrize("command", [["validate"], ["greens", "--grid", "1.5:1.5:1"]])
    def test_piece_with_overflowing_recurrence_exits_1(self, tmp_path, capsys, command):
        # b^11 overflows on [3, 1e30]: rejected at load, not a traceback later
        doc = json.loads(SAMPLE_PATH.read_text())
        doc["model"]["reservoir_right"]["pieces"].append(
            {"interval": [3.0, 1e30], "poly": [1.0] + [0.0] * 10 + [1e-300]})
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc))
        code = main([*command, "--config", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "model.reservoir_right" in err and "piece [3.0, 1e+30]" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", [["validate"], ["greens", "--grid", "1.5:1.5:1"]])
    def test_piece_whose_width_overflows_exits_1(self, tmp_path, capsys, command):
        # b - a overflows on [-1.5e308, 1.5e308]: rejected at load, where it
        # once passed validate with a RuntimeWarning on stderr
        doc = json.loads(SAMPLE_PATH.read_text())
        doc["model"]["reservoir_right"] = {
            "pieces": [{"interval": [-1.5e308, 1.5e308], "poly": [1e-300]}]}
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc))
        code = main([*command, "--config", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "model.reservoir_right" in err and "width b - a overflows" in err
        assert "Traceback" not in err and "Warning" not in err

    def test_certify_run(self, config_file, capsys):
        code = main(["certify", "--config", config_file, "--grid", "1.05:1.95:10"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        counts = payload["certificate"]["counts"]
        assert counts["CERTIFIED"] == 10

    def test_malformed_config_exits_1(self, tmp_path, capsys):
        bad = remark2_config()
        bad["model"]["system"]["matrix"] = [
            [[0.0, 0.0], [1.0, 0.0]],
            [[0.5, 0.0], [0.0, 0.0]],
        ]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code = main(["validate", "--config", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "Hermitian" in err

    @pytest.mark.parametrize("extra, flags", [
        ({"oracle": 5}, []),
        ({"output": 1}, []),
        ({"greens": 3}, []),
        ({"tolerances": [1]}, []),
        ({"seed": True}, []),
        ({}, ["--lambda", "nan"]),
        ({}, ["--nu", "inf"]),
        ({}, ["--lambda", "1e200"]),
        ({"greens": {"im_z": 0}}, []),
        ({"average": {"eps": -1}}, []),
        ({}, ["--eps-min", "1e-300", "--eps-max", "1e300"]),
    ])
    def test_malformed_input_exits_1(self, tmp_path, capsys, extra, flags):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(remark2_config(**extra)))
        code = main(["greens", "--config", str(path), *flags])
        err = capsys.readouterr().err
        assert code == 1
        assert "config error at" in err
        assert "Traceback" not in err

    def test_unknown_subcommand_exits_1(self, capsys):
        code = main(["frobnicate"])
        err = capsys.readouterr().err
        assert code == 1
        assert "Usage" in err or "usage" in err

    def test_missing_model_exits_1(self, capsys):
        code = main(["classify", "--grid", "0:1:3"])
        assert code == 1

    def test_unwritable_out_path_exits_1(self, config_file, capsys):
        code = main(["validate", "--config", config_file,
                     "--out", "/nonexistent-dir/report.json"])
        err = capsys.readouterr().err
        assert code == 1
        assert "output.path" in err

    def test_strict_mode_exit_2(self, config_file, capsys):
        # band edges defeat the ladder: strict runs must exit 2
        code = main(["certify", "--config", config_file, "--grid", "1:2:3",
                     "--strict"])
        assert code == 2

    def test_strict_average_counts_failed_duel(self, monkeypatch, capsys):
        # a quadrature off by more than quad_tol is an unresolved row
        import specbox.averaging

        quadrature = specbox.averaging.averaged_poisson_quadrature
        args = ["average", "--config", str(SAMPLE_PATH), "--grid", "1.5:1.5:1"]
        assert main([*args, "--strict"]) == 0
        monkeypatch.setattr(specbox.averaging, "averaged_poisson_quadrature",
                            lambda *a, **k: quadrature(*a, **k) * (1 + 1e-6))
        assert main(args) == 0
        capsys.readouterr()
        assert main([*args, "--strict"]) == 2
        assert "4 unresolved outcome(s)" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_stalled_duel_leaves_its_cells_empty(self, fmt, capsys, monkeypatch):
        # a duel without a value leaves its cells empty, and the rows keep
        # their closed form and ladder status.  At E = 5000 the sample
        # config's peak is below the integrand's rounding (u c / h = 1.1e-9
        # against quad_tol = 1e-9); at E = 1.5 a rule whose error estimate
        # stays at its value stalls
        import specbox.averaging

        for grid, reason, stall in (("5000:5000:1", "peak_below_rounding", False),
                                    ("1.5:1.5:1", "quadrature_stalled", True)):
            if stall:
                monkeypatch.setattr(specbox.averaging, "quad", lambda *a, **k: (1.0, 1.0))
            args = ["average", "--config", str(SAMPLE_PATH), "--grid", grid, "--format", fmt]
            assert main(args) == 0
            out = capsys.readouterr().out
            if fmt == "json":
                table = json.loads(out)["table"]
                assert [r["reason"] for r in table] == [reason] * 4
                rows = [[r["closed"], r["quadrature"], r["rel_diff"], r["ladder_status"]]
                        for r in table]
            else:
                assert out.splitlines()[0] == ",".join(AVERAGE_HEADER)
                rows = [line.split(",")[2:] for line in out.splitlines()[1:]]
            assert len(rows) == 4
            empty = None if fmt == "json" else ""
            for closed, quadrature, rel_diff, status in rows:
                assert float(closed) > 0 and status == "FINITE_NONZERO"
                assert quadrature == rel_diff == empty
            assert main([*args, "--strict"]) == 2
            assert "4 unresolved outcome(s)" in capsys.readouterr().err

    def test_far_duel_is_null_where_the_rule_cannot_see_the_peak(self, tmp_path, capsys):
        # far outside the bands the pole pair of the duel's integrand narrows
        # below the 4x4 integrand's rounding at the peak, and at 1e300 v w
        # underflows: such rows are null, never a value that misses the peak.
        # A row the rule answers agrees within its own acceptance of 100
        # quad_tol (``_peak_quadrature`` raises beyond it)
        doc = copy.deepcopy(SAMPLE)
        doc["grid"] = {"list": [*np.logspace(3.0, 8.0, 11).tolist(), 1e300]}
        path = tmp_path / "far.json"
        path.write_text(json.dumps(doc))
        assert main(["average", "--config", str(path)]) == 0
        table = json.loads(capsys.readouterr().out)["table"]
        tol = build_run_config(doc).tolerances.quad_tol
        assert len(table) == 48
        for row in table:
            assert (row["quadrature"] is None) == (row["rel_diff"] is None), row
            assert (row["reason"] is None) == (row["rel_diff"] is not None), row
            assert row["rel_diff"] is None or row["rel_diff"] <= 100 * tol, row
        assert all(row["reason"] == "peak_below_rounding" for row in table if row["E"] >= 1e5)

    def test_duel_rows_from_100_to_10000_are_within_quad_tol_or_say_why(self, tmp_path,
                                                                          capsys):
        # where the peak is narrow but above the integrand's rounding, the
        # half-line map resolves it: every answered row is within quad_tol
        doc = copy.deepcopy(SAMPLE)
        doc["grid"] = {"list": np.logspace(2.0, 4.0, 49).tolist()}
        path = tmp_path / "mid.json"
        path.write_text(json.dumps(doc))
        assert main(["average", "--config", str(path)]) == 0
        table = json.loads(capsys.readouterr().out)["table"]
        tol = build_run_config(doc).tolerances.quad_tol
        assert len(table) == 4 * 49
        for row in table:
            if row["rel_diff"] is None:
                assert row["reason"] in ("peak_below_rounding", "quadrature_stalled"), row
            else:
                assert row["reason"] is None and row["rel_diff"] <= tol, row
        # u c / h passes quad_tol near E = 4,500 on the sample config
        assert all(row["rel_diff"] is not None for row in table if row["E"] < 4000)

    def test_underflowing_pole_product_warns_nothing(self, capsys):
        # at E = 1e300 the product v w underflows to 0 while v and w do not
        code = main(["average", "--config", str(SAMPLE_PATH), "--grid", "1e300:1e300:1"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        assert len(json.loads(captured.out)["table"]) == 4

    def test_average_vanishing_partner_exits_3(self, tmp_path, capsys):
        # with |delta_l| = 1e-10, G(delta_l, delta_l) underflows to 0 at
        # E = 1e306: the closed column's call over the grid raises for chi_l
        doc = copy.deepcopy(SAMPLE)
        doc["model"]["system"]["delta_l"] = [[1e-10, 0.0], [0.0, 0.0]]
        doc["grid"] = {"list": [1.5, 1e306]}
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(doc))
        assert main(["average", "--config", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            "internal numerical error: partner Green's function vanished exactly; "
            "input singular")

    @pytest.mark.parametrize("lam", ["1e60", "1e100"])
    def test_atom_scan_at_a_huge_coupling_exits_3(self, capsys, lam):
        # the scan meets a crossing where G = I + lam^2 l_c' a a* has rank
        # one in double precision: one line on stderr, no traceback
        code = main(["density", "--config", str(SAMPLE_PATH), "--grid", "0:0:1",
                     "--lambda", lam])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("internal numerical error: atom scan: singular Gram matrix at E = ")
        assert line.endswith(f"lambda = {float(lam)!r}, nu = 1.0")

    def test_certify_scope_honours_tolerances(self, tmp_path, capsys):
        # im_tol = 0.5 puts Im chi(1.5 + i0) outside (im_tol, 1/im_tol)
        doc = copy.deepcopy(SAMPLE)
        doc["tolerances"] = {"im_tol": 0.5}
        path = tmp_path / "tol.json"
        path.write_text(json.dumps(doc))
        args = ["--config", str(path), "--grid", "1.5:1.5:1"]
        assert main(["classify", *args]) == 0
        (point,) = json.loads(capsys.readouterr().out)["points"]
        assert point["in_Ml"] is False and point["in_Mr"] is False
        assert main(["certify", *args]) == 0
        (point,) = json.loads(capsys.readouterr().out)["certificate"]["points"]
        assert point["verdict"] == "OUT_OF_SCOPE" and point["in_scope"] is False

    def test_average_scan_honours_tolerances(self, tmp_path, capsys):
        # the remark2 atom at 0 diverges past the default div_tol but not 1e300
        path = tmp_path / "tol.json"
        path.write_text(json.dumps(remark2_config(tolerances={"div_tol": 1e300})))
        code = main(["average", "--config", str(path), "--grid", "0:0:1"])
        assert code == 0
        points = json.loads(capsys.readouterr().out)["abs_continuity"]["points"]
        statuses = {p["phi"]: p["status"] for p in points}
        assert statuses["delta_l"] != "DIVERGENT" and statuses["delta_r"] != "DIVERGENT"

    def test_average_right_rows_fix_lambda(self, capsys):
        # at E = 0.5 the lambda = 0.7 family's right ladders fall to zero,
        # while the lambda = nu = 1 family's stay finite and nonzero
        assert main(["average", "--config", str(SAMPLE_PATH), "--grid", "-3:3:61"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["abs_continuity"]["lam"] == 0.7
        status = {row["phi"]: row["ladder_status"] for row in payload["table"]
                  if row["E"] == 0.5}
        assert status["chi_r"] == "ZERO" and status["delta_r"] == "ZERO"
        assert status["chi_l"] == "FINITE_NONZERO" and status["delta_l"] == "FINITE_NONZERO"

    def test_density_reports_the_atom_below_the_band(self, capsys):
        # 2.6e-3 below the band edge at -2, with weights 5.3e-3 and 4.8e-5
        assert main(["density", "--config", str(SAMPLE_PATH)]) == 0
        atoms = json.loads(capsys.readouterr().out)["atom_scan"]
        near = [a["phi"] for a in atoms if abs(a["E"] - (-2.002644088744403)) <= 1e-12]
        assert near == ["delta_l", "delta_r"]

    def test_density_does_not_discretize(self, monkeypatch, capsys):
        import specbox.resolvent

        def refuse(self, *args, **kwargs):
            raise AssertionError("density built the discretized operator")

        monkeypatch.setattr(specbox.resolvent.DiscretizedModel, "__init__", refuse)
        assert main(["density", "--config", str(SAMPLE_PATH)]) == 0

    def test_validate_json(self, config_file, capsys):
        code = main(["validate", "--config", config_file])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["diagnostics"]["ok"] is True
        assert payload["exceptional_sets"]["sigma_hs"] == [0.0]


def _model_doc(model) -> dict:
    """The config document's model section for a built model."""
    def vector(v):
        return [[float(x.real), float(x.imag)] for x in v]

    def measure(m):
        return {"atoms": [list(atom) for atom in m.atoms],
                "pieces": [{"interval": [p.a, p.b], "poly": list(p.coef)} for p in m.pieces]}

    system = model.system
    return {
        "system": {"matrix": [vector(row) for row in system.h_s],
                   "delta_l": vector(system.delta_l), "delta_r": vector(system.delta_r)},
        "reservoir_left": measure(model.res_l),
        "reservoir_right": measure(model.res_r),
    }


def _random_density_doc(seed: int) -> dict:
    """A random model whose grid holds 21 points of [-5, 5] and every atom
    the secular scan finds, so that some ladders diverge."""
    model = random_model(np.random.default_rng([20261018, seed]), max_dim=4, max_pieces=2)
    coupling = (0.7, 1.3)
    atoms = [E for E, *_ in point_mass_scan(model, coupling)]
    return {"model": _model_doc(model), "coupling": {"lambda": 0.7, "nu": 1.3},
            "grid": {"list": list(np.linspace(-5.0, 5.0, 21)) + atoms}}


def _per_tag_density_rows(cfg) -> list[list]:
    """density's grid rows the way one ladder per (energy, tag) gives them:
    ``green`` keeps one diagonal entry of each ladder's solve, and a
    divergent ladder asks ``point_mass`` for the weight."""
    rows = []
    for E in cfg.grid:
        for phi in TAGS:
            rec = boundary_value(
                lambda z: green(cfg.model, cfg.coupling, phi, phi, z),
                float(E), cfg.ladder, tol=cfg.tolerances,
            )
            ac = pm = None
            try:
                try:
                    ac = density_from_record(rec)
                except PointMassPresentError:
                    pm = point_mass(cfg.model, cfg.coupling, phi, float(E), cfg.ladder)
            except UndeterminedLimitError:
                pass
            rows.append([float(E), phi, rec.status, ac, pm])
    return rows


def _density_rows(args, capsys):
    code = main(["density", *args])
    points = json.loads(capsys.readouterr().out)["points"]
    return code, [[p[key] for key in DENSITY_HEADER] for p in points]


class TestDensity:
    @pytest.mark.parametrize("case", ["sample", "remark2", "random0", "random1", "random2",
                                      "remark2-blocks"])
    def test_matches_per_tag_ladders(self, tmp_path, monkeypatch, capsys, case):
        # the shared 16-pair solve runs the same arithmetic on the same ladder
        # points, so every row, status and number, is the per-tag row exactly;
        # with 2 energies a block the 9-point grid ends in a short block
        import specbox.boundary

        if case == "remark2-blocks":
            monkeypatch.setattr(specbox.boundary, "LATTICE_POINTS",
                                2 * EpsilonLadder().epsilons().size)
        path, grid = SAMPLE_PATH, "-3:3:61"
        if case != "sample":
            doc = _random_density_doc(int(case[-1])) if case.startswith("random") \
                else remark2_config()
            grid = "-1:1:9" if case.startswith("remark2") else None
            path = tmp_path / "run.json"
            path.write_text(json.dumps(doc))
        args = ["--config", str(path)] + (["--grid", grid] if grid else [])
        code, rows = _density_rows(args, capsys)
        assert code == 0
        cfg = build_run_config(load_config(str(path)), {"grid": grid})
        assert rows == _per_tag_density_rows(cfg)
        statuses = {row[2] for row in rows}
        assert ("UNDETERMINED" if case == "sample" else "DIVERGENT") in statuses
        if case.startswith("remark2"):
            assert [row[4] for row in rows if row[0] == 0.0 and row[1].startswith("delta")] \
                == [pytest.approx(1 / 3, abs=1e-6)] * 2

    def test_one_solve_per_block(self, tmp_path, monkeypatch, capsys):
        import specbox.boundary

        green_all = specbox.boundary.green_all
        solves = []

        def counted(model, coupling, z):
            solves.append(z)
            return green_all(model, coupling, z)

        def refuse(*args, **kwargs):
            raise AssertionError("density called point_mass")

        monkeypatch.setattr(specbox.boundary, "green_all", counted)
        monkeypatch.setattr(specbox.boundary, "point_mass", refuse)
        path = tmp_path / "run.json"
        path.write_text(json.dumps(remark2_config()))
        # a block holds at most LATTICE_POINTS points, so a deeper ladder
        # (97 rungs for --eps-min 1e-30) puts fewer energies in each block
        rungs = EpsilonLadder().epsilons().size
        for points, deeper, blocks in ((specbox.boundary.LATTICE_POINTS, [], 1),
                                       (4 * rungs, [], 3), (1, [], 9),
                                       (4 * rungs, ["--eps-min", "1e-30"], 9)):
            monkeypatch.setattr(specbox.boundary, "LATTICE_POINTS", points)
            solves.clear()
            code, rows = _density_rows(["--config", str(path), "--grid", "-1:1:9", *deeper],
                                       capsys)
            assert code == 0
            assert "DIVERGENT" in {row[2] for row in rows}
            assert len(solves) == blocks

    def _fail_solve_at(self, monkeypatch, energy, error):
        import specbox.boundary

        green_all = specbox.boundary.green_all

        def failing(model, coupling, z):
            if energy in np.real(z):
                raise error
            return green_all(model, coupling, z)

        monkeypatch.setattr(specbox.boundary, "green_all", failing)

    def test_failed_solve_leaves_its_energy_undetermined(self, config_file, monkeypatch,
                                                         capsys):
        import specbox.boundary

        args = ["--config", config_file, "--grid", "1.05:1.95:5"]
        _, clean = _density_rows(args, capsys)
        assert main(["density", *args, "--strict"]) == 0
        capsys.readouterr()
        self._fail_solve_at(monkeypatch, 1.5, NearSingularError("D(z) underflowed"))
        # with 2 energies a block, the failing energy sits in the second block
        for points in (specbox.boundary.LATTICE_POINTS, 2 * EpsilonLadder().epsilons().size):
            monkeypatch.setattr(specbox.boundary, "LATTICE_POINTS", points)
            code, rows = _density_rows(args, capsys)
            assert code == 0
            assert [row for row in rows if row[0] != 1.5] \
                == [row for row in clean if row[0] != 1.5]
            assert [row for row in rows if row[0] == 1.5] \
                == [[1.5, phi, "UNDETERMINED", None, None] for phi in TAGS]
            assert main(["density", *args, "--strict"]) == 2
            capsys.readouterr()

    def test_unexpected_solve_error_exits_3(self, config_file, monkeypatch, capsys):
        self._fail_solve_at(monkeypatch, 1.5, RuntimeError("not a numerical failure"))
        code = main(["density", "--config", config_file, "--grid", "1.05:1.95:5"])
        assert code == 3
        assert "RuntimeError" in capsys.readouterr().err


class TestEmission:
    def test_csv_headers_golden(self):
        assert GREENS_HEADER == ["z_re", "z_im", "phi", "psi", "g_re", "g_im"]
        assert CLASSIFY_HEADER[:7] == [
            "E", "in_M0", "in_Ml", "in_Mr", "in_sigma_hs", "in_S", "in_N",
        ]
        assert DENSITY_HEADER == ["E", "phi", "status", "ac_density", "point_mass"]
        assert AVERAGE_HEADER == ["E", "phi", "closed", "quadrature", "rel_diff",
                                  "ladder_status"]
        assert CERTIFY_HEADER == ["E", "verdict", "in_scope", "abs_D",
                                  "aux1_lhs", "aux1_rhs", "aux2_lhs", "aux2_rhs"]

    def test_greens_csv_shape(self, config_file, tmp_path, capsys):
        out_path = tmp_path / "g.csv"
        code = main(["greens", "--config", config_file, "--grid", "0:1:2",
                     "--format", "csv", "--out", str(out_path)])
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == ",".join(GREENS_HEADER)
        assert len(lines) == 1 + 2 * 16

    def test_greens_json_payload(self, config_file, capsys):
        code = main(["greens", "--config", config_file, "--grid", "0.5:0.5:1"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        (entry,) = payload["table"]
        assert entry["z"] == [0.5, 0.01]
        assert len(entry["pairs"]) == 16
        assert "delta_l|chi_r" in entry["pairs"]

    def test_deterministic_output(self, config_file, tmp_path):
        paths = []
        for name in ("a.json", "b.json"):
            p = tmp_path / name
            code = main(["classify", "--config", config_file,
                         "--grid", "1.2:1.8:4", "--out", str(p)])
            assert code == 0
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]

    def test_json_reports_reparse(self, config_file, capsys):
        code = main(["average", "--config", config_file, "--grid", "1.4:1.6:2"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["abs_continuity"]["verdict"] == "VACUOUS"
        for row in payload["table"]:
            assert row["rel_diff"] <= 1e-6

    def test_float_formatting_roundtrip(self):
        from specbox.emit import fmt_cell

        for x in (np.pi, 1 / 3, 1e-17, -2.5e8):
            assert float(fmt_cell(float(x))) == float(x)
        assert fmt_cell(None) == ""
        assert fmt_cell(True) == "true"


SAMPLE_PATH = Path(__file__).resolve().parents[1] / "sample-config.json"
SAMPLE = json.loads(SAMPLE_PATH.read_text())


def _node_paths(node, path=()):
    """Every path into a JSON document, the root excluded."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield path + (key,)
        yield from _node_paths(child, path + (key,))


_NODES = list(_node_paths(SAMPLE))
_BAD_VALUES = [
    "x", "", ".", None, True, 0, -1, 1.5, 1e-300, 10**30, float("nan"), float("inf"),
    [], {}, [1, "x"], [[1, 2], [3]], [[[1, 2]], [[0.5, 0], [-1, 0]]], {"a": 1},
]
_FLAGS = ["--lambda", "--nu", "--eps-min", "--eps-max", "--nodes", "--seed", "--grid"]
_BAD_FLAG_VALUES = [
    "nan", "inf", "-inf", "1e400", "1e-300", "-1", "0", "x", "",
    "0:1:nan", "nan:1:3", "0:1:-1", f"0:1:{10**31}", "-1e308:1e308:3",
]


def _run_main(args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    return code, err.getvalue()


def _mutated(path, value):
    doc = copy.deepcopy(SAMPLE)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


_FUZZ = settings(derandomize=True, deadline=None, database=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestConfigFuzz:
    """One malformed node of the sample config, or one malformed flag: every
    run ends with a documented exit code (0, 1 or 2), never a traceback."""

    @settings(_FUZZ, max_examples=300)
    @given(command=st.sampled_from(["validate", "certify", "greens"]),
           path=st.sampled_from(_NODES), value=st.sampled_from(_BAD_VALUES))
    @example(command="validate", path=("model", "reservoir_left", "pieces", 0, "poly"), value=5)
    @example(command="validate", path=("model", "reservoir_right", "pieces", 1, "poly"),
             value=None)
    @example(command="validate", path=("grid",), value={"list": 5})
    @example(command="validate", path=("model", "system", "matrix"),
             value=[[[1, 2]], [[0.5, 0], [-1, 0]]])
    @example(command="certify", path=("grid", "points"), value=10**30)
    @example(command="certify", path=("ladder", "ratio"), value=1e-300)
    @example(command="greens", path=("greens", "im_z"), value=0)
    @example(command="average", path=("average", "eps"), value=-1)
    def test_mutated_config(self, tmp_path, monkeypatch, command, path, value):
        monkeypatch.chdir(tmp_path)  # a mutated output.path writes here
        config = tmp_path / "fuzz.json"
        config.write_text(json.dumps(_mutated(path, value)))
        code, err = _run_main([command, "--config", str(config)])
        assert code in (0, 1, 2), err
        assert "Traceback" not in err

    @settings(_FUZZ, max_examples=100)
    @given(command=st.sampled_from(["validate", "certify", "greens"]),
           flag=st.sampled_from(_FLAGS), value=st.sampled_from(_BAD_FLAG_VALUES))
    @example(command="certify", flag="--grid", value=f"0:1:{10**31}")
    @example(command="certify", flag="--grid", value="-1e308:1e308:3")
    def test_malformed_flag(self, command, flag, value):
        code, err = _run_main([command, "--config", str(SAMPLE_PATH), flag, value])
        assert code in (0, 1, 2), err
        assert "Traceback" not in err
