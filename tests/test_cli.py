import csv
import importlib
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

from fso_geoloss import cli
from fso_geoloss import montecarlo as mc
from fso_geoloss import stochastic
from fso_geoloss.cli import (
    EXIT_CONFIG_ERROR,
    EXIT_OK,
    EXIT_VALIDATION_FAILURE,
    ConfigError,
    ExperimentConfig,
    cmd_average_loss,
    cmd_bounds,
    cmd_pdf,
    config_lines,
    load_config,
    main,
    parse_config_text,
    parse_effective_config,
    render_table,
)
from fso_geoloss.geometry import Pose, spherical_mean_position, tracking_orientation
from fso_geoloss.geoloss import bounds_batch, exact_loss, loss_db
from fso_geoloss.validate import run_validation


class TestConfigParsing:
    def test_defaults(self):
        cfg = load_config(None)
        assert cfg.radius_m == 1000.0
        assert cfg.wavelength_m == 1550e-9
        assert cfg.cn2 == 1e-14
        assert cfg.detector_radius_m == 0.1
        assert cfg.w0_m == 1e-3

    def test_parse_and_override(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text("geometry.R_m = 800\nmc.seed = 42\n# comment\n\n")
        cfg = load_config(str(p), seed=7)
        assert cfg.radius_m == 800.0
        assert cfg.seed == 7  # flag override wins

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("geometry.bogus = 1")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("mc.seed = 1\nmc.seed = 2")

    def test_line_number_in_error(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config_text("mc.seed = 1\n\ngeometry.R_m = abc")

    def test_degree_suffix(self):
        values = parse_config_text("geometry.alpha_deg = 45")
        assert values["alpha_rad"] == pytest.approx(math.pi / 4)

    def test_malformed_degree_value_is_a_field_error(self):
        with pytest.raises(ConfigError, match="line 2: field geometry.alpha_deg"):
            parse_config_text("mc.seed = 1\ngeometry.alpha_deg = abc")

    def test_degree_conflicts_with_radian(self):
        with pytest.raises(ConfigError, match="conflicts"):
            parse_config_text("geometry.alpha_rad = 0.1\ngeometry.alpha_deg = 45")

    @pytest.mark.parametrize("text, message", [
        ("geometry.alpha_deg = 1\ngeometry.alpha_deg = 2",
         "line 2: duplicate key 'geometry.alpha_deg' (first set on line 1)"),
        ("geometry.alpha_deg = 1\n\ngeometry.alpha_rad = 2",
         "line 3: 'geometry.alpha_rad' conflicts with 'geometry.alpha_deg' (first set on line 1)"),
        ("stability.sigma_o_rad = 0\nstability.sigma_o_deg = 1",
         "line 2: 'stability.sigma_o_deg' conflicts with 'stability.sigma_o_rad' "
         "(first set on line 1)"),
    ], ids=["degree-key-twice", "degree-then-radian", "radian-then-degree"])
    def test_field_set_twice_names_both_keys_as_written(self, text, message):
        with pytest.raises(ConfigError) as err:
            parse_config_text(text)
        assert str(err.value) == message

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            load_config(None, output_format="xml")
        with pytest.raises(ConfigError):
            load_config(None, sweep_values=(3.0, 1.0))
        with pytest.raises(ConfigError):
            load_config(None, rel_tol=2.0)

    def test_round_trip(self):
        cfg = load_config(None, sweep_values=(0.0, 0.1, 0.2), seed=99,
                          bounds_offsets_m=((0.0, 0.0), (0.05, -0.02)))
        reparsed = ExperimentConfig(**parse_config_text("\n".join(config_lines(cfg))))
        assert reparsed == cfg

    def test_readme_example_config_is_valid(self):
        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        cfg = ExperimentConfig(**parse_config_text(block))
        cli._validate_config(cfg)
        assert cfg.sweep_values == (0.2, 0.5, 1.0)
        assert cfg.bounds_offsets_m == ((0.0, 0.0), (0.05, 0.0))

    def test_effective_config_round_trip_from_csv(self):
        cfg = load_config(None, sweep_values=(0.0, 0.3), n_trials=10)
        text = render_table(cfg, "bounds", ("a", "b"), [[1.0, 2.0]])
        assert parse_effective_config(text) == cfg

    @pytest.mark.parametrize("key", ["sweep.values", "sweep.distances_m"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_list_entry_is_a_field_error(self, key, value):
        with pytest.raises(ConfigError) as err:
            parse_config_text(f"mc.seed = 1\n{key} = 0.5, {value}")
        assert str(err.value) == (
            f"line 2: field {key}: expected finite numbers, got '0.5, {value}'")


class TestConfigEcho:
    """Every table echoes and hashes the config, so its keys, their order
    and their formats are an output contract."""

    def test_default_config_sha256(self):
        assert cli.config_sha256(load_config(None)) == (
            "2124f813303442365c18dfc0c3fd9ce763253e27e64e2e77188c0e8c0e47d9f9")

    def test_config_lines_of_a_non_default_config(self):
        cfg = load_config(
            None, radius_m=800.0, alpha_rad=0.25, beta_rad=1.0, w0_m=2e-3,
            wavelength_m=1.31e-6, cn2=5e-15, detector_radius_m=0.05, sigma_p_m=0.01,
            sigma_o_rad=1e-4, sweep_variable="sigma", sweep_values=(0.5, 1.0, 2.5),
            sweep_sigma_unit="cm", sweep_distances_m=(300.0, 600.0),
            bounds_offsets_m=((0.0, 0.0), (0.05, -0.02)), pdf_n_bins=30, n_trials=5000,
            seed=42, rel_tol=1e-6, output_path="-", output_format="json")
        assert config_lines(cfg) == [
            "geometry.R_m = 800.0",
            "geometry.alpha_rad = 0.25",
            "geometry.beta_rad = 1.0",
            "beam.w0_m = 0.002",
            "beam.wavelength_m = 1.31e-06",
            "beam.cn2 = 5e-15",
            "detector.radius_m = 0.05",
            "stability.sigma_p_m = 0.01",
            "stability.sigma_o_rad = 0.0001",
            "sweep.variable = sigma",
            "sweep.values = 0.5,1.0,2.5",
            "sweep.sigma_unit = cm",
            "sweep.distances_m = 300.0,600.0",
            "bounds.offsets_m = 0.0:0.0;0.05:-0.02",
            "pdf.n_bins = 30",
            "mc.n_trials = 5000",
            "mc.seed = 42",
            "quadrature.rel_tol = 1e-06",
            "output.path = -",
            "output.format = json",
        ]

    def test_degree_keys_are_the_radian_keys(self):
        keys = [line.split(" = ")[0] for line in config_lines(load_config(None))]
        # each key with its last '_'-suffix, if any, replaced by '_deg'
        candidates = {k.rsplit("_", 1)[0] + "_deg" for k in keys if "_" in k.split(".")[1]}
        accepted = set()
        for key in candidates:
            try:
                parse_config_text(f"{key} = 1")
            except ConfigError as e:
                assert str(e) == f"line 1: unknown key {key!r}"
            else:
                accepted.add(key)
        assert "geometry.R_deg" in candidates - accepted
        assert accepted == {"geometry.alpha_deg", "geometry.beta_deg", "stability.sigma_o_deg"}


class TestRenderTable:
    def test_csv_layout(self):
        cfg = load_config(None)
        text = render_table(cfg, "bounds", ("x", "y_db"), [[0.5, math.inf]])
        lines = text.splitlines()
        assert lines[0].startswith("# tool: fso-geoloss")
        header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[header_idx] == "x,y_db"
        assert lines[header_idx + 1] == "0.5,inf"

    @pytest.mark.parametrize("command, overrides", [
        ("bounds", dict(bounds_offsets_m=((0.0, 0.0), (0.05, 0.0)))),
        ("average-loss", dict(sweep_variable="sigma", sweep_values=(0.5,), n_trials=64)),
        ("pdf", dict(sigma_o_rad=1e-4, n_trials=2000, seed=7)),
        ("validate", {}),
    ], ids=["bounds", "average-loss", "pdf", "validate"])
    def test_csv_rows_parse_to_their_cells(self, command, overrides):
        # validate's details hold ", ", so a cell must be quoted to stay one cell
        cfg = load_config(None, **overrides)
        columns, rows, meta = cli._COMMANDS[command](cfg)
        text = render_table(cfg, command, columns, rows, meta)
        parsed = list(csv.reader(l for l in text.splitlines() if not l.startswith("#")))
        assert parsed[0] == list(columns)
        assert all(len(row) == len(columns) for row in parsed)
        assert parsed[1:] == [[cli._fmt_cell(v) for v in row] for row in rows]
        if command == "validate":
            assert any(", " in row[2] for row in parsed[1:])

    def test_json_layout(self):
        cfg = load_config(None, output_format="json")
        doc = json.loads(render_table(cfg, "pdf", ("x",), [[1.25], [math.inf]]))
        assert doc["columns"] == ["x"]
        assert doc["rows"] == [[1.25], ["inf"]]
        assert doc["meta"]["config"]["mc.seed"] == "1234"


@pytest.fixture(scope="module")
def table():
    cfg = load_config(None, sweep_values=(0.0, math.pi / 8, math.pi / 4),
                      bounds_offsets_m=((0.0, 0.0),))
    return cmd_bounds(cfg)


class TestCmdBounds:
    def test_columns_and_row_count(self, table):
        columns, rows, _meta = table
        assert columns == cli.BOUNDS_COLUMNS
        assert len(rows) == 3

    def test_orthogonal_row_all_columns_agree(self, table):
        _columns, rows, _ = table
        db = rows[0][3:]
        exact = db[0]
        assert db[1] == pytest.approx(exact, abs=1e-6)  # bound low
        assert db[2] == pytest.approx(exact, abs=1e-6)  # bound upp
        for v in db[3:]:
            assert v == pytest.approx(exact, abs=0.05)  # approximations

    def test_db_ordering_inverts_bounds(self, table):
        _columns, rows, _ = table
        for row in rows:
            exact_db, low_db, upp_db = row[3], row[4], row[5]
            assert low_db >= exact_db - 1e-9
            assert exact_db >= upp_db - 1e-9

    def test_loss_increase_below_1p5_db(self, table):
        _columns, rows, _ = table
        assert rows[-1][3] - rows[0][3] <= 1.5

    def test_db_cells_are_loss_db_of_the_batch_columns_bitwise(self):
        alphas, offsets = (0.1, 0.4, 0.7), ((0.0, 0.0), (0.05, -0.02), (-0.1, 0.15))
        cfg = load_config(None, sweep_values=alphas, bounds_offsets_m=offsets,
                          beta_rad=5 * math.pi / 8)
        _columns, rows, _meta = cmd_bounds(cfg)
        grid = [(alpha, fy, fz) for alpha in alphas for fy, fz in offsets]  # alpha-major
        assert [tuple(r[:3]) for r in rows] == grid
        poses = []
        for alpha, fy, fz in grid:
            mu = spherical_mean_position(cfg.radius_m, alpha, cfg.beta_rad)
            o = tracking_orientation(mu)
            poses.append((mu.rx, mu.ry + fy, mu.rz + fz, o.theta, o.phi))
        cols = bounds_batch(*np.array(poses).T, cfg.beam(), cfg.detector(), cfg.rel_tol)
        assert [r[3:] for r in rows] == np.column_stack([loss_db(c) for c in cols]).tolist()
        assert all(type(v) is float for r in rows for v in r)

    def test_requires_alpha_sweep(self):
        cfg = load_config(None, sweep_variable="sigma")
        with pytest.raises(ConfigError):
            cmd_bounds(cfg)


class TestCmdAverageLoss:
    def test_sigma_zero_matches_deterministic(self):
        cfg = load_config(None, sweep_variable="sigma", sweep_values=(0.0,),
                          n_trials=16)
        columns, rows, _ = cmd_average_loss(cfg)
        assert columns == cli.AVERAGE_COLUMNS
        bounds_cfg = load_config(None, sweep_values=(0.0,))
        _c, brows, _m = cmd_bounds(bounds_cfg)
        assert rows[0][3] == pytest.approx(brows[0][3], rel=1e-9)

    def test_multiple_distances(self):
        cfg = load_config(None, sweep_variable="sigma", sweep_values=(0.5,),
                          sweep_distances_m=(800.0, 1000.0), n_trials=200,
                          alpha_rad=math.pi / 8, beta_rad=5 * math.pi / 8)
        _c, rows, _m = cmd_average_loss(cfg)
        assert [r[2] for r in rows] == [800.0, 1000.0]
        assert rows[0][3] < rows[1][3]  # longer link loses more

    def test_all_zero_sigma_runs(self, tmp_path):
        # sigma_p = 0 cm and no orientation jitter: every trial is the mean pose
        cfg, out = tmp_path / "still.cfg", tmp_path / "still.json"
        cfg.write_text("sweep.variable = sigma\nsweep.values = 0\nsweep.sigma_unit = cm\n"
                       "mc.n_trials = 64\noutput.format = json\n")
        assert main(["average-loss", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        row = dict(zip(cli.AVERAGE_COLUMNS, json.loads(out.read_text())["rows"][0]))
        c = load_config(str(cfg))
        d = c.distribution()
        ref = exact_loss(Pose(d.mu_r, d.mu_omega), c.beam(), c.detector())
        assert row["mean_linear_exact"] == pytest.approx(ref, rel=1e-12)
        assert row["std_linear_exact"] <= 1e-16

    def test_requires_sigma_sweep(self):
        with pytest.raises(ConfigError):
            cmd_average_loss(load_config(None))

    # 2 mrad off the pole: the mean orientation tracks to within 1e-9 m, and
    # a phi jittered past the pole is folded, not counted degenerate
    @pytest.mark.filterwarnings("ignore:far-field")
    def test_near_pole_geometry_runs(self, tmp_path):
        cfg, out = tmp_path / "pole.cfg", tmp_path / "pole.json"
        cfg.write_text("geometry.alpha_rad = 0.3\ngeometry.beta_rad = 0.002\n"
                       "sweep.variable = sigma\nsweep.values = 1.0\nsweep.sigma_unit = mrad\n"
                       "mc.n_trials = 2048\nmc.seed = 7\noutput.format = json\n")
        assert main(["average-loss", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        row = dict(zip(cli.AVERAGE_COLUMNS, json.loads(out.read_text())["rows"][0]))
        assert row["degenerate_trials"] == 0
        assert math.isfinite(row["mean_db_exact"])


def pooled_cells(hist, expected):
    """(observed, expected) of the GOF's cells: the open tails pooled inward
    while they expect fewer than `MIN_EXPECTED` counts, then, while a cell
    does, the thinnest (the first, on a tie) into its smaller neighbour, the
    left one on a tie."""
    cells = [[o, e] for o, e in zip([hist.underflow, *hist.counts, hist.overflow], expected)]
    for end, into in ((0, 1), (-1, -2)):
        while len(cells) > 1 and cells[end][1] < mc.MIN_EXPECTED:
            cells[into] = [x + y for x, y in zip(cells[into], cells[end])]
            del cells[end]
    while len(cells) > 1:
        i = min(range(len(cells)), key=lambda k: cells[k][1])
        if cells[i][1] >= mc.MIN_EXPECTED:
            break
        j = i - 1 if cells[i - 1][1] <= cells[i + 1][1] else i + 1
        cells[j] = [x + y for x, y in zip(cells[j], cells[i])]
        del cells[i]
    return cells


class TestCmdPdf:
    def test_requires_randomness(self):
        with pytest.raises(ConfigError):
            cmd_pdf(load_config(None))

    def test_inconclusive_gof_exit_code(self, tmp_path, capsys):
        cfgfile = tmp_path / "pdf.cfg"
        cfgfile.write_text("stability.sigma_o_rad = 0.0002\nmc.n_trials = 6\n")
        rc = main(["pdf", "--config", str(cfgfile)])
        assert rc == cli.EXIT_NUMERICAL_FAILURE
        assert "raise n_trials" in capsys.readouterr().err

    @pytest.mark.parametrize("n_bins", [100_000_000, 5000])
    def test_more_bins_than_trials_is_a_config_error(self, tmp_path, monkeypatch, capsys,
                                                     n_bins):
        # reported before any trial runs: 1e8 bins once made the GOF's CDF
        # allocate 47.6 GiB after every trial had run, and 5000 bins for
        # 2000 trials ran them all only to end inconclusive
        def computed(*_args, **_kwargs):
            pytest.fail("a trial was run")
        monkeypatch.setattr(mc, "run_trials", computed)
        cfgfile = tmp_path / "pdf.cfg"
        cfgfile.write_text(f"stability.sigma_o_rad = 0.0001\nmc.n_trials = 2000\n"
                           f"pdf.n_bins = {n_bins}\n")
        assert main(["pdf", "--config", str(cfgfile)]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == (
            f"config error: pdf.n_bins = {n_bins} exceeds mc.n_trials = 2000\n")

    @pytest.mark.parametrize("text", ["geometry.beta_rad = 1e-10",
                                      "geometry.alpha_rad = 1.5707963267"],
                             ids=["beta-pole", "alpha-pole"])
    def test_tracking_pole_is_a_config_error(self, tmp_path, monkeypatch, capsys, text):
        # the density's tracking constants are undefined at the mean pose;
        # reported before any trial runs, where all 100000 default trials once ran
        def computed(*_args, **_kwargs):
            pytest.fail("a trial was run")
        monkeypatch.setattr(mc, "run_trials", computed)
        cfgfile, out = tmp_path / "pdf.cfg", tmp_path / "pdf.csv"
        cfgfile.write_text(f"{text}\nstability.sigma_o_rad = 0.0001\n")
        assert main(["pdf", "--config", str(cfgfile), "--out", str(out)]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err.startswith(
            "config error: tracking constants undefined at")
        assert not out.exists()

    @pytest.mark.parametrize("n_bins", [100, 400, 2000])
    def test_thin_interior_cells_are_pooled(self, tmp_path, n_bins):
        # each once ended inconclusive (exit 3) on interior cells expecting
        # 0.63, 0.14 and 0.03 counts, after every trial had run
        cfgfile, out = tmp_path / "pdf.cfg", tmp_path / "pdf.json"
        cfgfile.write_text(f"stability.sigma_o_rad = 0.0001\nmc.n_trials = 2000\nmc.seed = 0\n"
                           f"pdf.n_bins = {n_bins}\noutput.format = json\n")
        assert main(["pdf", "--config", str(cfgfile), "--out", str(out)]) == EXIT_OK
        meta = json.loads(out.read_text())["meta"]
        cfg = load_config(str(cfgfile))
        (plan,) = cli._plans(cfg, cfg.distribution(), ("exact",))
        hist = mc.build_histogram(mc.run_trials(plan)[0], n_bins)
        pdf = stochastic.geoloss_pdf(plan.distribution, plan.beam, plan.detector)
        cells = pooled_cells(hist, mc._bin_probabilities(hist, pdf) * cfg.n_trials)
        assert len(cells) > 2 and min(e for _o, e in cells) >= mc.MIN_EXPECTED
        assert meta["gof_dof"] == len(cells) - 1
        assert meta["gof_statistic"] == pytest.approx(
            sum((o - e) ** 2 / e for o, e in cells), rel=1e-12)

    def test_histogram_and_overlay(self):
        cfg = load_config(None, sigma_o_rad=2e-4, n_trials=4000, seed=5)
        columns, rows, meta = cmd_pdf(cfg)
        assert columns == cli.PDF_COLUMNS
        counts = [r[2] for r in rows]
        assert sum(counts) + meta["underflow"] + meta["overflow"] == 4000
        assert meta["gof_dof"] >= 2
        assert 0.0 <= meta["gof_p_value"] <= 1.0
        assert meta["a0"] == pytest.approx(0.0787, abs=1e-4)
        # density columns integrate to ~1 over the bins
        widths = [r[1] - r[0] for r in rows]
        emp = sum(w * r[3] for w, r in zip(widths, rows))
        assert emp == pytest.approx(1.0, rel=1e-9)

    def test_counts_samples_above_support(self):
        # at 0.1 mrad about 1.2% of exact-kernel samples exceed the
        # closed-form endpoint a0; the histogram spans the samples, so
        # `overflow` cannot show them
        cfg = load_config(None, sigma_o_rad=1e-4, n_trials=2000, seed=7)
        _c, _r, meta = cmd_pdf(cfg)
        plan = mc.TrialPlan(n_trials=cfg.n_trials, seed=cfg.seed,
                            distribution=cfg.distribution(), beam=cfg.beam(),
                            detector=cfg.detector(), loss_kernel="exact",
                            rel_tol=cfg.rel_tol)
        samples, _stats = mc.run_trials(plan)
        assert meta["above_support"] == int((samples > meta["a0"]).sum())
        assert meta["above_support"] > 0

    def test_oblique_geometry_shrinks_support_endpoint(self):
        ortho = load_config(None, sigma_o_rad=1e-4, n_trials=200, seed=3)
        tilted = load_config(None, sigma_o_rad=1e-4, n_trials=200, seed=3,
                             alpha_rad=math.pi / 8, beta_rad=5 * math.pi / 8)
        _c, _r, meta_o = cmd_pdf(ortho)
        _c, _r, meta_t = cmd_pdf(tilted)
        assert meta_t["a0"] < meta_o["a0"]


class TestValidateTolerancePlumbing:
    def test_loosened_rel_tol_still_passes(self):
        results = run_validation(rel_tol=1e-3)
        assert all(r.passed for r in results), \
            [r.name for r in results if not r.passed]

    def test_every_verdict_is_a_plain_bool(self):
        # checks that compare numpy scalars get a bool, so results serialize
        results = run_validation()
        assert [type(r.passed) for r in results] == [bool] * len(results)
        json.dumps([r.passed for r in results])

    def test_default_rel_tol_has_one_source(self):
        import inspect

        from fso_geoloss import geoloss as geoloss_mod
        from fso_geoloss import numerics

        # `is`, not ==: a default written out again as 1e-9 is a second source
        defaults = [inspect.signature(fn).parameters["rel_tol"].default for fn in (
            numerics.disk_quadrature, geoloss_mod.exact_loss, geoloss_mod.bound_lower,
            geoloss_mod.bound_upper, geoloss_mod.exact_loss_batch, geoloss_mod.bounds_batch,
            mc.TrialPlan, run_validation)]
        for default in defaults + [ExperimentConfig().rel_tol]:
            assert default is numerics.DEFAULT_REL_TOL


class TestMain:
    def test_bounds_to_file(self, tmp_path, capsys):
        out = tmp_path / "bounds.csv"
        rc = main(["bounds", "--out", str(out)])
        assert rc == EXIT_OK
        text = out.read_text()
        assert text.startswith("# tool: fso-geoloss")
        assert parse_effective_config(text).output_path == str(out)

    def test_stdout_default(self, capsys):
        rc = main(["bounds"])
        assert rc == EXIT_OK
        assert "exact_db" in capsys.readouterr().out

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("geometry.R_m = -5")
        rc = main(["bounds", "--config", str(bad)])
        assert rc == EXIT_CONFIG_ERROR
        assert "config error" in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        assert main(["bounds", "--config", "/nonexistent.cfg"]) == EXIT_CONFIG_ERROR

    def test_validate_passes_on_defaults(self, capsys):
        rc = main(["validate"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "approx_bracket" in out
        # scipy's erf and i0e are checked through the model, not on their own
        assert "erf_series_oracle" not in out and "i0_series_oracle" not in out

    def test_validate_json_format(self, capsys):
        rc = main(["validate", "--format", "json"])
        assert rc == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        names = [row[0] for row in doc["rows"]]
        assert "bound_ordering" in names
        assert all(row[1] == "True" for row in doc["rows"])

    @pytest.mark.parametrize("command, text", [
        ("bounds", ""),
        ("average-loss", "sweep.variable = sigma\nsweep.values = 0.5\nmc.n_trials = 10\n"),
    ], ids=["bounds", "average-loss"])
    @pytest.mark.parametrize("out", ["missing/x.csv", "."], ids=["missing-dir", "a-dir"])
    def test_unwritable_output_path_is_a_config_error(self, tmp_path, monkeypatch, capsys,
                                                      command, text, out):
        # reported before any loss is computed, not as a traceback after
        def computed(*_args, **_kwargs):
            pytest.fail("a loss was computed")
        monkeypatch.setattr(mc, "run_trials", computed)
        monkeypatch.setattr(cli.geoloss_mod, "exact_loss", computed)
        monkeypatch.setattr(cli.geoloss_mod, "bounds_batch", computed)
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(text)
        argv = [command, "--config", str(cfgfile), "--out", str(tmp_path / out)]
        assert main(argv) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err.startswith("config error: output.path")
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("text, flags", [("", ["--out", ""]), ("output.path =\n", [])],
                             ids=["flag", "key"])
    def test_empty_output_path_is_a_config_error(self, tmp_path, monkeypatch, capsys,
                                                 text, flags):
        # once read as the directory '.', so the table was computed and then
        # failed to open
        def computed(*_args, **_kwargs):
            pytest.fail("a loss was computed")
        monkeypatch.setattr(cli.geoloss_mod, "bounds_batch", computed)
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(text)
        assert main(["bounds", "--config", str(cfgfile), *flags]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == (
            "config error: output.path must not be empty ('-' is stdout)\n")

    @pytest.mark.parametrize("text, crossed, outside", [
        # the README pose, a = 0.6 m against w = 0.49 m: the offset row crosses,
        # and its exact capture exceeds both bounds by 4e-5 relative; the
        # centred row's bounds differ by 6e-16 relative and do not count
        (f"sweep.values = {math.pi / 4!r}\ndetector.radius_m = 0.6\n"
         "bounds.offsets_m = 0.1:0.1;0:0\n", 1, 1),
        (None, 0, 0),  # the seed-0 benchmark grid, a = 0.1 m
    ], ids=["readme-pose", "bounds-table-seed-0"])
    def test_bounds_meta_counts_crossed_rows(self, tmp_path, monkeypatch, capsys, text,
                                             crossed, outside):
        if text is None:
            monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
            text = importlib.import_module("workloads").config_text("bounds-table", 0)
        cfgfile = tmp_path / "bounds.cfg"
        cfgfile.write_text(text)
        out = tmp_path / "bounds.json"
        assert main(["bounds", "--config", str(cfgfile), "--out", str(out),
                     "--format", "json"]) == EXIT_OK
        meta = json.loads(out.read_text())["meta"]
        assert (meta["crossed_bounds"], meta["crossed_approx_bounds"]) == (crossed, crossed)
        assert meta["exact_outside_bounds"] == outside

    def test_warning_raised_as_error_is_a_numerical_failure(self, tmp_path, capsys):
        # under python -W error the far-field warning of a 5 m link once
        # escaped main as a traceback and exit 1, the validation-failure code
        cfgfile = tmp_path / "near.cfg"
        cfgfile.write_text("geometry.R_m = 5\n")
        out = tmp_path / "bounds.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["bounds", "--config", str(cfgfile), "--out", str(out)])
        assert rc == cli.EXIT_NUMERICAL_FAILURE
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: UserWarning: far-field") and err.count("\n") == 1
        assert not out.exists()

    def test_malformed_thread_env_is_a_config_error(self, tmp_path, monkeypatch, capsys):
        cfgfile = tmp_path / "avg.cfg"
        cfgfile.write_text("sweep.variable = sigma\nsweep.values = 0.5\nmc.n_trials = 10\n")
        monkeypatch.setenv("FSO_GEOLOSS_THREADS", "two")
        assert main(["average-loss", "--config", str(cfgfile)]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "FSO_GEOLOSS_THREADS" in err

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_thread_env_below_one_is_a_config_error(self, tmp_path, monkeypatch, capsys,
                                                    threads):
        # once read as "at least one thread"; the command must stop before it runs
        cfgfile = tmp_path / "avg.cfg"
        cfgfile.write_text("sweep.variable = sigma\nsweep.values = 0.5\nmc.n_trials = 10\n")
        monkeypatch.setenv("FSO_GEOLOSS_THREADS", threads)
        assert main(["average-loss", "--config", str(cfgfile)]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "FSO_GEOLOSS_THREADS" in err
        assert "must be a positive integer" in err

    @pytest.mark.parametrize("command, text, flags", [
        ("bounds", b"geometry.R_m = 800\xff\n", []),
        ("average-loss", b"sweep.variable = sigma\nsweep.values = 0.5\nmc.n_trials = 10\n",
         ["--seed", "-1"]),
        ("pdf", b"stability.sigma_o_rad = 2e-4\nmc.n_trials = 10\n"
                b"mc.seed = 340282366920938463463374607431768211456\n", []),
        # the seed range holds for every command, not only where trials run
        ("bounds", b"", ["--seed", "-1"]),
        ("validate", b"mc.seed = 340282366920938463463374607431768211456\n", []),
        ("bounds", b"geometry.beta_rad = 0\n", []),
        ("bounds", b"detector.radius_m = nan\n", []),
        ("bounds", b"beam.w0_m = nan\n", []),
        ("bounds", b"geometry.R_m = inf\n", []),
        ("bounds", b"bounds.offsets_m = nan:0\n", []),
        # alpha = pi/2 at beta = pi/2: the beam grazes the detector plane
        ("bounds", b"sweep.values = 1.5707963267948966\n", []),
        ("pdf", b"stability.sigma_p_m = -1\nmc.n_trials = 10\n", []),
        ("average-loss", b"sweep.variable = sigma\nsweep.values = -0.5\nmc.n_trials = 10\n", []),
        ("pdf", b"stability.sigma_o_rad = nan\nmc.n_trials = 10\n", []),
    ], ids=["not-utf8", "negative-seed", "seed-2^128", "bounds-negative-seed",
            "validate-seed-2^128", "beta-0", "detector-nan", "w0-nan",
            "radius-inf", "offset-nan", "alpha-grazing", "sigma-p-negative",
            "sweep-sigma-negative", "sigma-o-nan"])
    def test_bad_value_is_a_config_error(self, tmp_path, capsys, command, text, flags):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_bytes(text)
        out = tmp_path / "out.csv"
        assert main([command, "--config", str(cfgfile), "--out", str(out), *flags]) \
            == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err.startswith("config error: ")
        assert not out.exists()

    def test_determinism_across_thread_env(self, tmp_path, monkeypatch):
        cfgfile = tmp_path / "avg.cfg"
        cfgfile.write_text(
            "sweep.variable = sigma\nsweep.values = 0.5\n"
            "sweep.sigma_unit = mrad\nmc.n_trials = 2500\nmc.seed = 31\n"
            "geometry.alpha_rad = 0.39269908169872414\n"
            "geometry.beta_rad = 1.9634954084936207\n")
        out = tmp_path / "avg.csv"
        blobs = []
        for threads in ("1", "4", "8"):
            monkeypatch.setenv("FSO_GEOLOSS_THREADS", threads)
            assert main(["average-loss", "--config", str(cfgfile),
                         "--out", str(out)]) == EXIT_OK
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]


class TestValidateMutationDetection:
    def test_biased_capture_fails_the_chi_square_oracle(self, monkeypatch):
        # the check resolves a capture 1e-7 off in relative terms
        from fso_geoloss import geoloss as geoloss_mod
        from fso_geoloss.validate import check_orthogonal_chi_square

        assert check_orthogonal_chi_square(geoloss_mod.DEFAULT_REL_TOL).passed
        true_bounds = geoloss_mod.bounds_batch

        def biased(*args):
            c = true_bounds(*args)
            return c._replace(exact=c.exact * (1.0 + 1e-7))

        monkeypatch.setattr(geoloss_mod, "bounds_batch", biased)
        assert not check_orthogonal_chi_square(geoloss_mod.DEFAULT_REL_TOL).passed

    def test_centred_bias_fails_the_chi_square_oracle(self, monkeypatch):
        # the u = 0 case of the chi-square CDF is 1 - exp(-2 a^2 / w^2): a
        # bias on the centred poses alone (offset 0 to rounding) fails the
        # check, and those poses span L in {500, 1000, 2000} m and a in
        # {0.01, 0.05, 0.1, 0.2} m
        from fso_geoloss import geoloss as geoloss_mod
        from fso_geoloss.geometry import footprint_yz
        from fso_geoloss.validate import check_orthogonal_chi_square

        true_bounds = geoloss_mod.bounds_batch
        centred = set()

        def biased(rx, ry, rz, theta, phi, b, det, rel_tol):
            c = true_bounds(rx, ry, rz, theta, phi, b, det, rel_tol)
            at_centre = np.hypot(*footprint_yz(rx, ry, rz, theta, phi)) <= 1e-9
            centred.update((dist, det.a) for dist in rx[at_centre].tolist())
            return c._replace(exact=np.where(at_centre, c.exact * (1.0 + 1e-7), c.exact))

        monkeypatch.setattr(geoloss_mod, "bounds_batch", biased)
        assert not check_orthogonal_chi_square(geoloss_mod.DEFAULT_REL_TOL).passed
        assert centred >= {(dist, a) for dist in (500.0, 1000.0, 2000.0)
                           for a in (0.01, 0.05, 0.1, 0.2)}

    def test_biased_lower_bound_fails_the_chi_square_oracle(self, monkeypatch):
        # at orthogonal incidence each bound is the capture, so the oracle
        # resolves a lower bound 1e-7 off in relative terms
        from fso_geoloss import geoloss as geoloss_mod
        from fso_geoloss.validate import check_orthogonal_chi_square

        true_bound = geoloss_mod._bound
        monkeypatch.setattr(geoloss_mod, "_bound", lambda f, a, rel_tol, upper:
                            true_bound(f, a, rel_tol, upper) * (1.0 if upper else 1.0 + 1e-7))
        assert not check_orthogonal_chi_square(geoloss_mod.DEFAULT_REL_TOL).passed

    def test_late_block_sums_fail_the_chi_square_oracle(self, monkeypatch):
        # a fault only the batched quadrature takes: each row's sum written
        # one row late
        from fso_geoloss import numerics

        true_block_sums = numerics._block_sums
        monkeypatch.setattr(numerics, "_block_sums",
                            lambda *args: np.roll(true_block_sums(*args), 1))
        failed = [r.name for r in run_validation() if not r.passed]
        assert "orthogonal_chi_square" in failed

    def test_far_field_rule_has_one_source(self, monkeypatch):
        # the check's pose filter and the kernels' warning both move with
        # beam.VALIDITY_FACTOR
        import re
        import warnings

        from fso_geoloss import beam as beam_mod
        from fso_geoloss import geoloss as geoloss_mod
        from fso_geoloss.validate import check_orthogonal_chi_square

        def kept():
            detail = check_orthogonal_chi_square(geoloss_mod.DEFAULT_REL_TOL).detail
            return int(re.search(r"over (\d+) poses", detail).group(1))

        before = kept()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            beam_mod.check_far_field(1000.0, 5.0)
        monkeypatch.setattr(beam_mod, "VALIDITY_FACTOR", 1000.0)
        with pytest.warns(UserWarning, match="far-field"):
            beam_mod.check_far_field(1000.0, 5.0)
        assert 0 < kept() < before

    def test_erf_bias_fails_the_approx_bracket(self, monkeypatch):
        # A0 = erf(nu_min) erf(nu_max) is held to the C library's erf at 1e-13
        from fso_geoloss import geoloss as geoloss_mod
        from fso_geoloss.validate import check_approx_bracket

        assert check_approx_bracket(geoloss_mod.DEFAULT_REL_TOL).passed
        true_erf = geoloss_mod.erf
        monkeypatch.setattr(geoloss_mod, "erf", lambda x: true_erf(x) * (1.0 + 1e-12))
        assert not check_approx_bracket(geoloss_mod.DEFAULT_REL_TOL).passed

    def test_swapped_closed_form_columns_fail_the_approx_bracket(self, monkeypatch):
        # the tables' closed-form lower and upper columns swapped, while the
        # scalar closed forms stay right: only approx_bracket reads them
        from fso_geoloss import geoloss as geoloss_mod

        true_bounds = geoloss_mod.bounds_batch

        def swapped(*args):
            c = true_bounds(*args)
            return c._replace(approx_lower=c.approx_upper, approx_upper=c.approx_lower)

        monkeypatch.setattr(geoloss_mod, "bounds_batch", swapped)
        assert [r.name for r in run_validation() if not r.passed] == ["approx_bracket"]

    def test_fig4_kernel_at_k_min_fails_the_approx_bracket(self, monkeypatch):
        # Fig 4's closed-form kernel evaluated at k_min, not k_mean
        from fso_geoloss import geoloss as geoloss_mod

        def at_k_min(rx, ry, rz, theta, phi, b, d):
            ap = geoloss_mod._approx(geoloss_mod._pose_form(rx, ry, rz, theta, phi, b, d.a), d.a)
            return geoloss_mod._closed_form(ap, ap.k_min)

        monkeypatch.setattr(geoloss_mod, "approx_mean_batch", at_k_min)
        assert [r.name for r in run_validation() if not r.passed] == ["approx_bracket"]

    @pytest.mark.parametrize("check", ["check_cdf_matches_density",
                                       "check_rayleigh_reduction"])
    def test_i0e_bias_fails_the_density_checks(self, monkeypatch, check):
        # pdf_normalization is left out: its quad warns on a biased density
        from fso_geoloss import geoloss as geoloss_mod
        from fso_geoloss import validate

        run = getattr(validate, check)
        assert run(geoloss_mod.DEFAULT_REL_TOL).passed
        true_i0e = stochastic.i0e
        monkeypatch.setattr(stochastic, "i0e", lambda x: true_i0e(x) * (1.0 + 1e-5))
        assert not run(geoloss_mod.DEFAULT_REL_TOL).passed

    @staticmethod
    def validate_rows(path):
        text = path.read_text()
        rows = list(csv.reader(l for l in text.splitlines() if not l.startswith("#")))
        assert rows[0] == ["check", "passed", "detail"]
        return {name: (passed, detail) for name, passed, detail in rows[1:]}

    @pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
    def test_warning_raised_as_error_is_a_failed_row(self, monkeypatch, tmp_path):
        # a biased density makes pdf_normalization's quad warn, which is
        # that check's failed row while the other checks still run
        true_i0e = stochastic.i0e
        monkeypatch.setattr(stochastic, "i0e", lambda x: true_i0e(x) * (1.0 + 1e-6))
        out = tmp_path / "validate.csv"
        assert main(["validate", "--out", str(out)]) == EXIT_VALIDATION_FAILURE
        rows = self.validate_rows(out)
        assert len(rows) == 15
        passed, detail = rows["pdf_normalization"]
        assert passed == "False" and "IntegrationWarning" in detail

    def test_unconverged_quadrature_is_a_failed_row(self, tmp_path):
        # at 1e-14 the chi-square oracle's poses need more than the
        # quadrature's last order; the other 14 checks pass
        out = tmp_path / "validate.csv"
        assert main(["validate", "--tol", "1e-14", "--out", str(out)]) == 1
        rows = self.validate_rows(out)
        assert len(rows) == 15
        assert [name for name, (passed, _) in rows.items() if passed != "True"] \
            == ["orthogonal_chi_square"]
        assert "QuadratureError" in rows["orthogonal_chi_square"][1]

    def test_swapped_bound_axes_reported(self, monkeypatch):
        # classic implementation bug: the lower bound built with the axes
        # swapped turns into the upper bound and breaks the ordering
        from fso_geoloss import geoloss as geoloss_mod

        true_bound = geoloss_mod._bound
        monkeypatch.setattr(geoloss_mod, "_bound", lambda f, a, rel_tol, upper:
                            true_bound(f, a, rel_tol, not upper))
        results = {r.name: r for r in run_validation()}
        assert not results["bound_ordering"].passed
        rc = main(["validate", "--out", "/dev/null"])
        assert rc == EXIT_VALIDATION_FAILURE

    def test_cross_term_sign_flip_mirrors_the_pose(self):
        # flipping the sign of the cross coefficient reflects the contour
        # about the y axis, which is the loss of the mirrored pose: every
        # reflection-symmetric invariant (bounds included) still holds
        from fso_geoloss.beam import BeamParams
        from fso_geoloss.geometry import Orientation, Pose, Position
        from fso_geoloss.geoloss import DetectorParams, exact_loss

        beam = BeamParams(w0=1e-3, wavelength=1550e-9, cn2=1e-14)
        det = DetectorParams(a=0.1)
        pose = Pose(Position(853.55, 353.55 + 0.1, -382.68),
                    Orientation(math.pi / 8, 5 * math.pi / 8))
        mirrored = Pose(Position(853.55, -353.55 - 0.1, -382.68),
                        Orientation(-math.pi / 8, 5 * math.pi / 8))
        assert exact_loss(pose, beam, det) == pytest.approx(
            exact_loss(mirrored, beam, det), rel=1e-9)


def child_env(**extra):
    """This process's environment plus `extra`, with the package importable."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    return {**os.environ, **extra, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


class TestStartup:
    def test_import_loads_neither_scipy_stats_nor_integrate(self):
        code = ("import sys, fso_geoloss.cli; print(sorted(m for m in sys.modules "
                "if m.split('.')[:2] in (['scipy', 'stats'], ['scipy', 'integrate'])))")
        run = subprocess.run([sys.executable, "-c", code], env=child_env(),
                             capture_output=True, text=True, check=True)
        assert run.stdout.strip() == "[]"


class TestBlasThreads:
    def test_output_does_not_depend_on_blas_threads(self, tmp_path):
        # the exact kernel's exponent is a BLAS matrix product; at the
        # criterion-8 config, 1 and 2 OpenBLAS threads write the same bytes
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(
            "geometry.alpha_rad = 0.39269908169872414\n"
            "geometry.beta_rad = 1.9634954084936207\n"
            "sweep.variable = sigma\nsweep.values = 0.2,0.5\n"
            "sweep.sigma_unit = mrad\nmc.n_trials = 4096\nmc.seed = 11\n")
        out = tmp_path / "exp.csv"  # the table echoes its output path
        blobs = []
        for blas_threads in ("1", "2"):
            subprocess.run(
                [sys.executable, "-m", "fso_geoloss.cli", "average-loss",
                 "--config", str(cfgfile), "--out", str(out)],
                env=child_env(OPENBLAS_NUM_THREADS=blas_threads, FSO_GEOLOSS_THREADS="2"),
                capture_output=True, text=True, check=True)
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]
