import contextlib
import importlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bergman_lab.cli import COMMANDS, build_parser, main, trend_ok
from bergman_lab.errors import InputError, UnsupportedModelError
from bergman_lab.manifolds import circle, sphere2, torus2
from bergman_lab.presets import (
    metric_field,
    parse_scalar_expr,
    perturbation_field,
    scalar_field,
    symbol_field,
)

CIRCLE, TORUS, SPHERE = circle(), torus2(), sphere2()
# coefficients whose squares overflow: 1e300, 1e307, and 1e308 (the largest power
# of ten a float holds); 1e310 parses to inf
E300, E307, E308, E310 = ("1" + "0" * z for z in (300, 307, 308, 310))


def run_cli(*args):
    """Run the CLI in a child process."""
    return subprocess.run(
        [sys.executable, "-m", "bergman_lab", *args], capture_output=True, text=True
    )


class TestExpressions:
    def test_coefficient_forms(self):
        fn = parse_scalar_expr("0.3cos(x1)", TORUS)
        pts = np.array([[0.5, 1.0]])
        assert fn(pts)[0] == pytest.approx(0.3 * math.cos(0.5))

    def test_sum_and_constant(self):
        fn = parse_scalar_expr("1+0.5x3sq", SPHERE)
        pts = np.array([[0.8, 0.0]])
        assert fn(pts)[0] == pytest.approx(1 + 0.5 * math.cos(0.8) ** 2)

    def test_difference(self):
        fn = parse_scalar_expr("cos(theta)-0.25sin(theta)", CIRCLE)
        pts = np.array([[1.2]])
        assert fn(pts)[0] == pytest.approx(math.cos(1.2) - 0.25 * math.sin(1.2))

    def test_explicit_star(self):
        fn = parse_scalar_expr("2*sin(x2)", TORUS)
        assert fn(np.array([[0.0, 0.7]]))[0] == pytest.approx(2 * math.sin(0.7))

    def test_wrong_chart_variable(self):
        with pytest.raises(InputError):
            parse_scalar_expr("cos(x1)", CIRCLE)

    def test_garbage_rejected(self):
        with pytest.raises(InputError):
            parse_scalar_expr("tan(theta)", CIRCLE)

    def test_ambient_only_on_sphere(self):
        with pytest.raises(InputError):
            parse_scalar_expr("x3", TORUS)


class TestPresets:
    def test_named_scalar_fields(self):
        f = scalar_field("exp-cos-theta", CIRCLE)
        assert f.values(np.array([[0.0]]))[0] == pytest.approx(math.e)
        a = scalar_field("one-plus-half-x3sq", SPHERE)
        assert a.values(np.array([[math.pi / 2, 0.0]]))[0] == pytest.approx(1.0)

    def test_conformal_metric(self):
        g = metric_field("conformal:u=0.3cos(x1)", TORUS)
        m = g.matrices(np.array([[0.0, 0.0]]))
        assert m[0, 0, 0] == pytest.approx(math.exp(0.3))
        assert g.conformal_u is not None

    def test_aniso_diag(self):
        g = metric_field("aniso-diag:0.3,0.3", TORUS)
        m = g.matrices(np.array([[0.0, math.pi]]))
        assert m[0, 0, 0] == pytest.approx(math.exp(0.3))
        assert m[0, 1, 1] == pytest.approx(math.exp(-0.3))
        with pytest.raises(UnsupportedModelError):
            metric_field("aniso-diag:0.3,0.3", CIRCLE)

    def test_perturbations(self):
        gdot = perturbation_field("cos-theta", CIRCLE)
        assert gdot.matrices(np.array([[0.0]]))[0, 0, 0] == pytest.approx(1.0)
        gdt = perturbation_field("cos-x1-dx1", TORUS)
        assert gdt.matrices(np.array([[0.0, 0.0]]))[0, 0, 0] == pytest.approx(1.0)

    def test_symbols(self):
        s = symbol_field("xi1sq", TORUS)
        got = s.values(np.array([[0.0, 0.0]]), np.array([[2.0, 0.0]]))
        assert got[0] == pytest.approx(1.0)  # 0-homogeneous
        with pytest.raises(InputError):
            symbol_field("nope", TORUS)

    def test_unknown_metric(self):
        with pytest.raises(InputError):
            metric_field("hyperbolic", TORUS)


class TestTrend:
    def test_allows_one_small_uptick(self):
        assert trend_ok([1.0, 0.5, 0.52])
        assert not trend_ok([1.0, 0.5, 0.6])      # >10% uptick
        assert not trend_ok([0.5, 0.52, 0.54])    # two upticks
        assert trend_ok([1.0, 0.5, 0.25])


class TestMainInProcess:
    def test_spectra(self, capsys):
        assert main(["spectra", "--model", "torus2", "--mu2", "5"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "level,mu_sq,multiplicity,dim_cum"
        assert out[-1].startswith("4,5,8,21")

    @pytest.mark.parametrize("argv", [
        ["spectra", "--model", "circle", "--n", "-1"],
        ["spectra", "--model", "torus2", "--mu2", "-1"],
    ])
    def test_negative_spectra_cutoff_is_input_error(self, argv, capsys):
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: cutoff must be non-negative\n"

    def test_unknown_preset_is_input_error(self, capsys):
        assert main(["hilb-approx", "--model", "circle", "--metric", "warped",
                     "--n", "4,8,16"]) == 1

    def test_missing_sweep_is_input_error(self):
        assert main(["isometry", "--model", "circle"]) == 1

    def test_mu2_on_circle_rejected(self):
        assert main(["isometry", "--model", "circle", "--mu2", "4,9,16"]) == 1

    def test_check_failure_exits_two(self, capsys):
        # impossible tolerance forces a tolerance failure, not an input error
        code = main(["isometry", "--model", "circle", "--n", "4,8,16",
                     "--check", "--tol", "1e-12"])
        assert code == 2

    def test_check_pass_exits_zero(self):
        code = main(["isometry", "--model", "circle", "--n", "8,16,32,64",
                     "--check"])
        assert code == 0

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = circle\nn = 4,8,16\ngrid = 32\n")
        out = tmp_path / "a.csv"
        code = main(["isometry", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert out.read_text().splitlines()[0].startswith("n,mu,measured_coeff")
        out2 = tmp_path / "b.csv"
        code = main(["isometry", "--config", str(cfg), "--n", "8,16,32",
                     "--out", str(out2)])
        assert code == 0
        assert out2.read_text().splitlines()[1].split(",")[0] == "8"

    def test_bad_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("flux_capacitor = on\n")
        assert main(["spectra", "--config", str(cfg)]) == 1
        # a typed key with an unparsable or out-of-range value is an input
        # error too, and so is an output path in a directory that does not exist
        missing_out = tmp_path / "missing" / "x.csv"
        for line in ("threads = abc\n", "threads = 0\n", "grid = abc\n", "tol = x\n",
                     "check = maybe\n", f"out = {missing_out}\n"):
            cfg.write_text(line)
            capsys.readouterr()
            assert main(["spectra", "--config", str(cfg)]) == 1
            assert capsys.readouterr().err.startswith("error:")
        # a config file cannot name another one: the key is refused as ``command`` is
        cfg.write_text("config = other.cfg\n")
        capsys.readouterr()
        assert main(["spectra", "--model", "circle", "--n", "3", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: {cfg}:1: unknown key 'config'\n"
        # a config path that cannot be read: a directory, or a byte that is not UTF-8
        cfg.write_bytes(b"grid = 8  # \xe9\n")
        for path in (tmp_path, cfg):
            capsys.readouterr()
            assert main(["isometry", "--model", "circle", "--n", "4,8,16",
                         "--config", str(path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: cannot read config file {str(path)!r}: "), err
            assert len(err.splitlines()) == 1, err

    @pytest.mark.parametrize("argv, line", [
        (["hilb-approx", "--model", "circle", "--metric", "conformal:u=cos(theta)",
          "--n", "8,16"], "quantization = bogus"),
        (["szego", "--model", "circle", "--b", "one", "--n", "4"], "quantization = bogus"),
        (["spectra"], "quantization = bogus"),
        (["spectra", "--n", "3"], "model = bogus"),
    ], ids=["hilb-approx", "szego", "spectra", "model"])
    def test_config_value_outside_choices_is_input_error(self, argv, line, tmp_path, capsys):
        # a config value meets the same choices as the flag, on every command
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# choices\n{line}\n")
        assert main([*argv, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}:2: bad value 'bogus' for"), err

    @pytest.mark.parametrize("argv", [
        ["hilb-approx", "--model", "torus2", "--metric", "aniso-diag:0.3,0.3", "--mu2", "9,25"],
        ["met-norm", "--model", "torus2", "--metric", "aniso-diag:0.3,0.3",
         "--gdot", "cos-x1-dx1", "--mu2", "9,25"],
    ], ids=["hilb-approx", "met-norm"])
    def test_quantization_flag_is_byte_neutral(self, argv, tmp_path, capsys):
        # both values give the same matrices; a value outside the two is
        # still an input error, from argv and from the config file
        tables = []
        for value in ("left", "symmetric"):
            out = tmp_path / f"{value}.csv"
            assert main([*argv, "--quantization", value, "--out", str(out)]) == 0
            tables.append(out.read_bytes())
        assert tables[0] == tables[1]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("quantization = right\n")
        for bad in (["--quantization", "right"], ["--config", str(cfg)]):
            capsys.readouterr()
            assert main([*argv, *bad]) == 1
            assert capsys.readouterr().err.startswith("error:")

    def test_given_flag_beats_config_file(self, tmp_path, capsys):
        # --fiber 64 equals the flag's default and still wins over the file
        cfg = tmp_path / "run.cfg"
        cfg.write_text("fiber = 32\n")
        argv = ["sphere-band", "--model", "sphere2", "--n", "3", "--fiber", "64"]
        assert main([*argv, "--config", str(cfg)]) == 0
        with_file = capsys.readouterr().out
        assert main(argv) == 0
        assert with_file == capsys.readouterr().out

    def test_repeated_config_key_is_input_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("grid = 16\ngrid = abc\n")
        assert main(["isometry", "--model", "circle", "--n", "4,8,16",
                     "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}:2: repeated key 'grid'"), err

    @pytest.mark.parametrize("argv", [
        # an x-independent symbol is a diagonal operator on the circle too
        ["szego", "--model", "circle", "--b", "one", "--n", "4"],
        ["bergman", "--model", "circle", "--symbol", "one", "--n", "2,4"],
        # the FFT grid of a flat multiplication doubles until e^{20 cos} is resolved
        ["bergman", "--model", "circle", "--f", "exp:20cos(theta)", "--n", "2,3"],
        ["tail-defect", "--model", "torus2", "--f", "exp:20cos(x1)", "--mu2", "4,9"],
    ])
    def test_flat_command_runs(self, argv, capsys):
        assert main(argv) == 0, capsys.readouterr().err

    def test_level_zero_is_input_error(self, capsys):
        # level 0 has mu = 0: the tail normalization and both symbol laws
        # would divide by zero
        for argv in (
            ["tail-defect", "--model", "circle", "--f", "cos(theta)", "--n", "0,1"],
            ["bergman", "--model", "circle", "--f", "cos(theta)", "--n", "0,1,2"],
            ["sphere-cumulative", "--model", "sphere2", "--n", "0,1"],
        ):
            capsys.readouterr()
            assert main(argv) == 1, argv
            assert capsys.readouterr().err.startswith("error:"), argv

    @pytest.mark.parametrize("argv", [
        # level 0 (mu = 0) in the sweep of each command that divides by mu
        ["hilb-approx", "--model", "circle", "--metric", "g0", "--n", "0,4"],
        ["met-norm", "--model", "circle", "--gdot", "cos-theta", "--n", "0,4"],
        ["exact-pullback", "--model", "circle", "--n", "0,2"],
        ["isometry", "--model", "torus2", "--mu2", "0,4,9"],
        # a given grid is used, never replaced by the default
        ["isometry", "--model", "circle", "--n", "4,8,16", "--grid", "0"],
        # a 2-D cosphere fiber needs at least 4 nodes
        ["sphere-band", "--model", "sphere2", "--n", "5", "--fiber", "0"],
        ["sphere-band", "--model", "sphere2", "--n", "5", "--fiber", "1"],
        ["sphere-cumulative", "--model", "sphere2", "--n", "3", "--fiber", "0"],
        ["sphere-cumulative", "--model", "sphere2", "--n", "3", "--fiber", "1"],
        # a cutoff whose lattice arrays numpy cannot size
        ["spectra", "--model", "circle", "--n", "9223372036854775807"],
        ["takahashi", "--n", "99999999999999999999"],
        ["spectra", "--model", "sphere2", "--n", "99999999999999999999"],
        ["isometry", "--model", "torus2", "--mu2", "4,9," + "9" * 38],
    ])
    def test_bad_sweep_grid_or_fiber_is_input_error(self, argv, capsys):
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("argv", [
        # a field that overflows to inf on the grid
        ["bergman", "--model", "circle", "--f", "exp:1000cos(theta)", "--n", "2"],
        ["bergman", "--model", "torus2", "--f", "exp:1000cos(x1)", "--mu2", "4"],
        ["szego", "--model", "circle", "--b", "exp:1000cos(theta)", "--n", "4"],
        ["tail-defect", "--model", "circle", "--f", "exp:1000cos(theta)", "--n", "1,2"],
        # a zero field predicts a zero tensor or trace; a constant has no tail
        ["sphere-band", "--model", "sphere2", "--a", "0", "--n", "2"],
        ["sphere-cumulative", "--model", "sphere2", "--a", "0", "--n", "2,4"],
        ["bergman", "--model", "circle", "--f", "0", "--n", "2"],
        ["szego", "--model", "circle", "--b", "0", "--n", "4"],
        ["tail-defect", "--model", "circle", "--f", "one", "--n", "1,2", "--check"],
        ["tail-defect", "--model", "circle", "--f", "0", "--n", "1,2"],
        # symbol integrals that cancel: a ratio of two round-offs is no verdict
        ["szego", "--model", "torus2", "--b", "sin(x2)", "--mu2", "9,25", "--check"],
        ["szego", "--model", "circle", "--b", "cos(theta)", "--n", "4", "--check"],
        ["szego", "--model", "torus2", "--b", "xi1sq,cos(x1)", "--mu2", "9,25"],
    ])
    def test_degenerate_field_is_input_error(self, argv, capsys):
        field = next(argv[i + 1] for i, a in enumerate(argv) if a in ("--f", "--a", "--b"))
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(field) in err, err

    @pytest.mark.parametrize("argv, name", [
        # the law underflows where the field's round-off does not, so the
        # relative error (on the torus also its operator norm) overflows
        (["bergman", "--model", "circle", "--f", "exp:700cos(theta)", "--n", "4,8"],
         "exp:700cos(theta)"),
        (["bergman", "--model", "torus2", "--f", "exp:700cos(x1)", "--mu2", "9,25"],
         "exp:700cos(x1)"),
        # the field's Fourier sum overflows
        (["bergman", "--model", "circle", "--f", "exp:709cos(theta)", "--n", "4,8"],
         "exp:709cos(theta)"),
        # the operator norms of the sphere tensors overflow
        (["sphere-band", "--model", "sphere2", "--a", "exp:700cos(theta)", "--n", "2"],
         "exp:700cos(theta)"),
        (["sphere-cumulative", "--model", "sphere2", "--a", "exp:700cos(theta)", "--n", "2,4"],
         "exp:700cos(theta)"),
        # the relative errors of a huge metric overflow; on the torus its
        # determinant overflows, and underflows where the metric is small
        (["hilb-approx", "--model", "circle", "--metric", "conformal:u=400cos(theta)",
          "--n", "4,8,16"], "conformal:u=400cos(theta)"),
        (["hilb-approx", "--model", "torus2", "--metric", "conformal:u=400cos(x1)",
          "--mu2", "4,9"], "conformal:u=400cos(x1)"),
        # the determinant of a finite metric overflows where it is made
        (["hilb-approx", "--model", "torus2", "--metric", "conformal:u=400", "--mu2", "4,9"],
         "conformal:u=400"),
        # the hilb symbol of a huge metric, and its variation along the
        # default perturbation, overflow where they are evaluated
        (["hilb-approx", "--model", "torus2", "--metric", "aniso-diag:400,0.3", "--mu2", "4,9"],
         "hilb[aniso-diag:400,0.3]"),
        (["gradient-check", "--model", "torus2", "--metric", "aniso-diag:400,0.3"],
         "dhilb[aniso-diag:400,0.3;cos-x1-dx1;-1]"),
        # the closed-form integrand of a huge perturbation overflows; an
        # infinite one is refused where its matrices are evaluated
        (["met-norm", "--model", "torus2", "--gdot", f"conf:{E307}cos(x1)+{E307}cos(x1)",
          "--mu2", "4,9"], f"conf:{E307}cos(x1)+{E307}cos(x1)"),
        (["met-norm", "--model", "circle", "--gdot", f"conf:{E307}cos(theta)+{E307}cos(theta)",
          "--n", "4,8"], f"conf:{E307}cos(theta)+{E307}cos(theta)"),
        (["met-norm", "--model", "torus2", "--gdot", f"conf:{E310}cos(x1)", "--mu2", "4,9"],
         f"conf:{E310}cos(x1)"),
        (["gradient-check", "--model", "torus2", "--gdot", f"conf:{E310}cos(x1)"],
         f"conf:{E310}cos(x1)"),
        # the geodesic average and the flow integral overflow, and at k = 1
        # the band tensor's symmetrization too
        (["sphere-band", "--a", f"{E308}x3", "--n", "4"], f"{E308}x3"),
        (["sphere-band", "--a", f"{E308}x3", "--n", "4", "--k", "1"], f"{E308}x3"),
        # the tail defect's tensor norms overflow to inf, or to nan on the sphere
        (["tail-defect", "--model", "sphere2", "--f", f"{E308}x3", "--n", "2,4"], f"{E308}x3"),
        (["tail-defect", "--model", "sphere2", "--f", f"{E300}x3", "--n", "2,4"], f"{E300}x3"),
        (["tail-defect", "--model", "torus2", "--f", f"{E300}cos(x1)", "--mu2", "2,4"],
         f"{E300}cos(x1)"),
    ], ids=[f"argv{i}" for i in range(19)])
    def test_overflowing_field_is_input_error_without_warning(self, argv, name, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(name) in err, err
        assert not caught, [str(w.message) for w in caught]

    def test_kohn_nirenberg_samples_resolve_their_x_band(self, monkeypatch, capsys):
        # the hilb symbol of e^{250 cos x1} g0 needs 512 points per axis, not the
        # window's 64: each fiber angle's FFT doubles the grid by the tail rule
        # of flat multiplication.  On the 64-point grid the aliased table gave
        # sup_rel_err 1.5474e215 and 1.0426e215, and exit 0
        from bergman_lab import operators

        argv = ["hilb-approx", "--model", "torus2", "--metric", "conformal:u=250cos(x1)",
                "--mu2", "9,16"]
        assert main(argv) == 0, capsys.readouterr().err
        rows = capsys.readouterr().out.splitlines()[1:]
        np.testing.assert_allclose([float(r.split(",")[1]) for r in rows],
                                   [1.5463978998780127e215, 1.0418106334912155e215], rtol=1e-9)
        # a grid capped below what the symbol needs is refused
        monkeypatch.setattr(operators, "FFT_RES_MAX", 256)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: symbol 'hilb[conformal:u=250cos(x1)]' is not resolved "
                              "by the FFT grid") and err.count("\n") == 1, err

    def test_overflowing_bergman_field_is_input_error_without_warning(self, capsys):
        # the contraction of a finite matrix overflows: dd_kernel refuses its field
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["sphere-cumulative", "--a", f"{E308}x3", "--n", "4,8"]) == 1
        assert capsys.readouterr().err == "error: tensor field has non-finite values\n"
        assert not caught, [str(w.message) for w in caught]

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "file"])
    def test_non_finite_cell_is_input_error(self, value, to_file, tmp_path, monkeypatch,
                                            capsys):
        # the last guard of the finite-output rule: a table with a non-finite
        # cell exits 1 with one error line naming its column, and writes nothing
        table = (["level", "ratio"], [(0, 1.0), (1, value)], None)
        scope = COMMANDS["spectra"][1:]
        monkeypatch.setitem(COMMANDS, "spectra", (lambda ns, model: table, *scope))
        out = tmp_path / "t.csv"
        assert main(["spectra", "--model", "circle", *(["--out", str(out)] * to_file)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: column 'ratio' holds the non-finite value {value}\n"
        assert not out.exists()

    def test_large_finite_metric_still_runs(self, tmp_path):
        out = tmp_path / "h.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["hilb-approx", "--model", "circle", "--metric",
                         "conformal:u=40cos(theta)", "--n", "4,8,16", "--out", str(out)]) == 0
        assert not caught, [str(w.message) for w in caught]
        cells = [c for line in out.read_text().splitlines()[1:] for c in line.split(",")]
        assert len(cells) == 12 and np.isfinite(np.array(cells, dtype=float)).all()

    @pytest.mark.parametrize("spec, reason", [
        ("cos(x1),,cos(x1)", "empty field entry"),
        ("cos(x1),", "empty field entry"),
        ("cos(x1);cos(x1),one", "mixes ';' and ','"),
    ])
    def test_bad_szego_field_list_is_input_error(self, spec, reason, capsys):
        assert main(["szego", "--model", "torus2", "--b", spec, "--mu2", "9"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and reason in err and repr(spec) in err, err

    def test_band_sweep_flows_the_cosphere_once(self, monkeypatch, capsys):
        # the flow integral has no degree in it: one per command, not per point
        from bergman_lab import sphereband

        calls = []
        average = sphereband.geodesic_average
        monkeypatch.setattr(sphereband, "geodesic_average",
                            lambda *a, **kw: calls.append(1) or average(*a, **kw))
        assert main(["sphere-band", "--model", "sphere2", "--n", "3,5",
                     "--grid", "4", "--fiber", "8"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3
        assert calls == [1]

    @pytest.mark.parametrize("argv", [
        ["bergman", "--model", "torus2", "--symbol", "xi1sq", "--mu2", "9,25,49"],
        ["sphere-cumulative", "--model", "sphere2", "--n", "2,4,6"],
    ], ids=["bergman", "sphere-cumulative"])
    def test_sweep_integrates_its_law_once(self, argv, monkeypatch, capsys):
        # the law's fiber integral has no window in it: one per command, not per point
        from bergman_lab import cli

        calls = []
        predict = cli.symbol_law_predict
        monkeypatch.setattr(cli, "symbol_law_predict",
                            lambda *a, **kw: calls.append(1) or predict(*a, **kw))
        assert main([*argv, "--threads", "2"]) == 0, capsys.readouterr().err
        assert len(capsys.readouterr().out.splitlines()) == 4
        assert calls == [1]

    @pytest.mark.parametrize("argv, top, count", [
        (["bergman", "--model", "torus2", "--symbol", "xi1sq", "--mu2", "9,25,49"], 49, 1),
        (["bergman", "--model", "circle", "--f", "exp:cos(theta)", "--n", "8,16,24"], 24, 1),
        (["hilb-approx", "--model", "torus2", "--metric", "aniso-diag:0.3,0.3",
          "--mu2", "9,25,49"], 49, 1),
        (["hilb-approx", "--model", "sphere2", "--metric", "conformal:u=0.3x3",
          "--n", "2,4,6"], 6, 1),
        # R and its variation Rdot
        (["met-norm", "--model", "torus2", "--gdot", "cos-x1-dx1", "--mu2", "9,25,49",
          "--metric", "aniso-diag:0.3,0.3", "--grid", "8", "--fiber", "16"], 49, 2),
        (["met-norm", "--model", "circle", "--gdot", "cos-theta", "--n", "8,16,24"], 24, 2),
        (["sphere-cumulative", "--model", "sphere2", "--n", "2,4,6"], 6, 1),
        # a field named twice is one field object
        (["szego", "--model", "torus2", "--b", "cos(x1),cos(x1)", "--mu2", "9,25,49"], 49, 1),
        # a symbol (Kohn-Nirenberg) and a multiplication field
        (["szego", "--model", "torus2", "--b", "xi1sq,exp:0.3cos(x1)", "--mu2", "9,25,49"],
         49, 2),
    ], ids=["bergman-torus", "bergman-circle", "hilb-torus", "hilb-sphere",
            "metnorm-torus", "metnorm-circle", "cumulative-sphere", "szego-twice",
            "szego-mixed"])
    def test_sweep_assembles_its_top_window_once(self, argv, top, count, monkeypatch, capsys):
        # an assembly, or one pass over the strips that sphere-cumulative streams
        from bergman_lab import operators, sphereband
        from bergman_lab.manifolds import basis_for, model_by_name

        windows = []
        for module, name in ((operators, "assemble_kohn_nirenberg"),
                             (operators, "assemble_multiplication"),
                             (sphereband, "sphere_strips")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda source, basis, *a, _real=real, **kw:
                                windows.append(basis.dim) or _real(source, basis, *a, **kw))
        assert main([*argv, "--threads", "2"]) == 0, capsys.readouterr().err
        assert len(capsys.readouterr().out.splitlines()) == 4
        assert windows == [basis_for(model_by_name(argv[2]), top).dim] * count

    def test_cumulative_sweep_forms_no_top_window_matrix(self, monkeypatch, capsys):
        # the strips of the top window are contracted as they are made: no
        # d_top x d_top matrix is collected, and none is symmetrized
        from bergman_lab import operators
        from bergman_lab.manifolds import basis_for

        shapes, symmetrized = [], []
        collect, symmetrize = operators._collect, operators._symmetrize
        monkeypatch.setattr(operators, "_collect", lambda strips, shape: (
            shapes.append(shape) or collect(strips, shape)))
        monkeypatch.setattr(operators, "_symmetrize", lambda mat: (
            symmetrized.append(mat.shape) or symmetrize(mat)))
        assert main(["sphere-cumulative", "--n", "10,20,40"]) == 0, capsys.readouterr().err
        assert len(capsys.readouterr().out.splitlines()) == 4
        d_top = basis_for(SPHERE, 40).dim
        assert shapes and (d_top, d_top) not in shapes
        assert symmetrized == []

    def test_sphere_tail_defect_forms_no_outer_window_matrix(self, monkeypatch, capsys):
        # the symmetrized rows of the inner window come from one pass over the
        # band strips: no d_out x d_out matrix is collected or symmetrized, and
        # the defects are those of the whole matrix (printed by the code that
        # assembled it) to 1e-13
        from bergman_lab import operators
        from bergman_lab.manifolds import basis_for

        shapes, symmetrized = [], []
        collect, symmetrize = operators._collect, operators._symmetrize
        monkeypatch.setattr(operators, "_collect", lambda strips, shape: (
            shapes.append(shape) or collect(strips, shape)))
        monkeypatch.setattr(operators, "_symmetrize", lambda mat: (
            symmetrized.append(mat.shape) or symmetrize(mat)))
        assert main(["tail-defect", "--model", "sphere2", "--f", "exp:0.5cos(phi)",
                     "--n", "5,10,20", "--grid", "8"]) == 0, capsys.readouterr().err
        d_out = basis_for(SPHERE, 40).dim
        assert (d_out, d_out) not in shapes and symmetrized == []
        rows = capsys.readouterr().out.splitlines()[1:]
        got = [float(r.split(",")[2]) for r in rows]
        want = [0.0091172708587946554, 0.0092416346126943938, 0.0034636348348040069]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("argv, name, k", [
        (["sphere-band", "--model", "sphere2", "--k", "1", "--n", "5,10"], "1+0.5x3sq", 1),
        (["sphere-band", "--model", "sphere2", "--a", "x3", "--k", "0", "--n", "5,10"], "x3", 0),
    ])
    def test_band_vanishing_by_parity_is_input_error(self, argv, name, k, capsys):
        # the flow integral is round-off (about 1e-15 against 10-25 for the
        # bands that do not vanish), so a relative error would be noise
        assert main([*argv, "--check"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: field {name!r} has no band at k = {k}: "
                                "its integral is round-off\n")

    @pytest.mark.parametrize("argv, top", [
        (["sphere-cumulative", "--model", "sphere2", "--n", "2,4,6"], 6),
        (["isometry", "--model", "circle", "--n", "8,16,24"], 24),
        (["isometry", "--model", "torus2", "--mu2", "9,25,49"], 49),
        (["isometry", "--model", "sphere2", "--n", "4,6,8", "--grid", "8"], 8),
        (["hilb-approx", "--model", "torus2", "--metric", "aniso-diag:0.3,0.3",
          "--mu2", "9,25,49"], 49),
        (["hilb-approx", "--model", "circle", "--metric", "conformal:u=cos(theta)",
          "--n", "8,16,24"], 24),
        (["bergman", "--model", "torus2", "--symbol", "xi1sq", "--mu2", "9,25,49"], 49),
        (["exact-pullback", "--model", "torus2", "--mu2", "5,25,49"], 49),
        # a lattice sum over the field's Fourier support: no window is evaluated
        (["tail-defect", "--model", "torus2", "--f", "exp:0.3cos(x1)", "--mu2", "9,25,49"],
         None),
    ], ids=["cumulative-sphere", "isometry-circle", "isometry-torus", "isometry-sphere",
            "hilb-torus", "hilb-circle", "bergman-torus", "exact-torus", "tail-torus"])
    def test_sweep_evaluates_its_top_window_once(self, argv, top, monkeypatch, capsys):
        # each window's gradients are the leading rows of the top window's
        from bergman_lab import bergman, cli, manifolds, operators, sphereband
        from bergman_lab.manifolds import basis_for, model_by_name

        windows = []
        real = manifolds.eval_basis
        for module in (bergman, cli, operators, sphereband):
            monkeypatch.setattr(module, "eval_basis", lambda basis, *a, **kw:
                                windows.append(basis.dim) or real(basis, *a, **kw))
        assert main([*argv, "--threads", "2"]) == 0, capsys.readouterr().err
        assert len(capsys.readouterr().out.splitlines()) == 4
        assert windows == ([] if top is None else [basis_for(model_by_name(argv[2]), top).dim])

    def test_tail_defect_gathers_its_top_window_once(self, monkeypatch, capsys):
        # the flat defects are a lattice sum over the field's Fourier table:
        # no strip of the top outer window is gathered, no matrix assembled
        # and no window evaluated
        from bergman_lab import cli, manifolds, operators

        calls = []
        for module, name in ((operators, "_pair_strips"), (operators, "assemble_kohn_nirenberg"),
                             (operators, "assemble_multiplication"), (operators, "eval_basis"),
                             (cli, "eval_basis"), (manifolds, "eval_basis")):
            monkeypatch.setattr(module, name, lambda *a, _name=name: calls.append(_name))
        assert main(["tail-defect", "--model", "torus2", "--f", "exp:0.3cos(x1)",
                     "--mu2", "9,25,49", "--threads", "2"]) == 0, capsys.readouterr().err
        assert len(capsys.readouterr().out.splitlines()) == 4
        assert calls == []

    @pytest.mark.parametrize("argv", [
        ["bergman", "--model", "torus2", "--symbol", "xi1sq", "--mu2", "4,9"],
        ["hilb-approx", "--model", "torus2", "--metric", "aniso-diag:0.3,0.3", "--mu2", "4,9"],
        ["met-norm", "--model", "torus2", "--gdot", "cos-x1-dx1", "--mu2", "4,9"],
    ], ids=["bergman", "hilb-approx", "met-norm"])
    def test_threads_flag_starts_no_thread(self, argv, monkeypatch, capsys):
        # every sweep point runs in the calling thread, whatever --threads says
        import threading

        def refuse(thread):
            raise AssertionError(f"thread {thread.name!r} started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert main([*argv, "--threads", "2"]) == 0, capsys.readouterr().err
        assert len(capsys.readouterr().out.splitlines()) == 3

    @pytest.mark.parametrize("argv, symbol", [
        # odd in the fiber: b(x, -xi) != b(x, xi)
        (["bergman", "--model", "circle", "--n", "4,8,12"],
         lambda p: lambda xi: 1.0 + 0.3 * np.cos(p[:, 0]) * xi[:, 0]),
        # not constant on the fiber: b(x, dtheta) != b(x, dphi / |dphi|)
        (["bergman", "--model", "sphere2", "--n", "2,4,6"],
         lambda p: lambda xi: 1.0 + 0.3 * xi[:, 0] ** 2),
    ], ids=["circle-odd", "sphere-varying"])
    def test_fiber_varying_symbol_is_input_error(self, argv, symbol, monkeypatch, capsys):
        from bergman_lab import cli
        from bergman_lab.operators import SymbolField

        monkeypatch.setattr(cli, "symbol_field",
                            lambda name, model: SymbolField(name, model, symbol))
        assert main([*argv, "--symbol", "varying"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "varies along the fiber" in err, err

    @pytest.mark.parametrize("exc, detail", [
        (MemoryError("Unable to allocate 7.28 TiB for an array"), "7.28 TiB"),
        (MemoryError(), "allocation failed"),
    ])
    def test_out_of_memory_is_error_line(self, exc, detail, monkeypatch, capsys):
        from bergman_lab import sphereband

        def exhausted(*args, **kwargs):
            raise exc

        monkeypatch.setattr(sphereband, "band_dd", exhausted)
        assert main(["sphere-band", "--model", "sphere2", "--n", "5",
                     "--grid", "4", "--fiber", "8"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: ") and detail in err, err

    def test_too_few_t_nodes_is_input_error(self, capsys):
        assert main(["sphere-band", "--model", "sphere2", "--a", "x3", "--k", "1",
                     "--n", "5", "--tnodes", "4"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("flag", ["--fiber", "--tnodes"])
    def test_odd_flow_node_count_is_input_error(self, flag, capsys):
        # the band prediction folds xi <-> -xi and t <-> t + pi
        assert main(["sphere-band", "--model", "sphere2", "--n", "5", "--grid", "4",
                     "--fiber", "8", flag, "65"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "even" in err, err

    def test_cumulative_accepts_odd_fiber(self, capsys):
        # sphere-cumulative integrates the cosphere law and flows nothing
        assert main(["sphere-cumulative", "--model", "sphere2", "--n", "2,4",
                     "--grid", "4", "--fiber", "17"]) == 0, capsys.readouterr().err

    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_every_command_parses(self, name):
        ns = build_parser().parse_args([name, "--model", "circle"])
        assert ns.command == name and ns.model == "circle"

    @pytest.mark.parametrize("argv", [[], ["--model", "circle"], ["nope"], ["spectra", "extra"]],
                             ids=["missing", "flags-only", "unknown", "extra"])
    def test_bad_command_is_input_error(self, argv, capsys):
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_flag_may_precede_command(self, capsys):
        assert main(["spectra", "--model", "torus2", "--mu2", "5"]) == 0
        after = capsys.readouterr().out
        assert main(["--model", "torus2", "--mu2", "5", "spectra"]) == 0
        assert capsys.readouterr().out == after

    def test_list_presets_mentions_required_names(self, capsys):
        assert main(["list-presets"]) == 0
        text = capsys.readouterr().out
        assert "conformal:u=" in text
        assert "aniso-diag:e1,e2" in text
        assert "one-plus-half-x3sq" in text

    @pytest.mark.parametrize("argv, models", [
        (["exact-pullback", "--model", "sphere2", "--n", "5"], "circle or torus2"),
        (["met-norm", "--model", "sphere2", "--gdot", "conf:0.3x3", "--n", "2,4"],
         "circle or torus2"),
        (["szego", "--model", "sphere2", "--b", "one", "--n", "4"], "circle or torus2"),
        (["gradient-check", "--model", "sphere2"], "circle or torus2"),
        (["sphere-band", "--model", "circle", "--n", "5"], "sphere2"),
        (["sphere-cumulative", "--model", "torus2", "--mu2", "4,9"], "sphere2"),
        (["takahashi", "--model", "torus2", "--mu2", "1,2"], "sphere2"),
    ], ids=["exact-pullback", "met-norm", "szego", "gradient-check", "sphere-band",
            "sphere-cumulative", "takahashi"])
    def test_command_outside_its_models_is_input_error(self, argv, models, capsys):
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {argv[0]} runs on {models}\n"

    def test_command_without_model_runs_on_its_first_model(self, capsys):
        # the sphere commands default to sphere2, not to the circle
        assert main(["sphere-cumulative", "--n", "2,4", "--grid", "4"]) == 0
        assert capsys.readouterr().out.startswith("n,rel_err\n")

    @pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
    def test_tol_without_threshold_is_input_error(self, via_config, tmp_path, capsys):
        # gradient-check checks a fixed band, so a --tol would be ignored
        argv = ["gradient-check", "--model", "torus2", "--check"]
        if via_config:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("tol = 0.5\n")
            argv += ["--config", str(cfg)]
        else:
            argv += ["--tol", "0.5"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: gradient-check ") and "--tol" in err, err

    @pytest.mark.parametrize("argv", [
        ["exact-pullback", "--model", "circle", "--n", "2,4"],
        ["takahashi", "--n", "1,2"],
        ["isometry", "--model", "circle", "--n", "4,8,16", "--grid", "32"],
        ["bergman", "--model", "circle", "--f", "exp:cos(theta)", "--n", "8,12,16",
         "--grid", "32"],
        ["tail-defect", "--model", "circle", "--f", "exp:cos(theta)", "--n", "2,4,8",
         "--grid", "32"],
        ["hilb-approx", "--model", "circle", "--metric", "conformal:u=cos(theta)",
         "--n", "8,12,16", "--grid", "32"],
        ["met-norm", "--model", "circle", "--gdot", "cos-theta", "--n", "4,8,16"],
        ["szego", "--model", "circle", "--b", "exp-cos-theta", "--n", "16"],
        ["sphere-band", "--model", "sphere2", "--a", "x3", "--k", "1", "--n", "4",
         "--grid", "6", "--fiber", "8"],
        ["sphere-cumulative", "--model", "sphere2", "--n", "2,4", "--grid", "4"],
    ], ids=lambda argv: argv[0])
    def test_threshold_edge(self, argv, monkeypatch):
        # the value a check returns is what its verdict compares with --tol
        run, *scope = COMMANDS[argv[0]]
        checks = []

        def spy(ns, model):
            result = run(ns, model)
            checks.append(result[2])
            return result

        monkeypatch.setitem(COMMANDS, argv[0], (spy, *scope))
        assert main(argv) == 0
        _, value, _ = checks[0]
        assert value > 0
        assert main([*argv, "--check", "--tol", repr(value * (1 + 1e-6))]) == 0
        assert main([*argv, "--check", "--tol", repr(value * (1 - 1e-6))]) == 2

    def test_model_is_refused_before_any_work(self, monkeypatch, capsys):
        # met-norm on the sphere stops before its cosphere closed form and R
        from bergman_lab import cli, operators

        calls = []
        monkeypatch.setattr(cli, "cosphere_quadrature", lambda *a: calls.append("cosphere"))
        for name in ("assemble_kohn_nirenberg", "assemble_multiplication"):
            monkeypatch.setattr(operators, name, lambda *a, _name=name: calls.append(_name))
        assert main(["met-norm", "--model", "sphere2", "--gdot", "conf:0.3x3", "--n", "2,4"]) == 1
        assert capsys.readouterr().err == "error: met-norm runs on circle or torus2\n"
        assert calls == []

    @pytest.mark.parametrize("argv, message", [
        (["sphere-band", "--grid", "40", "--fiber", "256", "--tnodes", "256"], "no sweep"),
        (["sphere-band", "--k", "-50", "--n", "3", "--grid", "40", "--fiber", "256",
          "--tnodes", "256"], "band degrees must be at least 1\n"),
        (["met-norm", "--model", "torus2", "--gdot", "cos-x1-dx1", "--grid", "256",
          "--fiber", "512"], "no sweep"),
        (["bergman", "--model", "torus2", "--symbol", "xi1sq", "--grid", "64",
          "--fiber", "4096"], "no sweep"),
        (["sphere-cumulative", "--grid", "40", "--fiber", "256"], "no sweep"),
        (["sphere-band", "--n", "99999999999999999999", "--grid", "24", "--fiber", "128",
          "--tnodes", "128"], "cutoff 99999999999999999999 is too large for the lattice\n"),
    ], ids=["band-no-sweep", "band-degree", "met-norm", "bergman", "cumulative", "band-lattice"])
    def test_sweep_is_refused_before_any_quadrature(self, argv, message, monkeypatch, capsys):
        # each of these ran its flow integral or cosphere quadrature for
        # seconds before the error line
        from bergman_lab import cli, sphereband

        calls = []
        monkeypatch.setattr(sphereband, "flow_integral", lambda *a: calls.append("flow"))
        monkeypatch.setattr(cli, "cosphere_quadrature", lambda *a: calls.append("cosphere"))
        monkeypatch.setattr(cli, "symbol_law_predict", lambda *a: calls.append("law"))
        assert main(argv) == 1
        if message == "no sweep":
            message = ("no sweep given: use --n for circle/sphere levels "
                       "or --mu2 for torus cutoffs\n")
        assert capsys.readouterr().err == f"error: {message}"
        assert calls == []

    @pytest.mark.parametrize("argv, flag", [
        (["tail-defect", "--model", "circle", "--n", "1,2"], "--f"),
        (["hilb-approx", "--model", "torus2", "--mu2", "4,9"], "--metric"),
        (["met-norm", "--model", "circle", "--n", "2,4"], "--gdot"),
        (["szego", "--model", "torus2", "--mu2", "9"], "--b"),
    ], ids=["tail-defect", "hilb-approx", "met-norm", "szego"])
    def test_missing_needed_flag_is_input_error(self, argv, flag, capsys):
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {argv[0]} needs {flag}\n"

    def test_exact_pullback_commands(self, capsys):
        assert main(["exact-pullback", "--model", "circle", "--n", "5,20",
                     "--check"]) == 0
        assert main(["exact-pullback", "--model", "torus2", "--mu2", "5,50",
                     "--check"]) == 0
        assert main(["exact-pullback", "--model", "sphere2", "--n", "5",
                     "--check"]) == 1  # unsupported model

    def test_gradient_check_command(self, capsys):
        assert main(["gradient-check", "--model", "torus2", "--check"]) == 0
        assert main(["gradient-check", "--model", "circle", "--check"]) == 0

    def test_gradient_check_names_its_perturbed_metrics(self, capsys):
        # g + eps gdot is named from the metric, eps and the perturbation
        assert main(["gradient-check", "--model", "circle",
                     "--metric", "conformal:u=400cos(theta)"]) == 1
        assert capsys.readouterr().err == ("error: metric 'conformal:u=400cos(theta)+0.001*cos-theta'"
                                           " not positive at a queried point\n")


# zero, constant and overflowing fields, and fields the FFT grid doubles for
FIELDS = ["0", "one", "exp:1000cos(theta)", "exp:1000cos(x1)",
          "exp:20cos(theta)", "exp:20cos(x1)"]
# Presets that resolve on each model
VALID = {
    "circle": {"--f": ["exp:cos(theta)", "cos(theta)", "exp:20cos(theta)"],
               "--symbol": ["one"],
               "--metric": ["g0", "conformal:u=cos(theta)"],
               "--gdot": ["cos-theta", "conf:0.5cos(theta)"],
               "--b": ["exp-cos-theta", "one;exp-cos-theta", "cos(theta),cos(theta)"]},
    "torus2": {"--f": ["exp:0.3cos(x1)", "cos(x1)", "exp:20cos(x1)"],
               "--symbol": ["xi1sq", "one"],
               "--metric": ["g0", "conformal:u=0.3cos(x1)", "aniso-diag:0.3,0.3"],
               "--gdot": ["cos-x1-dx1", "conf:0.3cos(x2)"],
               "--b": ["one", "cos(x1),cos(x1)", "xi1sq;cos(x1)"]},
    "sphere2": {"--f": ["one-plus-half-x3sq", "x3"],
                "--a": ["one-plus-half-x3sq", "x3", "1+0.5cos(phi)"],
                "--metric": ["g0", "conformal:u=0.3x3"]},
}
# Typed options; a small grid and fiber are always given, as the cost of a
# sphere band grows with their product
TYPED = {"--grid": ["4", "6"], "--fiber": ["16"], "--tnodes": ["64"],
         "--k": ["0", "1", "2"], "--tol": ["0.5", "1e-12"], "--threads": ["1", "2"]}
# Bad values: unparsable or out-of-range numbers, other models' presets,
# unknown names, malformed lists and degenerate fields
BAD_TYPED = ["-1", "0", "1", "3", "abc", ""]
BAD = {
    "--f": ["exp:cos(theta)", "exp:0.3cos(x1)", "x3", "nope", *FIELDS],
    "--symbol": ["xi1sq", "one", "nope"],
    "--metric": ["conformal:u=cos(theta)", "aniso-diag:0.3,0.3", "aniso-diag:", "warped"],
    "--gdot": ["cos-theta", "cos-x1-dx1", "zzz"],
    "--b": ["cos(x1);", ",", ";", "bogus", "one,one,one,one", *FIELDS],
    "--a": ["nope", *FIELDS],
}


@st.composite
def runs(draw):
    """A command, its options as {flag: value}, and a --check value or None.

    About two draws in three are valid: a model the command runs on, a
    sweep of three levels from 1 under that model's sweep flag, in-range
    typed values and that model's presets, with one of --f and --symbol.
    The others change one of these to a bad value.
    """
    command = draw(st.sampled_from(sorted(COMMANDS)))
    models = COMMANDS[command][1]
    model = draw(st.sampled_from(sorted(models)))
    options = {"--model": model}
    sweep = sorted(draw(st.lists(st.integers(1, 9), min_size=3, max_size=3, unique=True)))
    options["--mu2" if model == "torus2" else "--n"] = ",".join(map(str, sweep))
    for flag, values in TYPED.items():
        if flag in ("--grid", "--fiber") or draw(st.booleans()):
            options[flag] = draw(st.sampled_from(values))
    skip = draw(st.sampled_from(["--symbol", "--symbol", "--f"]))
    for flag, names in VALID[model].items():
        if flag != skip:
            options[flag] = draw(st.sampled_from(names))
    bad = None if draw(st.integers(0, 2)) else draw(
        st.sampled_from(["typed", "preset", "sweep", "model"]))
    if bad == "model":
        options["--model"] = draw(st.sampled_from(sorted(VALID)))
    elif bad == "sweep":  # missing, empty, with level 0, or under the other flag
        for flag in ("--n", "--mu2"):
            options.pop(flag, None)
        sweep = draw(st.lists(st.integers(0, 9), max_size=3, unique=True).map(sorted))
        if sweep or draw(st.booleans()):
            options[draw(st.sampled_from(["--n", "--mu2"]))] = ",".join(map(str, sweep))
    elif bad == "typed":
        options[draw(st.sampled_from(sorted(TYPED)))] = draw(st.sampled_from(BAD_TYPED))
    elif bad == "preset":
        flag = draw(st.sampled_from(sorted(BAD)))
        options[flag] = draw(st.sampled_from(BAD[flag]))
    check = draw(st.none() | st.sampled_from(["true", "no", "maybe"]))
    return command, options, check


# most examples run a command to its end, which can take longer than the
# default 200 ms deadline
@settings(derandomize=True, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(runs(), st.booleans())
def test_any_argv_exits_cleanly(tmp_path, run, via_config):
    """Exit 0, 1 or 2; exit 1 prints an error line; no exception escapes main.

    The options go on the command line, or with ``via_config`` into a
    --config file (rewritten by every example), where ``check`` takes a value.
    """
    command, options, check = run
    if via_config:
        if check is not None:
            options = {**options, "--check": check}
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{flag[2:]} = {value}\n" for flag, value in options.items()))
        argv = [command, "--config", str(cfg)]
    else:
        argv = [command, *(x for option in options.items() for x in option)]
        if check is not None:
            argv.append("--check")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (command, options)
    if code == 1:
        assert err.getvalue().startswith("error:"), (command, options, err.getvalue())


class TestCSVContract:
    def test_seventeen_significant_digits(self, tmp_path):
        out = tmp_path / "t.csv"
        main(["takahashi", "--n", "1,2", "--out", str(out)])
        line = out.read_text().splitlines()[1]
        c_n = line.split(",")[1]
        assert c_n == format(3 / (4 * math.pi), ".17g")

    def test_lf_endings(self, tmp_path):
        out = tmp_path / "t.csv"
        main(["spectra", "--model", "circle", "--n", "3", "--out", str(out)])
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")


class TestDeterminism:
    def test_thread_count_does_not_change_bytes(self, tmp_path):
        args = ["met-norm", "--model", "circle", "--gdot", "cos-theta",
                "--n", "16,32,48"]
        outs = []
        for threads in ("1", "4"):
            path = tmp_path / f"t{threads}.csv"
            r = run_cli(*args, "--out", str(path), "--threads", threads)
            assert r.returncode == 0, r.stderr
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]


def test_traced_layers_exist(monkeypatch):
    """Every function that perfbench/spans.py traces exists in its module.

    A missing name would break only a traced benchmark run (--trace 1).
    """
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for layer, names in spans.LAYERS.items():
        module = importlib.import_module(f"bergman_lab.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"


def test_traced_worker_run(tmp_path):
    """A traced benchmark pass (perfbench/worker.py, trace 1) runs and records its spans.

    Tracing also reads attributes of the basis and the symbol (``kinds``,
    ``freqs``, ``dim``, ``x_independent``), which ``test_traced_layers_exist``
    does not reach.
    """
    root = Path(__file__).resolve().parents[1]
    result = tmp_path / "result.json"
    argv = ["hilb-approx", "--model", "torus2", "--metric", "aniso-diag:0.3,0.3",
            "--mu2", "4,9,16", "--out", str(tmp_path / "hilb.csv")]
    r = subprocess.run(
        [sys.executable, "-B", str(root / "perfbench" / "worker.py"), str(result),
         str(time.monotonic()), "1", *argv],
        env={**os.environ, "PYTHONPATH": str(root / "src")}, cwd=tmp_path,
        capture_output=True, text=True, timeout=120,
    )
    assert r.returncode == 0, r.stderr
    names = {span[2] for span in json.loads(result.read_text())["spans"]}
    assert {"operators.assemble_kohn_nirenberg", "manifolds.basis_for"} <= names, names


def test_convergence_report_runs_uninstalled(tmp_path):
    """``python scripts/convergence_report.py`` imports this checkout's src/ with no PYTHONPATH."""
    script = Path(__file__).resolve().parents[1] / "scripts" / "convergence_report.py"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    r = subprocess.run([sys.executable, "-B", str(script), "--help"], env=env, cwd=tmp_path,
                       capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr


def test_convergence_report_quick_passes(monkeypatch, capsys):
    """``scripts/convergence_report.py --quick``: five tables, each with a passing check line."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave scripts/ untouched
    path = Path(__file__).resolve().parents[1] / "scripts" / "convergence_report.py"
    spec = importlib.util.spec_from_file_location("convergence_report", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.report(quick=True) == 0
    out = capsys.readouterr().out
    assert sum(line.startswith("check PASS") for line in out.splitlines()) == 5, out
