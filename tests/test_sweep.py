"""Sweep engine: spec validation, threading determinism, flags, output."""

import concurrent.futures
import io
import json
from concurrent.futures import Future
from dataclasses import replace

import pytest

from matteroptics import sweep
from matteroptics.cli import main
from matteroptics.diffraction import ROUTES, default_q_max
from matteroptics.errors import (
    ConfigurationError,
    ParameterError,
    PhysicsGuardError,
    SweepError,
    SweepGuardError,
)
from matteroptics.models import RegimeCheck, raman_nath_params
from matteroptics.sweep import SweepRow, SweepSpec, run_sweep, sweep_report, write_sweep_csv
from matteroptics.units import ParamFile, parse_param_file

from conftest import (
    MEMOS,
    make_params,
    params_file_text,
    red_detuned,
    with_g0,
    with_v0rho,
    with_wy_lambdas,
)


def _blue(g0=2.0):
    return with_g0(make_params(), g0)


def _rho_for(params, v0rho):
    return with_v0rho(params, v0rho).rho_0


def _spec(base, values, paths=("analytic",), **kw):
    kw.setdefault("axis", "rho_0")
    kw.setdefault("q_max", 3)
    return SweepSpec(base=base, values=tuple(values), paths=tuple(paths), **kw)


class TestSweepSpec:
    def test_axis_must_be_a_parameter(self):
        with pytest.raises(ParameterError, match="unknown parameter 'bogus'; valid names"):
            _spec(_blue(), [0.0], axis="bogus")

    def test_values_guards(self):
        with pytest.raises(ConfigurationError, match="at least one value"):
            _spec(_blue(), [])
        with pytest.raises(ConfigurationError, match="finite"):
            _spec(_blue(), [0.0, float("inf")])

    def test_values_coerced_to_floats(self):
        spec = _spec(_blue(), [0, 1])
        assert spec.values == (0.0, 1.0)
        assert all(isinstance(v, float) for v in spec.values)

    def test_paths_canonical_order(self):
        spec = _spec(_blue(), [0.0], paths=("propagator", "analytic", "numeric"))
        assert spec.paths == ("analytic", "numeric", "propagator")

    def test_path_guards(self):
        with pytest.raises(ConfigurationError, match="invalid path selection"):
            _spec(_blue(), [0.0], paths=("analytic", "bessel"))
        with pytest.raises(ConfigurationError, match="invalid path selection"):
            _spec(_blue(), [0.0], paths=())

    def test_paths_take_a_selection_string(self):
        spec = SweepSpec(_blue(), "rho_0", (0.0,), "numeric, analytic", 3)
        assert spec.paths == ("analytic", "numeric")
        assert SweepSpec(_blue(), "rho_0", (0.0,), "all", 3).paths == ROUTES

    def test_q_max_defaults_to_the_range_over_the_swept_points(self):
        # red g0 = -1 over V0 rho_0 = 0, -0.5, -0.85: tau reaches -88.9
        base = with_g0(red_detuned(make_params()), -1.0)
        values = [_rho_for(base, x) + 0.0 for x in (0.0, -0.5, -0.85)]
        spec = _spec(base, values, q_max=None)
        points = [replace(base, rho_0=v) for v in values]
        assert spec.q_max == default_q_max(points, ("analytic",), 4096, 128.0) == 119
        assert [spec.point(v) for v in values] == points

    def test_default_q_max_skips_a_value_that_forms_no_point(self):
        base = _blue(g0=2.0)
        spec = _spec(base, [-1.0, 0.0], q_max=None)  # rho_0 = -1 is no point
        assert spec.q_max == default_q_max([base], ("analytic",), 4096, 128.0) == 34

    def test_units_name_the_files_system(self):
        # the values stay as typed; each point converts its value once
        si = parse_param_file(params_file_text(_blue(), "si"))
        spec = _spec(si, [1e21], axis="rho_0")
        assert spec.values == (1e21,) and spec.base is si
        assert spec.point(1e21) == replace(si.params, rho_0=1e21 * 1e-6)
        assert _spec(si, [2.5], axis="w_y").point(2.5).w_y == 250.0
        # a bare parameter set is a CGS file
        assert _spec(_blue(), [1e15]).base == ParamFile(_blue(), "cgs")
        assert _spec(_blue(), [1e15]).point(1e15) == replace(_blue(), rho_0=1e15)

    def test_q_max_guard(self, monkeypatch):
        with pytest.raises(ConfigurationError, match="q_max"):
            _spec(_blue(), [0.0], q_max=-1)
        # the table has q_max + 1 columns per route, whatever the points give
        monkeypatch.setattr("matteroptics.propagate.MAX_ORDERS", 40)
        assert _spec(_blue(), [0.0], q_max=40).q_max == 40
        with pytest.raises(
            ConfigurationError, match=r"^41 orders needed \(q_max = 41\), more than the ceiling of 40$"
        ):
            _spec(_blue(), [0.0], q_max=41)


class TestRunSweep:
    def test_rows_follow_input_order(self):
        base = _blue(g0=1.0)
        values = [_rho_for(base, x) for x in (0.4, 0.0, 0.2)]
        rows = run_sweep(_spec(base, values))
        assert [r.value for r in rows] == values
        # tau shrinks with density, so the middle (dilute) row is largest
        assert rows[1].tau > rows[2].tau > rows[0].tau

    def test_mixed_error_rows(self):
        base = with_g0(red_detuned(make_params()), -1.0)
        pole = _rho_for(base, -1.0)
        rows = run_sweep(_spec(base, [0.0, pole, 2.0 * pole]))
        assert rows[0].error is None
        assert rows[1].error is not None
        assert rows[1].patterns is None and rows[1].tau is None
        assert not rows[1].valid()
        assert rows[2].error is None

    def test_an_overflowing_point_is_an_error_row(self):
        # a finite density whose (1 + V0 rho_0)^2 overflows fails its own
        # point only, as a parameter error naming the factor
        rows = run_sweep(_spec(_blue(), [0.0, 1.0e200]))
        assert rows[0].error is None and rows[0].valid()
        assert rows[0].tau == raman_nath_params(_blue()).tau
        assert rows[1].error.startswith("1 + V0 rho_0 = ")
        assert rows[1].error.endswith("is out of range: its power 2 overflows")
        assert not rows[1].guard

    def test_all_points_failing_raises(self):
        with pytest.raises(SweepError, match="every sweep point failed") as err:
            run_sweep(_spec(_blue(), [-1.0, -2.0]))
        assert not isinstance(err.value, PhysicsGuardError)

    def test_all_points_failing_a_guard_raises_a_guard(self):
        base = _blue()
        resonant = replace(base, omega_l=base.omega_a)
        with pytest.raises(SweepGuardError, match="every sweep point failed") as err:
            run_sweep(_spec(resonant, [0.0, 1.0e12]))
        assert isinstance(err.value, PhysicsGuardError)
        # a parameter error among the reasons keeps it a plain SweepError
        with pytest.raises(SweepError, match="every sweep point failed") as err:
            run_sweep(_spec(resonant, [-1.0, 0.0]))
        assert not isinstance(err.value, PhysicsGuardError)

    def test_thread_count_guard(self):
        with pytest.raises(ConfigurationError, match="threads"):
            run_sweep(_spec(_blue(), [0.0]), threads=0)

    @pytest.mark.parametrize(
        "threads, n_values, cpus, workers",
        [(8, 6, 4, 4), (3, 6, 4, 3), (8, 2, 4, 2), (8, 6, None, 1), (2, 6, 1, 1), (1, 6, 4, 1)],
    )
    def test_workers_bounded_by_points_and_cpus(
        self, monkeypatch, threads, n_values, cpus, workers
    ):
        # min(threads, points, CPUs) workers, serial when that is 1; the
        # fake pool runs each task inline, so no thread is started
        pools = []

        class InlinePool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        # run_sweep imports the pool from its module only when it starts one
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", InlinePool)
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: cpus)
        base = _blue(g0=1.0)
        spec = _spec(base, [_rho_for(base, 0.05 * i) for i in range(n_values)])
        rows = run_sweep(spec, threads=threads)
        assert pools == ([] if workers == 1 else [workers])
        assert rows == run_sweep(spec)

    def test_cross_path_agreement_recorded(self):
        base = _blue(g0=2.0)
        spec = _spec(
            base, [0.0], paths=("analytic", "numeric"), q_max=7,
            grid_points=1024, box_lambdas=32.0,
        )
        row = run_sweep(spec)[0]
        assert row.valid()
        assert 0.0 < row.discrepancy < 1e-3
        assert set(row.patterns) == {"analytic", "numeric"}

    def test_threads_do_not_change_bytes(self):
        base = _blue(g0=2.0)
        values = [_rho_for(base, x) for x in (0.0, 0.2, 0.4)]
        spec = _spec(
            base, values, paths=("analytic", "numeric"), q_max=5,
            grid_points=1024, box_lambdas=32.0,
        )
        outs = []
        for threads in (1, 4):
            buf = io.StringIO()
            write_sweep_csv(run_sweep(spec, threads=threads), spec, buf)
            outs.append(buf.getvalue())
        assert outs[0] == outs[1]


class TestFlags:
    def test_screened_pole_proximity_flagged(self):
        # |1 + 2 V0 rho| = 0.05 while |1 + V0 rho| stays comfortable:
        # close to the screened-model pole counts as out of regime
        base = with_g0(red_detuned(make_params()), -1.0)
        row = run_sweep(_spec(base, [_rho_for(base, -0.475)]))[0]
        assert row.error is None
        assert row.checks["pole_distance"].ok is False
        assert row.checks["adiabatic_ratio"].ok is True
        assert row.checks["packet_broadness"].ok is True
        assert not row.valid()

    def test_narrow_packet_flagged(self):
        base = with_wy_lambdas(_blue(g0=1.0), 5.0)
        row = run_sweep(_spec(base, [0.0]))[0]
        assert row.checks["packet_broadness"].ok is False
        assert not row.valid()

    def test_slow_decay_flagged(self):
        base = make_params(gamma=6.2831853e9)  # linewidth ~ detuning
        row = run_sweep(_spec(base, [0.0]))[0]
        assert row.checks["adiabatic_ratio"].ok is False
        assert not row.valid()

    def test_clean_point_is_valid(self):
        row = run_sweep(_spec(_blue(g0=1.0), [0.0]))[0]
        assert row.valid()
        assert row.flags() == [True, True, True]
        # at the default saturation (rabi_peak/Delta)^2 the collision check
        # fails for these parameters; no sweep flag or CSV column reads it
        assert row.checks["collision_bound"].ok is False
        buf = io.StringIO()
        write_sweep_csv([row], _spec(_blue(g0=1.0), [0.0]), buf)
        assert "collision" not in buf.getvalue()


class TestOutputs:
    def _rows_and_spec(self):
        base = with_g0(red_detuned(make_params()), -1.0)
        spec = _spec(
            base, [0.0, _rho_for(base, -1.0)], paths=("analytic",), q_max=2
        )
        return run_sweep(spec), spec

    def test_csv_layout_and_roundtrip(self):
        import csv as csvmod

        rows, spec = self._rows_and_spec()
        buf = io.StringIO()
        write_sweep_csv(rows, spec, buf)
        parsed = list(csvmod.reader(io.StringIO(buf.getvalue())))
        assert parsed[0] == [
            "rho_0", "tau", "analytic_P_0", "analytic_P_1", "analytic_P_2",
            "discrepancy", "adiabatic_ok", "pole_ok", "broadness_ok", "error",
        ]
        assert all(len(cells) == 10 for cells in parsed)
        good, bad = parsed[1], parsed[2]
        assert good[-1] == "" and good[6] == "true"
        assert bad[1] == "" and bad[2] == "" and bad[-1] != ""

    def test_report_shapes(self):
        rows, spec = self._rows_and_spec()
        report = sweep_report(spec, rows)
        assert set(report) == {"spec", "rows", "summary"}
        assert report["spec"]["axis"] == "rho_0"
        assert report["spec"]["paths"] == ["analytic"]
        assert set(report["spec"]["base"]) >= {"mass", "dipole", "rho_0"}
        good, bad = report["rows"]
        assert set(good) == {"value", "tau", "orders", "discrepancy", "flags"}
        assert set(good["flags"]) == {"adiabatic", "pole_distance", "w_y_broadness"}
        assert set(good["orders"]["analytic"]) == {"-2", "-1", "0", "1", "2"}
        assert set(bad) == {"value", "error"}
        summary = report["summary"]
        assert summary["n_points"] == 2
        assert summary["n_valid"] == 1
        assert summary["n_failed"] == 1
        assert summary["max_discrepancy"] == 0.0


def test_row_validity_requires_all_flags():
    names = ("adiabatic_ratio", "pole_distance", "packet_broadness",
             "adiabatic_ratio_packet", "pole_distance_packet")

    def row(error=None, failing=None):
        checks = {name: RegimeCheck(1.0, 0.0, name != failing) for name in names}
        return SweepRow(0.0, 1.0, {}, 0.0, checks, error=error)

    assert row().valid()
    assert not row(failing="adiabatic_ratio").valid()
    assert not row(failing="pole_distance").valid()
    assert not row(failing="packet_broadness").valid()
    assert not row(error="boom").valid()
    # the packet-wide entries are reported by validity, not flagged per row
    assert row(failing="adiabatic_ratio_packet").valid()
    assert row(failing="pole_distance_packet").valid()


class TestMemoizedGrids:
    """A sweep reads the grid arrays a point before it built; none of its bytes move."""

    def _sweep_json(self, capsys, tmp_path, axis, values, threads):
        base = with_v0rho(with_wy_lambdas(_blue(g0=1.0), 4.0), 0.2)
        path = tmp_path / "p.params"
        path.write_text(params_file_text(base), encoding="utf-8")
        code = main([
            "sweep", "--params", str(path), "--axis", axis, "--values", values,
            "--paths", "all", "--q-max", "3", "--grid-points", "1024", "--box-lambdas", "32",
            "--steps", "16", "--threads", str(threads), "--format", "json",
        ])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize(
        "axis, values, threads",
        [
            ("w_y", "2e-4,2.5e-4,3e-4", 1),  # a new key at every point
            ("harmonic", "1,2,3", 1),
            ("k_l", "1e5,1.0667e5,1.2e5", 1),
            ("rho_0", "0,2e14,4e14,6e14", 2),  # one key for every point
        ],
    )
    def test_the_same_bytes_as_with_every_cache_cleared_before_each_point(
        self, capsys, tmp_path, monkeypatch, axis, values, threads
    ):
        memoized = self._sweep_json(capsys, tmp_path, axis, values, threads)
        evaluate = sweep.evaluate_routes

        def cold(*args, **kwargs):
            for memo in MEMOS:
                memo.cache_clear()
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(sweep, "evaluate_routes", cold)
        assert self._sweep_json(capsys, tmp_path, axis, values, threads) == memoized
        code, out, _ = memoized
        rows = json.loads(out)["rows"]
        assert code in (0, 2)  # 2: a row outside the regime is flagged, not failed
        assert len(rows) == len(values.split(",")) and all("orders" in row for row in rows)
