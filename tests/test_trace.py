"""The call chain that the benchmark's outside tracer needs from a traced run.

perfbench/tracer.py patches the package's functions from outside and
checks that a three-route sweep nests its spans as cli.main >
sweep.run_sweep > diffraction.propagator_orders >
propagate.propagate_through_laser > propagate.step >
models.effective_potential. A transit calls propagate.step once per
stretch between real states, with the kinetic term on or off: the
observed steps and the last, and with the kinetic term on also the
finite checks.
"""

import importlib.util
from pathlib import Path

import pytest

from matteroptics import characteristic_volume, cli, propagate

from conftest import make_params, params_file_text, with_v0rho, with_wy_lambdas

_TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_main(tracer, argv, capsys):
    """cli.main(argv) with the tracer installed; returns (exit code, spans)."""
    original_step = propagate.step
    tr = tracer.Tracer()
    tr.install()
    try:
        code = cli.main(argv)  # looked up after install, as the benchmark does
    finally:
        tr.remove()
    capsys.readouterr()
    assert propagate.step is original_step and not hasattr(cli.main, "__wrapped__")
    return code, tr.spans


def _params_path(tmp_path, params):
    path = tmp_path / "p.params"
    path.write_text(params_file_text(params), encoding="utf-8")
    return str(path)


def test_traced_sweep_keeps_the_span_chain(tmp_path, capsys):
    tracer = _load_tracer()
    params = with_wy_lambdas(make_params(), 10.5)
    path = _params_path(tmp_path, params)
    dense = 0.3 / characteristic_volume(params)
    # the propagator route runs kinetic-free: 16 z-steps are one stretch,
    # ended by the last step's real state
    z_steps, points, stretches = 16, 2, 1
    code, spans = _traced_main(tracer, [
        "sweep", "--params", path, "--axis", "rho_0",
        "--values", f"0,{dense!r}", "--paths", "all", "--grid-points", "256",
        "--box-lambdas", "32", "--steps", str(z_steps), "--q-max", "1",
        "--threads", "1", "--out", str(tmp_path / "sweep.csv"),
    ], capsys)

    assert code == 0
    assert tracer.nesting_errors(spans, True) == []
    steps = [s for s in spans if s[tracer.NAME] == "propagate.step"]
    assert len(steps) == stretches * points
    assert all(s[tracer.COUNT] == 256 for s in steps)


def test_traced_diffract_runs_each_route_once(tmp_path, capsys):
    # evaluate_routes reaches each route function through the module, so
    # the tracer's rebinding records one span per route, under cli.main
    tracer = _load_tracer()
    path = _params_path(tmp_path, with_v0rho(with_wy_lambdas(make_params(), 10.5), 0.3))
    code, spans = _traced_main(tracer, [
        "diffract", "--params", path, "--paths", "all", "--grid-points", "256",
        "--box-lambdas", "32", "--steps", "16", "--q-max", "1",
    ], capsys)

    assert code == 0
    assert tracer.nesting_errors(spans, False) == []
    routes = [
        s for s in spans
        if s[tracer.NAME].startswith("diffraction.") and s[tracer.NAME].endswith("_orders")
    ]
    assert sorted(s[tracer.NAME] for s in routes) == [
        "diffraction.analytic_orders", "diffraction.numeric_orders",
        "diffraction.propagator_orders",
    ]
    assert all(spans[s[tracer.PARENT]][tracer.NAME] == "cli.main" for s in routes)


@pytest.mark.parametrize("kinetic", [False, True])
def test_traced_propagate_evaluates_the_potential_per_fresh_density(
    kinetic, tmp_path, capsys
):
    # 150 steps with two snapshots, at 75 and at the last step. With the
    # kinetic term off those are the only real states, and with it on the
    # finite checks at 64 and 128 are real states too; one step covers
    # each stretch up to a real state. The potential is evaluated once per
    # real state that starts a stretch, and with the kinetic term on once
    # more per z-step, at the density after its kinetic stage.
    tracer = _load_tracer()
    path = _params_path(tmp_path, with_v0rho(with_wy_lambdas(make_params(), 4.0), 0.3))
    z_steps, interior_real = 150, 3 if kinetic else 1
    code, spans = _traced_main(tracer, [
        "propagate", "--params", path, "--grid-points", "256",
        "--box-lambdas", "32", "--steps", str(z_steps), "--q-max", "1",
        "--snapshots", "2", "--kinetic" if kinetic else "--no-kinetic",
        "--out", str(tmp_path / "run"),
    ], capsys)

    assert code == 0
    assert tracer.nesting_errors(spans, False) == []
    steps = [s for s in spans if s[tracer.NAME] == "propagate.step"]
    assert len(steps) == 1 + interior_real
    potentials = [s for s in spans if s[tracer.NAME] == "models.effective_potential"]
    assert all(spans[s[tracer.PARENT]][tracer.NAME] == "propagate.step" for s in potentials)
    expected = 1 + interior_real + (z_steps if kinetic else 0)
    assert len(potentials) == expected
