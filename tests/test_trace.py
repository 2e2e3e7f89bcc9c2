"""The call chain that the benchmark's outside tracer needs from a traced run.

perfbench/tracer.py patches the package's functions from outside and
checks that a three-route sweep nests its spans as cli.main >
sweep.run_sweep > diffraction.propagator_orders >
propagate.propagate_through_laser > propagate.step >
models.effective_potential, with one propagate.step call per z-step.
"""

import importlib.util
from pathlib import Path

from matteroptics import characteristic_volume, cli, propagate

from conftest import make_params, params_file_text, with_wy_lambdas

_TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_sweep_keeps_the_span_chain(tmp_path, capsys):
    tracer = _load_tracer()
    params = with_wy_lambdas(make_params(), 10.5)
    path = tmp_path / "p.params"
    path.write_text(params_file_text(params), encoding="utf-8")
    dense = 0.3 / characteristic_volume(params)
    z_steps, points = 16, 2
    original_step = propagate.step

    tr = tracer.Tracer()
    tr.install()
    try:
        code = cli.main([  # looked up after install, as the benchmark does
            "sweep", "--params", str(path), "--axis", "rho_0",
            "--values", f"0,{dense!r}", "--paths", "all", "--grid-points", "256",
            "--box-lambdas", "32", "--steps", str(z_steps), "--q-max", "1",
            "--threads", "1", "--out", str(tmp_path / "sweep.csv"),
        ])
    finally:
        tr.remove()
    capsys.readouterr()

    assert code == 0
    assert propagate.step is original_step and not hasattr(cli.main, "__wrapped__")
    assert tracer.nesting_errors(tr.spans, True) == []
    steps = [s for s in tr.spans if s[tracer.NAME] == "propagate.step"]
    assert len(steps) == z_steps * points
    assert all(s[tracer.COUNT] == 256 for s in steps)
