import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pxkirchhoff import MissingKey, ParseError
from pxkirchhoff.cli import (
    RunConfig,
    main,
    parse_config,
    read_solution,
    render_config,
    run,
    write_solution,
)

MODEL = """
# desk-scale model problem
command = solve
domain = interval:0,1,60
p = const:2
q = const:4.5
a = 1
b = 0.1
lambda = 0
theta = 3.2
tol = 1e-5
seed = 0
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_minimal_config():
    cfg = parse_config(MODEL)
    assert cfg.command == "solve"
    assert cfg.domain == ("interval", 0.0, 1.0, 60)
    assert cfg.p == "const:2" and cfg.q == "const:4.5"
    assert cfg.a == 1.0 and cfg.b == 0.1 and cfg.lam == 0.0
    assert cfg.theta == 3.2 and cfg.tol == 1e-5


def test_parse_errors():
    with pytest.raises(MissingKey, match="b"):
        parse_config(MODEL.replace("b = 0.1", ""))
    with pytest.raises(ParseError, match="unknown key"):
        parse_config(MODEL + "\nwhatever = 3")
    with pytest.raises(ParseError, match="unknown key 'n_path'"):
        parse_config(MODEL + "\nn_path = 31")
    for dim in ("0", "-1"):  # a dimension, not the exponent, is at fault
        with pytest.raises(ParseError, match=f"count must be positive, got {dim}"):
            parse_config(MODEL + f"\nambient_dim = {dim}")
    with pytest.raises(ParseError, match="duplicate"):
        parse_config(MODEL + "\na = 2")
    with pytest.raises(ParseError, match="line"):
        parse_config(MODEL + "\njust words")
    with pytest.raises(ParseError, match="command"):
        parse_config(MODEL.replace("command = solve", "command = fly"))
    with pytest.raises(ParseError):
        parse_config(MODEL.replace("tol = 1e-5", "tol = -1"))
    with pytest.raises(ParseError):
        parse_config(MODEL.replace("domain = interval:0,1,60", "domain = interval:0,1"))
    with pytest.raises(MissingKey, match="u"):
        parse_config(MODEL.replace("command = solve", "command = norm"))


@pytest.mark.parametrize("old, new", [
    ("tol = 1e-5", "tol = nan"),
    ("lambda = 0", "lambda = nan"),
    ("a = 1", "a = inf"),
    ("theta = 3.2", "theta = -inf"),
    ("seed = 0", "rho_grid = 0.1,inf"),
    ("domain = interval:0,1,60", "domain = interval:0,nan,60"),
    ("domain = interval:0,1,60", "domain = rect:0,0,inf,1,4,4"),
])
def test_non_finite_numbers_rejected_at_their_line(old, new):
    text = MODEL.replace(old, new)
    ln = 1 + text.splitlines().index(new)
    with pytest.raises(ParseError, match=f"line {ln}: non-finite"):
        parse_config(text)


def test_non_finite_tol_exit_code(tmp_path, capsys):
    path = write_cfg(tmp_path, MODEL.replace("tol = 1e-5", "tol = nan")
                     + f"\nout = {tmp_path}")
    assert main([path]) == 2
    assert "ParseError" in capsys.readouterr().err
    assert not (tmp_path / "report.txt").exists()


def test_comments_and_blank_lines():
    cfg = parse_config("# heading\n\n" + MODEL + "\n  # trailing comment\n")
    assert cfg.command == "solve"


def test_render_round_trip():
    cfg = parse_config(MODEL)
    assert parse_config(render_config(cfg)) == cfg
    fuller = RunConfig(
        command="norm",
        domain=("rect", 0.0, 0.0, 2.5, 1.0, 4, 6),
        p="affine:2,0.25", q="list:" + ",".join(["4.7"] * 48),
        a=2.0, b=0.5, lam=-1.25, g_kind="scaled_power", coefficient=3.5,
        theta=2.875, s_A=0.5,
        u="affine:0,1", tol=1e-7, max_iter=321,
        n_starts=5, k_max=2, seed=9, n_dirs=7,
        rho_grid=(0.1, 0.7), ambient_dim=5, out="somewhere",
    )
    assert parse_config(render_config(fuller)) == fuller


def test_validate_command_report(tmp_path, capsys):
    text = f"""
command = validate
domain = interval:0,1,20
p = list:{",".join(str(v) for v in np.linspace(2.0, 2.5, 20))}
q = list:{",".join(str(v) for v in np.linspace(4.6, 5.0, 20))}
a = 1
b = 0.1
ambient_dim = 3
out = {tmp_path}
"""
    assert run(parse_config(text)) == 0
    report = (tmp_path / "report.txt").read_text()
    assert "chain_ok: true" in report
    assert "theta_interval: (2.5, 3.2)" in report
    assert "failures: none" in report


def test_validate_reports_failures(tmp_path):
    text = f"""
command = validate
domain = interval:0,1,10
p = const:2
q = const:4
a = 1
b = 0.1
out = {tmp_path}
"""
    assert run(parse_config(text)) == 0
    report = (tmp_path / "report.txt").read_text()
    assert "chain_ok: false" in report
    assert "2p- < q-" in report


def test_domain_error_exit_code(tmp_path, capsys):
    path = write_cfg(tmp_path, MODEL.replace("p = const:2", "p = const:0.5"))
    assert main([path]) == 2
    assert "DomainError" in capsys.readouterr().err


def test_missing_file_exit_code(tmp_path, capsys):
    assert main([str(tmp_path / "nope.cfg")]) == 2


def test_solver_nonconvergence_exit_code(tmp_path, capsys):
    # Newton from the first peak stalls at rounding level, far above this
    # tol, and two descent steps cannot reach it either
    text = MODEL.replace("tol = 1e-5", "tol = 1e-30")
    path = write_cfg(tmp_path, text + f"\nmax_iter = 2\nout = {tmp_path}")
    assert main([path]) == 3
    assert "MaxIterations" in capsys.readouterr().err


def test_geometry_not_found_exit_code(tmp_path, capsys):
    text = MODEL.replace("lambda = 0", "lambda = 50").replace(
        "command = solve", "command = geometry"
    )
    path = write_cfg(tmp_path, text + f"\nout = {tmp_path}")
    assert main([path]) == 3
    assert "GeometryNotFound" in capsys.readouterr().err


def test_degenerate_coefficient_exit_code(tmp_path, capsys):
    text = MODEL.replace("b = 0.1", "b = 1").replace("lambda = 0", "lambda = -20")
    path = write_cfg(tmp_path, text + f"\nout = {tmp_path}")
    assert main([path]) == 4
    assert "DegenerateCoefficient" in capsys.readouterr().err


def test_solve_artifacts_and_determinism(tmp_path, capsys):
    out1, out2 = tmp_path / "one", tmp_path / "two"
    for out in (out1, out2):
        assert main([write_cfg(tmp_path, MODEL + f"\nout = {out}", f"{out.name}.cfg")]) == 0
    capsys.readouterr()
    assert (out1 / "iterations.csv").read_bytes() == (out2 / "iterations.csv").read_bytes()
    assert (out1 / "solution.txt").read_bytes() == (out2 / "solution.txt").read_bytes()

    report = (out1 / "report.txt").read_text()
    for token in ("energy:", "residual:", "K:", "below_ps_ceiling: true", "ps_ceiling: 5"):
        assert token in report

    csv = (out1 / "iterations.csv").read_text().splitlines()
    assert csv[0] == "iteration,path_max_energy,residual,A,K"
    assert len(csv) >= 2


def test_above_ceiling_flagged_in_report(tmp_path, capsys):
    # b sized so the ceiling sits below the attainable pass levels; the
    # negative lambda funds levels past a^2/(2b)
    text = """
command = solve
domain = interval:0,1,100
p = const:2
q = const:4.5
a = 1
b = 1
lambda = -16
g_kind = scaled_power
coefficient = 200
theta = 3.2
tol = 1e-6
seed = 0
rho_grid = 0.003,0.01,0.03,0.1,0.3,1.0
"""
    path = write_cfg(tmp_path, text + f"\nout = {tmp_path}")
    code = main([path])
    capsys.readouterr()
    report = (tmp_path / "report.txt").read_text()
    assert code == 0
    assert "below_ps_ceiling: false" in report


def test_solution_dump_round_trip(tmp_path):
    from pxkirchhoff import GridFunction, build_rect_mesh

    mesh = build_rect_mesh(3, 4, ((0.0, 0.0), (1.5, 2.0)))
    rng = np.random.default_rng(0)
    u = GridFunction(mesh, rng.standard_normal(mesh.n_vertices))
    path = tmp_path / "dump.txt"
    write_solution(path, u)
    dim, vertices, elements, values = read_solution(path)
    assert dim == 2
    assert np.array_equal(vertices, mesh.vertices)
    assert np.array_equal(elements, mesh.elements)
    assert np.array_equal(values, u.nodal_values)
    header = path.read_text().splitlines()[0].split()
    assert [int(s) for s in header] == [2, mesh.n_vertices, mesh.n_elements]


def _dump_line_by_line(path, u):
    # the writer's former loop, one line at a time: the byte reference
    mesh = u.mesh
    with open(path, "w") as fh:
        fh.write(f"{mesh.dimension} {mesh.n_vertices} {mesh.n_elements}\n")
        for row in mesh.vertices:
            fh.write(" ".join(f"{c:.17g}" for c in row) + "\n")
        for row in mesh.elements:
            fh.write(" ".join(str(i) for i in row) + "\n")
        for v in u.nodal_values:
            fh.write(f"{v:.17g}\n")


def _dump_mesh(case):
    from pxkirchhoff import Mesh, build_interval_mesh, build_rect_mesh

    if case == 1:
        return build_interval_mesh(37, -1.25, 3.0)
    if case == 2:
        return build_rect_mesh(5, 7, ((-1.0, 0.0), (1.5, 2.0 / 3.0)))
    if case == "2d_48":
        return build_rect_mesh(48, 48, ((0.0, 0.0), (1.0, 1.0)))
    mesh = build_rect_mesh(4, 6, ((-1.0, -1.0), (1.0, 2.0)))
    vertices = mesh.vertices.copy()
    if case == "signed_zeros":  # x = 0.0 on some rows and -0.0 on the others
        vertices[(vertices[:, 0] == 0.0) & (vertices[:, 1] < 0.5), 0] = -0.0
        assert {np.signbit(x) for x in vertices[vertices[:, 0] == 0.0, 0]} == {False, True}
    else:  # "distinct": no coordinate repeats
        vertices = np.random.default_rng(5).uniform(-2.0, 2.0, vertices.shape)
        assert len(np.unique(vertices)) == vertices.size
    return Mesh(2, vertices, mesh.elements, mesh.boundary_mask, mesh.element_measures)


@pytest.mark.parametrize("case", [1, 2, "signed_zeros", "2d_48", "distinct"])
def test_solution_dump_bytes_match_the_line_by_line_writer(tmp_path, case):
    from pxkirchhoff import GridFunction

    mesh = _dump_mesh(case)
    rng = np.random.default_rng(4)
    values = rng.standard_normal(mesh.n_vertices) * 10.0 ** rng.integers(-300, 300, mesh.n_vertices)
    values[mesh.interior[:4]] = [1e-300, -1e-300, 5e-324, -2.2250738585072014e-308]
    u = GridFunction(mesh, values)
    write_solution(tmp_path / "dump.txt", u)
    _dump_line_by_line(tmp_path / "ref.txt", u)
    got = (tmp_path / "dump.txt").read_bytes()
    assert got == (tmp_path / "ref.txt").read_bytes()
    assert np.array_equal(read_solution(tmp_path / "dump.txt")[3], u.nodal_values)


def test_norm_command(tmp_path, capsys):
    text = f"""
command = norm
domain = interval:0,1,50
p = affine:2,1
q = const:5
u = affine:0,1
a = 1
b = 0.1
out = {tmp_path}
"""
    assert run(parse_config(text)) == 0
    report = (tmp_path / "report.txt").read_text()
    for token in ("modular:", "luxemburg_norm:", "sobolev_norm:", "relations_ok: true"):
        assert token in report
    assert (tmp_path / "function.txt").exists()


def test_norm_of_non_finite_function_exit_code(tmp_path, capsys):
    path = write_cfg(tmp_path, f"""
command = norm
domain = interval:0,1,50
p = const:2
q = const:5
u = affine:nan,1
a = 1
b = 0.1
out = {tmp_path}
""")
    assert main([path]) == 2
    assert "DomainError" in capsys.readouterr().err


def test_rayleigh_command(tmp_path, capsys):
    text = f"""
command = rayleigh
domain = interval:0,1,100
p = const:2
q = const:4.5
a = 1
b = 0.1
seed = 0
out = {tmp_path}
"""
    assert run(parse_config(text)) == 0
    report = (tmp_path / "report.txt").read_text()
    fields = dict(ln.split(": ", 1) for ln in report.splitlines() if ": " in ln)
    assert float(fields["lambda_p"]) == pytest.approx(np.pi**2, rel=0.01)
    assert float(fields["residual"]) <= 1e-6  # the default tol
    assert int(fields["steps"]) > 0
    lines = report.splitlines()
    # constant p: every step is a descent step
    assert lines[lines.index(f"steps: {fields['steps']}") + 1] == "newton_steps: 0"
    assert (tmp_path / "minimizer.txt").exists()


def test_multiplicity_command(tmp_path, capsys):
    text = f"""
command = multiplicity
domain = interval:0,1,40
p = const:2
q = const:4.5
a = 1
b = 0.1
theta = 3.2
tol = 1e-5
n_starts = 2
k_max = 1
seed = 0
out = {tmp_path}
"""
    assert run(parse_config(text)) == 0
    report = (tmp_path / "report.txt").read_text()
    assert "orbits: 1" in report
    assert (tmp_path / "solution_0.txt").exists()
    assert (tmp_path / "iterations_0.csv").exists()


@pytest.mark.parametrize("old, new", [
    ("seed = 0", "rho_grid = -0.5,-0.1"),
    ("seed = 0", "rho_grid = 0.1,0"),
])
def test_non_positive_radius_rejected_at_its_line(old, new):
    text = MODEL.replace(old, new)
    ln = 1 + text.splitlines().index(new)
    with pytest.raises(ParseError, match=f"line {ln}: radii must be positive"):
        parse_config(text)


def test_negative_n_dirs_rejected_at_its_line():
    text = MODEL.replace("seed = 0", "n_dirs = -3")
    ln = 1 + text.splitlines().index("n_dirs = -3")
    with pytest.raises(ParseError, match=f"line {ln}: count must be nonnegative"):
        parse_config(text)
    assert parse_config(MODEL.replace("seed = 0", "n_dirs = 0")).n_dirs == 0


@pytest.mark.parametrize("new, message", [
    ("seed = -1", "count must be nonnegative, got -1"),
    ("n_starts = -3", "count must be nonnegative, got -3"),
    ("max_iter = -1", "count must be nonnegative, got -1"),
    ("k_max = 0", "count must be positive, got 0"),
    ("k_max = -1", "count must be positive, got -1"),
])
def test_bad_count_rejected_at_its_line(new, message):
    text = MODEL.replace("seed = 0", new)
    ln = 1 + text.splitlines().index(new)
    with pytest.raises(ParseError, match=f"line {ln}: {message}"):
        parse_config(text)


@pytest.mark.parametrize("command", ["solve", "rayleigh"])
def test_negative_seed_exits_2(tmp_path, capsys, command):
    text = MODEL.replace("command = solve", f"command = {command}")
    text = text.replace("seed = 0", "seed = -1") + f"\nout = {tmp_path}"
    ln = 1 + text.splitlines().index("seed = -1")
    assert main([write_cfg(tmp_path, text)]) == 2
    assert f"ParseError: line {ln}: count must be nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "report.txt").exists()


def test_importing_the_cli_loads_no_scipy_optimize():
    # a fresh interpreter, so that no other test's imports count
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import json, sys, pxkirchhoff.cli; print(json.dumps([pxkirchhoff.cli.__file__, "
            "sorted(m for m in sys.modules if m.startswith('scipy.optimize'))]))")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    cli_file, optimize = json.loads(out.stdout)
    assert Path(cli_file).resolve().parent == src / "pxkirchhoff"
    assert optimize == []


def test_solve_report_lists_newton_steps_and_morse_index(tmp_path, capsys):
    assert main([write_cfg(tmp_path, MODEL + f"\nout = {tmp_path}")]) == 0
    capsys.readouterr()
    fields = dict(line.split(": ", 1) for line in
                  (tmp_path / "report.txt").read_text().splitlines() if ": " in line)
    assert int(fields["newton_steps"]) > 0
    assert fields["morse_index"] == "1"
    assert float(fields["morse_margin"]) == 1e-6  # delta = 1e-6 a, a = 1
    # iterations.csv keeps one row per ray peak, Newton steps add none
    rows = (tmp_path / "iterations.csv").read_text().splitlines()
    assert len(rows) == 1 + int(fields["iterations"]) + 1
