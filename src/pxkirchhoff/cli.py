"""Batch front door: flat key=value configs in, reports/dumps/CSV out.

Config format: one ``key = value`` pair per line, ``#`` starts a comment,
unknown keys and non-finite numbers are errors.  Keys:

    command     validate | norm | rayleigh | geometry | solve | multiplicity
    domain      interval:A,B,N  or  rect:X0,Y0,X1,Y1,NX,NY
    p, q        exponent descriptor: const:C | affine:C0,C1 | list:v1,v2,...
                (affine means C0 + C1*x, sampled at element centroids)
    u           nodal function descriptor, same syntax (norm command only)
    a, b        Kirchhoff constants (a > 0, b > 0)
    lambda      linear-term weight, default 0
    g_kind      zero | pure_power | scaled_power (default pure_power)
    coefficient positive weight for scaled_power, default 1
    theta, s_A  superlinearity exponent and threshold (theta defaults to
                min(q-, 2(p-)^2/p+ - 1e-6))
    tol, max_iter, n_starts, k_max, seed, n_dirs, rho_grid
                solver options (rayleigh stops once the H^-1 norm of R'
                is at most tol); rho_grid is a comma list of positive radii,
                max_iter, n_starts, seed and n_dirs are nonnegative and
                k_max is positive
    ambient_dim optional ambient N for the subcritical check (validate),
                a positive integer
    out         output directory, default "."

Solution dump format: a header line ``dim n_vertices n_elements``, then one
vertex coordinate line per vertex, one element index line per element, and
one nodal value per vertex.  Iteration CSV: a header row, then one row
per ray peak, ``iteration,path_max_energy,residual,A,K`` with 17
significant digits.

Exit codes: 0 success, 2 parse/validation error, 3 solver non-convergence
or missing pass geometry, 4 degenerate nonlocal coefficient.
"""

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .discretization import (
    GridFunction,
    Mesh,
    build_interval_mesh,
    build_rect_mesh,
    centroid_values,
)
from .energy import KirchhoffProblem, NonlinearitySpec
from .errors import (
    DegenerateCoefficient,
    DomainError,
    GeometryNotFound,
    MaxIterations,
    MissingKey,
    ParseError,
    ShapeError,
)
from .exponents import ExponentField, build_exponent_field, default_theta, validate_problem_exponents
from .modular_spaces import (
    check_modular_norm_relations,
    luxemburg_norm,
    modular,
    sobolev_norm,
)
from .solver import (
    SolveReport,
    mountain_pass_solve,
    multiplicity_search,
    rayleigh_quotient_min,
    verify_mountain_geometry,
)

__all__ = ["RunConfig", "parse_config", "render_config", "run", "main",
           "write_solution", "read_solution"]

_COMMANDS = ("validate", "norm", "rayleigh", "geometry", "solve", "multiplicity")
_REQUIRED = ("command", "a", "b", "p", "q", "domain")


@dataclass
class RunConfig:
    command: str
    domain: tuple
    p: str
    q: str
    a: float
    b: float
    lam: float = 0.0
    g_kind: str = "pure_power"
    coefficient: float = 1.0
    theta: float | None = None
    s_A: float = 1.0
    u: str | None = None
    tol: float = 1e-6
    max_iter: int = 5000
    n_starts: int = 8
    k_max: int = 4
    seed: int = 0
    n_dirs: int = 20
    rho_grid: tuple = (0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0)
    ambient_dim: int | None = None
    out: str = "."


def _finite(value: str) -> float:
    """float(value), rejecting NaN and +-inf where they are read."""
    x = float(value)
    if not np.isfinite(x):
        raise ValueError(f"non-finite number {value.strip()!r}")
    return x


def _radii(value: str) -> tuple:
    """Comma list of finite, positive radii."""
    radii = tuple(_finite(s) for s in value.split(","))
    if not all(r > 0.0 for r in radii):
        raise ValueError(f"radii must be positive, got {value!r}")
    return radii


def _count(value: str) -> int:
    """A nonnegative integer."""
    n = int(value)
    if n < 0:
        raise ValueError(f"count must be nonnegative, got {n}")
    return n


def _positive_count(value: str) -> int:
    """A positive integer."""
    n = int(value)
    if n < 1:
        raise ValueError(f"count must be positive, got {n}")
    return n


def _parse_domain(value: str) -> tuple:
    kind, _, rest = value.partition(":")
    parts = [s.strip() for s in rest.split(",")]
    if kind == "interval" and len(parts) == 3:
        return ("interval", _finite(parts[0]), _finite(parts[1]), int(parts[2]))
    if kind == "rect" and len(parts) == 6:
        return ("rect", *(_finite(v) for v in parts[:4]),
                int(parts[4]), int(parts[5]))
    raise ValueError(f"bad domain descriptor {value!r}")


def _check_descriptor(value: str):
    kind, _, rest = value.partition(":")
    if kind not in ("const", "affine", "list"):
        raise ValueError(f"bad descriptor kind {value!r}")
    n_expected = {"const": 1, "affine": 2}.get(kind)
    parts = [float(s) for s in rest.split(",")]
    if n_expected is not None and len(parts) != n_expected:
        raise ValueError(f"descriptor {value!r} needs {n_expected} numbers")
    return value


_PARSERS = {
    "command": str,
    "domain": _parse_domain,
    "p": _check_descriptor,
    "q": _check_descriptor,
    "u": _check_descriptor,
    "a": _finite,
    "b": _finite,
    "lambda": _finite,
    "g_kind": str,
    "coefficient": _finite,
    "theta": _finite,
    "s_A": _finite,
    "tol": _finite,
    "max_iter": _count,
    "n_starts": _count,
    "k_max": _positive_count,
    "seed": _count,
    "n_dirs": _count,
    "rho_grid": _radii,
    "ambient_dim": _positive_count,
    "out": str,
}

_FIELD_FOR_KEY = {"lambda": "lam"}


def parse_config(text: str) -> RunConfig:
    """Parse key = value lines into a fully defaulted RunConfig (fail-closed)."""
    data = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"line {ln}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _PARSERS:
            raise ParseError(f"line {ln}: unknown key {key!r}")
        if key in data:
            raise ParseError(f"line {ln}: duplicate key {key!r}")
        try:
            data[key] = _PARSERS[key](value)
        except ValueError as exc:
            raise ParseError(f"line {ln}: {exc}") from None

    for key in _REQUIRED:
        if key not in data:
            raise MissingKey(key)
    if data["command"] not in _COMMANDS:
        raise ParseError(f"unknown command {data['command']!r}")
    if data["command"] == "norm" and "u" not in data:
        raise MissingKey("u")
    if data.get("tol", 1.0) <= 0.0:
        raise ParseError("tol must be positive")
    return RunConfig(**{_FIELD_FOR_KEY.get(k, k): v for k, v in data.items()})


def render_config(config: RunConfig) -> str:
    """Inverse of parse_config: parse_config(render_config(c)) == c.

    One line per key of ``_PARSERS`` whose field is set; floats are written
    by ``repr``, so they read back exactly."""
    lines = []
    for key in _PARSERS:
        value = getattr(config, _FIELD_FOR_KEY.get(key, key))
        if value is None:
            continue
        if key == "domain":
            value = f"{value[0]}:{','.join(map(repr, value[1:]))}"
        elif key == "rho_grid":
            value = ",".join(map(repr, value))
        elif isinstance(value, float):
            value = repr(value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


# -- descriptor evaluation ----------------------------------------------------

def _eval_descriptor(desc: str, x: np.ndarray) -> np.ndarray:
    kind, _, rest = desc.partition(":")
    if kind == "const":
        return np.full(len(x), float(rest))
    if kind == "affine":
        c0, c1 = (float(s) for s in rest.split(","))
        return c0 + c1 * x
    return np.array([float(s) for s in rest.split(",")])


def _build_mesh(domain: tuple) -> Mesh:
    if domain[0] == "interval":
        return build_interval_mesh(domain[3], domain[1], domain[2])
    _, x0, y0, x1, y1, nx, ny = domain
    return build_rect_mesh(nx, ny, ((x0, y0), (x1, y1)))


def _build_fields(config: RunConfig, mesh: Mesh) -> tuple[ExponentField, ExponentField]:
    x = mesh.element_centroids[:, 0]
    p = build_exponent_field(_eval_descriptor(config.p, x), mesh)
    q = build_exponent_field(_eval_descriptor(config.q, x), mesh)
    return p, q


# -- artifact writers ---------------------------------------------------------

def _rows(fmt: str, table: np.ndarray) -> str:
    """The rows of a 2-D array as text, ``fmt`` per entry, space-separated,
    one line per row, from a single %-format."""
    line = " ".join([fmt] * table.shape[1]) + "\n"
    return (line * table.shape[0]) % tuple(table.ravel().tolist())


def _vertex_rows(vertices: np.ndarray) -> str:
    """``_rows("%.17g", vertices)``, with each distinct coordinate formatted
    once: the coordinates of a grid repeat along its rows and columns.
    They are told apart by their float64 bits, not by float equality, which
    would merge -0.0 and 0.0 ("-0" and "0").  A stable argsort groups equal
    bits, and a coordinate's text is the word of the run it falls in.
    ``np.unique`` would do the same with a sort that nothing else in a task
    runs, which raised an eig2d task's peak memory by 0.2-0.3 MB.  Where no
    coordinate repeats, it is ``_rows`` itself."""
    bits = np.ascontiguousarray(vertices, dtype=np.float64).view(np.int64).ravel()
    order = np.argsort(bits, kind="stable")
    ranked = bits[order]
    first = np.ones(len(ranked), dtype=bool)  # the first entry of each run of equal bits
    np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
    if first.all():
        return _rows("%.17g", vertices)
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(first) - 1
    distinct = ranked[first].view(np.float64)
    words = ("%.17g\n" * len(distinct) % tuple(distinct.tolist())).split("\n")
    line = " ".join(["%s"] * vertices.shape[1]) + "\n"
    return (line * vertices.shape[0]) % tuple([words[k] for k in inverse.tolist()])


def write_solution(path, u: GridFunction):
    """Plain-text dump: header, vertex coordinates, elements, nodal values.

    Each section is formatted as one string, so the transient text is the
    size of the largest section, not of the file; the vertex section
    formats each distinct coordinate once (``_vertex_rows``)."""
    mesh = u.mesh
    with open(path, "w") as fh:
        fh.write(f"{mesh.dimension} {mesh.n_vertices} {mesh.n_elements}\n")
        fh.write(_vertex_rows(mesh.vertices))
        fh.write(_rows("%d", mesh.elements))
        fh.write(_rows("%.17g", u.nodal_values[:, None]))


def read_solution(path):
    """Read a dump back as (dimension, vertices, elements, nodal_values)."""
    with open(path) as fh:
        dim, n_v, n_e = (int(s) for s in fh.readline().split())
        vertices = np.array(
            [[float(s) for s in fh.readline().split()] for _ in range(n_v)]
        )
        elements = np.array(
            [[int(s) for s in fh.readline().split()] for _ in range(n_e)]
        )
        values = np.array([float(fh.readline()) for _ in range(n_v)])
    return dim, vertices, elements, values


def _write_trace_csv(path, trace):
    with open(path, "w") as fh:
        fh.write("iteration,path_max_energy,residual,A,K\n")
        for it, emax, res, A, K in trace:
            fh.write(f"{it},{emax:.17g},{res:.17g},{A:.17g},{K:.17g}\n")


# -- command dispatch ---------------------------------------------------------

def _bool(flag: bool) -> str:
    return "true" if flag else "false"


def _chain_lines(config, p, q, theta):
    interval = validate_problem_exponents(p, q).theta_interval
    lines = [
        f"p: lo={p.lo:g} hi={p.hi:g}",
        f"q: lo={q.lo:g} hi={q.hi:g}",
        f"theta_interval: "
        + (f"({interval[0]:g}, {interval[1]:g})" if interval else "empty"),
        f"theta: {theta:g}",
        f"a: {config.a:g}  b: {config.b:g}  lambda: {config.lam:g}",
        f"ps_ceiling: {config.a ** 2 / (2 * config.b):.17g}",
    ]
    return lines


def _solve_report_lines(rep: SolveReport) -> list[str]:
    return [
        f"energy: {rep.energy:.17g}",
        f"residual: {rep.residual_norm:.17g}",
        f"K: {rep.nonlocal_coefficient:.17g}",
        f"below_ps_ceiling: {_bool(rep.below_ps_ceiling)}",
        f"iterations: {rep.iterations}",
        f"newton_steps: {rep.newton_steps}",
        f"morse_index: {'none' if rep.morse_index is None else rep.morse_index}",
        f"morse_margin: {'none' if rep.morse_margin is None else f'{rep.morse_margin:g}'}",
    ]


def run(config: RunConfig) -> int:
    """Dispatch the configured command; write report, dumps, and CSV."""
    outdir = Path(config.out)
    outdir.mkdir(parents=True, exist_ok=True)
    mesh = _build_mesh(config.domain)
    p, q = _build_fields(config, mesh)

    lines = [f"command: {config.command}",
             f"mesh: dim={mesh.dimension} vertices={mesh.n_vertices} "
             f"elements={mesh.n_elements} measure={mesh.measure:g}"]

    if config.command == "validate":
        report = validate_problem_exponents(p, q, config.ambient_dim)
        theta = config.theta if config.theta is not None else default_theta(p, q)
        lines += _chain_lines(config, p, q, theta)
        lines.append(f"chain_ok: {_bool(report.chain_ok)}")
        lines.append(
            "failures: " + ("; ".join(report.failures) if report.failures else "none")
        )
    elif config.command == "norm":
        values = _eval_descriptor(config.u, mesh.vertices[:, 0])
        u = GridFunction(mesh, values)
        uc = centroid_values(u)
        rel = check_modular_norm_relations(uc, p, mesh)
        lines += [
            f"modular: {modular(uc, p, mesh):.17g}",
            f"luxemburg_norm: {luxemburg_norm(uc, p, mesh):.17g}",
            f"sobolev_norm: {sobolev_norm(u, p):.17g}",
            f"relations_ok: {_bool(rel.ok)}",
        ]
        if not rel.ok:
            lines.append("relation violations: " + "; ".join(rel.violations))
        write_solution(outdir / "function.txt", u)
    else:
        spec = NonlinearitySpec(
            config.g_kind, q, coefficient=config.coefficient,
            theta=config.theta, s_A=config.s_A,
        )
        prob = KirchhoffProblem(config.a, config.b, config.lam, p, spec, mesh)
        lines += _chain_lines(config, p, q, prob.g.theta)

        if config.command == "rayleigh":
            ray = rayleigh_quotient_min(
                p, mesh, seed=config.seed, max_iter=config.max_iter, tol=config.tol
            )
            lines += [f"lambda_p: {ray.value:.17g}", f"residual: {ray.residual:.17g}",
                      f"steps: {ray.steps}", f"newton_steps: {ray.newton_steps}"]
            write_solution(outdir / "minimizer.txt", ray.minimizer)
        elif config.command == "geometry":
            geo = verify_mountain_geometry(
                prob, config.rho_grid, config.n_dirs, config.seed
            )
            lines += [
                f"rho: {geo.rho:.17g}",
                f"alpha: {geo.alpha:.17g}",
                f"directions_tested: {geo.directions_tested}",
                f"negative_energy: {geo.negative_energy:.17g}",
                f"negative_norm: {sobolev_norm(geo.negative_point, p):.17g}",
            ]
            write_solution(outdir / "negative_point.txt", geo.negative_point)
        elif config.command == "solve":
            geo = verify_mountain_geometry(
                prob, config.rho_grid, config.n_dirs, config.seed
            )
            rep = mountain_pass_solve(
                prob, geo.negative_point, tol=config.tol, max_iter=config.max_iter
            )
            lines += [f"rho: {geo.rho:.17g}", f"alpha: {geo.alpha:.17g}"]
            lines += _solve_report_lines(rep)
            write_solution(outdir / "solution.txt", rep.solution)
            _write_trace_csv(outdir / "iterations.csv", rep.iteration_trace)
        elif config.command == "multiplicity":
            reports = multiplicity_search(
                prob,
                n_starts=config.n_starts, k_max=config.k_max,
                seed=config.seed, tol=config.tol, max_iter=config.max_iter,
            )
            lines.append(f"orbits: {len(reports)}")
            for i, rep in enumerate(reports):
                lines.append(f"-- orbit {i} --")
                lines += _solve_report_lines(rep)
                write_solution(outdir / f"solution_{i}.txt", rep.solution)
                _write_trace_csv(outdir / f"iterations_{i}.csv", rep.iteration_trace)

    text = "\n".join(lines) + "\n"
    (outdir / "report.txt").write_text(text)
    sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pxkirchhoff",
        description="Variable-exponent Kirchhoff toolkit batch runner",
    )
    parser.add_argument("config", help="path to a key=value config file")
    args = parser.parse_args(argv)
    try:
        config = parse_config(Path(args.config).read_text())
        return run(config)
    except (ParseError, DomainError, ShapeError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (MaxIterations, GeometryNotFound) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except DegenerateCoefficient as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
