"""Outside-in tracing of pxkirchhoff: spans around public names only.

The tracer never edits the package.  It rebinds public names in the module
namespaces that callers look them up in, and restores them afterwards:

* every pxkirchhoff module that binds a traced public function (so the
  call ``energy_J -> kirchhoff_A`` inside ``energy`` is seen as well as the
  calls from ``solver`` and ``cli``);
* ``minimize_scalar`` as looked up from ``pxkirchhoff.solver`` and
  ``scipy.sparse.linalg.factorized``, the scipy entry points the solver
  calls;
* ``GridFunction.__init__``, counted but not timed.

A span has a name, a start, an end and a parent.  Closed spans are folded
at once into totals keyed by their call path (the names from the root span
down), so memory stays flat over hundreds of thousands of calls.  A name
that no longer exists is skipped, so its metrics read 0 instead of
crashing.
"""

import time

import scipy.sparse.linalg

# (module suffix, public name) pairs timed as spans.  The suffix names the
# module that defines the function; every pxkirchhoff module binding the
# same object is rebound.
TRACED = (
    ("cli", "parse_config"),
    ("cli", "run"),
    ("cli", "write_solution"),
    ("discretization", "build_interval_mesh"),
    ("discretization", "build_rect_mesh"),
    ("energy", "energy_J"),
    ("energy", "gradient_J"),
    ("energy", "kirchhoff_A"),
    ("exponents", "build_exponent_field"),
    ("exponents", "validate_problem_exponents"),
    ("modular_spaces", "sobolev_norm"),
    ("modular_spaces", "luxemburg_norm"),
    ("solver", "laplace_eigenbasis"),
    ("solver", "verify_mountain_geometry"),
    ("solver", "mountain_pass_solve"),
    ("solver", "multiplicity_search"),
    ("solver", "rayleigh_quotient_min"),
)


class Tracer:
    """Open-span stack plus per-call-path totals.

    ``stats[path]`` is ``[calls, seconds, failed, failed_seconds]`` where ``path`` is the tuple of span names from the
    root down to the span itself.  Counted events (``count``) only bump
    ``calls`` under the current path.
    """

    def __init__(self):
        self.stats = {}
        self._stack = []  # open spans: (path, start)
        self._undo = []

    # -- spans ---------------------------------------------------------------

    def open(self, name):
        parent = self._stack[-1][0] if self._stack else ()
        self._stack.append((parent + (name,), time.perf_counter()))

    def close(self, failed=False):
        path, start = self._stack.pop()
        elapsed = time.perf_counter() - start
        row = self.stats.setdefault(path, [0, 0.0, 0, 0.0])
        row[0] += 1
        row[1] += elapsed
        if failed:
            row[2] += 1
            row[3] += elapsed

    def count(self, name, n=1):
        parent = self._stack[-1][0] if self._stack else ()
        row = self.stats.setdefault(parent + (name,), [0, 0.0, 0, 0.0])
        row[0] += n

    def span(self, name, fn):
        """Wrap fn so each call is one span called ``name``."""
        tracer = self

        def wrapped(*args, **kwargs):
            tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer.close(failed=True)
                raise
            tracer.close()
            return out

        wrapped.__wrapped__ = fn
        return wrapped

    # -- installing wrappers -----------------------------------------------------

    def _rebind(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, package_modules):
        """Rebind the traced names in ``package_modules`` (name -> module)."""
        for suffix, name in TRACED:
            home = package_modules.get(f"pxkirchhoff.{suffix}")
            original = getattr(home, name, None) if home else None
            if original is None:
                continue
            wrapped = self.span(name, original)
            for mod in package_modules.values():
                if getattr(mod, name, None) is original:
                    self._rebind(mod, name, wrapped)

        solver = package_modules.get("pxkirchhoff.solver")
        if solver is not None and hasattr(solver, "minimize_scalar"):
            self._rebind(solver, "minimize_scalar",
                         self.span("minimize_scalar", solver.minimize_scalar))

        factorized = scipy.sparse.linalg.factorized
        tracer = self

        def counted_factorized(*args, **kwargs):
            tracer.count("factorized")
            solve = factorized(*args, **kwargs)

            def counted_solve(rhs):
                tracer.count("precond_solve")
                return solve(rhs)

            return counted_solve

        self._rebind(scipy.sparse.linalg, "factorized", counted_factorized)

        discretization = package_modules.get("pxkirchhoff.discretization")
        grid_function = getattr(discretization, "GridFunction", None)
        if grid_function is not None:
            init = grid_function.__init__

            def counted_init(obj, *args, **kwargs):
                tracer.count("GridFunction")
                init(obj, *args, **kwargs)

            self._rebind(grid_function, "__init__", counted_init)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- queries -----------------------------------------------------------------

    def select(self, name, under=(), parent=None):
        """Sum the rows of spans called ``name`` whose path holds every name
        in ``under`` above it and, if given, whose direct parent is
        ``parent``.  Returns [calls, seconds, failed, failed_seconds]."""
        total = [0, 0.0, 0, 0.0]
        for path, row in self.stats.items():
            if path[-1] != name:
                continue
            if parent is not None and (len(path) < 2 or path[-2] != parent):
                continue
            if any(u not in path[:-1] for u in under):
                continue
            total = [a + b for a, b in zip(total, row)]
        return total
