"""Exception types shared across the toolkit."""


class DomainError(ValueError):
    """A value lies outside its mathematically admissible range."""


class ShapeError(ValueError):
    """Array lengths or mesh shapes are inconsistent."""


class ParseError(ValueError):
    """A config file line could not be parsed."""


class MissingKey(ParseError):
    """A required config key is absent."""


class MaxIterations(RuntimeError):
    """An iteration stalled above its tolerance before the cap."""


class GeometryNotFound(RuntimeError):
    """No mountain-pass geometry was found: no radius in the probe grid had
    a positive sampled energy minimum, J has no maximum on a start's ray,
    or the critical point a solve found has Morse index 0."""


class DegenerateCoefficient(RuntimeError):
    """The nonlocal coefficient a - b*A(u) lost its positive sign."""
