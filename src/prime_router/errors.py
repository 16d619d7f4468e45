"""Exception types shared across the routing engine."""


class RoutingError(Exception):
    """Base class for all routing-engine errors."""


class AmountOverflowError(RoutingError):
    """An amount or post-trade reserve left the 256-bit unsigned range."""


class CapacityExceededError(RoutingError):
    """Requested input exceeds the total capacity of a piecewise pool."""


class MalformedSnapshotError(RoutingError):
    """Pool snapshot violates structural constraints (ids, reserves, ...)."""


class ParseError(RoutingError):
    """Snapshot or sidecar file failed to parse; carries a field context."""

    def __init__(self, message, context=""):
        self.context = context
        super().__init__(f"{context}: {message}" if context else message)


class VersionUnsupportedError(ParseError):
    """File declares a format version this build does not understand."""


class NoRouteError(RoutingError):
    """No path from source to target survives discovery."""


class InvalidParamsError(RoutingError):
    """Caller-supplied configuration is out of range or inconsistent."""
