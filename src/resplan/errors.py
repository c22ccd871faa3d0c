"""Exception types shared across the package."""


class ResplanError(Exception):
    """Base class for all package-specific errors."""


class UnbridgeableDrop(ResplanError):
    """A dropped run of blocks cannot be bypassed by any configured skip edge."""


class ParseError(ResplanError):
    """An accuracy-profile document is syntactically invalid."""


class ValidationError(ResplanError):
    """An accuracy-profile document parsed but violates a profile invariant."""


class EmptyFeasibleSet(ResplanError):
    """No profiled drop set (not even keeping everything) meets the accuracy threshold."""


class UnprofiledDropSet(ResplanError):
    """A request's drop set has no measured accuracy entry."""

    def __init__(self, request: int, drop_set):
        self.request = request
        self.drop_set = frozenset(drop_set)
        super().__init__(
            f"request {request}: drop set {sorted(self.drop_set)} is not in the profile"
        )


class UncoveredBlock(ResplanError):
    """A kept block has no hosting device, so the repair pass cannot resolve it."""

    def __init__(self, request: int, block: int):
        self.request = request
        self.block = block
        super().__init__(f"request {request}: kept block {block} has no hosting device")


class InstanceTooLarge(ResplanError):
    """An instance would exceed a solver's evaluation or memory budget."""

    def __init__(self, size: int, limit: int, what: str = "enumeration size"):
        self.size = size
        self.limit = limit
        super().__init__(f"{what} {size} exceeds limit {limit}")


class InfeasibleInstance(ResplanError):
    """A cheap necessary condition already rules out every candidate assignment."""


class ConfigError(ResplanError):
    """A scenario/config document is missing, malformed, or carries unknown keys."""
