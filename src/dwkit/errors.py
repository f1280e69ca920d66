"""Exception hierarchy shared by all dwkit modules."""


class DwkitError(Exception):
    """Base class for every error raised by dwkit."""


# --- staging planner ---

class DegenerateWorkloadError(DwkitError):
    """Workload stages zero bytes; the capacity ratio is unconstrained."""


class InfeasibleHardwareError(DwkitError):
    """One staging node cannot serve even one compute node."""


class NoFeasibleThroughputError(DwkitError):
    """Transfer times alone exceed the iteration interval."""


# --- schema PCA ---

class ZeroVarianceColumnError(DwkitError):
    def __init__(self, column):
        self.column = column
        super().__init__(f"column {column!r} has zero sample variance")


class InvalidCorrelationError(DwkitError):
    """Input matrix is not a valid correlation matrix."""


# --- placement simulator ---

class AclDeniedError(DwkitError):
    """Principal lacks the required permission on the target allocation."""


class UnknownSiteError(DwkitError):
    def __init__(self, site_id):
        self.site_id = site_id
        super().__init__(f"unknown site {site_id!r}")


class InsufficientSitesError(DwkitError):
    """Fewer eligible sites than requested replicas."""


# --- chunk engine ---

class InconsistentHeaderError(DwkitError):
    """Datastore source files do not share one header."""


class MalformedValueError(DwkitError):
    def __init__(self, token, kind, context=""):
        self.token = token
        self.kind = kind
        msg = f"token {token!r} is neither missing nor a valid {kind}"
        if context:
            msg += f" ({context})"
        super().__init__(msg)


class TaskFailedError(DwkitError):
    def __init__(self, task_id, cause):
        self.task_id = task_id
        self.cause = cause
        super().__init__(f"task {task_id} failed permanently: {cause}")


# --- regression ---

class NonBinaryColumnError(DwkitError):
    def __init__(self, column, values):
        self.column = column
        super().__init__(
            f"column {column!r} is not binary: {sorted(map(str, values))}")


class RankDeficientError(DwkitError):
    def __init__(self, column):
        self.column = column
        super().__init__(f"design matrix is rank deficient; "
                         f"column {column!r} is collinear")


# --- configuration / CLI ---

class ConfigError(DwkitError):
    """Invalid configuration file or flag value (usage error, exit 2)."""


class MissingFileError(ConfigError):
    """An input file (a CSV, a config or a scenario) that cannot be
    opened."""

    def __init__(self, what, path, reason):
        self.path = path
        super().__init__(f"cannot read {what} {path}: {reason}")


class UnitError(ConfigError, ValueError):
    def __init__(self, text, reason):
        super().__init__(f"cannot parse quantity {text!r}: {reason}")
