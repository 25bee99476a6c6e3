"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the domain an operation is defined on."""


class PoleError(DomainError):
    """Evaluation was requested at (or within tolerance of) a pole."""


class ConfigError(ValueError):
    """A setting is invalid or a request exceeds a work bound (MAX_TERMS)."""
