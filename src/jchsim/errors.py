"""Exception types shared across the package; each carries its ``problems``,
which ``collect`` gathers from several checks."""


class JchsimError(Exception):
    """Base class for package-specific errors."""

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class SizeError(JchsimError, ValueError):
    """A matrix/vector dimension is inconsistent or exceeds a configured cap."""


class NotHermitianError(JchsimError, ValueError):
    """An operator that must be Hermitian is not (within tolerance)."""


class TruncationError(JchsimError, ValueError):
    """A requested excitation index lies beyond the photon cutoff."""


class ConfigError(JchsimError, ValueError):
    """Invalid run configuration.  Collects every offending field."""


class IntegratorError(JchsimError, RuntimeError):
    """Numerical failure during time evolution (norm underflow, bad step)."""


def collect(problems: list, check, *args, prefix: str = "", **kwargs):
    """``check(*args, **kwargs)``; None, with the problems it raised added
    after ``prefix``, if it raises a package error."""
    try:
        return check(*args, **kwargs)
    except JchsimError as exc:
        problems += [prefix + p for p in exc.problems]
        return None
