"""Exception types shared across the package, and the snapshot checks that raise one."""
import numpy as np


class ConfigError(ValueError):
    """A configuration value is inconsistent or out of range."""


class FeasibilityError(ValueError):
    """An action is not allowed in the given state."""


class ConvergenceError(RuntimeError):
    """An iterative solver did not reach the requested tolerance."""


class InitializationError(RuntimeError):
    """Offline value initialization produced a degenerate start table."""


class TableFormatError(ValueError):
    """A stored table file does not match the expected layout or config."""


def check_snapshot(value, like, where: str = "snapshot") -> None:
    """Refuse ``value`` unless it has the layout of the snapshot ``like``.

    Dicts need the same keys, lists and tuples (which a checkpoint returns
    as lists) the same length, arrays the same shape and dtype, and every
    other entry the same type as its counterpart in ``like``. Raises
    ``TableFormatError`` naming the first entry that differs.
    """
    if isinstance(like, dict):
        if not isinstance(value, dict) or set(value) != set(like):
            raise TableFormatError(f"{where}: expected the entries {sorted(like)}")
        for key, sub in like.items():
            check_snapshot(value[key], sub, f"{where}.{key}")
    elif isinstance(like, (list, tuple)):
        if not isinstance(value, (list, tuple)) or len(value) != len(like):
            raise TableFormatError(f"{where}: expected a list of {len(like)} entries")
        for i, (v, sub) in enumerate(zip(value, like)):
            check_snapshot(v, sub, f"{where}[{i}]")
    elif isinstance(like, np.ndarray):
        if (
            not isinstance(value, np.ndarray)
            or value.shape != like.shape
            or value.dtype != like.dtype
        ):
            raise TableFormatError(f"{where}: expected a {like.dtype} array of shape {like.shape}")
    elif type(value) is not type(like):
        raise TableFormatError(f"{where}: expected {type(like).__name__}, found {value!r}")


def check_values(snap: dict, counts: tuple, tables: tuple) -> None:
    """Refuse an actor snapshot whose values no run can reach.

    The arrays ``snap[k]`` for k in ``counts`` must lie in [0, 2**53), where
    a count is still exact as a float and no run's slot count reaches, and
    the entries ``snap[k]`` for k in ``tables`` must be finite; anything else
    raises ``TableFormatError``. Call it after the layout check.
    """
    if any(((snap[k] < 0) | (snap[k] >= 2**53)).any() for k in counts):
        raise TableFormatError(f"actor: count outside [0, 2**53) in {', '.join(counts)}")
    for k in tables:
        if not np.isfinite(snap[k]).all():
            raise TableFormatError(f"actor.{k}: non-finite entries")
