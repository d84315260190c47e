"""A knob is declared once: on the field of the config dataclass that owns it.

:func:`knob` is :func:`dataclasses.field` with the knob's help text, its bound
and (where it differs from the field name) its flag as metadata;
:func:`check_knobs` is the ``__post_init__`` loop that holds every field to
its bound.  The CLI builds one flag per field from the same metadata (see
``repro.cli``), so a default, a bound or a help text has nowhere else to be
written down.
"""

from __future__ import annotations

from dataclasses import Field, dataclass, field, fields
from typing import Any, Callable


@dataclass(frozen=True)
class Bound:
    """A numeric range: ``description`` completes the sentence "must be …"."""

    cast: type
    accepts: Callable[[Any], bool]
    description: str


POSITIVE_INT = Bound(int, lambda v: v > 0, "a positive integer")
NON_NEGATIVE_INT = Bound(int, lambda v: v >= 0, "a non-negative integer")
NON_NEGATIVE = Bound(float, lambda v: v >= 0, "non-negative")
FRACTION = Bound(float, lambda v: 0 <= v <= 1, "a fraction in [0, 1]")


def knob(
    default: Any,
    help: str,
    bound: Bound | tuple[str, ...] | None = None,
    flag: str | bool = True,
) -> Any:
    """A dataclass field that carries its own help, bound and flag name.

    ``bound`` is a :class:`Bound`, a tuple of accepted choices, or ``None``
    (booleans, free-form strings).  A field whose default is ``None`` is
    optional: ``None`` is accepted whatever the bound.  ``flag="--name"``
    names the CLI flag where it is not the field name with dashes;
    ``flag=False`` declares that the knob is not a flag at all.
    """
    return field(
        default=default, metadata={"help": help, "bound": bound, "flag": flag}
    )


def flag_of(spec: Field) -> str | None:
    """The CLI flag of a knob field, or ``None`` for a field that is not a flag."""
    flag = spec.metadata.get("flag", False)
    if flag is True:
        return "--" + spec.name.replace("_", "-")
    return flag or None


def check_knobs(config: Any) -> None:
    """Raise ``ValueError`` for the first field of ``config`` outside its bound."""
    for spec in fields(config):
        bound, value = spec.metadata.get("bound"), getattr(config, spec.name)
        if bound is None or (value is None and spec.default is None):
            continue
        if isinstance(bound, tuple):
            if value not in bound:
                raise ValueError(
                    f"{spec.name} must be one of {bound}, got {value!r}"
                )
        elif not bound.accepts(value):
            raise ValueError(
                f"{spec.name} must be {bound.description}, got {value!r}"
            )
