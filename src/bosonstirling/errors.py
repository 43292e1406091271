"""Exceptions shared across the package, and the checks of integer arguments,
containers, JSON values and derived keys."""

from collections.abc import Iterable


class ValidationError(ValueError):
    """Input violates a documented precondition; every rejection raises one."""


class ParseError(ValidationError):
    """Malformed word text.

    `offset` is the character position of the offending token in the input.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class RangeError(ValidationError, IndexError):
    """An integer argument lies outside its bounds, such as an index past what
    has been materialized or stored: both a ValidationError and an IndexError."""


#: How a message names each type that :func:`json_value` checks.
_KIND_NAMES = {int: "an integer", bool: "a boolean", str: "a string"}


def json_value(obj, key: str, kind: type | None = None):
    """``obj[key]``, of exactly type `kind` if given: a boolean is not an ``int``.

    ValidationError, naming `key`, if `obj` is not a JSON object, lacks
    `key` or holds a value of another type there.
    """
    if type(obj) is not dict:
        raise ValidationError(f"expected a JSON object with key {key!r}")
    if key not in obj:
        raise ValidationError(f"missing key {key!r}")
    value = obj[key]
    if kind is not None and type(value) is not kind:
        raise ValidationError(f"{key} must be {_KIND_NAMES[kind]}, got {value!r}")
    return value


def require_int(value, name: str, lo: int | None = None, hi: int | None = None) -> int:
    """`value` if it is exactly an ``int`` in lo..hi, each bound optional: a
    ``bool`` or a numpy integer is not an ``int``.

    ValidationError, naming `name`, for a value of another type, and
    RangeError, naming `name`, for an ``int`` outside lo..hi.
    """
    if type(value) is not int:
        raise ValidationError(f"{name} must be an int, got {value!r}")
    if lo is not None and value < lo:
        least = "non-negative" if lo == 0 else f"at least {lo}"
        raise RangeError(f"{name} must be {least}, got {value}")
    if hi is not None and value > hi:
        raise RangeError(f"{name} must be at most {hi}, got {value}")
    return value


def require_items(value, name: str) -> tuple:
    """The items of `value` as a tuple, if it is an iterable other than text.

    ValidationError, naming `name`, for a ``str`` or ``bytes``, whose
    characters are not items, and for an object that is not iterable.
    """
    if isinstance(value, (str, bytes)) or not isinstance(value, Iterable):
        raise ValidationError(f"{name} must be a sequence other than text, got {value!r}")
    return tuple(value)


def json_derived(obj, key: str, derived, kind=None) -> None:
    """Check a key that the object's other keys fix: ``obj[key]`` must equal `derived`.

    It is read as :func:`json_value` reads it if `kind` is a type, else through
    the reader `kind`, such as ``parse_rational``.  ValidationError names `key`
    and quotes the file's value."""
    typed = kind is None or isinstance(kind, type)
    value = json_value(obj, key, kind if typed else None)
    if (value if typed else kind(value)) != derived:
        raise ValidationError(f"serialized {key} {value!r} does not match the other keys")


def json_list(value, name: str, *, of: type | None = None, length: int | None = None) -> list:
    """`value` if it is a JSON array, of `length` items, each of type `of`, if given."""
    if type(value) is not list or length not in (None, len(value)):
        size = "" if length is None else f" of {length} items"
        raise ValidationError(f"{name} must be an array{size}")
    if of is not None and not all(type(item) is of for item in value):
        kind = "an array" if of is list else "an object"
        raise ValidationError(f"every item of {name} must be {kind}")
    return value
