"""Exceptions shared across the package, and the checks of JSON value types."""


class ParseError(ValueError):
    """Malformed word text.

    `offset` is the character position of the offending token in the input.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class ValidationError(ValueError):
    """Input violates a documented precondition."""


class RangeError(IndexError):
    """Requested data lies outside what has been materialized or stored."""


def json_int(obj, key: str) -> int:
    """``obj[key]`` if it is a JSON integer (not a boolean), else ValidationError."""
    value = obj[key]
    if type(value) is not int:
        raise ValidationError(f"{key} must be an integer, got {value!r}")
    return value


def json_bool(obj, key: str) -> bool:
    """``obj[key]`` if it is a JSON boolean, else ValidationError."""
    value = obj[key]
    if type(value) is not bool:
        raise ValidationError(f"{key} must be a boolean, got {value!r}")
    return value


def json_list(value, name: str, *, of: type | None = None, length: int | None = None) -> list:
    """`value` if it is a JSON array, of `length` items, each of type `of`, if given."""
    if type(value) is not list or length not in (None, len(value)):
        size = "" if length is None else f" of {length} items"
        raise ValidationError(f"{name} must be an array{size}")
    if of is not None and not all(type(item) is of for item in value):
        kind = "an array" if of is list else "an object"
        raise ValidationError(f"every item of {name} must be {kind}")
    return value
