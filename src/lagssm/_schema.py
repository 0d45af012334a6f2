"""One rule for every config dataclass: each field holds a value of the kind
its annotation names.  finite_array and system are the builders' array rules;
write_json and write_table write every file, and read_json reads JSON ones.

`float` is a finite real number and not a bool, `int` an integer and not a
bool, `FilePath` a nonempty string without NUL; `bool`, `str`, `X | None`,
tuples of floats, nested config dataclasses and unions of them (see build)
follow from the annotations, resolved once per class.  Range checks stay
in each class's __post_init__.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import typing
from numbers import Integral, Real

import numpy as np

from .errors import ArgumentError


def finite_real(v) -> bool:
    """The rule of every `float` field: a finite real number, not a bool."""
    if not isinstance(v, Real) or isinstance(v, bool):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an int beyond float range
        return False


def check_finite(name: str, value):
    """value; an ArgumentError naming it unless finite_real(value)."""
    if not finite_real(value):
        raise ArgumentError(f"{name} must be a finite real number, got {value!r}")
    return value


def finite_array(name: str, value, ndim: int | None = None, finite: bool = True) -> np.ndarray:
    """value as a float array; an ArgumentError naming it unless it is a
    rectangular (not ragged) array of integers or floats (not bools, complex
    numbers, strings or objects), of ndim dimensions if given, whose entries
    are finite unless finite=False (the first that is not is named by index)."""
    try:
        arr = np.asarray(value)
    except ValueError as exc:  # numpy's text for a ragged nesting
        raise ArgumentError(f"{name} must be a rectangular array: {exc}") from None
    if arr.dtype.kind not in "iuf":
        raise ArgumentError(f"{name} must hold finite real numbers, got dtype {arr.dtype}")
    if ndim is not None and arr.ndim != ndim:
        shape = ("a scalar", "a vector", "a matrix")[ndim]
        raise ArgumentError(f"{name} must be {shape}, got shape {arr.shape}")
    if finite and not (ok := np.isfinite(arr)).all():
        i = np.unravel_index(np.argmin(ok), arr.shape)
        raise ArgumentError(f"{name}{list(map(int, i)) if i else ''} must be finite, got {arr[i]}")
    return arr.astype(float, copy=False)


def system(a, *vectors, names=("a", "b")) -> tuple:
    """(a, *vectors) as float arrays; an ArgumentError naming the operand
    (names[0] for a, names[1] for a vector) unless a is a finite square
    matrix and each vector a finite vector of a's size."""
    a = finite_array(names[0], a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ArgumentError(f"{names[0]} must be a square matrix, got shape {a.shape}")
    vectors = [finite_array(names[1], v) for v in vectors]
    if any(v.shape != a.shape[:1] for v in vectors):
        shapes = [v.shape for v in vectors]
        raise ArgumentError(f"{names[1]} must be {names[0]}'s size {len(a)}, got shapes {shapes}")
    return (a, *vectors)


FilePath = typing.NewType("FilePath", str)

_SCALARS = {
    float: (finite_real, "a finite real number"),
    int: (lambda v: isinstance(v, Integral) and not isinstance(v, bool), "an integer"),
    bool: (lambda v: isinstance(v, bool), "true or false"),
    str: (lambda v: isinstance(v, str), "a string"),
    FilePath: (lambda v: isinstance(v, str) and v != "" and "\0" not in v,
               "a nonempty path without NUL"),
}


def _sections(hint) -> tuple:
    """The config dataclasses a field of this annotation holds: hint, or
    each member of a union of them; none for any other annotation."""
    classes = typing.get_args(hint) or (hint,)
    return classes if all(map(dataclasses.is_dataclass, classes)) else ()


def _kind(hint) -> tuple:
    """(test, description) of one resolved annotation."""
    if hint in _SCALARS:
        return _SCALARS[hint]
    if classes := _sections(hint):
        return (lambda v: isinstance(v, classes)), " or ".join(f"a {c.__name__}" for c in classes)
    args = typing.get_args(hint)
    test, what = _kind(args[0])
    if type(None) in args:  # X | None
        return (lambda v: v is None or test(v)), f"{what} or null"
    # tuple[X, ...] or a fixed-length tuple[X, X, X]
    n = None if args[-1] is Ellipsis else len(args)
    return (
        lambda v: isinstance(v, tuple) and n in (None, len(v)) and all(map(test, v))
    ), f"a list of {n} entries, each {what}" if n else f"a list, each entry {what}"


@functools.cache
def _fields(cls) -> dict:
    """name -> (annotation, test, description) for each field of cls."""
    hints = typing.get_type_hints(cls)
    return {f.name: (hints[f.name], *_kind(hints[f.name])) for f in dataclasses.fields(cls)}


def check_fields(obj, section: str) -> None:
    """Raise ArgumentError naming `<section> <field>` for the first field of
    obj whose value is not of its annotated kind."""
    for name, (_, test, what) in _fields(type(obj)).items():
        value = getattr(obj, name)
        if not test(value):
            raise ArgumentError(f"{section} {name} must be {what}, got {value!r}")


def build(cls, raw, section: str):
    """cls from parsed JSON: raw must be an object whose keys name fields of
    cls; an object under a config-dataclass field builds that class, and a
    list under a tuple field becomes a tuple.  cls checks the values.  For
    a union, whose members each have a class attribute `kind`, raw's
    `kind` key picks the member (the first when absent), and only the
    member's own fields may follow."""
    if not isinstance(raw, dict):
        raise ArgumentError(f"{section} must be a JSON object, got {raw!r}")
    if len(classes := _sections(cls)) > 1:
        members = {c.kind: c for c in classes}
        kind = raw.get("kind", classes[0].kind)
        if not isinstance(kind, str) or kind not in members:
            raise ArgumentError(f"unknown {section} kind {kind!r}; expected one of {list(members)}")
        cls, raw = members[kind], {key: v for key, v in raw.items() if key != "kind"}
    kinds = _fields(cls)
    unknown = [key for key in raw if key not in kinds]
    if unknown:
        raise ArgumentError(
            f"unknown {section} key {unknown[0]!r}; expected one of {list(kinds)}"
        )
    kwargs = dict(raw)
    for key, value in raw.items():
        hint = kinds[key][0]
        if _sections(hint):
            kwargs[key] = build(hint, value, key)
        elif isinstance(value, list) and typing.get_origin(hint) is tuple:
            kwargs[key] = tuple(value)
    return cls(**kwargs)


def read_json(path):
    """Parsed JSON of a file; an unreadable file is an ArgumentError naming
    the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ArgumentError(f"cannot read {str(path)!r}: {exc}") from exc


def write_json(path, obj) -> None:
    """obj in json.dump(obj, fh, indent=1)'s layout plus a newline; an ndarray goes as its
    tolist() a row at a time through json's C encoder, so floats load back bit-identical.
    A dict key that is not a str, at any depth, is an ArgumentError before the file is opened."""
    _check_keys(path, obj)
    with open(path, "w", encoding="utf-8") as fh:
        _write_json_value(fh, obj, "\n")
        fh.write("\n")


def _check_keys(path, obj) -> None:
    """ArgumentError naming the first dict key in obj's dicts and lists that is not a str."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            if not isinstance(key, str):
                raise ArgumentError(f"cannot write {str(path)!r}: object key {key!r} is not a str")
            _check_keys(path, value)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            _check_keys(path, value)


def _write_json_value(fh, obj, outer: str) -> None:
    """obj as json.dump(indent=1) writes it at the depth whose line break is outer."""
    inner, array = outer + " ", isinstance(obj, np.ndarray)
    if isinstance(obj, dict) and obj:
        brackets, items = "{}", [(json.dumps(key) + ": ", v) for key, v in obj.items()]
    elif array and obj.ndim > 1 and len(obj):
        brackets, items = "[]", [("", row) for row in obj]
    elif array and obj.ndim == 1 and len(obj):  # indent=1's layout from the C encoder
        text = json.dumps(obj.tolist(), separators=("," + inner, ": "))
        fh.write("[" + inner + text[1:-1] + outer + "]")
        return
    else:
        fh.write(json.dumps(obj.tolist() if array else obj, indent=1).replace("\n", outer))
        return
    fh.write(brackets[0])
    for i, (key, value) in enumerate(items):
        fh.write(("," if i else "") + inner + key)
        _write_json_value(fh, value, inner)
    fh.write(outer + brackets[1])


def write_table(path, header: list[str], table) -> None:
    """CSV in csv.writer's excel layout; floats in shortest-round-trip repr."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for row in np.asarray(table, dtype=float).tolist():
            fh.write(",".join(map(repr, row)) + "\r\n")
