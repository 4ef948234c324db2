"""Declarative config schemas and the one validator that reads them.

A `Schema` lists the keys of a JSON object, each as a `Key` with its type,
range, shape and default.  Its selector key, if any, picks a variant schema
with more keys (a measure's `kind`, a family's `type`, an entry's `part` or
`mode`), and it may bound the dimensions it admits.  `validate` checks a
config object and returns a copy with the defaults filled in; `fill` fills
the defaults alone, for objects built in code.  Keys a schema does not list
pass through unchecked, and a null counts as an absent key.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

from .errors import SchemaViolation

REQUIRED = object()  # the default of a key a config must give

_TYPES = {
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "object": lambda v: isinstance(v, dict),
}


@dataclass(frozen=True)
class Key:
    """One key: its type, one of `_TYPES` (a bool is not a number, and a
    number is finite), and lower bounds `gt`, `ge`.  `shape` makes it a list:
    "*" of any length, "+" non-empty, "d" of d entries at every listed
    dimension d, "1|d" a single value or a list of 1 or d entries.  An
    object is checked against `schema` when one is given."""

    type: str
    default: object = REQUIRED
    gt: Optional[float] = None
    ge: Optional[float] = None
    shape: Optional[str] = None
    schema: Optional["Schema"] = None


@dataclass(frozen=True)
class Schema:
    """The keys of an object; the value of its `select` key picks one of
    `variants`, whose keys are checked too; `min_dim` to `max_dim` (None: no
    upper end) bounds the dimensions."""

    keys: dict = field(default_factory=dict)
    select: Optional[str] = None
    variants: dict = field(default_factory=dict)
    min_dim: int = 1
    max_dim: Optional[int] = None

    @property
    def required(self):
        return [name for name, key in self.keys.items() if key.default is REQUIRED]


def number(default=REQUIRED, **kw):
    return Key("number", default, **kw)


def positive(default=REQUIRED, **kw):
    return Key("number", default, gt=0.0, **kw)


def options(*values):
    """Variants that add no keys: the selector picks one of `values`."""
    return dict.fromkeys(values, Schema())


def validate(schema, obj, at, dims, owner="config"):
    """`obj` checked against `schema` at the JSON pointer `at`, with the
    defaults filled in.  `dims` maps the pointer of each listed dimension to
    its value; `owner` names the object in messages.  The first violation
    raises SchemaViolation at its pointer."""
    if not isinstance(obj, dict):
        raise SchemaViolation(at, f"{owner} must be an object, not {obj!r}")
    for where, d in dims.items() if schema.min_dim > 1 or schema.max_dim else ():
        if d < schema.min_dim:
            raise SchemaViolation(where, f"{owner} requires dimension >= {schema.min_dim}")
        if schema.max_dim is not None and d > schema.max_dim:
            raise SchemaViolation(where, f"{owner} requires dimension <= {schema.max_dim}")
    out = dict(obj)
    for name, key in schema.keys.items():
        if obj.get(name) is not None:
            out[name] = _value(key, obj[name], f"{at}/{name}", dims, name)
        elif key.default is REQUIRED:
            raise SchemaViolation(f"{at}/{name}", f"{owner} requires {name}")
        else:
            out[name] = key.default
    if schema.select is None:
        return out
    value = out[schema.select]
    if value not in schema.variants:
        raise SchemaViolation(f"{at}/{schema.select}", f"{owner}: {schema.select} "
                              f"{value!r} is not one of {list(schema.variants)}")
    owner = f"{owner} {schema.select} {value!r}"
    return validate(schema.variants[value], out, at, dims, owner)


def _value(key, value, at, dims, name):
    if key.shape is None or (key.shape == "1|d" and not isinstance(value, list)):
        return _scalar(key, value, at, dims, name)
    if not isinstance(value, list):
        raise SchemaViolation(at, f"{name} must be a list, not {value!r}")
    if key.shape == "+" and not value:
        raise SchemaViolation(at, f"{name} must not be empty")
    for where, d in dims.items() if key.shape in ("d", "1|d") else ():
        sizes = (d,) if key.shape == "d" else (1, d)
        if len(value) not in sizes:
            raise SchemaViolation(at, f"{name} needs {' or '.join(map(str, sizes))} entries "
                                      f"at dimension {d} ({where}), not {len(value)}")
    return [_scalar(key, v, f"{at}/{i}", dims, name) for i, v in enumerate(value)]


def _scalar(key, value, at, dims, name):
    if not _TYPES[key.type](value):
        article = "an" if key.type[0] in "aeiou" else "a"
        raise SchemaViolation(at, f"{name} must be {article} {key.type}, not {value!r}")
    if key.type == "object":
        return validate(key.schema, value, at, dims, name) if key.schema else value
    if key.type == "number" and not math.isfinite(value):
        raise SchemaViolation(at, f"{name} must be finite, not {value!r}")
    if key.gt is not None and not value > key.gt:
        raise SchemaViolation(at, f"{name} must be > {key.gt:g}, not {value!r}")
    if key.ge is not None and not value >= key.ge:
        raise SchemaViolation(at, f"{name} must be >= {key.ge:g}, not {value!r}")
    return value


def fill(schema, obj):
    """`obj` with the defaults of `schema`, and of the variant its selector
    picks, filled in where a key is absent or null; nothing is checked."""
    out = dict(obj)
    for name, key in schema.keys.items():
        if out.get(name) is None and key.default is not REQUIRED:
            out[name] = key.default
    variant = schema.variants.get(out.get(schema.select)) if schema.select else None
    return fill(variant, out) if variant else out


def describe(schema):
    """The schema as JSON: each key's type, bounds, shape and default (a null
    default: derived when absent), the required keys, the selector and its
    variants, and the dimension window."""
    out = {
        "properties": {name: {k: describe(v) if k == "schema" else v
                              for k, v in vars(key).items()
                              if v is not REQUIRED and (v is not None or k == "default")}
                       for name, key in schema.keys.items()},
        "required": schema.required, "select": schema.select,
        "variants": {str(v): describe(s) for v, s in schema.variants.items()},
        "max_dim": schema.max_dim,
    }
    out = {k: v for k, v in out.items() if v not in (None, [], {})}
    return {**out, "min_dim": schema.min_dim} if schema.min_dim > 1 else out
