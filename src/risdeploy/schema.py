"""The input schemas shipped in `schemas/`, and the one checker that applies them.

`conform` reads the part of JSON Schema (draft 2020-12) that
config.schema.json and scene.schema.json use: `type` (a name or a list of
names), `enum`, `required`, `properties`, `additionalProperties: false`,
`items`, `minItems`, `maxItems` and the four numeric bounds. Python's JSON
parser also reads NaN, Infinity, -Infinity and integers no float can hold;
none of them is a number here, and neither is a bool.
"""

import functools
import json
import operator
import sys
from importlib import resources

from .errors import SceneFormatError

_BOUNDS = {"minimum": (operator.ge, ">="), "exclusiveMinimum": (operator.gt, ">"),
           "maximum": (operator.le, "<="), "exclusiveMaximum": (operator.lt, "<")}
_NAMES = {"number": "a finite number", "integer": "an integer", "string": "a string",
          "boolean": "a boolean", "null": "null", "array": "a list", "object": "an object"}
_CLASSES = {"string": str, "boolean": bool, "null": type(None), "array": (list, tuple),
            "object": dict}
_WRONG = object()  # a value that is not of the JSON type asked for


@functools.cache
def load(name: str) -> dict:
    "The shipped schema schemas/<name>.schema.json."
    return json.loads(resources.files(__package__)
                      .joinpath(f"schemas/{name}.schema.json").read_text())


def _is_number(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _typed(value, kind: str):
    "`value` as the JSON type `kind` (an integral float as an int), or _WRONG."
    if kind == "number":
        return value if _is_number(value) else _WRONG
    if kind == "integer":
        integral = _is_number(value) and (isinstance(value, int) or value.is_integer())
        return int(value) if integral else _WRONG
    return value if isinstance(value, _CLASSES[kind]) else _WRONG


def conform(value, schema: dict, field: str = ""):
    """`value` checked against `schema`, with each list as a tuple and each
    integral float that must be an integer as an int.

    A violation raises SceneFormatError naming `field`: the dotted path of
    object keys from the root (array items take their array's name), or
    "<root>" for the root itself.
    """
    name = field or "<root>"
    if "type" in schema:
        kinds = schema["type"] if isinstance(schema["type"], list) else [schema["type"]]
        for kind in kinds:
            typed = _typed(value, kind)
            if typed is not _WRONG:
                break
        else:
            wanted = " or ".join(_NAMES[k] for k in kinds)
            raise SceneFormatError(name, f"must be {wanted}, got {_shown(value)}")
        value = typed
    if "enum" in schema and value not in schema["enum"]:
        raise SceneFormatError(name, f"must be one of {schema['enum']}, got {_shown(value)}")
    if _is_number(value):
        for key, (holds, sign) in _BOUNDS.items():
            if key in schema and not holds(value, schema[key]):
                raise SceneFormatError(name, f"must be {sign} {schema[key]}, got {value!r}")
    if isinstance(value, (list, tuple)):
        least, most = schema.get("minItems", 0), schema.get("maxItems")
        if len(value) < least or (most is not None and len(value) > most):
            count = (least if least == most else f"at least {least}" if most is None
                     else f"{least} to {most}")
            raise SceneFormatError(name, f"must have {count} items, got {_shown(value)}")
        value = tuple(conform(item, schema.get("items", {}), field) for item in value)
    if isinstance(value, dict):
        props = schema.get("properties", {})
        for key in schema.get("required", ()):
            if key not in value:
                raise SceneFormatError(_key(field, key), "missing required field")
        for key in value:
            if key not in props and schema.get("additionalProperties") is False:
                raise SceneFormatError(_key(field, key), "unknown field")
        value = {key: conform(item, props[key], _key(field, key)) if key in props else item
                 for key, item in value.items()}
    return value


def _key(field: str, key: str) -> str:
    return f"{field}.{key}" if field else key


def _shown(value) -> str:
    return json.dumps(value, default=repr)
