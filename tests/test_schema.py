"""The config schemas and their validator: unit behaviour, the tables beside
the constructors, and a property test over mutated paper-smoke documents."""

import copy
import functools
import operator

import pytest
from hypothesis import given, settings, strategies as st

from riccikit import bodies, catalog, cli, engine, measures
from riccikit.errors import SchemaViolation, UnknownInequalityId
from riccikit.schema import Key, Schema, describe, fill, number, options, positive, validate


_FAMILY = Schema({"type": Key("string")}, select="type", variants={
    "power": Schema({"p": number(0.5)}),
    "exp": Schema({"lam": positive()}),
})
_SCHEMA = Schema({
    "n": Key("integer", 3, ge=1),
    "w": positive(shape="d"),
    "lams": positive(1.0, shape="1|d"),
    "family": Key("object", None, schema=_FAMILY),
    "mode": Key("string", "a"),
}, select="mode", variants=options("a", "b"), max_dim=4)


class TestValidate:
    def test_defaults_filled(self):
        out = validate(_SCHEMA, {"w": [1.0, 2.0], "extra": "kept"}, "", {"/dims/0": 2})
        assert out == {"n": 3, "w": [1.0, 2.0], "lams": 1.0, "family": None,
                       "mode": "a", "extra": "kept"}

    def test_null_is_absent(self):
        out = validate(_SCHEMA, {"w": [1.0], "n": None}, "", {"/dims/0": 1})
        assert out["n"] == 3
        with pytest.raises(SchemaViolation) as err:
            validate(_SCHEMA, {"w": None}, "", {"/dims/0": 1})
        assert err.value.pointer == "/w"

    @pytest.mark.parametrize(
        "doc,pointer,fragment",
        [
            ({"w": [1.0, 2.0], "n": True}, "/n", "must be an integer"),
            ({"w": [1.0, 2.0], "n": 2.0}, "/n", "must be an integer"),
            ({"w": [1.0, 2.0], "n": 0}, "/n", ">= 1"),
            ({"w": [1.0, 0.0]}, "/w/1", "> 0"),
            ({"w": [1.0, float("inf")]}, "/w/1", "finite"),
            ({"w": [1.0, False]}, "/w/1", "must be a number"),
            ({"w": [1.0]}, "/w", "(/dims/0)"),
            ({"w": 1.0}, "/w", "must be a list"),
            ({"w": [1.0, 2.0], "lams": [1.0, 2.0, 3.0]}, "/lams", "1 or 2 entries"),
            ({"w": [1.0, 2.0], "lams": "1"}, "/lams", "must be a number"),
            ({"w": [1.0, 2.0], "mode": "c"}, "/mode", "not one of"),
            ({"w": [1.0, 2.0], "mode": ["a"]}, "/mode", "must be a string"),
            ({"w": [1.0, 2.0], "family": {"type": "exp"}}, "/family/lam", "requires lam"),
            ({"w": [1.0, 2.0], "family": {"type": {}}}, "/family/type", "must be a string"),
            ({"w": [1.0, 2.0], "family": "exp"}, "/family", "must be an object"),
        ],
    )
    def test_violation_pointer(self, doc, pointer, fragment):
        with pytest.raises(SchemaViolation) as err:
            validate(_SCHEMA, doc, "", {"/dims/0": 2})
        assert err.value.pointer == pointer
        assert fragment in str(err.value)

    def test_dimension_window(self):
        with pytest.raises(SchemaViolation) as err:
            validate(_SCHEMA, {"w": [1.0] * 5}, "/x", {"/dims/0": 2, "/dims/1": 5})
        assert err.value.pointer == "/dims/1"
        assert "<= 4" in str(err.value)

    def test_variant_keys_and_fill(self):
        doc = {"w": [1.0], "family": {"type": "power"}}
        assert validate(_SCHEMA, doc, "", {"/dims/0": 1})["family"] == {"type": "power", "p": 0.5}
        # fill checks nothing and leaves nested objects and required keys alone
        assert fill(_FAMILY, {"type": "power", "p": None}) == {"type": "power", "p": 0.5}
        assert fill(_FAMILY, {"type": "exp"}) == {"type": "exp"}
        assert fill(_SCHEMA, {"mode": "c"}) == {"n": 3, "lams": 1.0, "family": None, "mode": "c"}

    def test_describe(self):
        out = describe(_SCHEMA)
        assert out["required"] == ["w"]
        assert out["properties"]["w"] == {"type": "number", "gt": 0.0, "shape": "d"}
        assert out["properties"]["n"] == {"type": "integer", "default": 3, "ge": 1}
        assert out["variants"] == {"a": {}, "b": {}}
        assert out["max_dim"] == 4 and "min_dim" not in out


class TestTables:
    def test_every_kind_has_a_schema(self):
        assert set(measures.SCHEMA.variants) == set(measures.CONSTRUCTORS)
        assert set(bodies.SCHEMA.variants) == set(bodies.CONSTRUCTORS)

    @pytest.mark.parametrize("doc", cli.load_bundled("paper-smoke"),
                             ids=lambda doc: doc["inequality"])
    def test_validate_and_fill_agree(self, doc):
        # a config and a direct call get the same defaults
        schema = catalog.CATALOG[doc["inequality"]].params
        params = doc.get("params", {})
        dims = {"/dims/0": doc["dims"][0]}
        assert validate(schema, params, "/params", dims) == fill(schema, params)
        for key, module in (("measure", measures), ("body", bodies)):
            if key in doc:
                assert (validate(module.SCHEMA, doc[key], f"/{key}", dims)
                        == fill(module.SCHEMA, doc[key]))

    def test_manifest_publishes_the_schemas(self):
        man = catalog.manifest()
        poly = man["poly_product"]["params"]
        assert poly["select"] == "part" and poly["required"] == ["part"]
        assert poly["variants"]["1"]["properties"]["p"]["default"] == 0.5
        assert man["compact_bl"]["params"]["properties"]["ke_tol"] == {
            "type": "number", "default": 1e-8, "gt": 0.0}
        assert man["hardy_boundary"]["params"]["min_dim"] == 6
        base = man["klartag_transfer"]["params"]["properties"]["base"]
        assert "klartag_transfer" not in base["schema"]["variants"]
        assert "poly_product" in base["schema"]["variants"]


# ---------------------------------------------------------------------------
# property test: mutated paper-smoke documents
# ---------------------------------------------------------------------------

_SMOKE = {doc["inequality"]: {**doc, "samples": 200} for doc in cli.load_bundled("paper-smoke")}
# the paper-smoke documents, plus two that spell out nested objects the
# suite leaves to defaults: klartag_transfer's base and a body inside a measure
_DOCS = list(_SMOKE.values()) + [
    {**_SMOKE["klartag_transfer"], "params": {"base": {"id": "poly_product", "part": 2}}},
    {**_SMOKE["classical_bl"], "measure": {"kind": "uniform_body", "body": {"kind": "ball"}}},
]
_DROP = "<drop>"
_VALUES = [_DROP, None, "x", True, -1, 0, 1e308, [], {}, [1, 2, 3]]
_VALID = {"suite": "fuzz-valid", "inequality": "classical_bl",
          "measure": {"kind": "gaussian"}, "dims": [2], "samples": 200, "seed": 1}


def _paths(obj, prefix=()):
    """Every key path of a document.  `samples` is left out: without it the
    document runs at the default 2e5 points, which is valid but slow."""
    for key, value in obj.items():
        if prefix + (key,) != ("samples",):
            yield prefix + (key,)
        if isinstance(value, dict):
            yield from _paths(value, prefix + (key,))


@st.composite
def _mutated_documents(draw):
    doc = copy.deepcopy(draw(st.sampled_from(_DOCS)))
    path = draw(st.sampled_from(list(_paths(doc))))
    parent = functools.reduce(operator.getitem, path[:-1], doc)
    value = draw(st.sampled_from(_VALUES))
    if value is _DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    d = draw(st.one_of(st.none(), st.integers(1, 12)))
    if d is not None:
        doc["dims"] = [d]
    return doc


# 1e308 and its like overflow on purpose
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=1000)
@given(_mutated_documents())
def test_mutated_document_is_rejected_or_keeps_the_next_rows(doc):
    # a config error stops the batch with a pointer; anything else leaves
    # the valid document after it intact, whatever the mutated one did
    try:
        report = cli.run_documents([doc, _VALID])
    except SchemaViolation as exc:
        assert exc.pointer.startswith("/")
        return
    except UnknownInequalityId:
        return
    rows = [r for r in report.rows if r.suite == "fuzz-valid"]
    assert len(rows) == len(engine.default_suite(2))
    assert all(r.status != "error" for r in rows)
