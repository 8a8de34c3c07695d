"""Lossless JSON serialization of extended relations and databases.

Design choices:

* evidence sets serialize in the paper's bracket notation (exact
  fractions as ``1/3``), so serialized relations are human-readable and
  re-parse losslessly;
* memberships serialize as ``[sn, sp]`` strings with the same exactness;
* schemas serialize structurally (domains included), so a relation file
  is self-contained.

Floats round-trip through ``repr`` (shortest-repr guarantees equality);
exactness of Fractions is preserved verbatim.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from repro.errors import SerializationError
from repro.ds.frame import OMEGA, is_omega
from repro.ds.mass import MassFunction
from repro.ds.notation import format_atom, parse_atom, parse_number
from repro.model.attribute import Attribute
from repro.model.domain import (
    AnyDomain,
    BooleanDomain,
    Domain,
    EnumeratedDomain,
    NumericDomain,
    TextDomain,
)
from repro.model.etuple import ExtendedTuple
from repro.model.evidence import EvidenceSet
from repro.model.membership import TupleMembership
from repro.model.relation import ExtendedRelation
from repro.model.schema import RelationSchema
from repro.storage.database import Database

#: Serialization format version, embedded in every document.
FORMAT_VERSION = 1


def _number_to_json(value) -> object:
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return value


def _number_from_json(value) -> object:
    if isinstance(value, str):
        try:
            return parse_number(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise SerializationError(f"bad numeric literal {value!r}") from exc
    return value


def _atom_to_json(value) -> object:
    """Encode a key part or attribute scalar.

    Unlike memberships/reliabilities (always numeric, serialized as
    ``"n/d"`` strings), keys and values may be genuine text -- so exact
    fractions are tagged rather than stringified, keeping ``"1/2"`` the
    text distinguishable from the number one half.
    """
    if isinstance(value, Fraction):
        return {"fraction": f"{value.numerator}/{value.denominator}"}
    return value


def _atom_from_json(value) -> object:
    if isinstance(value, dict) and set(value) == {"fraction"}:
        return Fraction(value["fraction"])
    return value


# -- domains -----------------------------------------------------------------


def domain_to_json(domain: Domain) -> dict:
    """Serialize a domain structurally."""
    if isinstance(domain, BooleanDomain):
        return {"kind": "boolean", "name": domain.name}
    if isinstance(domain, EnumeratedDomain):
        return {
            "kind": "enumerated",
            "name": domain.name,
            "values": sorted(domain.values, key=repr),
        }
    if isinstance(domain, NumericDomain):
        return {
            "kind": "numeric",
            "name": domain.name,
            "low": domain.low,
            "high": domain.high,
            "integral": domain.integral,
        }
    if isinstance(domain, TextDomain):
        pattern = domain._pattern.pattern if domain._pattern is not None else None
        return {"kind": "text", "name": domain.name, "pattern": pattern}
    if isinstance(domain, AnyDomain):
        return {"kind": "any", "name": domain.name}
    raise SerializationError(f"cannot serialize domain {domain!r}")


def domain_from_json(document: dict) -> Domain:
    """Deserialize a domain."""
    kind = document.get("kind")
    name = document.get("name", "domain")
    if kind == "boolean":
        return BooleanDomain(name)
    if kind == "enumerated":
        return EnumeratedDomain(name, document["values"])
    if kind == "numeric":
        return NumericDomain(
            name,
            low=document.get("low"),
            high=document.get("high"),
            integral=document.get("integral", False),
        )
    if kind == "text":
        return TextDomain(name, pattern=document.get("pattern"))
    if kind == "any":
        return AnyDomain(name)
    raise SerializationError(f"unknown domain kind {kind!r}")


# -- schemas ------------------------------------------------------------------


def schema_to_json(schema: RelationSchema) -> dict:
    """Serialize a relation schema."""
    return {
        "name": schema.name,
        "attributes": [
            {
                "name": attribute.name,
                "domain": domain_to_json(attribute.domain),
                "key": attribute.key,
                "uncertain": attribute.uncertain,
            }
            for attribute in schema.attributes
        ],
    }


def schema_from_json(document: dict) -> RelationSchema:
    """Deserialize a relation schema."""
    try:
        attributes = [
            Attribute(
                entry["name"],
                domain_from_json(entry["domain"]),
                key=entry.get("key", False),
                uncertain=entry.get("uncertain", False),
            )
            for entry in document["attributes"]
        ]
        return RelationSchema(document["name"], attributes)
    except KeyError as exc:
        raise SerializationError(f"schema document missing field {exc}") from exc


# -- evidence -------------------------------------------------------------------


def _evidence_to_json(evidence: EvidenceSet) -> dict:
    """Serialize one evidence set.

    Exact (Fraction) evidence uses the paper's human-readable bracket
    notation.  Float evidence is stored structurally, mass by mass:
    re-encoding each float as an exact fraction would make the masses
    sum to something other than exactly 1 and fail re-validation.
    """
    mass_function = evidence.mass_function
    if mass_function.is_exact():
        return {"evidence": evidence.format(style="fraction")}
    if mass_function.is_compiled:
        # The compiled masks and values are already in canonical focal
        # order, and the interned frame caches each mask's rendering.
        compiled = mass_function.compiled()
        rendered_members = compiled.interned.rendered_members
        return {
            "evidence_items": [
                {
                    "element": _rendering_to_json(rendered_members(mask)),
                    "mass": float(value),
                }
                for mask, value in zip(compiled.masks, compiled.values)
            ]
        }
    items = []
    for element, value in mass_function.items():
        if is_omega(element):
            rendered = None
        else:
            rendered = sorted(format_atom(member) for member in element)
        items.append({"element": rendered, "mass": float(value)})
    return {"evidence_items": items}


def _rendering_to_json(rendered: tuple | None) -> list | None:
    """A cached member rendering as a fresh JSON list (OMEGA: ``None``)."""
    return None if rendered is None else list(rendered)


def _evidence_from_json(document: dict, domain) -> EvidenceSet:
    """Deserialize one evidence set (either encoding).

    Evidence over an enumerated domain is compiled to the kernel form
    (:mod:`repro.ds.kernel`) as it is loaded: the schema's domains
    deserialize to equal frames, which intern to one shared bit
    assignment per attribute, so a reloaded database is immediately
    back on the compiled fast path for queries and merges.
    """
    if "evidence" in document:
        return EvidenceSet.parse(document["evidence"], domain).compile()
    masses: dict = {}
    for item in document["evidence_items"]:
        rendered = item["element"]
        if rendered is None:
            element: object = OMEGA
        else:
            element = frozenset(parse_atom(member) for member in rendered)
        masses[element] = masses.get(element, 0.0) + item["mass"]
    frame = domain.frame() if domain is not None and domain.is_enumerable else None
    return EvidenceSet(MassFunction(masses, frame), domain).compile()


# -- relations -----------------------------------------------------------------


def _tuple_to_json(etuple: ExtendedTuple) -> dict:
    """Serialize one tuple's values + membership."""
    values: dict[str, object] = {}
    for name, value in etuple.items():
        if isinstance(value, EvidenceSet):
            values[name] = _evidence_to_json(value)
        else:
            values[name] = _number_to_json(value) if isinstance(
                value, Fraction
            ) else value
    return {
        "values": values,
        "membership": [
            _number_to_json(etuple.membership.sn),
            _number_to_json(etuple.membership.sp),
        ],
    }


def _tuple_from_json(row: dict, schema: RelationSchema) -> ExtendedTuple:
    """Deserialize one tuple against its schema."""
    values: dict[str, object] = {}
    for name, value in row["values"].items():
        if isinstance(value, dict) and (
            "evidence" in value or "evidence_items" in value
        ):
            attribute = schema.attribute(name)
            values[name] = _evidence_from_json(value, attribute.domain)
        else:
            values[name] = value
    sn, sp = row["membership"]
    membership = TupleMembership(_number_from_json(sn), _number_from_json(sp))
    return ExtendedTuple(schema, values, membership)


def relation_to_json(relation: ExtendedRelation) -> dict:
    """Serialize a relation (schema + tuples) to JSON-able structures."""
    return {
        "format_version": FORMAT_VERSION,
        "schema": schema_to_json(relation.schema),
        "tuples": [_tuple_to_json(etuple) for etuple in relation],
    }


def tuple_count(document: dict) -> int:
    """The number of tuples a relation document holds (flat or sharded)."""
    if "tuple_partitions" in document:
        return sum(len(shard) for shard in document["tuple_partitions"])
    return len(document.get("tuples", []))


def relation_from_json(document: dict) -> ExtendedRelation:
    """Deserialize a relation.

    Documents written by older versions may hold the tuples as hash
    shards under ``tuple_partitions``; those still load, concatenated
    shard by shard.
    """
    if document.get("format_version") != FORMAT_VERSION:
        raise SerializationError(
            f"unsupported format version {document.get('format_version')!r}"
        )
    schema = schema_from_json(document["schema"])
    if "tuple_partitions" in document:
        rows = [row for shard in document["tuple_partitions"] for row in shard]
    else:
        rows = document["tuples"]
    return ExtendedRelation(schema, [_tuple_from_json(row, schema) for row in rows])


# -- databases --------------------------------------------------------------------


def database_to_json(database: Database) -> dict:
    """Serialize a whole database."""
    return {
        "format_version": FORMAT_VERSION,
        "name": database.name,
        "relations": [relation_to_json(relation) for relation in database],
    }


def database_from_json(document: dict) -> Database:
    """Deserialize a whole database."""
    if document.get("format_version") != FORMAT_VERSION:
        raise SerializationError(
            f"unsupported format version {document.get('format_version')!r}"
        )
    database = Database(document.get("name", "db"))
    # One batched change notification for the whole load: listeners
    # (session invalidation sweeps, subscription refreshes) see a single
    # event instead of one per relation.
    with database.batch():
        for entry in document.get("relations", []):
            # Bypass the identifier check: files saved before the rule
            # existed must stay loadable (their relations remain
            # reachable via get/show even when the query language
            # cannot name them).
            database._install(relation_from_json(entry))
    return database


# -- file helpers --------------------------------------------------------------------


def save_relation(relation: ExtendedRelation, path) -> None:
    """Write a relation to a JSON file."""
    Path(path).write_text(json.dumps(relation_to_json(relation), indent=2))


def _read_json_document(path) -> dict:
    """Read + parse one JSON file, folding I/O failures into
    :class:`SerializationError` (with the offending path) so CLI users
    and backend callers see one error family instead of raw
    ``FileNotFoundError``/``JSONDecodeError`` leaks."""
    try:
        text = Path(path).read_text()
    except FileNotFoundError as exc:
        raise SerializationError(f"no such file: {path}") from exc
    except OSError as exc:
        raise SerializationError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"invalid JSON in {path}: {exc}") from exc


def load_relation(path) -> ExtendedRelation:
    """Read a relation from a JSON file."""
    return relation_from_json(_read_json_document(path))


def save_database(database: Database, path) -> None:
    """Write a database to a JSON file."""
    Path(path).write_text(json.dumps(database_to_json(database), indent=2))


def load_database(path) -> Database:
    """Read a database from a JSON file."""
    return database_from_json(_read_json_document(path))
