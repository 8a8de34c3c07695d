"""The one JSON codec: relations, databases, stored rows and stream events.

Every path that writes a value to be parsed again encodes it here:
the JSON file, SQLite rows and key columns, the log backend's relation
snapshots and write-ahead records, and JSONL event files.

* A row and an upsert event share one ``values`` encoding
  (:func:`values_to_json`): evidence sets as ``{"evidence": ...}`` in
  the paper's bracket notation when every mass is exact, otherwise as
  ``{"evidence_items": [...]}`` mass by mass (float masses as JSON
  numbers, exact masses of mixed evidence as ``"n/d"`` strings);
  exact scalars tagged as ``{"fraction": "n/d"}``, so the text ``"1/2"``
  stays distinguishable from the number one half; other scalars as
  themselves.
* Memberships are ``[sn, sp]`` pairs and reliabilities plain numbers,
  with exact values as ``"n/d"`` strings (they are never text).
* Schemas serialize structurally (domains included), so a relation file
  is self-contained.

Floats round-trip through ``repr`` (shortest-repr guarantees equality).
Readers accept everything earlier versions wrote: untagged row scalars,
bracket-string evidence in event files, and write-ahead ``"row"``
upserts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from repro.errors import ReproError, SerializationError, StreamError
from repro.ds.frame import OMEGA, is_omega
from repro.ds.mass import MassFunction, is_fraction
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
    """A membership, reliability or mass: exact values as ``"n/d"``."""
    if is_fraction(value):
        return f"{value.numerator}/{value.denominator}"
    return value


def _number_from_json(value) -> object:
    if isinstance(value, str):
        try:
            return parse_number(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise SerializationError(f"bad numeric literal {value!r}") from exc
    return value


def _fraction_tag(value: Fraction) -> dict:
    """An exact scalar, tagged so it never reads back as text."""
    return {"fraction": f"{value.numerator}/{value.denominator}"}


def _atom_to_json(value) -> object:
    """One scalar: exact values tagged, everything else as itself."""
    return _fraction_tag(value) if is_fraction(value) else value


def _atom_from_json(value) -> object:
    """Decode one scalar; a ``{"fraction": "n/d"}`` tag is exact."""
    if type(value) is dict and len(value) == 1 and "fraction" in value:
        return _number_from_json(value["fraction"])
    return value


def key_to_json(key: tuple) -> list:
    """An entity key as a JSON list of tagged scalars."""
    return [_atom_to_json(part) for part in key]


def key_from_json(document: list) -> tuple:
    """Inverse of :func:`key_to_json`."""
    return tuple([_atom_from_json(part) for part in document])


# -- domains -----------------------------------------------------------------


def domain_to_json(domain: Domain) -> dict:
    """Serialize a domain structurally.

    Enumerated values and numeric bounds are scalars, tagged as in
    :func:`key_to_json`, so exact ones survive ``json.dumps``.
    """
    if isinstance(domain, BooleanDomain):
        return {"kind": "boolean", "name": domain.name}
    if isinstance(domain, EnumeratedDomain):
        return {
            "kind": "enumerated",
            "name": domain.name,
            "values": [
                _atom_to_json(value) for value in sorted(domain.values, key=repr)
            ],
        }
    if isinstance(domain, NumericDomain):
        return {
            "kind": "numeric",
            "name": domain.name,
            "low": _atom_to_json(domain.low),
            "high": _atom_to_json(domain.high),
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
        return EnumeratedDomain(
            name, [_atom_from_json(value) for value in document["values"]]
        )
    if kind == "numeric":
        return NumericDomain(
            name,
            low=_atom_from_json(document.get("low")),
            high=_atom_from_json(document.get("high")),
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


# -- values and rows ------------------------------------------------------------


def _is_text_atom(value) -> bool:
    """Whether *value* reads back from its notation text unchanged."""
    return type(value) in (str, int)


def _text_atoms_only(mass_function: MassFunction) -> bool:
    """Whether every atom of *mass_function* (of its frame, once
    compiled) is a text atom."""
    if mass_function.is_compiled:
        return mass_function.compiled().interned.text_atoms
    return all(
        _is_text_atom(member)
        for element in mass_function.focal_elements()
        if not is_omega(element)
        for member in element
    )


def _element_to_json(element) -> list | None:
    """A focal element's members (OMEGA: ``None``): ``str`` and ``int``
    atoms as notation text, others tagged like scalars."""
    if is_omega(element):
        return None
    if all(_is_text_atom(member) for member in element):
        return sorted(format_atom(member) for member in element)
    return [
        format_atom(member) if _is_text_atom(member) else _atom_to_json(member)
        for member in sorted(element, key=repr)
    ]


def _member_from_json(member) -> object:
    return parse_atom(member) if type(member) is str else _atom_from_json(member)


def _evidence_to_json(evidence: EvidenceSet) -> dict:
    """Serialize one evidence set.

    Exact (Fraction) evidence over ``str`` and ``int`` atoms uses the
    paper's human-readable bracket notation.  Other evidence is stored
    structurally, mass by mass: re-encoding each float as an exact
    fraction would make the masses sum to something other than exactly
    1 and fail re-validation, and notation text would turn ``True`` or
    ``1.5`` into the text ``true`` or the exact ``3/2``.  Float masses
    are JSON numbers and the exact masses of other evidence ``"n/d"``
    strings, so every mass keeps its type; ``bool``, ``float`` and
    ``Fraction`` atoms are tagged like scalars.
    """
    mass_function = evidence.mass_function
    text_atoms = _text_atoms_only(mass_function)
    if text_atoms and mass_function.is_exact():
        return {"evidence": evidence.format(style="fraction")}
    if text_atoms and mass_function.is_compiled:
        # The compiled masks and values are already in canonical focal
        # order, and the interned frame caches each mask's rendering.
        compiled = mass_function.compiled()
        rendered_members = compiled.interned.rendered_members
        return {
            "evidence_items": [
                {
                    "element": _rendering_to_json(rendered_members(mask)),
                    # Fraction is an ABC subclass: test the common float
                    # type first, so float evidence skips its isinstance.
                    "mass": value if type(value) is float else _number_to_json(value),
                }
                for mask, value in zip(compiled.masks, compiled.values)
            ]
        }
    items = []
    for element, value in mass_function.items():
        mass = value if type(value) is float else _number_to_json(value)
        items.append({"element": _element_to_json(element), "mass": mass})
    return {"evidence_items": items}


def _rendering_to_json(rendered: tuple | None) -> list | None:
    """A cached member rendering as a fresh JSON list (OMEGA: ``None``)."""
    return None if rendered is None else list(rendered)


def _evidence_from_json(document: dict, domain) -> EvidenceSet:
    """Deserialize one evidence set (either encoding).

    Evidence over an enumerated domain is compiled to the kernel form
    (:mod:`repro.ds.kernel`) as it is loaded -- bracket text is parsed
    straight into it: the schema's domains deserialize to equal frames,
    which intern to one shared bit assignment per attribute, so a
    reloaded database is immediately back on the compiled fast path for
    queries and merges.  Without a *domain* (an event file names no
    schema) the evidence is unbound; the stream engine binds it to its
    attribute's domain on ingress.
    """
    if "evidence" in document:
        return EvidenceSet.parse(document["evidence"], domain)
    masses: dict = {}
    for item in document["evidence_items"]:
        rendered = item["element"]
        if rendered is None:
            element: object = OMEGA
        else:
            element = frozenset(map(_member_from_json, rendered))
        mass = _number_from_json(item["mass"])
        masses[element] = masses[element] + mass if element in masses else mass
    frame = domain.frame() if domain is not None and domain.is_enumerable else None
    return EvidenceSet(MassFunction(masses, frame), domain).compile()


def values_to_json(items) -> dict:
    """Encode ``(attribute name, value)`` pairs: a row's or an upsert's
    ``values`` (see the module docstring)."""
    values: dict[str, object] = {}
    for name, value in items:
        if isinstance(value, EvidenceSet):
            values[name] = _evidence_to_json(value)
        else:
            values[name] = _atom_to_json(value)
    return values


def values_from_json(document: dict, schema: RelationSchema | None = None) -> dict:
    """Decode a ``values`` object.

    Evidence binds to the attribute's domain in *schema*; without one it
    decodes unbound.  Any other JSON object (a mass mapping in an event
    file) is kept as it is.  Rows written before exact scalars were
    tagged hold them as bare ``"n/d"`` text, which a numeric domain in
    *schema* reads back as the exact number.
    """
    values: dict[str, object] = {}
    for name, value in document.items():
        if type(value) is dict:
            if "evidence" in value or "evidence_items" in value:
                domain = None if schema is None else schema.attribute(name).domain
                value = _evidence_from_json(value, domain)
            else:
                value = _atom_from_json(value)
        elif (
            type(value) is str
            and schema is not None
            and "/" in value
            and isinstance(schema.attribute(name).domain, NumericDomain)
        ):
            value = _number_from_json(value)
        values[name] = value
    return values


def tuple_to_json(etuple: ExtendedTuple) -> dict:
    """Serialize one tuple's values + membership."""
    membership = etuple.membership
    return {
        "values": values_to_json(etuple.items()),
        "membership": [
            _number_to_json(membership.sn),
            _number_to_json(membership.sp),
        ],
    }


def tuple_from_json(row: dict, schema: RelationSchema) -> ExtendedTuple:
    """Deserialize one tuple against its schema."""
    sn, sp = row["membership"]
    membership = TupleMembership(_number_from_json(sn), _number_from_json(sp))
    return ExtendedTuple(schema, values_from_json(row["values"], schema), membership)


# -- stream events -----------------------------------------------------------------


@dataclass(frozen=True)
class UpsertEvent:
    """Assert (or re-assert) one tuple of a source."""

    source: str
    values: dict
    membership: tuple | None = None


@dataclass(frozen=True)
class RetractEvent:
    """Withdraw a source's assertion about one entity."""

    source: str
    key: tuple


@dataclass(frozen=True)
class ReliabilityEvent:
    """Change a source's reliability."""

    source: str
    reliability: object


@dataclass(frozen=True)
class FlushEvent:
    """Close the current micro-batch."""


Event = UpsertEvent | RetractEvent | ReliabilityEvent | FlushEvent


def event_to_json(event: Event) -> dict:
    """Serialize one event to a JSON-compatible document."""
    if isinstance(event, UpsertEvent):
        document: dict = {
            "op": "upsert",
            "source": event.source,
            "values": values_to_json(event.values.items()),
        }
        if event.membership is not None:
            sn, sp = event.membership
            document["membership"] = [_number_to_json(sn), _number_to_json(sp)]
        return document
    if isinstance(event, RetractEvent):
        return {
            "op": "retract",
            "source": event.source,
            "key": key_to_json(event.key),
        }
    if isinstance(event, ReliabilityEvent):
        return {
            "op": "reliability",
            "source": event.source,
            "value": _number_to_json(event.reliability),
        }
    if isinstance(event, FlushEvent):
        return {"op": "flush"}
    raise StreamError(f"cannot serialize event {event!r}")


def event_from_json(document: dict) -> Event:
    """Deserialize one event document.

    Write-ahead journals of earlier versions stored an upsert as a
    ``"row"`` (a stored row's document) instead of ``values`` plus
    ``membership``; those still decode.
    """
    if not isinstance(document, dict):
        raise StreamError(f"event must be a JSON object, got {document!r}")
    op = document.get("op")
    try:
        if op == "upsert":
            row = document.get("row", document)
            membership = row.get("membership")
            if membership is not None:
                sn, sp = membership
                membership = (_number_from_json(sn), _number_from_json(sp))
            return UpsertEvent(
                source=document["source"],
                values=values_from_json(row["values"]),
                membership=membership,
            )
        if op == "retract":
            return RetractEvent(
                source=document["source"], key=key_from_json(document["key"])
            )
        if op == "reliability":
            return ReliabilityEvent(
                source=document["source"],
                reliability=_number_from_json(document["value"]),
            )
        if op == "flush":
            return FlushEvent()
    except (AttributeError, KeyError, TypeError, ValueError, ReproError) as exc:
        raise StreamError(f"malformed {op!r} event: {exc}") from exc
    raise StreamError(f"unknown event op {op!r}")


# -- relations -----------------------------------------------------------------


def relation_to_json(relation: ExtendedRelation) -> dict:
    """Serialize a relation (schema + tuples) to JSON-able structures."""
    return {
        "format_version": FORMAT_VERSION,
        "schema": schema_to_json(relation.schema),
        "tuples": [tuple_to_json(etuple) for etuple in relation],
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
    return ExtendedRelation(schema, [tuple_from_json(row, schema) for row in rows])


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
