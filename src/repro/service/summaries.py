"""Persistent task-summary records: the cross-job incremental tier.

The engine memoizes ``R_T`` slices (Lemma 21's :class:`TaskSummary`)
per ``(task, input canonical key, β)`` within one ``Verifier``.  This
module makes those summaries durable and *shareable across jobs*:

* :func:`persistent_summary_key` — the content address of one summary:
  a hash of everything the summary's exploration can observe — the task
  subtree, the foreign-key-closed schema slice it can read, the full
  relation-name universe (anchoring reads names), the β obligations,
  the exploration-relevant config knobs, and the input canonical key.
  An edit anywhere *else* in the scenario leaves the key unchanged, so
  invalidation is by construction: a stale entry is simply never looked
  up again.
* :func:`encode_record` / :func:`decode_record` — an exact structural
  codec for a summary plus the transitive closure of the summaries it
  consulted, so installing one record reproduces the warm engine state
  (and the cold run's ``km_nodes``/``summaries`` totals) byte-for-byte.

The codec is deliberately *raw*: it serializes the constraint store's
internal fields (union-find parents, insertion-ordered children and
numeric constraints, node serials) rather than a semantic abstraction,
because downstream exploration is sensitive to exactly those details —
``absorb`` iterates live roots by ``repr`` (serial-ordered) and numeric
constraint list order drives Fourier–Motzkin projection shapes — and
byte-identical verdicts/witnesses cold-vs-warm are the test contract.

Decoding mirrors the :class:`~repro.service.cache.ResultCache.get`
contract: anything malformed — truncated file, foreign shape, a record
whose decoded output store no longer reproduces its stored canonical
key — is a miss (``None``), never an exception.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Iterable, Mapping

from repro.arith.constraints import Constraint, Rel
from repro.arith.linexpr import LinExpr
from repro.database.schema import DatabaseSchema
from repro.has.system import HAS
from repro.hltl.formulas import HLTLSpec
from repro.logic.terms import Variable, VarKind
from repro.service.serialize import (
    _frac_str,
    _parse_frac,
    _spec_to_dict,
    _task_to_dict,
    _variable_to_dict,
    canonical_json,
    content_hash,
    from_dict,
    schema_slice,
    spec_relation_names,
    task_relation_names,
)
from repro.symbolic.nodes import NULL, ConstNode, NavNode, Node, Sort, ValueNode, ZERO
from repro.symbolic.store import ConstraintStore
from repro.verifier.config import VerifierConfig

#: Bump when the persisted record layout or key material changes
#: incompatibly; the version participates in the content hash, so old
#: store directories simply stop hitting instead of mis-decoding.
SUMMARY_SCHEMA_VERSION = 1


# ----------------------------------------------------------------------
# nodes
# ----------------------------------------------------------------------
def _encode_node(node: Node) -> Any:
    if node is NULL:
        return {"t": "null"}
    if isinstance(node, ValueNode):
        return {"t": "v", "s": node.serial, "k": node.sort.value}
    if isinstance(node, ConstNode):
        return {"t": "c", "v": _frac_str(node.value)}
    if isinstance(node, NavNode):
        return {"t": "n", "b": _encode_node(node.base), "a": node.attr}
    raise TypeError(f"not an encodable node: {node!r}")


def _decode_node(data: dict, memo: dict[Node, Node]) -> Node:
    """Decode a node, interning structurally-equal nodes to one object.

    ``find()`` walks the union-find with ``is`` comparisons, so every
    occurrence of a node in the decoded store must be the *same* object;
    the memo (seeded with the NULL and ZERO singletons the constructor
    registers) guarantees that, relying on the nodes' structural
    equality/hash.
    """
    tag = data["t"]
    if tag == "null":
        return NULL
    if tag == "v":
        serial = data["s"]
        if isinstance(serial, bool) or not isinstance(serial, int):
            raise ValueError(f"bad node serial: {serial!r}")
        node: Node = ValueNode(serial, Sort(data["k"]))
    elif tag == "c":
        node = ConstNode(_parse_frac(data["v"]))
    elif tag == "n":
        node = NavNode(_decode_node(data["b"], memo), data["a"])
    else:
        raise ValueError(f"not a node tag: {tag!r}")
    return memo.setdefault(node, node)


# ----------------------------------------------------------------------
# canonical-key tuples and β keys
# ----------------------------------------------------------------------
def encode_key(key: Any) -> Any:
    """A canonical-key tuple as nested JSON lists (scalars pass through)."""
    if isinstance(key, tuple):
        return [encode_key(part) for part in key]
    if key is None or isinstance(key, (str, bool, int, float)):
        return key
    raise TypeError(f"not an encodable key component: {key!r}")


def decode_key(data: Any) -> Any:
    """Inverse of :func:`encode_key`: nested lists back to tuples."""
    if isinstance(data, list):
        return tuple(decode_key(part) for part in data)
    if data is None or isinstance(data, (str, bool, int, float)):
        return data
    raise ValueError(f"not a decodable key component: {data!r}")


def encode_beta(beta_items: Iterable[tuple[HLTLSpec, bool]]) -> list:
    """A β key (frozenset of (spec, truth) pairs) in deterministic order."""
    encoded = [[_spec_to_dict(spec), bool(value)] for spec, value in beta_items]
    encoded.sort(key=lambda pair: canonical_json(pair[0]))
    return encoded


def decode_beta(data: list) -> frozenset:
    return frozenset((from_dict(spec), bool(value)) for spec, value in data)


def _encode_memo_key(key: tuple) -> dict:
    task_name, input_key, bkey = key
    return {
        "task": task_name,
        "input": encode_key(input_key),
        "beta": encode_beta(bkey),
    }


def _decode_memo_key(data: dict) -> tuple:
    return (data["task"], decode_key(data["input"]), decode_beta(data["beta"]))


# ----------------------------------------------------------------------
# constraint stores (exact structural codec)
# ----------------------------------------------------------------------
def _encode_constraint(constraint: Constraint) -> dict:
    # coefficient insertion order is preserved: it decides unknown
    # iteration during later renames and FM projections
    return {
        "rel": constraint.rel.value,
        "const": _frac_str(constraint.expr.constant),
        "terms": [
            [_encode_node(unknown), _frac_str(coeff)]
            for unknown, coeff in constraint.expr.coeffs.items()
        ],
    }


def _decode_constraint(data: dict, memo: dict[Node, Node]) -> Constraint:
    coeffs: dict[Node, Fraction] = {}
    for node_data, coeff in data["terms"]:
        coeffs[_decode_node(node_data, memo)] = _parse_frac(coeff)
    return Constraint(
        LinExpr(coeffs, _parse_frac(data["const"])), Rel(data["rel"])
    )


def encode_store(store: ConstraintStore) -> dict:
    """Serialize a store's raw internals, preserving every order that
    downstream exploration is sensitive to (dict insertion, numeric
    constraint list); set-shaped fields are emitted in sorted order for
    deterministic bytes."""
    enc = _encode_node
    return {
        "serial": store._serial,
        "binding": [
            [_variable_to_dict(var), enc(node)]
            for var, node in store._binding.items()
        ],
        "pins": [
            [encode_key(label), enc(node)] for label, node in store._pins.items()
        ],
        "parent": [
            [enc(node), enc(parent)] for node, parent in store._parent.items()
        ],
        "rank": [[enc(node), rank] for node, rank in store._rank.items()],
        "null": [[enc(node), status] for node, status in store._null.items()],
        "anchor": [
            [enc(node), anchor] for node, anchor in store._anchor.items()
        ],
        "excluded": [
            [enc(node), sorted(excluded)]
            for node, excluded in store._excluded.items()
        ],
        "children": [
            [enc(node), [[attr, enc(child)] for attr, child in kids.items()]]
            for node, kids in store._children.items()
        ],
        "diseqs": sorted(
            (
                sorted((enc(node) for node in pair), key=canonical_json)
                for pair in store._diseqs
            ),
            key=canonical_json,
        ),
        "numeric": [_encode_constraint(c) for c in store._numeric],
        "numeric_dirty": store._numeric_dirty,
        "numeric_sat": store._numeric_sat,
        "approximate": store.approximate,
    }


def decode_store(data: dict, schema: DatabaseSchema) -> ConstraintStore:
    """Rebuild a store object structurally identical to the encoded one
    (same node serials, same object-identity graph, same orders)."""
    memo: dict[Node, Node] = {NULL: NULL, ZERO: ZERO}
    dec = _decode_node
    store = ConstraintStore.__new__(ConstraintStore)
    store.schema = schema
    serial = data["serial"]
    if isinstance(serial, bool) or not isinstance(serial, int):
        raise ValueError(f"bad store serial: {serial!r}")
    store._serial = serial
    store._binding = {
        _decode_variable(var): dec(node, memo) for var, node in data["binding"]
    }
    store._pins = {decode_key(label): dec(node, memo) for label, node in data["pins"]}
    store._parent = {dec(n, memo): dec(p, memo) for n, p in data["parent"]}
    store._rank = {dec(n, memo): int(r) for n, r in data["rank"]}
    store._null = {dec(n, memo): _tristate(s) for n, s in data["null"]}
    store._anchor = {dec(n, memo): _optional_str(a) for n, a in data["anchor"]}
    store._excluded = {
        dec(n, memo): frozenset(str(name) for name in excluded)
        for n, excluded in data["excluded"]
    }
    store._children = {
        dec(n, memo): {str(attr): dec(child, memo) for attr, child in kids}
        for n, kids in data["children"]
    }
    store._diseqs = {
        frozenset(dec(n, memo) for n in pair) for pair in data["diseqs"]
    }
    store._numeric = [_decode_constraint(c, memo) for c in data["numeric"]]
    store._numeric_dirty = bool(data["numeric_dirty"])
    store._numeric_sat = bool(data["numeric_sat"])
    store.approximate = bool(data["approximate"])
    store._canon_cache = None
    return store


def _decode_variable(data: dict) -> Variable:
    return Variable(data["name"], VarKind(data["kind"]))


def _tristate(value: Any) -> bool | None:
    if value is None or isinstance(value, bool):
        return value
    raise ValueError(f"not a null status: {value!r}")


def _optional_str(value: Any) -> str | None:
    if value is None or isinstance(value, str):
        return value
    raise ValueError(f"not an anchor: {value!r}")


# ----------------------------------------------------------------------
# records: one summary plus the closure of the summaries it consulted
# ----------------------------------------------------------------------
def encode_record(
    closure: tuple, summaries: Mapping, closures: Mapping[tuple, tuple]
) -> dict:
    """Serialize the summary closure ``closure`` (dependency order, the
    root summary last) from the engine's live memo.  Dependencies are
    emitted as indices into the entry list — closures are transitively
    closed, so every dependency is itself an entry."""
    index = {key: position for position, key in enumerate(closure)}
    entries = []
    for key in closure:
        summary = summaries[key]
        entry = _encode_memo_key(key)
        entry["outputs"] = [
            [encode_key(out_key), encode_store(out)]
            for out_key, out in summary.outputs.items()
        ]
        entry["nonreturning"] = summary.nonreturning
        entry["km_nodes"] = summary.km_nodes
        entry["deps"] = [index[dep] for dep in closures[key]]
        entries.append(entry)
    return {"v": SUMMARY_SCHEMA_VERSION, "root": len(entries) - 1, "entries": entries}


def decode_record(
    record: Any, schema: DatabaseSchema
) -> tuple[tuple, list[tuple]] | None:
    """Decode a persisted record into ``(root_key, entries)`` where each
    entry is ``(memo_key, outputs, nonreturning, km_nodes, deps)``, in
    installation (dependency) order with the root summary last.

    Returns ``None`` for anything malformed — wrong version, truncated
    structure, dependency indices out of order, or an output store whose
    decoded form fails to reproduce its stored canonical key (the
    integrity check that makes hand-edited or stale-format store files a
    miss rather than a soundness hazard).
    """
    try:
        if not isinstance(record, dict) or record.get("v") != SUMMARY_SCHEMA_VERSION:
            return None
        raw_entries = record["entries"]
        if record["root"] != len(raw_entries) - 1 or not raw_entries:
            return None
        keys: list[tuple] = []
        entries: list[tuple] = []
        for position, raw in enumerate(raw_entries):
            key = _decode_memo_key(raw)
            outputs: dict[tuple, ConstraintStore] = {}
            for out_key_data, store_data in raw["outputs"]:
                out_key = decode_key(out_key_data)
                out = decode_store(store_data, schema)
                if out.canonical_key() != out_key:
                    return None
                outputs[out_key] = out
            km_nodes = raw["km_nodes"]
            if isinstance(km_nodes, bool) or not isinstance(km_nodes, int):
                return None
            if km_nodes < 0:
                return None
            deps = []
            for dep_index in raw["deps"]:
                if (
                    isinstance(dep_index, bool)
                    or not isinstance(dep_index, int)
                    or not 0 <= dep_index <= position
                ):
                    return None
                deps.append(keys[dep_index] if dep_index < position else key)
            keys.append(key)
            entries.append(
                (key, outputs, bool(raw["nonreturning"]), km_nodes, tuple(deps))
            )
        return keys[-1], entries
    except Exception:
        return None


# ----------------------------------------------------------------------
# the persistent key: a content hash of the summary's observable world
# ----------------------------------------------------------------------
#: Config fields a summary's exploration can observe.  Deliberately
#: excluded: ``max_summaries`` (a reader-side memo cap, re-enforced at
#: install time), ``time_limit_seconds`` (deadline aborts are never
#: persisted), and the witness knobs (witness extraction happens at the
#: root, never inside a summary).
_KEY_CONFIG_FIELDS = (
    "km_budget",
    "max_condition_branches",
    "max_outputs_per_summary",
)


def _anchors_in_key(input_key: tuple) -> set[str]:
    """Relation anchors appearing in a store canonical key (each class
    entry carries its anchor at index 2)."""
    anchors: set[str] = set()
    for entry in input_key[0]:
        anchor = entry[2]
        if anchor is not None:
            anchors.add(anchor)
    return anchors


def persistent_summary_key(
    has: HAS,
    task_name: str,
    input_key: tuple,
    beta_items: Iterable[tuple[HLTLSpec, bool]],
    config: VerifierConfig,
) -> str:
    """The content address of one ``(task, input, β)`` summary.

    Hashes the task *subtree*, the FK-closed schema slice reachable from
    the subtree's conditions + the β obligations + the input type's
    anchors, the sorted relation-name universe (anchoring enumerates
    names), the β key, the exploration-relevant config fields, and the
    input canonical key.  Edits anywhere else in the scenario leave the
    hash unchanged — that is the whole incremental-reuse contract.
    """
    beta_items = list(beta_items)
    names = task_relation_names(has.task(task_name))
    for spec, _value in beta_items:
        names |= spec_relation_names(spec)
    names |= _anchors_in_key(input_key)
    material = {
        "v": SUMMARY_SCHEMA_VERSION,
        "task": _task_to_dict(has.task(task_name)),
        "schema": {
            "names": sorted(has.database.names),
            "slice": schema_slice(has.database, names),
        },
        "beta": encode_beta(beta_items),
        "config": {
            name: getattr(config, name) for name in _KEY_CONFIG_FIELDS
        },
        "input": encode_key(input_key),
    }
    return content_hash(material)
