"""Serialization round-trips (repro.service.serialize).

The batch service ships systems and properties across process boundaries
in canonical dict form, so ``from_dict(to_dict(x))`` must reconstruct an
object that is not just equal-looking but *verifies identically*.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.database.fkgraph import SchemaClass
from repro.examples.travel import (
    discount_policy_property_lite,
    travel_booking,
    travel_lite,
)
from repro.logic.conditions import And, Eq, Exists, Not, Or, RelationAtom, TRUE, FALSE
from repro.logic.terms import ANY, Const, NULL, id_var, num_var
from repro.service.cli import main as cli_main
from repro.service.jobs import VerificationJob
from repro.service.serialize import (
    SerializationError,
    canonical_json,
    content_hash,
    from_dict,
    to_dict,
)
from repro.verifier import VerifierConfig, verify
from repro.workloads import table1_workload, table2_workload

ALL_CLASSES = (
    SchemaClass.ACYCLIC,
    SchemaClass.LINEARLY_CYCLIC,
    SchemaClass.CYCLIC,
)

CONFIG = VerifierConfig(km_budget=30_000, time_limit_seconds=60)


def _assert_roundtrip_verifies(has, prop):
    """from_dict(to_dict(·)) verifies identically to the original."""
    has2 = from_dict(to_dict(has))
    prop2 = from_dict(to_dict(prop))
    # canonical form is a fixpoint
    assert canonical_json(to_dict(has2)) == canonical_json(to_dict(has))
    assert canonical_json(to_dict(prop2)) == canonical_json(to_dict(prop))
    original = verify(has, prop, CONFIG)
    rebuilt = verify(has2, prop2, CONFIG)
    assert rebuilt.holds == original.holds
    assert rebuilt.witness_kind == original.witness_kind
    assert [repr(s) for s in rebuilt.witness] == [repr(s) for s in original.witness]


class TestWorkloadRoundTrips:
    @pytest.mark.parametrize("schema_class", ALL_CLASSES, ids=lambda c: c.value)
    @pytest.mark.parametrize("with_sets", (False, True), ids=("flat", "sets"))
    def test_table1(self, schema_class, with_sets):
        spec = table1_workload(schema_class, depth=2, with_sets=with_sets)
        _assert_roundtrip_verifies(spec.has, spec.prop)

    @pytest.mark.parametrize("schema_class", ALL_CLASSES, ids=lambda c: c.value)
    def test_table1_violated(self, schema_class):
        spec = table1_workload(schema_class, depth=2, violated=True)
        _assert_roundtrip_verifies(spec.has, spec.prop)

    @pytest.mark.parametrize("schema_class", ALL_CLASSES, ids=lambda c: c.value)
    def test_table2(self, schema_class):
        spec = table2_workload(schema_class, depth=2)
        _assert_roundtrip_verifies(spec.has, spec.prop)

    def test_table1_with_chain(self):
        spec = table1_workload(SchemaClass.ACYCLIC, depth=2, chain=2)
        _assert_roundtrip_verifies(spec.has, spec.prop)


class TestTravelRoundTrips:
    @pytest.mark.parametrize("fixed", (False, True), ids=("buggy", "fixed"))
    def test_travel_lite(self, fixed):
        has = travel_lite(fixed)
        _assert_roundtrip_verifies(has, discount_policy_property_lite(has))

    def test_travel_full_structure(self):
        """The six-task system round-trips structurally (verification of
        the full policy is beyond unit-test budgets)."""
        has = travel_booking(fixed=False)
        data = to_dict(has)
        has2 = from_dict(data)
        assert canonical_json(to_dict(has2)) == canonical_json(data)
        assert [t.name for t in has2.tasks()] == [t.name for t in has.tasks()]
        for task, task2 in zip(has.tasks(), has2.tasks()):
            assert task2.variables == task.variables
            assert task2.set_variables == task.set_variables
            assert len(task2.services) == len(task.services)
            assert dict(task2.opening.input_map) == dict(task.opening.input_map)
            assert dict(task2.closing.output_map) == dict(task.closing.output_map)


class TestConditionAndTermCoverage:
    def test_terms_and_booleans(self):
        x, y, p = id_var("x"), id_var("y"), num_var("p")
        condition = Or(
            And(Eq(x, y), Not(Eq(p, Const.of(3)))),
            Exists((id_var("q"),), RelationAtom("R", (x, p, id_var("q")))),
            TRUE,
            FALSE,
        )
        rebuilt = from_dict(to_dict(condition))
        assert canonical_json(to_dict(rebuilt)) == canonical_json(to_dict(condition))
        assert rebuilt == condition

    def test_wildcard_and_null(self):
        x = id_var("x")
        atom = RelationAtom("R", (x, ANY, NULL))
        assert from_dict(to_dict(atom)) == atom

    def test_config_roundtrip(self):
        config = VerifierConfig(km_budget=123, time_limit_seconds=4.5)
        rebuilt = from_dict(to_dict(config))
        assert rebuilt == config

    def test_unknown_tag_rejected(self):
        with pytest.raises(SerializationError):
            from_dict({"t": "flux_capacitor"})

    def test_unserializable_object_rejected(self):
        with pytest.raises(SerializationError):
            to_dict(object())


class TestUnknownConfigFields:
    """A config field this version does not define is rejected by name.

    The case that matters is a job dumped by an older version with a
    knob that has since been removed (``km_workers``, the intra-job
    thread count; the frontier order; the two memo caps): silently
    dropping it would run a different job than the one asked for.
    """

    @staticmethod
    def _legacy_payload() -> dict:
        has = travel_lite(True)
        payload = VerificationJob(
            has=has, prop=discount_policy_property_lite(has), config=CONFIG
        ).payload()
        payload["config"]["km_workers"] = 2
        return payload

    @pytest.mark.parametrize(
        "name",
        ["km_workers", "km_order", "successor_memo_limit", "child_input_memo_limit"],
    )
    def test_from_dict_names_the_field(self, name):
        data = dict(to_dict(CONFIG), **{name: 0}, zz_unknown=1)
        with pytest.raises(SerializationError, match=f"'{name}', 'zz_unknown'"):
            from_dict(data)

    def test_from_payload_rejects(self):
        with pytest.raises(SerializationError, match="km_workers"):
            VerificationJob.from_payload(self._legacy_payload())

    def test_cli_reports_an_invalid_job_file(self, tmp_path, capsys):
        dump = tmp_path / "legacy-job.json"
        dump.write_text(json.dumps(self._legacy_payload(), sort_keys=True))
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["verify", str(dump)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "not a valid job file" in err
        assert "km_workers" in err


class TestHashing:
    def test_content_hash_is_structural(self):
        a = table1_workload(SchemaClass.ACYCLIC, depth=2)
        b = table1_workload(SchemaClass.ACYCLIC, depth=2)
        assert content_hash(a.has) == content_hash(b.has)

    def test_content_hash_separates(self):
        a = table1_workload(SchemaClass.ACYCLIC, depth=2)
        b = table1_workload(SchemaClass.ACYCLIC, depth=2, violated=True)
        c = table1_workload(SchemaClass.CYCLIC, depth=2)
        assert content_hash(a.prop) != content_hash(b.prop)
        assert content_hash(a.has) != content_hash(c.has)


_BUILD_CONSTRAINT = (
    "from repro.arith.constraints import Constraint, Rel\n"
    "from repro.arith.linexpr import LinExpr\n"
    "from repro.logic.terms import num_var\n"
    "c = Constraint(LinExpr({num_var('a'): 2, num_var('b'): -1}, 3), Rel.LE)\n"
)


class TestPickleSafety:
    def test_cached_hashes_do_not_cross_processes(self):
        """Constraints and linear expressions cache hashes of string-named
        unknowns, which differ between processes; a pickle made under one
        hash seed must still hash and compare right under another."""
        import os
        import subprocess
        import sys

        def run(seed: str, script: str, stdin: bytes = b"") -> bytes:
            env = dict(os.environ, PYTHONHASHSEED=seed)
            return subprocess.run(
                [sys.executable, "-c", script],
                input=stdin,
                env=env,
                capture_output=True,
                check=True,
            ).stdout

        dumped = run(
            "1",
            _BUILD_CONSTRAINT
            + "import pickle, sys\n"
            "hash(c)\n"
            "sys.stdout.buffer.write(pickle.dumps(c))\n",
        )
        run(
            "2",
            _BUILD_CONSTRAINT
            + "import pickle, sys\n"
            "clone = pickle.loads(sys.stdin.buffer.read())\n"
            "assert hash(clone) == hash(c) and clone in {c}\n"
            "assert hash(clone.expr) == hash(c.expr) and clone.expr in {c.expr}\n",
            dumped,
        )

    def test_has_pickles(self):
        """Frozen services carry MappingProxyType; __reduce__ makes whole
        systems picklable for process pools."""
        has = travel_booking(fixed=False)
        clone = pickle.loads(pickle.dumps(has))
        assert clone.name == has.name
        assert [t.name for t in clone.tasks()] == [t.name for t in has.tasks()]
        add_hotel = clone.task("AddHotel")
        assert dict(add_hotel.opening.input_map) == dict(
            has.task("AddHotel").opening.input_map
        )
