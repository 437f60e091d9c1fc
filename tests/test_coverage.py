"""The semantic-coverage registry (``repro.fuzz.coverage``) and the
coverage-guided campaign built on it.

Four contracts:

* **registry semantics** — ``hit`` records globally and into every
  active collection unit, units nest, disabling drops records;
* **closed inventory** — a campaign never emits a feature name outside
  :data:`repro.fuzz.coverage.FEATURES` (which keeps the inventory and
  docs/testing.md's copy of it honest);
* **guided beats uniform** — at a pinned seed and budget, the
  coverage-guided campaign reaches strictly more features than the
  uniform baseline, deterministically;
* **observational invisibility** — verdicts, witnesses, and node counts
  are byte-identical with the registry enabled or disabled, and the
  campaign coverage map is byte-stable across ``PYTHONHASHSEED``
  values (subprocess-pinned).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.arith import fm
from repro.fuzz.coverage import COVERAGE, FEATURES, CoverageRegistry
from repro.fuzz.harness import run_campaign, write_coverage_map
from repro.service.pool import execute_job
from repro.service.suites import build_suite, gallery_dir
from repro.symbolic import store as symbolic_store

#: Pinned guided-vs-uniform comparison point: small enough for CI,
#: large enough that guidance demonstrably pays (35 vs 32 features).
_SEED, _COUNT = 1, 12


# ----------------------------------------------------------------------
# registry semantics
# ----------------------------------------------------------------------
class TestRegistry:
    def test_hit_records_globally_and_into_units(self):
        reg = CoverageRegistry()
        reg.hit("a")
        with reg.unit() as unit:
            reg.hit("b")
            assert unit.features() == ("b",)
        assert reg.snapshot() == ("a", "b")
        assert "a" in reg and len(reg) == 2

    def test_units_nest_and_detach(self):
        reg = CoverageRegistry()
        with reg.unit() as outer:
            reg.hit("x")
            with reg.unit() as inner:
                reg.hit("y")
            reg.hit("z")
        assert outer.features() == ("x", "y", "z")
        assert inner.features() == ("y",)
        reg.hit("after")
        assert "after" not in outer.features()

    def test_inner_unit_equal_to_outer_detaches_itself(self):
        """An inner unit whose features equal the outer's at exit (here
        both empty) must detach its own set, not the outer's."""
        reg = CoverageRegistry()
        with reg.unit() as outer:
            with reg.unit():
                pass
            reg.hit("a")
        assert outer.features() == ("a",)

    def test_outer_unit_that_fired_nothing_keeps_collecting(self):
        reg = CoverageRegistry()
        with reg.unit() as outer:
            with reg.unit() as inner:
                reg.hit("y")
            reg.hit("z")
        assert outer.features() == ("y", "z")
        assert inner.features() == ("y",)

    def test_disabled_hits_are_dropped(self):
        reg = CoverageRegistry()
        reg.enabled = False
        with reg.unit() as unit:
            reg.hit("a")
        assert reg.snapshot() == () and unit.features() == ()

    def test_reset_clears_global_but_units_keep_their_view(self):
        reg = CoverageRegistry()
        with reg.unit() as unit:
            reg.hit("a")
            reg.reset()
            assert reg.snapshot() == ()
            assert unit.features() == ("a",)


# ----------------------------------------------------------------------
# campaign coverage
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def uniform_campaign():
    return run_campaign(seed=_SEED, count=_COUNT, guided=False)


@pytest.fixture(scope="module")
def guided_campaign():
    return run_campaign(seed=_SEED, count=_COUNT, guided=True)


class TestCampaignCoverage:
    def test_emitted_features_stay_inside_the_inventory(self, guided_campaign):
        assert set(guided_campaign.coverage) <= set(FEATURES)
        for outcome in guided_campaign.outcomes:
            assert set(outcome.coverage) <= set(FEATURES), outcome.scenario.name
            assert list(outcome.coverage) == sorted(outcome.coverage)

    def test_guided_reaches_strictly_more_features(
        self, uniform_campaign, guided_campaign
    ):
        assert len(guided_campaign.coverage) > len(uniform_campaign.coverage), (
            f"guided {len(guided_campaign.coverage)} vs uniform "
            f"{len(uniform_campaign.coverage)} features at seed={_SEED}, "
            f"count={_COUNT} — guidance must pay for itself"
        )
        assert guided_campaign.guided and not uniform_campaign.guided

    def test_guided_campaign_is_deterministic(self, guided_campaign):
        again = run_campaign(seed=_SEED, count=_COUNT, guided=True)
        assert again.coverage == guided_campaign.coverage
        assert [o.scenario.name for o in again.outcomes] == [
            o.scenario.name for o in guided_campaign.outcomes
        ]
        assert [o.novelty for o in again.outcomes] == [
            o.novelty for o in guided_campaign.outcomes
        ]

    def test_coverage_map_shape_and_stability(self, guided_campaign, tmp_path):
        data = guided_campaign.coverage_map()
        assert data["t"] == "fuzz_coverage_map"
        assert data["seed"] == _SEED and data["count"] == _COUNT
        assert data["guided"] is True
        assert data["features"] == sorted(data["features"])
        assert data["feature_count"] == len(data["features"])
        assert set(data["scenarios"]) == {
            o.scenario.name for o in guided_campaign.outcomes
        }
        first = write_coverage_map(tmp_path / "a.json", guided_campaign)
        second = write_coverage_map(tmp_path / "b.json", guided_campaign)
        assert first.read_bytes() == second.read_bytes()
        assert json.loads(first.read_text()) == data


# ----------------------------------------------------------------------
# observational invisibility (A/B parity)
# ----------------------------------------------------------------------
_VOLATILE = ("wall_seconds", "total_seconds", "counters", "phases", "attribution")


def _scrubbed(outcome) -> dict:
    data = outcome.to_dict()
    for key in _VOLATILE:
        data.pop(key, None)
    if data.get("stats"):
        data["stats"] = {
            k: v for k, v in data["stats"].items() if not k.endswith("_seconds")
        }
    return data


def _run_ab_job(job, enabled: bool) -> dict:
    # module-global memo caches would let the first run subsidize the
    # second; clear them so both runs do identical work
    fm.clear_caches()
    symbolic_store.clear_canonical_caches()
    was = COVERAGE.enabled
    COVERAGE.enabled = enabled
    try:
        return _scrubbed(execute_job(job))
    finally:
        COVERAGE.enabled = was


class TestObservationalInvisibility:
    def test_verdicts_witnesses_and_counts_are_identical(self):
        jobs = build_suite("quick")
        jobs += build_suite(str(gallery_dir() / "insurance_claim.has"))
        for job in jobs:
            disabled = _run_ab_job(job, enabled=False)
            enabled = _run_ab_job(job, enabled=True)
            assert json.dumps(disabled, sort_keys=True) == json.dumps(
                enabled, sort_keys=True
            ), f"{job.name}: outcome differs with coverage enabled"


# ----------------------------------------------------------------------
# PYTHONHASHSEED byte-stability
# ----------------------------------------------------------------------
_SUBPROCESS_SCRIPT = """\
import sys
from repro.fuzz.harness import run_campaign, write_coverage_map
campaign = run_campaign(seed={seed}, count={count}, guided=True)
path = write_coverage_map(sys.argv[1], campaign)
sys.stdout.write(path.read_text())
"""


def _coverage_map_bytes(tmp_path: Path, hashseed: str) -> bytes:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    env["PYTHONPATH"] = str(Path(repro.__file__).parent.parent)
    out = tmp_path / f"map-{hashseed}.json"
    script = _SUBPROCESS_SCRIPT.format(seed=_SEED, count=_COUNT)
    result = subprocess.run(
        [sys.executable, "-c", script, str(out)],
        env=env,
        capture_output=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr.decode()
    return out.read_bytes()


def test_coverage_map_is_byte_stable_across_hash_seeds(tmp_path):
    maps = {
        seed: _coverage_map_bytes(tmp_path, seed) for seed in ("0", "42")
    }
    assert maps["0"] == maps["42"], (
        "campaign coverage map depends on PYTHONHASHSEED — a set/dict "
        "iteration order leaked into coverage or scheduling"
    )
