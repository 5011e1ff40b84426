"""Tests for the reproduction-report subsystem (claims, paths, validator)."""

import pytest

from repro.report import (
    Grade,
    PAPER_CLAIMS,
    PaperClaim,
    ReportValidator,
    Tolerance,
    ascii_sketch,
    grade_claim,
    render_markdown,
    render_svg,
    resolve_path,
)
from repro.report.paths import MetricPathError
from repro.report.validate import select_claims
from repro.runtime.cache import ResultCache
from repro.runtime.executor import SweepExecutor


def _custom_rows(n=3):
    """Module-level experiment function for custom-catalog tests (picklable)."""
    return [{"value": i} for i in range(n)]


ROWS = [
    {"topology": "mesh", "geomean": 1.0, "area": 3.51, "cores": 64},
    {"topology": "fbfly", "geomean": 1.246, "area": 34.86, "cores": 64},
    {"topology": "nocout", "geomean": 1.178, "area": 2.91, "cores": 64},
]
ENVELOPE = {
    "rows": ROWS,
    "data": {
        "selected_cores": 16,
        "stats": {"frontier_size": 5},
        "knees": {"40nm / ooo": {"candidate": "ooo/16"}},
        "sweep": ROWS,
    },
}


def value_claim(expected, rel=None, abs=None, warn_factor=3.0,
                metric="rows[topology=fbfly].geomean"):
    return PaperClaim(
        claim_id="t-value", experiment_id="figure_4_6", source="Figure 4.6",
        description="test", metric=metric, kind="value", expected=expected,
        tolerance=Tolerance(rel=rel, abs=abs, warn_factor=warn_factor),
    )


# ------------------------------------------------------------- metric paths
class TestMetricPaths:
    def test_unique_row_selection(self):
        assert resolve_path(ENVELOPE, "rows[topology=mesh].area") == 3.51

    def test_multi_key_selection_parses_literals(self):
        assert resolve_path(ENVELOPE, "rows[topology=nocout,cores=64].geomean") == 1.178

    def test_aggregate_over_all_rows(self):
        assert resolve_path(ENVELOPE, "rows.geomean:max") == 1.246
        assert resolve_path(ENVELOPE, "rows.geomean:count") == 3

    def test_aggregate_over_filtered_rows(self):
        assert resolve_path(ENVELOPE, "rows[cores=64].area:min") == 2.91

    def test_data_traversal_and_quoted_keys(self):
        assert resolve_path(ENVELOPE, "data.selected_cores") == 16
        assert resolve_path(ENVELOPE, "data.stats.frontier_size") == 5
        assert resolve_path(ENVELOPE, 'data.knees["40nm / ooo"].candidate') == "ooo/16"
        assert resolve_path(ENVELOPE, "data.sweep[1].topology") == "fbfly"

    def test_missing_row_column_and_key(self):
        with pytest.raises(MetricPathError):
            resolve_path(ENVELOPE, "rows[topology=ring].area")
        with pytest.raises(MetricPathError):
            resolve_path(ENVELOPE, "rows[topology=mesh].nope")
        with pytest.raises(MetricPathError):
            resolve_path(ENVELOPE, "data.nope")

    def test_ambiguous_selection_needs_aggregate(self):
        with pytest.raises(MetricPathError, match="ambiguous"):
            resolve_path(ENVELOPE, "rows.geomean")

    def test_bad_root_and_bad_aggregate(self):
        with pytest.raises(MetricPathError):
            resolve_path(ENVELOPE, "columns.x")
        with pytest.raises(MetricPathError):
            resolve_path(ENVELOPE, "rows.geomean:median")


# -------------------------------------------------------- tolerance grading
class TestToleranceGrading:
    def test_exact_match_with_no_tolerance(self):
        graded = grade_claim(value_claim(1.246), ENVELOPE)
        assert graded.grade is Grade.PASS
        assert graded.detail == "exact match"

    def test_exact_claim_fails_on_any_deviation(self):
        graded = grade_claim(value_claim(1.247), ENVELOPE)
        assert graded.grade is Grade.FAIL

    def test_relative_bound(self):
        assert grade_claim(value_claim(1.24, rel=0.01), ENVELOPE).grade is Grade.PASS
        # Δ=0.026 vs band 0.0122: within 3x -> warn.
        assert grade_claim(value_claim(1.22, rel=0.01), ENVELOPE).grade is Grade.WARN
        assert grade_claim(value_claim(1.0, rel=0.01), ENVELOPE).grade is Grade.FAIL

    def test_absolute_bound(self):
        assert grade_claim(value_claim(1.2, abs=0.05), ENVELOPE).grade is Grade.PASS
        assert grade_claim(value_claim(1.14, abs=0.05), ENVELOPE).grade is Grade.WARN
        assert grade_claim(value_claim(0.9, abs=0.05), ENVELOPE).grade is Grade.FAIL

    def test_wider_bound_wins_when_both_given(self):
        # rel band 0.0124 would warn; abs band 0.1 passes.
        graded = grade_claim(value_claim(1.19, rel=0.01, abs=0.1), ENVELOPE)
        assert graded.grade is Grade.PASS

    def test_warn_factor_widens_the_warn_band(self):
        assert grade_claim(value_claim(1.0, rel=0.01, warn_factor=25.0),
                           ENVELOPE).grade is Grade.WARN

    def test_missing_metric_path_grades_fail_not_crash(self):
        graded = grade_claim(value_claim(1.0, metric="rows[topology=ring].geomean"),
                             ENVELOPE)
        assert graded.grade is Grade.FAIL
        assert graded.actual is None
        assert "no row matches" in graded.detail

    def test_non_numeric_actual_fails(self):
        graded = grade_claim(value_claim(1.0, metric="rows[topology=mesh].topology"),
                             ENVELOPE)
        assert graded.grade is Grade.FAIL

    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            Tolerance(rel=-0.1)
        with pytest.raises(ValueError):
            Tolerance(warn_factor=0.5)
        with pytest.raises(ValueError):
            value_claim("not-a-number")


# ------------------------------------------------------ qualitative relations
class TestRelations:
    def relation(self, metric, op, expected=None, rhs_metric=None, **kwargs):
        return PaperClaim(
            claim_id="t-rel", experiment_id="figure_4_6", source="Figure 4.6",
            description="test", metric=metric, kind="relation", op=op,
            expected=expected, rhs_metric=rhs_metric, **kwargs,
        )

    def test_metric_vs_metric(self):
        claim = self.relation("rows[topology=fbfly].geomean", ">",
                              rhs_metric="rows[topology=mesh].geomean")
        graded = grade_claim(claim, ENVELOPE)
        assert graded.grade is Grade.PASS
        assert "holds" in graded.detail

    def test_metric_vs_literal_violated(self):
        claim = self.relation("rows[topology=fbfly].geomean", "<", expected=1.0)
        graded = grade_claim(claim, ENVELOPE)
        assert graded.grade is Grade.FAIL
        assert "violated" in graded.detail

    def test_violation_can_downgrade_to_warn(self):
        claim = self.relation("rows[topology=fbfly].geomean", "<", expected=1.0,
                              on_violation="warn")
        assert grade_claim(claim, ENVELOPE).grade is Grade.WARN

    def test_float_equality_uses_tolerance(self):
        claim = self.relation("rows[topology=fbfly].geomean", "==", expected=1.25,
                              tolerance=Tolerance(rel=0.01))
        assert grade_claim(claim, ENVELOPE).grade is Grade.PASS

    def test_exact_equality_on_ints_and_strings(self):
        assert grade_claim(self.relation("data.selected_cores", "==", expected=16),
                           ENVELOPE).grade is Grade.PASS
        assert grade_claim(
            self.relation('data.knees["40nm / ooo"].candidate', "==",
                          expected="ooo/16"), ENVELOPE).grade is Grade.PASS

    def test_incomparable_types_fail(self):
        claim = self.relation("rows[topology=mesh].topology", "<", expected=1.0)
        assert grade_claim(claim, ENVELOPE).grade is Grade.FAIL

    def test_missing_rhs_metric_grades_fail(self):
        claim = self.relation("rows[topology=mesh].geomean", "<",
                              rhs_metric="rows[topology=ring].geomean")
        assert grade_claim(claim, ENVELOPE).grade is Grade.FAIL

    def test_relation_needs_exactly_one_rhs(self):
        with pytest.raises(ValueError):
            self.relation("rows[topology=mesh].geomean", "<")
        with pytest.raises(ValueError):
            self.relation("rows[topology=mesh].geomean", "<", expected=1.0,
                          rhs_metric="rows[topology=fbfly].geomean")
        with pytest.raises(ValueError):
            self.relation("rows[topology=mesh].geomean", "~", expected=1.0)


# ----------------------------------------------------------------- registry
class TestRegistry:
    def test_at_least_twenty_claims_spanning_chapters_2_to_11(self):
        from repro.report import claimed_catalog

        catalog = claimed_catalog()
        claims = catalog.claims()
        assert len(claims) >= 20
        chapters = {catalog.get(c.experiment_id).chapter for c in claims}
        assert chapters == {2, 3, 4, 5, 6, 7, 8, 9, 10, 11}

    def test_registration_is_idempotent(self):
        from repro.report import claimed_catalog

        first = len(claimed_catalog().claims())
        assert len(claimed_catalog().claims()) == first

    def test_claim_ids_are_unique(self):
        ids = [claim.claim_id for claim in PAPER_CLAIMS]
        assert len(ids) == len(set(ids))

    def test_attach_claims_validates(self):
        from repro.runtime import SpecCatalog, UnknownExperimentError

        catalog = SpecCatalog()
        orphan = PaperClaim(
            claim_id="x", experiment_id="nope", source="s", description="d",
            metric="rows.x:max", kind="relation", op="<", expected=1.0,
        )
        with pytest.raises(UnknownExperimentError):
            catalog.attach_claims([orphan])


# ---------------------------------------------------------------- validator
def cheap_validator(executor=None, cache=None):
    """Validator over the cheap chapter-4 claims only (no 10s experiments)."""
    return ReportValidator(cache=cache or ResultCache(), executor=executor)


class TestValidator:
    def test_chapter_filter_grades_all_pass(self):
        run = cheap_validator().validate(only=["chapter4"])
        assert run.graded and run.ok
        assert all(g.grade in (Grade.PASS, Grade.WARN) for g in run.graded)
        assert set(run.summary()["chapters"]) == {4}

    def test_serial_and_parallel_grade_identically(self):
        cache_a, cache_b = ResultCache(), ResultCache()
        serial = cheap_validator(SweepExecutor(mode="serial"), cache_a).validate(
            only=["chapter4", "chapter2"]
        )
        parallel = cheap_validator(
            SweepExecutor(mode="process", max_workers=2), cache_b
        ).validate(only=["chapter4", "chapter2"])
        assert [g.claim.claim_id for g in serial.graded] == [
            g.claim.claim_id for g in parallel.graded
        ]
        assert [(g.grade, g.actual, g.detail) for g in serial.graded] == [
            (g.grade, g.actual, g.detail) for g in parallel.graded
        ]

    def test_warm_cache_serves_every_experiment(self):
        cache = ResultCache()
        validator = cheap_validator(cache=cache)
        cold = validator.validate(only=["chapter4"])
        assert {c.cache_status for c in cold.experiments} == {"miss"}
        warm = validator.validate(only=["chapter4"])
        assert {c.cache_status for c in warm.experiments} == {"hit"}
        assert [(g.grade, g.actual) for g in cold.graded] == [
            (g.grade, g.actual) for g in warm.graded
        ]

    def test_cache_disabled_statuses(self):
        run = ReportValidator(cache=ResultCache(), use_cache=False).validate(
            only=["figure_4_7"]
        )
        assert {c.cache_status for c in run.experiments} == {"disabled"}

    def test_unknown_only_token_rejected(self):
        # ValueError, not SystemExit: validate() is a library API and must
        # stay catchable by programmatic callers.
        with pytest.raises(ValueError, match="matches no chapter"):
            cheap_validator().validate(only=["chapter99-nope"])
        # Numeric tokens are validated against the catalog's chapters too.
        with pytest.raises(ValueError, match="names no catalogued chapter"):
            cheap_validator().validate(only=["chapter12"])

    def test_select_claims_by_experiment_and_claim_id(self):
        from repro.report import claimed_catalog

        catalog = claimed_catalog()
        by_experiment = select_claims(catalog, ["figure_4_6"])
        assert by_experiment and all(
            c.experiment_id == "figure_4_6" for c in by_experiment
        )
        by_claim = select_claims(catalog, ["ch4-snoops-rare"])
        assert [c.claim_id for c in by_claim] == ["ch4-snoops-rare"]

    def test_failing_claim_flips_ok_off(self):
        from repro.experiments.registry import CATALOG
        from repro.runtime import SpecCatalog

        catalog = SpecCatalog([CATALOG.get("figure_4_7")])
        catalog.attach_claims([
            PaperClaim(
                claim_id="t-off", experiment_id="figure_4_7", source="s",
                description="d", metric="rows[topology=mesh].total_mm2",
                kind="value", expected=999.0, tolerance=Tolerance(rel=0.01),
            ),
            PaperClaim(
                claim_id="t-missing", experiment_id="figure_4_7", source="s",
                description="d", metric="rows[topology=ring].total_mm2",
                kind="relation", op="<", expected=1.0,
            ),
        ])
        run = ReportValidator(catalog=catalog, cache=ResultCache()).validate()
        assert not run.ok
        assert run.summary()["fail"] == 2
        assert "❌ fail" in render_markdown(run)

    def test_no_cache_forwards_use_evaluation_cache_to_explore_specs(self):
        from repro.experiments.registry import CATALOG

        validator = ReportValidator(cache=ResultCache(), use_cache=False)
        explore_spec = CATALOG.get("explore_pod_40nm")
        assert validator._job_overrides(explore_spec, {}) == {
            "use_evaluation_cache": False
        }
        # Specs without an internal evaluation cache get no extra overrides.
        assert validator._job_overrides(CATALOG.get("figure_4_7"), {}) == {}

    def test_disk_cache_forwards_evaluation_cache_to_explore_specs(self, tmp_path):
        from repro.experiments.registry import CATALOG

        cache = ResultCache(cache_dir=str(tmp_path))
        validator = ReportValidator(cache=cache)
        overrides = validator._job_overrides(CATALOG.get("explore_pod_40nm"), {})
        assert overrides["evaluation_cache"] is cache

    def test_custom_catalog_specs_resolve_without_global_registry(self):
        from repro.runtime import ExperimentSpec, SpecCatalog

        spec = ExperimentSpec(
            experiment_id="custom_exp", chapter=4, kind="study",
            function=_custom_rows, parameters={"n": 2},
        )
        catalog = SpecCatalog([spec])
        catalog.attach_claims([
            PaperClaim(
                claim_id="t-custom", experiment_id="custom_exp", source="s",
                description="d", metric="rows[value=1].value", kind="relation",
                op="==", expected=1,
            ),
        ])
        run = ReportValidator(catalog=catalog, cache=ResultCache()).validate()
        assert run.ok and run.graded[0].actual == 1

    def test_payload_shape(self):
        import json

        run = cheap_validator().validate(only=["figure_4_7"])
        payload = json.loads(json.dumps(run.payload()))
        assert payload["summary"]["claims"] == len(payload["claims"])
        assert payload["experiments"][0]["experiment_id"] == "figure_4_7"
        for item in payload["claims"]:
            assert item["grade"] in ("pass", "warn", "fail")


# ------------------------------------------------------------ every claim
#: The operator whose relation is the logical negation of each claim operator.
NEGATED_OP = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "==": "!=", "!=": "=="}


@pytest.mark.parametrize("claim", PAPER_CLAIMS, ids=lambda claim: claim.claim_id)
def test_claim_passes_and_its_negation_fails(claim, paper_report):
    """Every registered claim grades ``pass`` on the full report run, and a
    relation claim whose operator is negated grades ``fail`` on the same
    (cached) experiment result, so no bound holds vacuously."""
    import dataclasses

    from repro.experiments.registry import CATALOG
    from repro.runtime import SpecCatalog

    cache, cold_run, _ = paper_report
    graded = {item.claim.claim_id: item for item in cold_run.graded}[claim.claim_id]
    assert graded.grade is Grade.PASS, graded.detail
    if claim.kind != "relation":
        return
    negated = dataclasses.replace(claim, op=NEGATED_OP[claim.op])
    catalog = SpecCatalog([CATALOG.get(claim.experiment_id)])
    catalog.attach_claims([negated])
    run = ReportValidator(catalog=catalog, cache=cache).validate()
    assert {check.cache_status for check in run.experiments} == {"hit"}
    assert [item.grade for item in run.graded] == [Grade.FAIL], run.graded[0].detail


# ---------------------------------------------------------------- renderers
class TestRenderers:
    def test_markdown_is_deterministic_and_complete(self):
        validator = cheap_validator()
        run = validator.validate(only=["chapter4"])
        text = render_markdown(run)
        assert text == render_markdown(validator.validate(only=["chapter4"]))
        assert text.startswith("# Reproduction report")
        assert "## Chapter 4" in text and "✅ pass" in text
        for graded in run.graded:
            assert graded.claim.claim_id in text

    def test_ascii_sketch_scales_bars(self):
        run = cheap_validator().validate(only=["figure_4_7"])
        sketch = ascii_sketch(run.graded)
        lines = sketch.splitlines()
        assert lines and all("|" in line for line in lines)
        assert any("#" * 5 in line for line in lines)

    def test_svg_is_wellformed(self):
        import xml.etree.ElementTree as ET

        run = cheap_validator().validate(only=["chapter4"])
        svg = render_svg(4, run.graded)
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        assert len(root) > 1
