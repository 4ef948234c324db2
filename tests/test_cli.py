"""Config parsing, report emission, exit codes and round trips."""

import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from riccikit import catalog, cli, engine
from riccikit.bodies import LpBall
from riccikit.errors import IOFailure, SchemaViolation, UnknownInequalityId


MINIMAL = {
    "inequality": "classical_bl",
    "measure": {"kind": "gaussian"},
    "dims": [2],
    "seed": 1,
    "samples": 5000,
}


class TestParseConfig:
    def test_minimal_valid(self):
        cfg = cli.parse_config(MINIMAL)
        assert cfg.inequality == "classical_bl"
        assert cfg.dims == [2]
        assert cfg.seed == 1

    def test_misspelled_id(self):
        with pytest.raises(UnknownInequalityId):
            cli.parse_config({**MINIMAL, "inequality": "clasical_bl"})

    def test_hardy_dimension_rule(self):
        with pytest.raises(SchemaViolation) as err:
            cli.parse_config(
                {
                    "inequality": "hardy_boundary",
                    "body": {"kind": "ball"},
                    "dims": [3],
                }
            )
        assert err.value.pointer == "/dims/0"
        assert ">= 6" in str(err.value)

    def test_bad_samples(self):
        with pytest.raises(SchemaViolation) as err:
            cli.parse_config({**MINIMAL, "samples": 10})
        assert err.value.pointer == "/samples"

    def test_missing_measure(self):
        with pytest.raises(SchemaViolation) as err:
            cli.parse_config({"inequality": "classical_bl", "dims": [2]})
        assert err.value.pointer == "/measure"

    def test_unknown_function_filter_id(self):
        with pytest.raises(SchemaViolation) as err:
            cli.parse_config({**MINIMAL, "function_filter": ["x1", "x9"]})
        assert err.value.pointer == "/function_filter/1"
        assert "'x9'" in str(err.value)

    def test_box_half_widths_length(self):
        doc = {"inequality": "one_lip_reduction", "dims": [2, 3],
               "body": {"kind": "box", "half_widths": [1.0, 0.5]}}
        assert cli.parse_config({**doc, "dims": [2]}).body["kind"] == "box"
        with pytest.raises(SchemaViolation) as err:
            cli.parse_config(doc)
        assert err.value.pointer == "/body/half_widths"
        assert "/dims/1" in str(err.value)

    @pytest.mark.parametrize(
        "doc,pointer",
        [
            ({"inequality": "hardy_dirichlet", "body": {"kind": "lp_ball"}},
             "/body/kind"),
            ({"inequality": "classical_bl", "measure": {"kind": "gauss"}},
             "/measure/kind"),
            ({"inequality": "refined_bl", "measure": {"kind": "gaussian"},
              "target": {"kind": "gausian"}}, "/target/kind"),
        ],
    )
    def test_unknown_kind(self, doc, pointer):
        # rejected before any document runs, not as a bare ValueError from
        # the body or measure constructor midway through the batch
        with pytest.raises(SchemaViolation) as err:
            cli.run_documents([MINIMAL, {**doc, "dims": [2]}])
        assert err.value.pointer == pointer

    @pytest.mark.parametrize(
        "doc,pointer",
        [
            ({"inequality": "refined_bl", "measure": {"kind": "gaussian"},
              "dims": [1]}, "/target"),
            ({"inequality": "generalized_bl", "measure": {"kind": "exp_product"},
              "dims": [2]}, "/params/family"),
            ({"inequality": "bakry_emery_lsi", "measure": {"kind": "exp_product"},
              "dims": [2], "params": {"family": {"type": "product_power", "p": 0.5}}},
             "/params/rho"),
            ({"inequality": "bakry_t_lsi", "dims": [2]}, "/params/q"),
            ({"inequality": "qgt2_lsi", "dims": [1],
              "params": {"potential": "modified"}}, "/params/q"),
            ({"inequality": "poly_product", "measure": {"kind": "exp_product"},
              "dims": [2]}, "/params/part"),
            ({"inequality": "dim_bl_boundary", "body": {"kind": "ball"},
              "dims": [8], "params": {"part": 1}}, "/params/N"),
            ({"inequality": "strong_boundary", "body": {"kind": "ball"},
              "dims": [8]}, "/params/theta"),
        ],
    )
    def test_missing_required_param(self, doc, pointer):
        # rejected before any document runs, not as a bare KeyError from the
        # catalog builder that loses the rows of the valid document after it
        with pytest.raises(SchemaViolation) as err:
            cli.run_documents([{**doc, "samples": 2000}, MINIMAL])
        assert err.value.pointer == pointer

    @pytest.mark.parametrize(
        "doc,pointer",
        [
            # keys that depend on a part or a mode
            ({"inequality": "poly_product", "measure": {"kind": "exp_product"},
              "dims": [2], "params": {"part": 3}}, "/params/lam"),
            ({"inequality": "poly_product", "measure": {"kind": "exp_product"},
              "dims": [2], "params": {"part": 4, "p": 0.5}}, "/params/R"),
            ({"inequality": "poly_product", "measure": {"kind": "exp_product"},
              "dims": [2], "params": {"part": 5, "lam": 1.0}}, "/params/p"),
            ({"inequality": "exp_product", "measure": {"kind": "exp_quad_orthant"},
              "dims": [2], "params": {"mode": "corollary"}}, "/params/lam"),
            ({"inequality": "exp_product", "measure": {"kind": "exp_quad_orthant"},
              "dims": [2]}, "/params/lam"),
            ({"inequality": "exp_product", "measure": {"kind": "exp_quad_orthant"},
              "dims": [2], "params": {"mode": "weighted"}}, "/params/lams"),
            # keys of measure and body kinds
            ({"inequality": "muq_lsi", "measure": {"kind": "power_product"},
              "dims": [2]}, "/measure/q"),
            ({"inequality": "hardy_boundary", "body": {"kind": "lp"}, "dims": [6],
              "params": {"N": -1.0}}, "/body/p"),
            ({"inequality": "classical_bl", "measure": {"kind": "uniform_body"},
              "dims": [2]}, "/measure/body"),
            ({"inequality": "classical_bl",
              "measure": {"kind": "uniform_body", "body": {"kind": "lp"}},
              "dims": [2]}, "/measure/body/p"),
            # nested keys
            ({"inequality": "generalized_bl", "measure": {"kind": "exp_product"},
              "dims": [2], "params": {"family": {"p": 0.5}}}, "/params/family/type"),
            ({"inequality": "generalized_bl", "measure": {"kind": "exp_product"},
              "dims": [2], "params": {"family": {"type": "product_power"}}},
             "/params/family/p"),
            ({"inequality": "bakry_emery_lsi", "measure": {"kind": "exp_product"},
              "dims": [2], "params": {"family": {"type": "product_exp"}, "rho": 0.5}},
             "/params/family/lam"),
            ({"inequality": "generalized_bl", "measure": {"kind": "exp_product"},
              "dims": [2], "params": {"family": "product_power"}}, "/params/family"),
            ({"inequality": "klartag_transfer", "measure": {"kind": "laplace_product"},
              "dims": [2], "params": {"base": {"part": 2}}}, "/params/base/id"),
            ({"inequality": "klartag_transfer", "measure": {"kind": "laplace_product"},
              "dims": [2], "params": {"base": {"id": "poly_product", "part": 3}}},
             "/params/base/lam"),
            # a base entry gets the measure only
            ({"inequality": "klartag_transfer", "measure": {"kind": "laplace_product"},
              "dims": [2], "params": {"base": {"id": "hardy_n0"}}}, "/params/base/id"),
            ({"inequality": "klartag_transfer", "measure": {"kind": "laplace_product"},
              "dims": [2], "params": {"base": {"id": "refined_bl"}}}, "/params/base/id"),
        ],
    )
    def test_missing_mode_kind_or_nested_key(self, doc, pointer):
        # each of these used to escape run_documents as a bare KeyError from a
        # builder or a constructor table, losing the valid document's rows
        with pytest.raises(SchemaViolation) as err:
            cli.run_documents([{**doc, "samples": 2000}, MINIMAL])
        assert err.value.pointer == pointer

    @pytest.mark.parametrize(
        "doc,pointer",
        [
            ({"inequality": "poly_product", "measure": {"kind": "exp_product"},
              "dims": [2], "params": {"part": 3, "lam": "abc"}}, "/params/lam"),
            ({"inequality": "hardy_boundary", "body": {"kind": "ball"},
              "dims": [6], "params": {"N": "x"}}, "/params/N"),
            ({"inequality": "muq_lsi", "measure": {"kind": "power_product", "q": "1.5"},
              "dims": [2]}, "/measure/q"),
            ({"inequality": "generalized_bl", "measure": {"kind": "exp_product"},
              "dims": [2], "params": {"family": {"type": "product_power", "p": "0.5"}}},
             "/params/family/p"),
            # a bool is not a number
            ({"inequality": "poly_product", "measure": {"kind": "exp_product"},
              "dims": [2], "params": {"part": 3, "lam": True}}, "/params/lam"),
            ({"inequality": "classical_bl", "measure": {"kind": "gaussian", "sigma": False},
              "dims": [2]}, "/measure/sigma"),
            ({"inequality": "hardy_dirichlet", "body": {"kind": "box", "half_widths": [1, "1"]},
              "dims": [2]}, "/body/half_widths/1"),
            ({"inequality": "exp_product", "measure": {"kind": "exp_quad_orthant"},
              "dims": [2], "params": {"mode": "weighted", "lams": [0.1, "0.2"]}},
             "/params/lams/1"),
            ({"inequality": "hardy_dirichlet", "body": {"kind": "ellipse", "a": "2"},
              "dims": [2]}, "/body/a"),
        ],
    )
    def test_wrong_typed_value(self, doc, pointer):
        # the first four used to escape run_documents as a bare TypeError from
        # a builder or a constructor, losing the valid document's rows
        with pytest.raises(SchemaViolation) as err:
            cli.run_documents([{**doc, "samples": 2000}, MINIMAL])
        assert err.value.pointer == pointer
        assert "must be a number" in str(err.value)

    @pytest.mark.parametrize("lams,dims", [([0.1, 0.2, 0.3], [2]), ([0.1, 0.2], [2, 3]),
                                           ([], [1]), ("0.1", [2])])
    def test_exp_product_lams_length(self, lams, dims):
        # lams of a length other than 1 or d at some listed dimension used to
        # escape run_documents as a numpy ValueError from the weighted builder;
        # a string is neither a number nor a list
        doc = {"inequality": "exp_product", "measure": {"kind": "exp_quad_orthant"},
               "dims": dims, "samples": 2000,
               "params": {"mode": "weighted", "lams": lams}}
        with pytest.raises(SchemaViolation) as err:
            cli.run_documents([doc, MINIMAL])
        assert err.value.pointer == "/params/lams"

    @pytest.mark.parametrize("lams,dims", [(0.2, [1, 3]), ([0.2], [1, 3]),
                                           ([0.2, 0.25, 0.3], [3])])
    def test_exp_product_lams_accepted(self, lams, dims):
        cli.parse_config({"inequality": "exp_product", "dims": dims,
                          "measure": {"kind": "exp_quad_orthant"},
                          "params": {"mode": "weighted", "lams": lams}})

    @pytest.mark.parametrize("entry", sorted(catalog.CATALOG))
    def test_catalog_requirements_enforced(self, entry):
        # every entry's paper-smoke document parses, and dropping any one
        # requirement the catalog declares is rejected at its pointer
        req = catalog.CATALOG[entry]
        (doc,) = [d for d in cli.load_bundled("paper-smoke") if d["inequality"] == entry]
        cli.parse_config(doc)
        for key in req.specs:
            with pytest.raises(SchemaViolation) as err:
                cli.parse_config({k: v for k, v in doc.items() if k != key})
            assert err.value.pointer == f"/{key}"
        for name in req.params.required:
            params = {k: v for k, v in doc["params"].items() if k != name}
            with pytest.raises(SchemaViolation) as err:
                cli.parse_config({**doc, "params": params})
            assert err.value.pointer == f"/params/{name}"
        if req.min_dim > 1:
            with pytest.raises(SchemaViolation) as err:
                cli.parse_config({**doc, "dims": [req.min_dim - 1]})
            assert err.value.pointer == "/dims/0"

    @pytest.mark.parametrize(
        "entry",
        ["refined_bl", "compact_bl", "payne_weinberger", "entropic_bl", "qgt2_lsi"],
    )
    def test_one_dimensional_entries_reject_d2(self, entry):
        # these builders read one coordinate density: at d = 2 they checked a
        # theorem outside its window (refined_bl passed 12 rows) or raised a
        # bare numpy ValueError (qgt2_lsi) that lost the other documents' rows
        assert catalog.CATALOG[entry].max_dim == 1
        (doc,) = [d for d in cli.load_bundled("paper-smoke") if d["inequality"] == entry]
        with pytest.raises(SchemaViolation) as err:
            cli.run_documents([{**doc, "dims": [2]}, MINIMAL])
        assert err.value.pointer == "/dims/0"
        assert "<= 1" in str(err.value)

    @pytest.mark.parametrize(
        "measure",
        [{"kind": "uniform_interval"}, {"kind": "cos_interval"},
         {"kind": "flat_power_1d", "q": 3.0}],
    )
    def test_one_dimensional_measure_kinds_reject_d3(self, measure):
        # these kinds ignore d and used to escape as a numpy broadcast error
        # that lost the rows of the valid document after them
        with pytest.raises(SchemaViolation) as err:
            cli.run_documents(
                [{**MINIMAL, "measure": measure, "dims": [1, 3]}, MINIMAL]
            )
        assert err.value.pointer == "/dims/1"
        assert "<= 1" in str(err.value)

    @pytest.mark.parametrize(
        "doc,pointer",
        [
            ({"inequality": "classical_bl", "measure": {"kind": {}}, "dims": [2]},
             "/measure/kind"),
            ({"inequality": "hardy_dirichlet", "body": {"kind": [1, 2, 3]}, "dims": [2]},
             "/body/kind"),
            ({**MINIMAL, "dims": [True]}, "/dims/0"),
            ({"inequality": "poly_product", "measure": {"kind": "exp_product"},
              "dims": [2], "params": {"part": None}}, "/params/part"),
            ({"inequality": "poly_product", "measure": {"kind": "exp_product"},
              "dims": [2], "params": {"part": "3"}}, "/params/part"),
            ({"inequality": "compact_bl", "measure": {"kind": "uniform_interval"},
              "dims": [1], "params": {"R": "abc"}}, "/params/R"),
            ({"inequality": "cone_variance", "body": {"kind": "simplex"}, "dims": [4],
              "params": {"lam": "x"}}, "/params/lam"),
            ({"inequality": "hardy_dirichlet", "body": {"kind": "ball", "radius": 0},
              "dims": [6]}, "/body/radius"),
        ],
    )
    def test_malformed_value_rejected(self, doc, pointer):
        # each of these used to escape run_documents as a bare TypeError,
        # KeyError or ValueError that lost the valid document's rows
        with pytest.raises(SchemaViolation) as err:
            cli.run_documents([{**doc, "samples": 2000}, MINIMAL])
        assert err.value.pointer == pointer

    def test_json_string_accepted(self):
        cfg = cli.parse_config(json.dumps(MINIMAL))
        assert cfg.samples == 5000

    def test_invalid_json(self):
        with pytest.raises(SchemaViolation):
            cli.parse_config("{not json")


@pytest.fixture(scope="module")
def report():
    cfg = cli.parse_config(MINIMAL)
    return cli.run_suite(cfg)


class TestReports:

    def test_csv_columns_exact(self, report):
        text = cli.report_to_csv(report)
        header = text.splitlines()[0]
        assert header == "suite,inequality,dim,function,lhs,lhs_err,rhs,rhs_err,slack,status,seed,n"

    def test_csv_roundtrip_17_digits(self, report):
        text = cli.report_to_csv(report)
        rows = list(csv.DictReader(io.StringIO(text)))
        for row, orig in zip(rows, report.rows):
            assert float(row["lhs"]) == orig.lhs
            assert float(row["slack"]) == orig.slack

    def test_json_roundtrip(self, report):
        text = cli.report_to_json(report)
        doc = json.loads(text)
        assert doc["rows"] == [r.as_dict() for r in report.rows]

    def test_one_row_report(self):
        rep = engine.VerificationReport()
        rep.add(engine.ReportRow(
            suite="s", inequality="classical_bl", dim=1, function="x1",
            lhs=1.0, lhs_err=0.0, rhs=2.0, rhs_err=0.0, slack=1.0,
            status="pass", seed=0, n=100,
        ))
        text = cli.report_to_csv(rep)
        assert len(text.splitlines()) == 2

    def test_empty_report_refused(self, tmp_path):
        with pytest.raises(IOFailure):
            cli.emit_report(engine.VerificationReport(), path=str(tmp_path / "x.csv"))


class TestExitCodes:
    def test_precedence_and_report_only_neutrality(self):
        def row(status):
            return engine.ReportRow(
                suite="s", inequality="i", dim=1, function="f",
                lhs=0.0, lhs_err=0.0, rhs=0.0, rhs_err=0.0, slack=0.0,
                status=status, seed=0, n=100,
            )

        rep = engine.VerificationReport(rows=[row("pass"), row("report-only")])
        assert cli.exit_code_for(rep) == 0
        rep.add(row("error"))
        assert cli.exit_code_for(rep) == 3
        rep.add(row("fail"))
        assert cli.exit_code_for(rep) == 1

    def test_check_ok(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(MINIMAL))
        rc = cli.main(["check", "--config", str(path), "--out",
                       str(tmp_path / "out.csv")])
        assert rc == 0

    def test_config_error_exit_2(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**MINIMAL, "inequality": "nope"}))
        rc = cli.main(["check", "--config", str(path)])
        assert rc == 2

    def test_runtime_error_rows_exit_3(self, tmp_path):
        # a hypothesis violation at instantiation becomes an error row
        doc = {
            "inequality": "poly_product",
            "measure": {"kind": "gaussian"},  # not an orthant measure
            "dims": [2],
            "samples": 5000,
            "params": {"part": 2},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        rc = cli.main(["check", "--config", str(path), "--out",
                       str(tmp_path / "out.csv")])
        assert rc == 3

    def test_check_error_becomes_error_row(self, monkeypatch):
        # boundary quadrature has no rule for an l_p ball, swapped in for the
        # ball after instantiation, so the first document fails inside
        # check_inequality; the second must survive
        instantiate = catalog.instantiate

        def lp_boundary(ineq, params):
            inst = instantiate(ineq, params)
            if inst.boundary is None:
                return inst
            body = LpBall(inst.dim, 3.0)
            return dataclasses.replace(
                inst, boundary=dataclasses.replace(inst.boundary, body=body))

        monkeypatch.setattr(catalog, "instantiate", lp_boundary)
        docs = [
            {"inequality": "hardy_boundary", "body": {"kind": "ball"},
             "dims": [6], "samples": 2000, "params": {"N": -1.0}},
            {**MINIMAL, "samples": 2000},
        ]
        rep = cli.run_documents(docs)
        errors = [r for r in rep.rows if r.status == "error"]
        assert [(r.inequality, r.dim, r.function) for r in errors] == [
            ("hardy_boundary", 6, "-")
        ]
        assert "boundary quadrature" in rep.attachments["hardy_boundary:d=6:error"]
        others = [r for r in rep.rows if r.status != "error"]
        assert others and all(r.inequality == "classical_bl" for r in others)
        assert len(others) == len(engine.default_suite(2))
        assert cli.exit_code_for(rep) == 3

    @pytest.mark.parametrize(
        "doc,hypothesis",
        [
            ({"inequality": "hardy_boundary", "dims": [6], "params": {"N": -1.0}},
             "ball_like_body"),
            ({"inequality": "hardy_n0", "dims": [6]}, "ball_like_body"),
            ({"inequality": "dim_bl_boundary", "dims": [8], "params": {"N": -8.0}},
             "ball_like_body"),
            ({"inequality": "strong_boundary", "dims": [8], "params": {"theta": 0.5}},
             "ball_like_body"),
            # an l_p ball has a radius but not the ball's curvature: for p > 2,
            # II_0 vanishes at r e_1
            ({"inequality": "strong_boundary", "body": {"kind": "lp", "p": 4.0},
              "dims": [8], "params": {"theta": 0.3}}, "ball_like_body (lp)"),
            ({"inequality": "dim_bl_boundary", "body": {"kind": "lp", "p": 4.0},
              "dims": [6], "params": {"N": -8.0, "part": 2}}, "ball_like_body (lp)"),
            ({"inequality": "muq_lsi", "measure": {"kind": "gaussian"}, "dims": [2]},
             "power_product_measure"),
            # x^p profiles are undefined at the Gaussian's negative samples
            ({"inequality": "generalized_bl", "measure": {"kind": "gaussian"},
              "dims": [2], "params": {"family": {"type": "product_power", "p": 0.5}}},
             "product-metric profile"),
            ({"inequality": "bakry_emery_lsi", "measure": {"kind": "gaussian"},
              "dims": [2], "params": {"family": {"type": "product_power", "p": 0.3},
                                      "rho": 0.5}},
             "product-metric profile"),
            # the Laplace potential's a.e. Hessian is 0: D^2 V + grad V grad V^T/4
            # has rank one, and exp(x/2) profiles give -3/4 where x_i < 0
            ({"inequality": "negdim_bl", "measure": {"kind": "laplace_product"},
              "dims": [2]}, "weight_positive"),
            ({"inequality": "generalized_bl", "measure": {"kind": "laplace_product"},
              "dims": [2], "params": {"family": {"type": "product_exp", "lam": 0.5}}},
             "ric_positive"),
        ],
    )
    def test_kind_mismatch_becomes_error_row(self, doc, hypothesis):
        # the mean-curvature entries need a ball-like body, muq_lsi a
        # power-product measure and the power-profile entries a measure on
        # the orthant; anything else is one error row, not a wrong verdict or
        # a crash that loses the rows of the next document
        bad = {"body": {"kind": "simplex"}, "samples": 2000, **doc}
        rep = cli.run_documents([bad, {**MINIMAL, "samples": 2000}])
        ineq, d = doc["inequality"], doc["dims"][0]
        errors = [r for r in rep.rows if r.status == "error"]
        assert [(r.inequality, r.dim, r.function) for r in errors] == [(ineq, d, "-")]
        assert hypothesis in rep.attachments[f"{ineq}:d={d}:error"]
        others = [r for r in rep.rows if r.status != "error"]
        assert [r.inequality for r in others] == ["classical_bl"] * len(
            engine.default_suite(2)
        )

    # these documents overflow floats on purpose
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "doc,message",
        [
            # the curvature gap overflows to -inf at the hypothesis points
            ({"inequality": "bakry_emery_lsi", "measure": {"kind": "exp_product"},
              "dims": [11], "params": {"family": {"type": "product_power", "p": 0.5},
                                       "rho": 1e308}}, "non-finite"),
            ({"inequality": "hardy_dirichlet", "dims": [2],
              "body": {"kind": "box", "half_widths": [1e308, 1e308]}}, "volume inf"),
            # K_q of the flattened potential leaves the float range
            ({"inequality": "qgt2_lsi", "dims": [1], "params": {"q": 200.0}},
             "K_q_finite"),
            # a float of the builder overflows or divides by zero
            ({"inequality": "dim_bl_boundary", "body": {"kind": "ball"}, "dims": [4],
              "params": {"N": -8.0, "theta": 1e-300}}, "division by zero"),
            # densities the grid cannot hold
            ({"inequality": "classical_bl", "dims": [1],
              "measure": {"kind": "flat_power_1d", "q": 1e308}}, "rounds to 1"),
            ({"inequality": "compact_bl", "dims": [1],
              "measure": {"kind": "uniform_interval", "a": 1.0}}, "empty"),
            ({"inequality": "classical_bl", "dims": [1],
              "measure": {"kind": "exp_product", "rate": 1e-300}}, "no quantile"),
        ],
    )
    def test_non_finite_becomes_error_row(self, doc, message):
        # these used to escape run_documents as a LinAlgError and an
        # OverflowError that lost the rows of the next document
        rep = cli.run_documents([{**doc, "samples": 2000}, {**MINIMAL, "samples": 2000}])
        ineq, d = doc["inequality"], doc["dims"][0]
        errors = [r for r in rep.rows if r.status == "error"]
        assert [(r.inequality, r.dim, r.function) for r in errors] == [(ineq, d, "-")]
        assert message in rep.attachments[f"{ineq}:d={d}:error"]
        others = [r for r in rep.rows if r.status != "error"]
        assert [r.inequality for r in others] == ["classical_bl"] * len(
            engine.default_suite(2)
        )

    def test_seed_flag_override(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(MINIMAL))
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        cli.main(["check", "--config", str(path), "--out", str(out1)])
        cli.main(["check", "--config", str(path), "--seed", "99", "--out", str(out2)])
        rows1 = list(csv.DictReader(out1.read_text().splitlines()))
        rows2 = list(csv.DictReader(out2.read_text().splitlines()))
        assert rows1 != rows2
        assert all(r["seed"] == "99" for r in rows2)


class TestSubcommands:
    def test_ricci_agreement(self, capsys):
        rc = cli.main([
            "ricci", "--family", '{"type": "product_power", "p": 0.5}',
            "--measure", '{"kind": "exp_product"}',
            "--point", "1.0", "1.0",
        ])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["max_abs_disagreement"] < 1e-4

    @pytest.mark.parametrize("family,extra,digest", [
        ('{"type": "product_power", "p": 0.5}',
         ["--measure", '{"kind": "exp_product"}', "--point", "0.7", "1.3"],
         "f10e6a6882f82564"),
        ('{"type": "conformal_radial", "theta": 0.8, "N": -3}',
         ["--point", "0.5", "-0.6", "0.7"], "8dcd11a218f92f9f"),
    ])
    def test_ricci_stdout_pinned(self, family, extra, digest, capsys):
        # sha256 prefix of the stdout of the pointwise finite-difference
        # implementation (numpy 2.4.6, scipy 1.17.1, x86-64): the batched
        # stencil prints the same bytes
        assert cli.main(["ricci", "--family", family, *extra]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest

    def test_python_m_riccikit(self, capsys, tmp_path):
        # `python -m riccikit` runs the same CLI from a source checkout
        argv = ["ricci", "--family", '{"type": "product_power", "p": 0.5}',
                "--measure", '{"kind": "exp_product"}', "--point", "1.0", "1.0"]
        src = str(Path(catalog.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-m", "riccikit", *argv], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert cli.main(argv) == 0
        assert done.stdout == capsys.readouterr().out

    def test_spectrum_uniform(self, capsys):
        rc = cli.main([
            "spectrum", "--potential", '{"kind": "uniform"}',
            "--a", "0.0", "--b", "1.0",
        ])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert abs(out["lambda_1"] - math.pi**2) < 1e-4

    def test_transport_diagnostics(self, capsys):
        rc = cli.main([
            "transport", "--mu", '{"kind": "exp_product"}',
            "--nu", '{"kind": "uniform_interval", "a": 0.0, "b": 1.0}',
            "--points", "0.5", "1.0",
        ])
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["T"] == pytest.approx(1 - math.exp(-0.5), abs=1e-8)
        assert abs(rows[0]["monge_ampere_residual"]) < 1e-6

    @pytest.mark.parametrize("argv,start", [
        # exp(1) has no mass below 0, and F(40) = 1 to double precision
        (["transport", "--mu", '{"kind": "exp_product"}', "--nu", '{"kind": "uniform_interval"}',
          "--points", "-1"], "runtime error: exp: F(-1.0) = 0.0 "),
        (["transport", "--mu", '{"kind": "exp_product"}', "--nu", '{"kind": "uniform_interval"}',
          "--points", "40"], "runtime error: exp: F(40.0) = 1.0 "),
        # |x|^2 overflows the step size, so the stencil metric is NaN
        (["ricci", "--family", '{"type": "product_exp", "lam": 0.5}', "--point", "1e200", "1"],
         "runtime error: metric not positive definite at "),
        # x x^T overflows, so the conformal closed form is NaN
        (["ricci", "--family", '{"type": "conformal_radial", "theta": 0.8}', "--point", "1e154",
          "1"], "runtime error: Ricci tensor not finite at "),
    ])
    def test_point_without_a_value_exits_3(self, argv, start, capsys):
        # each of these used to end in a traceback and exit 1
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(start) and captured.err.count("\n") == 1

    @pytest.mark.parametrize("point", ["1e130", "1e140"])
    def test_conformal_radial_underflow_refused(self, point, capsys):
        # |x|^-1.6 is about 1e-224 at 1e140: the metric's derivatives underflow
        # to 0, and the finite-difference tensor used to print Hess V
        argv = ["ricci", "--family", '{"type": "conformal_radial", "theta": 0.8}',
                "--point", point, "1"]
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("runtime error: metric derivatives underflow at ")

    def test_conformal_radial_far_out(self, capsys):
        # |x|^4 = 1e480 is beyond float range but |x|^2 is not: the Hessian of
        # the conformal exponent used to raise OverflowError squaring a Python float
        argv = ["ricci", "--family", '{"type": "conformal_radial", "theta": 0.8}',
                "--point", "1e120", "1"]
        assert cli.main(argv) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["closed_form"][0][0] == pytest.approx(1.8, rel=1e-12)
        assert out["max_abs_disagreement"] < 1e-10

    @pytest.mark.parametrize(
        "argv,pointer",
        [
            (["ricci", "--family", '{"type": "conformal_radial"}', "--point", "0.5", "0.5"],
             "/family/theta"),
            (["ricci", "--family", '{"type": "product_power"}', "--point", "1.0", "1.0"],
             "/family/p"),
            (["ricci", "--family", '{"type": "product_power", "p": 0.5}',
              "--measure", '{"kind": {}}', "--point", "1.0", "1.0"], "/measure/kind"),
            (["spectrum", "--potential", '{"kind": "gaussian", "sigma": "x"}',
              "--a", "-1", "--b", "1"], "/potential/sigma"),
            (["spectrum", "--potential", "[1]", "--a", "-1", "--b", "1"], "/potential"),
            # the spectrum flags used to reach the solver and exit 3
            (["spectrum", "--potential", '{"kind": "uniform"}', "--a", "1", "--b", "0"], "--b"),
            (["spectrum", "--potential", '{"kind": "uniform"}', "--a", "0", "--b", "inf"], "--b"),
            (["spectrum", "--potential", '{"kind": "uniform"}', "--a", "nan", "--b", "1"], "--a"),
            (["spectrum", "--potential", '{"kind": "uniform"}', "--a", "0", "--b", "1",
              "--n", "64"], "--n"),
            (["transport", "--mu", '{"kind": "gaussian", "sigma": "x"}',
              "--nu", '{"kind": "uniform_interval"}', "--points", "0.5"], "/mu/sigma"),
            # the non-finite points used to reach the solvers
            (["transport", "--mu", '{"kind": "exp_product"}',
              "--nu", '{"kind": "uniform_interval"}', "--points", "0.5", "inf"], "--points"),
            (["transport", "--mu", '{"kind": "exp_product"}',
              "--nu", '{"kind": "uniform_interval"}', "--points", "nan"], "--points"),
            (["ricci", "--family", '{"type": "euclidean"}', "--point", "inf", "1"], "--point"),
        ],
    )
    def test_bad_argument_exits_2_with_pointer(self, argv, pointer, capsys):
        # each of these used to end in a raw traceback
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith(f"config error: {pointer}: ")

    def test_manifest(self, capsys):
        assert cli.main(["manifest"]) == 0
        man = json.loads(capsys.readouterr().out)
        assert "classical_bl" in man


class TestDeterminismContract:
    def test_report_bytes_independent_of_blas_threads(self):
        # compact_bl's KE attachments used to follow the BLAS thread count
        src = str(Path(catalog.__file__).resolve().parent.parent)
        outs = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
            done = subprocess.run([sys.executable, "-m", "riccikit", "check", "--config",
                                   "paper-smoke", "--seed", "1", "--format", "json"],
                                  env=env, capture_output=True, timeout=600)
            assert done.returncode == 0, done.stderr
            outs.append(done.stdout)
        assert outs[0] == outs[1]

    def test_repeated_check_bit_identical(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**MINIMAL, "samples": 20000}))
        outs = []
        for run in (1, 2):
            out = tmp_path / f"run{run}.csv"
            cli.main(["check", "--config", str(path), "--out", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
