"""CLI contract: subcommands, config handling, exit codes, reproducibility."""

import json
import os

import numpy as np
import pytest

from finslerlab import cli, metrics


def run(argv, tmp_path, extra=()):
    return cli.main(list(argv) + ["--out", str(tmp_path)] + list(extra))


class TestConfig:
    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"metricc": "funk"}))
        code = cli.main(["verify", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2

    def test_unknown_metric_rejected(self, tmp_path):
        assert run(["verify", "--metric", "warp"], tmp_path) == 2

    def test_unknown_check_rejected(self, tmp_path):
        assert run(["verify", "--metric", "euclidean", "--checks", "nope"],
                   tmp_path) == 2

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"metric": "euclidean", "dim": 2, "samples": 4}))
        code = cli.main(["verify", "--config", str(cfg), "--dim", "3",
                         "--checks", "homogeneity_f2a", "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "verify_euclidean_n3.json").read_text())
        assert payload["config"]["dim"] == 3
        assert payload["config"]["samples"] == 4

    def test_env_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FINSLERLAB_OUTDIR", str(tmp_path / "envout"))
        code = cli.main(["verify", "--metric", "euclidean", "--samples", "3",
                         "--checks", "homogeneity_f2a"])
        assert code == 0
        assert (tmp_path / "envout" / "verify_euclidean_n2.json").exists()


    @pytest.mark.parametrize("bad", [{"dim": "x"}, {"dim": 1}, {"dim": True},
                                     {"samples": 0}, {"samples": 2.5},
                                     {"mc_samples": 0},
                                     {"t_points": "x"}, {"t_points": 1},
                                     {"radii": "1,2"}, {"radii": []},
                                     {"radii": [1.0, -0.5]}, {"radii": [1.0, True]},
                                     {"t_end": "3"}, {"t_end": None},
                                     {"start": [0.0]}, {"start": [0.0, "a"]},
                                     {"direction": 1.0}, {"direction": [1.0, 0.0, 0.0]},
                                     {"c": "big"}, {"eps": [0.1]},
                                     {"lam": "x"}, {"lam": [0.5]}, {"delta": "x"},
                                     {"delta": float("inf")},
                                     {"tolerances": {"homogeneity_f2a": "x"}},
                                     {"tolerances": {"no_such_check": 1.0}},
                                     {"tolerances": {"homogeneity_f2a": float("nan")}},
                                     {"tolerances": [1.0]},
                                     {"seed": "x"}, {"seed": -1},
                                     {"checks": 5}, {"checks": ["homogeneity_f2a", 3]},
                                     {"metric": ["funk"]}])
    def test_bad_config_values_exit_2(self, tmp_path, capsys, bad):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict({"metric": "euclidean"}, **bad)))
        code = cli.main(["verify", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        key = next(iter(bad))
        assert f"config key {key!r} must be" in err
        if key in cli._INT_KEYS:
            assert "must be an integer" in err
        assert not list(tmp_path.glob("verify_*.json"))


    def test_bad_out_dir_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"metric": "euclidean", "out_dir": 5}))
        assert cli.main(["verify", "--config", str(cfg)]) == 2
        assert "config key 'out_dir' must be" in capsys.readouterr().err

    @pytest.mark.parametrize("domain", ["quartic:x", "quartic:nan", "quartic:inf",
                                        "quartic0.2"])
    def test_bad_domain_exits_2(self, tmp_path, capsys, domain):
        code = run(["verify", "--metric", "hilbert", "--domain", domain,
                    "--checks", "homogeneity_f2a"], tmp_path)
        assert code == 2
        assert "domain must be unit_ball, quartic or quartic:EPS" in capsys.readouterr().err
        assert not list(tmp_path.glob("verify_*.json"))

    def test_bad_lam_exits_2_on_volume(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"metric": "funk", "lam": "x", "mc_samples": 10,
                                   "radii": [0.5]}))
        code = cli.main(["volume", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        assert "config key 'lam' must be" in capsys.readouterr().err
        assert not list(tmp_path.glob("volume_*.csv"))


class TestVerify:
    def test_euclidean_all_pass(self, tmp_path, capsys):
        code = run(["verify", "--metric", "euclidean", "--samples", "5"], tmp_path)
        assert code == 0
        out = capsys.readouterr().out
        assert "flag_curvature" in out
        payload = json.loads((tmp_path / "verify_euclidean_n2.json").read_text())
        assert payload["failures"] == 0
        by_id = {c["id"]: c for c in payload["checks"]}
        assert by_id["okada_pde"]["status"] == "skipped"
        assert by_id["flag_curvature"]["status"] == "pass"

    def test_funk_key_rows(self, tmp_path):
        code = run(["verify", "--metric", "funk", "--dim", "2", "--samples", "5",
                    "--checks",
                    "okada_pde,flag_curvature,funk_s_formula,ll_funk,model_equality"],
                   tmp_path)
        assert code == 0
        payload = json.loads((tmp_path / "verify_funk_n2.json").read_text())
        assert payload["failures"] == 0
        by_id = {c["id"]: c for c in payload["checks"]}
        assert by_id["flag_curvature"]["value"] < 1e-6
        assert by_id["okada_pde"]["value"] < 1e-8

    def test_funk3_s_formula_passes(self, tmp_path):
        code = run(["verify", "--metric", "funk", "--dim", "3", "--checks", "funk_s_formula"],
                   tmp_path)
        assert code == 0

    def test_hilbert_quartic_rows(self, tmp_path):
        code = run(["verify", "--metric", "hilbert", "--dim", "2",
                    "--domain", "quartic:0.1", "--samples", "4",
                    "--checks", "flag_curvature,kk_hilbert"], tmp_path)
        assert code == 0
        payload = json.loads((tmp_path / "verify_hilbert_n2.json").read_text())
        by_id = {c["id"]: c for c in payload["checks"]}
        assert by_id["flag_curvature"]["status"] == "pass"
        assert by_id["kk_hilbert"]["status"] == "pass"

    def test_failure_exit_code(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        # impossible tolerance forces a failed check and exit code 1
        cfg.write_text(json.dumps({
            "metric": "quartic_norm", "samples": 4,
            "tolerances": {"santalo": -10.0}, "checks": "santalo",
        }))
        assert cli.main(["verify", "--config", str(cfg),
                         "--out", str(tmp_path)]) == 1

    def test_anchor_uniqueness(self):
        ids = [cid for cid, *_ in cli._CHECKS]
        anchors = [anchor for _, anchor, *_ in cli._CHECKS]
        assert len(set(ids)) == len(ids)
        assert len(set(anchors)) == len(anchors)

    def test_integrity_error_exit_code(self, tmp_path, monkeypatch):
        from finslerlab.errors import NumericalIntegrityError

        def exploding_check(metric, cfg):
            raise NumericalIntegrityError("routes disagree")

        patched = [("homogeneity_f2a", "F(x, t y) = t F(x, y) for t > 0",
                    lambda m: True, exploding_check)]
        monkeypatch.setattr(cli, "_CHECKS", patched)
        code = cli.main(["verify", "--metric", "euclidean", "--samples", "3",
                         "--out", str(tmp_path)])
        assert code == 3


    def test_singular_fundamental_tensor_fails_definiteness(self, tmp_path, monkeypatch):
        from finslerlab.minkowski import FundamentalTensor

        def singular(metric, sample):
            g = np.diag([1.0, 0.0])
            return FundamentalTensor(g=g, g_inv=np.eye(2), det_g=0.0, F=1.0)

        monkeypatch.setattr(cli, "fundamental_tensor", singular)
        code = run(["verify", "--metric", "euclidean", "--samples", "3",
                    "--checks", "positive_definite_f2b"], tmp_path)
        assert code == 1
        payload = json.loads((tmp_path / "verify_euclidean_n2.json").read_text())
        check = payload["checks"][0]
        assert check["status"] == "fail" and check["value"] == 0.0

    def test_nan_route_value_fails(self):
        # a NaN at any sample propagates to the check value, which then fails
        seen = []

        def routes(metric, sample):
            seen.append(sample)
            return (np.nan if len(seen) == 2 else 1.0), 0.0, 1.0

        check = cli._sampled(routes, 10.0)
        value, tol = check(metrics.make_metric("euclidean"), {"samples": 4})
        assert np.isnan(value) and not value <= tol


class TestReports:
    def test_geodesic_csv(self, tmp_path):
        code = run(["geodesic", "--metric", "hilbert", "--dim", "2",
                    "--from", "0,0", "--dir", "1,0", "--t", "3"], tmp_path)
        assert code == 0
        lines = (tmp_path / "geodesic_hilbert_n2.csv").read_text().splitlines()
        assert lines[0].startswith("# finslerlab csv v1")
        assert lines[1].startswith("# config:")
        header = lines[2].split(",")
        assert header == ["t", "x0", "x1", "xdot0", "xdot1", "F"]
        F = np.array([float(l.split(",")[-1]) for l in lines[3:]])
        assert np.max(np.abs(F - F[0])) < 1e-7

    def test_curvature_csv(self, tmp_path):
        code = run(["curvature", "--metric", "funk", "--dim", "2",
                    "--samples", "5"], tmp_path)
        assert code == 0
        lines = (tmp_path / "curvature_funk_n2.csv").read_text().splitlines()
        rows = [l.split(",") for l in lines[3:]]
        kappa_col = lines[2].split(",").index("kappa0")
        for r in rows:
            assert float(r[kappa_col]) == pytest.approx(-0.25, abs=1e-9)

    def test_volume_csv(self, tmp_path):
        code = run(["volume", "--metric", "funk", "--dim", "2",
                    "--radii", "0.5,1", "--mc-samples", "200000"], tmp_path)
        assert code == 0
        lines = (tmp_path / "volume_funk_n2.csv").read_text().splitlines()
        rows = [l.split(",") for l in lines[3:]]
        assert len(rows) == 2
        r1 = [float(v) for v in rows[1]]
        # mu close to the model value at r = 1
        assert r1[4] == pytest.approx(1.0, abs=0.02)

    def test_volume_csv_flags_lower_bounds(self, tmp_path, capsys):
        # the polar sweep leaves the randers chart before r = 2
        code = run(["volume", "--metric", "randers", "--radii", "0.5,2.0"], tmp_path)
        assert code == 0
        lines = (tmp_path / "volume_randers_n2.csv").read_text().splitlines()
        assert lines[2].split(",")[-1] == "flagged"
        assert [l.split(",")[-1] for l in lines[3:]] == ["0", "1"]
        notes = [l for l in capsys.readouterr().out.splitlines() if l.startswith("note:")]
        assert notes == ["note: r=2.0: lower bound: chart exit before radius"]

    def test_compare_report(self, tmp_path):
        code = run(["compare", "--metric", "funk", "--dim", "2",
                    "--lambda", "-0.25", "--delta", "1.5",
                    "--radii", "0.5,1", "--mc-samples", "400000",
                    "--samples", "8"], tmp_path)
        assert code == 0
        meta = json.loads((tmp_path / "compare_funk_n2.json").read_text())
        assert meta["monotone_ok"] in (True, False)
        assert not meta["skipped"]

    def test_compare_skips_on_bad_bounds(self, tmp_path, capsys):
        code = run(["compare", "--metric", "euclidean", "--dim", "2",
                    "--lambda", "1.0", "--delta", "0.0", "--radii", "0.5",
                    "--samples", "5"], tmp_path)
        assert code == 0
        meta = json.loads((tmp_path / "compare_euclidean_n2.json").read_text())
        assert meta["skipped"]

    def test_validate_subcommand(self, tmp_path):
        code = run(["validate", "--metric", "quartic_norm", "--samples", "30"],
                   tmp_path)
        assert code == 0
        payload = json.loads((tmp_path / "validate_quartic_norm_n2.json").read_text())
        assert payload["reversible"] is True

    def test_verify_smoke_every_catalog_metric(self, tmp_path):
        from finslerlab.metrics import zoo_constructors

        for name in sorted(zoo_constructors()):
            code = run(["verify", "--metric", name, "--samples", "3",
                        "--checks", "homogeneity_f2a,jb_identity,es_identity"],
                       tmp_path)
            assert code == 0, name


@pytest.mark.parametrize("name", sorted(metrics.zoo_constructors()))
def test_n3_smoke_every_catalog_metric(tmp_path, capsys, name):
    for argv in (["curvature", "--samples", "2"], ["geodesic", "--t-points", "5"]):
        code = run(argv + ["--metric", name, "--dim", "3"], tmp_path)
        assert code == 0, argv
        out = capsys.readouterr()
        assert "Traceback" not in out.out + out.err


@pytest.mark.parametrize("dim", [2, 3])
def test_sphere_geodesic_stops_at_the_chart_edge(tmp_path, capsys, dim):
    # the default t = 3 from the origin heads for the antipode, which the
    # stereographic chart sends to infinity; the chart ends at radius 14
    code = run(["geodesic", "--metric", "riemannian_sphere", "--dim", str(dim)], tmp_path)
    assert code == 0
    assert "(chart exit)" in capsys.readouterr().out


class TestReproducibility:
    def test_verify_json_byte_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            code = cli.main(["verify", "--metric", "quartic_norm", "--samples", "5",
                             "--checks", "homogeneity_f2a,jb_identity",
                             "--out", str(out)])
            assert code == 0
        ta = (a / "verify_quartic_norm_n2.json").read_text().replace(str(a), "OUT")
        tb = (b / "verify_quartic_norm_n2.json").read_text().replace(str(b), "OUT")
        assert ta == tb

    def test_volume_csv_byte_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            code = cli.main(["volume", "--metric", "funk", "--radii", "0.5",
                             "--mc-samples", "100000", "--out", str(out)])
            assert code == 0
        ta = (a / "volume_funk_n2.csv").read_text().replace(str(a), "OUT")
        tb = (b / "volume_funk_n2.csv").read_text().replace(str(b), "OUT")
        assert ta == tb
