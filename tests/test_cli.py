"""CLI contract: subcommands, config handling, exit codes, reproducibility."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from finslerlab import cli, comparison, metrics


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


def _former_build_kwargs(cfg):
    """The keyword arguments of the former hand-kept table of which catalog
    ids take n, domain, eps, variant and c."""
    name, kw = cfg["metric"], {}
    if name in ("euclidean", "riemannian_sphere", "riemannian_hyperbolic",
                "quartic_norm", "randers", "funk", "hilbert"):
        kw["n"] = int(cfg["dim"])
    if name in ("funk", "hilbert") and cfg["domain"]:
        kw["domain"] = cfg["domain"]
    if name == "quartic_norm" and cfg["eps"] is not None:
        kw["eps"] = float(cfg["eps"])
    if name == "randers":
        if cfg["variant"]:
            kw["variant"] = cfg["variant"]
        if cfg["c"] is not None:
            kw["c"] = float(cfg["c"])
    if name == "berwald_product" and cfg["c"] is not None:
        kw["c"] = float(cfg["c"])
    return kw


class TestBuildMetric:
    """build_metric passes each config value that the constructor's
    signature names, and n from dim."""

    FLAG_SETS = ([], ["--dim", "3"], ["--eps", "0.3"], ["--c", "0.2"], ["--c", "0"],
                 ["--variant", "closed"], ["--domain", "quartic:0.2"],
                 ["--dim", "3", "--eps", "0", "--c", "0.1", "--variant", "const",
                  "--domain", "quartic:0.1"])

    @staticmethod
    def _cfg(flags):
        return cli.resolve_config(cli.make_parser().parse_args(["verify"] + flags))

    @pytest.mark.parametrize("name", sorted(metrics.zoo_constructors()))
    def test_same_arguments_as_the_former_table(self, monkeypatch, name):
        monkeypatch.setattr(cli, "make_metric", lambda metric, **kw: (metric, kw))
        for flags in self.FLAG_SETS:
            cfg = self._cfg(["--metric", name] + flags)
            assert cli.build_metric(cfg) == (name, _former_build_kwargs(cfg)), flags

    def test_named_keys_reach_the_constructors(self, monkeypatch):
        monkeypatch.setattr(cli, "make_metric", lambda metric, **kw: (metric, kw))
        cases = {
            ("quartic_norm", "--eps", "0.3"): {"n": 2, "eps": 0.3},
            ("randers", "--c", "0.2", "--variant", "closed"):
                {"n": 2, "c": 0.2, "variant": "closed"},
            ("berwald_product", "--c", "0.1"): {"c": 0.1},
            ("funk", "--domain", "quartic:0.2"): {"n": 2, "domain": "quartic:0.2"},
            ("hilbert", "--domain", "quartic:0.1", "--dim", "3"):
                {"n": 3, "domain": "quartic:0.1"},
            # keys that a constructor does not take are ignored
            ("funk", "--eps", "0.3", "--c", "0.2", "--variant", "curl"): {"n": 2},
            ("euclidean", "--domain", "quartic:0.1"): {"n": 2},
        }
        for (name, *flags), kw in cases.items():
            assert cli.build_metric(self._cfg(["--metric", name] + flags)) == (name, kw)

    def test_built_metrics_carry_the_values(self):
        assert cli.build_metric(self._cfg(["--metric", "quartic_norm", "--eps", "0.3"])
                                ).params["eps"] == 0.3
        m = cli.build_metric(self._cfg(["--metric", "funk", "--domain", "quartic:0.2",
                                        "--eps", "0.7"]))
        assert (m.params["domain"], m.params["eps"]) == ("quartic_perturbed", 0.2)


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
        # a NaN at any member of the stack propagates to the check value,
        # which then fails
        seen = []

        def routes(metric, samples):
            seen.append(samples)
            a = np.ones(len(samples.x))
            a[1] = np.nan
            return a, 0.0, 1.0

        check = cli._sampled(routes, 10.0)
        value, tol = check(metrics.make_metric("euclidean"), {"samples": 4})
        assert [s.x.shape for s in seen] == [(4, 2)]
        assert np.isnan(value) and not value <= tol

    def test_nan_transported_norm_fails(self, monkeypatch):
        # a NaN frame vector at a state the geodesic reached is a failure;
        # only the states past a member's reach carry no difference
        transport = cli.parallel_transport

        def corrupted(*args, **kw):
            tr = transport(*args, **kw)
            assert not np.isnan(tr.path.x[1, 5, 0])
            tr.frames[1, 5, 0, :] = np.nan
            return tr

        check = cli._sampled(cli._transport_norms, 1e-6, count=lambda k: 3)
        metric = metrics.make_metric("berwald_product")
        value, tol = check(metric, {"samples": 20})
        assert value <= tol
        monkeypatch.setattr(cli, "parallel_transport", corrupted)
        value, tol = check(metric, {"samples": 20})
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

    def test_compare_notes_a_chart_exit(self, tmp_path, capsys):
        # the sphere's chart ends at distance 3.00, so the 3.2 row is a lower bound
        code = run(["compare", "--metric", "riemannian_sphere", "--lambda", "0",
                    "--delta", "0", "--radii", "1,2,3.2", "--samples", "10"], tmp_path)
        assert code == 0
        meta = json.loads((tmp_path / "compare_riemannian_sphere_n2.json").read_text())
        assert meta["note"] == "lower bound: chart exit before radius"
        assert meta["monotone_ok"] and not meta["skipped"]
        notes = [l for l in capsys.readouterr().out.splitlines() if l.startswith("note:")]
        assert notes == ["note: lower bound: chart exit before radius"]
        code = run(["compare", "--metric", "riemannian_sphere", "--lambda", "0",
                    "--delta", "0", "--radii", "1,2", "--samples", "10"], tmp_path)
        assert code == 0
        assert "note:" not in capsys.readouterr().out

    def test_compare_notes_zero_acceptance(self, tmp_path, capsys):
        code = run(["compare", "--metric", "funk", "--radii", "0.001,0.5",
                    "--mc-samples", "2000", "--samples", "5"], tmp_path)
        assert code == 0
        meta = json.loads((tmp_path / "compare_funk_n2.json").read_text())
        assert meta["monotone_ok"] and not meta["skipped"]
        assert meta["note"] == "r=0.001: zero acceptance"
        notes = [l for l in capsys.readouterr().out.splitlines() if l.startswith("note:")]
        assert notes == ["note: r=0.001: zero acceptance"]
        rows = (tmp_path / "compare_funk_n2.csv").read_text().splitlines()[3:]
        assert rows[0].split(",")[:2] == ["0.001", "0.0"]

    @pytest.mark.parametrize("argv, tag", [
        (["--metric", "funk", "--dim", "3"], "funk_n3"),
        (["--metric", "riemannian_sphere"], "riemannian_sphere_n2"),
        (["--metric", "euclidean"], "euclidean_n2"),
    ])
    def test_compare_runs_on_the_default_model(self, tmp_path, argv, tag):
        # the default model is the metric's own: Funk's at n = 3, flat elsewhere
        code = run(["compare", *argv, "--mc-samples", "2000", "--samples", "5"], tmp_path)
        assert code == 0
        meta = json.loads((tmp_path / f"compare_{tag}.json").read_text())
        assert not meta["skipped"] and meta["monotone_ok"]

    def test_volume_and_compare_share_the_model(self, tmp_path):
        for command in ("volume", "compare"):
            assert run([command, "--metric", "funk", "--dim", "3", "--radii", "1",
                        "--mc-samples", "2000", "--samples", "5"], tmp_path) == 0
        volume, compare = (
            (tmp_path / f"{c}_funk_n3.csv").read_text().splitlines()[3].split(",")
            for c in ("volume", "compare"))
        assert volume[3] == compare[3] == repr(comparison.model_volume(-0.25, 1.0, 3, 1.0))
        # a configured value overrides the default
        assert run(["volume", "--metric", "funk", "--dim", "3", "--radii", "1", "--delta", "0",
                    "--mc-samples", "2000"], tmp_path) == 0
        row = (tmp_path / "volume_funk_n3.csv").read_text().splitlines()[3].split(",")
        assert row[3] == repr(comparison.model_volume(-0.25, 0.0, 3, 1.0))

    def test_compare_skips_on_bad_bounds(self, tmp_path, capsys):
        code = run(["compare", "--metric", "euclidean", "--dim", "2",
                    "--lambda", "1.0", "--delta", "0.0", "--radii", "0.5",
                    "--samples", "5"], tmp_path)
        assert code == 0
        meta = json.loads((tmp_path / "compare_euclidean_n2.json").read_text())
        assert meta["skipped"]
        assert capsys.readouterr().out.splitlines()[-1] == f"note: {meta['note']}"

    def test_validate_subcommand(self, tmp_path):
        code = run(["validate", "--metric", "quartic_norm", "--samples", "30"],
                   tmp_path)
        assert code == 0
        payload = json.loads((tmp_path / "validate_quartic_norm_n2.json").read_text())
        assert payload["reversible"] is True

    @pytest.mark.parametrize("samples, calls", [(None, [100]), ("100", [100]),
                                                ("150", [100, 150])])
    def test_validate_checks_each_sample_set_once(self, tmp_path, monkeypatch, samples, calls):
        # building validates at BUILD_SAMPLES; validate repeats only for more
        seen = []

        def counted(metric, n_samples):
            seen.append(n_samples)
            return real(metric, n_samples)

        real = metrics.validate_metric
        monkeypatch.setattr(metrics, "validate_metric", counted)
        monkeypatch.setattr(cli, "validate_metric", counted)
        argv = ["validate", "--metric", "funk"] + (["--samples", samples] if samples else [])
        assert run(argv, tmp_path) == 0
        assert seen == calls
        payload = json.loads((tmp_path / "validate_funk_n2.json").read_text())
        assert payload["validated_samples"] == calls[-1]

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


@pytest.mark.parametrize("name", ["euclidean", "riemannian_sphere", "riemannian_hyperbolic",
                                  "randers", "quartic_norm"])
def test_polar_volume_beyond_n3_exits_2(tmp_path, capsys, name):
    # the polar sweep has direction grids for n = 2 and 3 only
    code = run(["volume", "--metric", name, "--dim", "4", "--radii", "0.5",
                "--mc-samples", "1000"], tmp_path)
    assert code == 2
    out = capsys.readouterr()
    assert "the polar route needs n in {2,3}, got 4" in out.err
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


def test_cli_import_and_verify_leave_scipy_stats_unloaded(tmp_path):
    """scipy.stats costs about half a second of start-up; nothing needs it."""
    import finslerlab

    src = os.path.dirname(os.path.dirname(finslerlab.__file__))
    code = (
        "import sys\n"
        "import finslerlab.cli\n"
        "rc = finslerlab.cli.main(['verify', '--metric', 'funk', '--checks', 'homogeneity_f2a',"
        f" '--out', {str(tmp_path)!r}])\n"
        "assert rc == 0, rc\n"
        "assert 'scipy.stats' not in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 0, run.stderr
