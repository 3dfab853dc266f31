import json
import pprint
import sys
from pathlib import Path

import numpy as np
import pytest

import depnorm as dn
from depnorm import (
    ArchimedeanFamily,
    CalibrationBudget,
    ExperimentConfig,
    PAPER_RATES,
    RngStream,
    TestKind,
    TimeSeriesSample,
    run_experiment,
)
from depnorm.copula import ar1_filter
from depnorm.harness import _ANGLES, _DATA, _SURROGATE, _draw_bases, _run_realization
from depnorm.kurtosis import _fourth_moments, _mardia_batch, _null_moments, _projected_kurtosis
from reference import direct_kurtosis, direct_scalar_lags

GUMBEL = ArchimedeanFamily.gumbel()
CLAYTON = ArchimedeanFamily.clayton()


# float.hex of _run_realization's p-values, and its validity mask, for
# realization 0 of a Clayton study at N=1000, M=8, 150 calibration
# replicates and seed 424242, keyed by (source_dim, projection_dim, max_lag)
_PINNED = {
    (2, 1, None): {
        'colored1': (
            '0x1.6625606a99c8ap-41', '0x1.67250d6c64174p-1', '0x1.2161ced7e8451p-3',
            '0x1.6caa0ec8fea90p-3', '0x1.5850b5e4a8be4p-1', '0x1.95f05a95b2651p-40',
            '0x1.25d885c899c2ap-4', '0x1.fe36b7a761493p-35',
        ),
        'iid': (
            '0x1.18e407dca603bp-68', '0x1.4568ff60f1f1ap-1', '0x1.0cbb7870aa340p-3',
            '0x1.4b27a3f434d9cp-3', '0x1.4d38767551c0cp-1', '0x1.16ec1be09a093p-58',
            '0x1.3862dd9485e76p-4', '0x1.3c587b32cb15ep-77',
        ),
        'valid': (True, True, True, True, True, True, True, True),
    },
    (2, 1, 30): {
        'colored1': (
            '0x1.c761e0ebdba89p-41', '0x1.58a985e1ace2ap-1', '0x1.13d47bc44fc60p-3',
            '0x1.5ab58fd49ca94p-3', '0x1.504ac5fdf2af8p-1', '0x1.03e06c0c88b64p-39',
            '0x1.35097c8c722c6p-4', '0x1.42dbc30a48899p-34',
        ),
        'iid': (
            '0x1.18e407dca603bp-68', '0x1.4568ff60f1f1ap-1', '0x1.0cbb7870aa340p-3',
            '0x1.4b27a3f434d9cp-3', '0x1.4d38767551c0cp-1', '0x1.16ec1be09a093p-58',
            '0x1.3862dd9485e76p-4', '0x1.3c587b32cb15ep-77',
        ),
        'valid': (True, True, True, True, True, True, True, True),
    },
    (3, 2, None): {
        'colored2': (
            '0x1.3123765acc713p-15', '0x1.3332f711d12b5p-27', '0x1.166d87600a54ap-20',
            '0x1.03e9e7e73df83p-20', '0x1.67f41e9612cd2p-58', '0x1.99d37dc34ca0ap-39',
            '0x1.783e1ddec82e5p-7', '0x1.04386cc5810a2p-10',
        ),
        'valid': (True, True, True, True, True, True, True, True),
    },
    (3, 2, 30): {
        'colored2': (
            '0x1.2246f2298f195p-13', '0x1.8abc0aaa6d2ecp-27', '0x1.13d2bb7dbcb53p-20',
            '0x1.60c653c7fc01cp-20', '0x1.0d1ff831f0a2fp-44', '0x1.07c2ea1862e92p-35',
            '0x1.35b3937429f1fp-7', '0x1.e488c7aaa3cdap-11',
        ),
        'valid': (True, True, True, True, True, True, True, True),
    },
    (2, 2, None): {
        'colored2': (
            '0x1.1c0cabc53f566p-29', '0x1.1c0cabc53f566p-29', '0x1.1c0cabc53f566p-29',
            '0x1.1c0cabc53f566p-29', '0x1.1c0cabc53f566p-29', '0x1.1c0cabc53f566p-29',
            '0x1.1c0cabc53f566p-29', '0x1.1c0cabc53f566p-29',
        ),
        'valid': (True, True, True, True, True, True, True, True),
    },
    (2, 2, 30): {
        'colored2': (
            '0x1.5161ac72dcdc3p-26', '0x1.5161ac72dcdc3p-26', '0x1.5161ac72dcdc3p-26',
            '0x1.5161ac72dcdc3p-26', '0x1.5161ac72dcdc3p-26', '0x1.5161ac72dcdc3p-26',
            '0x1.5161ac72dcdc3p-26', '0x1.5161ac72dcdc3p-26',
        ),
        'valid': (True, True, True, True, True, True, True, True),
    },
}


def _colored1_pvalues(x, bases, max_lag):
    """Colored scalar p-values of the projections u x of the (p, N) sample
    ``x`` onto the lines of ``bases`` (M, 1, p), from the kernels the
    harness uses: the statistic contracts the fourth moments of x, and the
    null contracts its covariance sequence."""
    xc = dn.center(TimeSeriesSample(x))
    b = _projected_kurtosis(bases, _fourth_moments(xc.data[None]))[:, 0]
    cov = dn.sample_cross_covariance(xc, max_lag)
    mean, var, _, _ = _null_moments(TestKind.COLORED_SCALAR, bases, cov, xc.n)
    return dn.two_sided_p_value((b - mean) / np.sqrt(var))


def _per_projection_colored2(cfg, r, stream):
    """Colored bivariate p-values of one realization the direct way: project
    the data and the shared surrogate batch through each basis in turn and
    evaluate every projected sample with the plain reference."""
    x = dn.center(dn.generate(cfg._generator_config(), stream.substream(_DATA, r)))
    bases = _draw_bases(cfg, stream.substream(_ANGLES, r).generator())
    surrogate = dn.GaussianSurrogate(dn.sample_cross_covariance(x, cfg.n - 1), cfg.n)
    z = dn.simulate_gaussian_batch(surrogate, stream.substream(_SURROGATE, r),
                                   cfg.calib_replicates)
    pvalues, valid = np.full(cfg.m, np.nan), np.zeros(cfg.m, dtype=bool)
    for m, u in enumerate(bases):
        b_data, ok_data = direct_kurtosis((u @ x.data)[None])
        b_null, ok_null = direct_kurtosis(np.einsum("kp,rpn->rkn", u, z))
        valid[m] = ok_data[0] and ok_null.all()
        if valid[m]:
            z_score = (b_data[0] - b_null.mean()) / b_null.std(ddof=1)
            pvalues[m] = dn.two_sided_p_value(z_score)
    return pvalues, valid


def _tiny_config(**overrides):
    base = dict(
        family=GUMBEL, source_dim=2, projection_dim=1, temporal_coloring=False,
        n=300, m=60, realizations=2, seed=424242, calib_replicates=150,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestExperimentConfig:
    def test_supported_projections_only(self):
        for src, proj in ((2, 1), (3, 2), (2, 2)):
            ExperimentConfig(GUMBEL, src, proj, True, n=100, m=5)
        for src, proj in ((3, 1), (2, 3), (1, 1), (3, 3)):
            with pytest.raises(ValueError):
                ExperimentConfig(GUMBEL, src, proj, True, n=100, m=5)

    def test_default_tests_by_projection(self):
        c1 = ExperimentConfig(GUMBEL, 2, 1, True, n=100, m=5)
        assert c1.tests == (TestKind.COLORED_SCALAR, TestKind.MARDIA_IID)
        c2 = ExperimentConfig(GUMBEL, 3, 2, True, n=100, m=5)
        assert c2.tests == (TestKind.COLORED_BIVARIATE,)

    def test_test_kind_projection_mismatch(self):
        with pytest.raises(ValueError):
            ExperimentConfig(GUMBEL, 3, 2, True, n=100, m=5,
                             tests=(TestKind.COLORED_SCALAR,))
        with pytest.raises(ValueError):
            ExperimentConfig(GUMBEL, 2, 1, True, n=100, m=5,
                             tests=(TestKind.COLORED_BIVARIATE,))

    def test_negative_max_lag_rejected(self):
        ExperimentConfig(GUMBEL, 2, 1, True, n=300, m=5, max_lag=0)
        with pytest.raises(ValueError, match="max_lag"):
            ExperimentConfig(GUMBEL, 2, 1, True, n=300, m=5, max_lag=-5)

    def test_too_few_calibration_replicates_rejected(self):
        # the same minimum as a CalibrationBudget
        ExperimentConfig(GUMBEL, 3, 2, True, n=200, m=2, calib_replicates=100)
        with pytest.raises(ValueError, match="calib_replicates"):
            ExperimentConfig(GUMBEL, 3, 2, True, n=200, m=2, calib_replicates=99)
        with pytest.raises(ValueError):
            CalibrationBudget(replicates=99)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(GUMBEL, 2, 1, True, n=100, m=5, alphas=(0.05, 1.5))

    @pytest.mark.parametrize("src, proj", [(2, 1), (3, 2), (2, 2)])
    def test_too_short_rejected(self, src, proj):
        # the rule is on the projected sample: N >= max(projection_dim + 2, 4)
        ExperimentConfig(GUMBEL, src, proj, True, n=max(proj + 2, 4), m=5)
        for n in range(proj + 1, max(proj + 2, 4)):
            with pytest.raises(ValueError, match=rf"N >= p\+2, got p={proj}, N={n}"):
                ExperimentConfig(GUMBEL, src, proj, True, n=n, m=5)

    @pytest.mark.parametrize("field, value, message", [
        ("ar_coefficient", 1.5, "AR coefficient"),
        ("n_drop", -3, "n_drop"),
        ("seed", -1, "64 bits"),
        ("alphas", (), "alphas"),
        # one rate per report key f"{alpha:g}", and one set of counts per kind
        ("alphas", (0.05, 0.05), "alphas"),
        ("alphas", (0.05, 0.0500000001), "alphas"),
        ("tests", (), "tests"),
        ("tests", (TestKind.MARDIA_IID, TestKind.MARDIA_IID), "tests"),
        # counts are ints, as from_dict requires of JSON
        ("m", 3.0, "'m' must be an integer"),
        ("n", 300.0, "'n' must be an integer"),
        ("realizations", 2.0, "'realizations' must be an integer"),
        ("calib_replicates", 150.0, "'calib_replicates' must be an integer"),
        ("source_dim", 2.0, "'source_dim' must be an integer"),
        ("seed", 424242.0, "'seed' must be an integer"),
        ("n_drop", True, "'n_drop' must be an integer"),
        ("max_lag", 30.0, "'max_lag' must be an integer"),
    ])
    def test_invalid_setting_rejected_at_construction(self, field, value, message):
        # not only when the first realization runs
        with pytest.raises(ValueError, match=message):
            _tiny_config(**{field: value})

    def test_dict_round_trip(self):
        cfg = _tiny_config(alphas=(0.01, 0.05), max_lag=30)
        back = ExperimentConfig.from_dict(cfg.to_dict())
        assert back == cfg

    def test_from_dict_takes_rho_from_family(self):
        raw = {"family": "clayton", "source_dim": 2, "projection_dim": 1,
               "temporal_coloring": True}
        cfg = ExperimentConfig.from_dict(raw)
        assert cfg.family == ArchimedeanFamily.clayton()
        assert cfg.family.rho == 2.0
        assert cfg == ExperimentConfig(CLAYTON, 2, 1, True)

    @pytest.mark.parametrize("key, value", [
        ("temporal_coloring", "false"), ("N", 300.7), ("M", "5"), ("max_lag", True),
        ("max_lag", "30"), ("max_lag", 30.5), ("max_lag", [1]), ("alphas", 0.05),
        ("tests", "iid"), ("tests", ["bogus"]), ("rho", "5"), ("family", ["gumbel"]),
    ])
    def test_from_dict_rejects_wrong_json_types(self, key, value):
        raw = _tiny_config().to_dict()
        raw[key] = value
        with pytest.raises(ValueError, match=f"key '{key}' must be"):
            ExperimentConfig.from_dict(raw)

    def test_from_dict_reads_integral_floats_as_ints(self):
        raw = _tiny_config(max_lag=30).to_dict()
        cfg = ExperimentConfig.from_dict({**raw, "N": 300.0, "max_lag": 30.0, "seed": 424242.0})
        assert cfg == ExperimentConfig.from_dict(raw)
        assert json.dumps(cfg.to_dict()) == json.dumps(raw)

    @pytest.mark.parametrize("raw", [5, None, [{}], "abc"])
    def test_from_dict_rejects_a_config_that_is_not_an_object(self, raw):
        with pytest.raises(ValueError, match="experiment config must be a JSON object"):
            ExperimentConfig.from_dict(raw)

    def test_from_dict_rejects_unknown_keys(self):
        raw = _tiny_config().to_dict()
        raw["calib_replicate"] = raw.pop("calib_replicates")
        with pytest.raises(ValueError, match="calib_replicate"):
            ExperimentConfig.from_dict(raw)


class TestPaperRates:
    def test_reference_values_echoed(self):
        assert PAPER_RATES["table1"]["gumbel"]["colored1"][0.05] == 0.1250
        assert PAPER_RATES["table3"]["clayton"]["colored2"][0.10] == 0.9882
        assert PAPER_RATES["table2"]["gumbel"]["iid"][0.10] == 0.2406
        assert PAPER_RATES["table4"]["gumbel"]["colored2"][0.05] == 0.9492

    def test_every_table_covers_both_copulas(self):
        for table, by_family in PAPER_RATES.items():
            assert set(by_family) == {"gumbel", "clayton"}
            for rates in by_family.values():
                for by_alpha in rates.values():
                    assert set(by_alpha) == {0.05, 0.10}


class TestRunExperiment:
    def test_report_shape_and_bounds(self):
        cfg = _tiny_config()
        rep = run_experiment(cfg)
        assert set(rep.rates) == {"colored1", "iid"}
        for by_alpha in rep.rates.values():
            for rate in by_alpha.values():
                assert 0.0 <= rate <= 1.0
        assert len(rep.counts) == cfg.realizations
        for counts in rep.counts:
            for test, by_alpha in counts.items():
                for nrej in by_alpha.values():
                    assert 0 <= nrej <= cfg.m

    def test_nested_rejection_regions(self):
        rep = run_experiment(_tiny_config(m=120))
        for test in rep.rates:
            assert rep.rates[test]["0.05"] <= rep.rates[test]["0.1"]
        for counts in rep.counts:
            for test in counts:
                assert counts[test]["0.05"] <= counts[test]["0.1"]

    def test_deterministic_report(self):
        cfg = _tiny_config(m=40)
        a = run_experiment(cfg).to_json()
        b = run_experiment(cfg).to_json()
        assert a == b

    def test_seed_changes_results(self):
        a = run_experiment(_tiny_config(m=40))
        b = run_experiment(_tiny_config(m=40, seed=424243))
        assert a.to_json() != b.to_json()

    def test_reports_share_one_key_per_alpha(self):
        # a caller that keeps many reports holds each alpha's key string once
        reports = [run_experiment(_tiny_config(m=20, seed=seed)) for seed in (1, 2)]
        keys = [key for rep in reports for counts in rep.counts
                for by_alpha in counts.values() for key in by_alpha]
        assert len(keys) == 16
        assert len({id(key) for key in keys}) == 2

    def test_rotation_mode_runs(self):
        cfg = _tiny_config(source_dim=2, projection_dim=2, m=20,
                           temporal_coloring=True, n=400)
        rep = run_experiment(cfg)
        assert set(rep.rates) == {"colored2"}

    def test_plane_mode_runs(self):
        cfg = _tiny_config(source_dim=3, projection_dim=2, m=20,
                           temporal_coloring=True, n=400)
        rep = run_experiment(cfg)
        assert set(rep.rates) == {"colored2"}

    @pytest.mark.parametrize("kind, alpha", [(TestKind.COLORED_SCALAR, 0.01),
                                             (TestKind.COLORED_BIVARIATE, 0.05)])
    def test_rate_the_study_did_not_run(self, kind, alpha):
        # a ValueError naming what the study ran, not a bare KeyError
        rep = run_experiment(_tiny_config())
        assert rep.rate(TestKind.COLORED_SCALAR, 0.05) == rep.rates["colored1"]["0.05"]
        with pytest.raises(ValueError, match=r"kinds \['colored1', 'iid'\] at alphas "
                                             r"\[0.05, 0.1\]"):
            rep.rate(kind, alpha)


class TestPipelineMatchesPublicApi:
    """The batched experiment internals must agree with run_test."""

    def test_scalar_pvalues_match_run_test(self):
        gen = RngStream(700).generator()
        y = gen.standard_normal((4, 500))
        # the axes of two 2-D sources
        pv_batch = np.concatenate([_colored1_pvalues(y[i : i + 2], np.eye(2)[:, None], 499)
                                   for i in (0, 2)])
        for i in range(4):
            rep = dn.run_test(TimeSeriesSample(y[i : i + 1]),
                              TestKind.COLORED_SCALAR, 0.05)
            assert pv_batch[i] == pytest.approx(rep.p_value, rel=1e-9)

    def test_realization_pvalues_match_run_test_with_max_lag(self):
        # the colored scalar branch honours ExperimentConfig.max_lag
        cfg = _tiny_config(temporal_coloring=True, m=12, max_lag=30)
        stream = RngStream(cfg.seed, 0)
        pvalues, valid = _run_realization(cfg, 0, stream)
        assert valid.all()
        x = dn.generate(dn.GeneratorConfig(cfg.family, 2, cfg.n,
                                           ar_coefficient=cfg.ar_coefficient,
                                           n_drop=cfg.n_drop),
                        stream.substream(_DATA, 0))
        bases = _draw_bases(cfg, stream.substream(_ANGLES, 0).generator())
        y = np.einsum("mkp,pn->mkn", bases, dn.center(x).data)
        for kind in cfg.tests:
            for m in range(cfg.m):
                rep = dn.run_test(TimeSeriesSample(y[m]), kind, 0.05, max_lag=30)
                assert pvalues[kind][m] == pytest.approx(rep.p_value, rel=1e-9)

    def test_batch_statistic_matches_mardia(self):
        gen = RngStream(701).generator()
        batch = gen.standard_normal((5, 2, 300))
        vals = _mardia_batch(batch)
        assert np.isfinite(vals).all()
        for i in range(5):
            k = dn.mardia_kurtosis(TimeSeriesSample(batch[i]))
            assert vals[i] == pytest.approx(k.value, rel=1e-12)

    def test_masked_detects_degenerate_projection(self):
        batch = np.stack([
            RngStream(702).generator().standard_normal((2, 100)),
            np.vstack([np.ones(100), np.ones(100)]),
        ])
        vals = _mardia_batch(batch)
        assert np.isfinite(vals[0]) and np.isnan(vals[1])

    def test_shared_source_null_matches_direct_calibration(self):
        # projecting source-matched Gaussian replicates is law-identical to
        # calibrating against the projected covariance sequence directly
        cfg = dn.GeneratorConfig(CLAYTON, 3, 800)
        x = dn.center(dn.generate(cfg, RngStream(703)))
        basis = dn.Plane2D(0.4, 1.1).basis()
        y = TimeSeriesSample(basis @ x.data)

        direct = dn.colored_bivariate_null_moments(
            dn.sample_cross_covariance(dn.center(y), 799), 800,
            CalibrationBudget(replicates=2000, seed=RngStream(704)),
        )
        cov_src = dn.sample_cross_covariance(x, 799)
        sur = dn.GaussianSurrogate(cov_src, 800)
        z = dn.simulate_gaussian_batch(sur, RngStream(705), 2000)
        b = _mardia_batch(np.einsum("kp,rpn->rkn", basis, z))
        assert np.isfinite(b).all()
        se = b.std(ddof=1) / np.sqrt(b.size)
        assert abs(b.mean() - direct.mean) < 3 * np.hypot(se, se)


class TestProjectionEngine:
    """The colored bivariate branch contracts one fourth-moment build per
    realization against every basis; it must give the p-values of the
    direct per-projection evaluation."""

    @pytest.mark.parametrize("source_dim", [3, 2])
    def test_colored2_matches_per_projection_loop(self, source_dim):
        cfg = _tiny_config(source_dim=source_dim, projection_dim=2,
                           temporal_coloring=True, m=10)
        stream = RngStream(cfg.seed, 0)
        pvalues, valid = _run_realization(cfg, 1, stream)
        ref, ref_valid = _per_projection_colored2(cfg, 1, stream)
        np.testing.assert_array_equal(valid, ref_valid)
        assert valid.all()
        got = pvalues[TestKind.COLORED_BIVARIATE]
        np.testing.assert_allclose(got, ref, rtol=1e-9)

    @pytest.mark.parametrize("max_lag", [None, 30])
    def test_colored1_matches_plain_lag_sums(self, max_lag):
        # the harness contracts the source covariance sequence; the reference
        # projects the data and sums lagged products directly
        cfg = _tiny_config(family=CLAYTON, temporal_coloring=True, max_lag=max_lag)
        stream = RngStream(cfg.seed, 0)
        pvalues, valid = _run_realization(cfg, 1, stream)
        x = dn.center(dn.generate(dn.GeneratorConfig(cfg.family, 2, cfg.n,
                                                     ar_coefficient=cfg.ar_coefficient,
                                                     n_drop=cfg.n_drop),
                                  stream.substream(_DATA, 1))).data
        bases = _draw_bases(cfg, stream.substream(_ANGLES, 1).generator())
        b, ok = direct_kurtosis(bases @ x)
        lags = direct_scalar_lags(x, bases, cfg.n - 1 if max_lag is None else max_lag)
        nulls = [dn.colored_scalar_null_moments(dn.CovarianceSequence(row[:, None, None]), cfg.n)
                 for row in lags]
        mean, var = np.array([(nm.mean, nm.variance) for nm in nulls]).T
        np.testing.assert_array_equal(valid, ok)
        assert valid.all()
        np.testing.assert_allclose(pvalues[TestKind.COLORED_SCALAR],
                                   dn.two_sided_p_value((b - mean) / np.sqrt(var)),
                                   rtol=1e-9)

    def test_block_size_does_not_change_results(self, monkeypatch):
        cfg = _tiny_config(source_dim=3, projection_dim=2, temporal_coloring=True,
                           m=15, calib_replicates=120)
        runs = []
        for block in (1, 7, cfg.m):
            monkeypatch.setattr("depnorm.calibrate._BASIS_BLOCK", block)
            runs.append(_run_realization(cfg, 0, RngStream(cfg.seed, 0)))
        for pvalues, valid in runs[1:]:
            np.testing.assert_array_equal(valid, runs[0][1])
            np.testing.assert_array_equal(pvalues[TestKind.COLORED_BIVARIATE],
                                          runs[0][0][TestKind.COLORED_BIVARIATE])

    @pytest.mark.parametrize("family", [GUMBEL, CLAYTON])
    def test_rotations_give_one_pvalue(self, monkeypatch, family):
        # B_2 and its shared-batch null are affine-invariant, and every 2->2
        # basis contracts the projector I: all M rotations of a realization,
        # across contraction blocks, give one p-value bit for bit
        monkeypatch.setattr("depnorm.calibrate._BASIS_BLOCK", 5)
        cfg = _tiny_config(family=family, source_dim=2, projection_dim=2,
                           temporal_coloring=True, m=12)
        pvalues, valid = _run_realization(cfg, 0, RngStream(cfg.seed, 0))
        assert valid.all()
        assert len(set(map(float.hex, pvalues[TestKind.COLORED_BIVARIATE]))) == 1


    @pytest.mark.parametrize("source_dim, projection_dim, max_lag", list(_PINNED))
    def test_pinned_pvalues(self, source_dim, projection_dim, max_lag):
        # any change to the statistic, the nulls or the RNG layout that moves
        # a bit of these shows here (recorded with numpy 2.4 on scipy-openblas
        # 0.3.31; another BLAS may round differently)
        cfg = ExperimentConfig(CLAYTON, source_dim, projection_dim, True, m=8,
                               seed=424242, calib_replicates=150, max_lag=max_lag)
        pvalues, valid = _run_realization(cfg, 0, RngStream(cfg.seed, 0))
        got = {kind.value: tuple(map(float.hex, pv)) for kind, pv in pvalues.items()}
        got["valid"] = tuple(valid.tolist())
        pinned = _PINNED[(source_dim, projection_dim, max_lag)]
        if got != pinned:
            # in the table's form, so that a deliberate re-record is a copy
            moved = [f"{key}[{i}]" for key, values in got.items()
                     for i, (a, b) in enumerate(zip(values, pinned.get(key, ()))) if a != b]
            pytest.fail(f"moved {moved}, got {pprint.pformat(got, width=96)}")

    @pytest.mark.parametrize("cpus", [1, 3])
    @pytest.mark.parametrize("source_dim, projection_dim, max_lag",
                             [key for key in _PINNED if key[1] == 2])
    def test_pinned_pvalues_on_any_pool(self, monkeypatch, cpus, source_dim,
                                        projection_dim, max_lag):
        # the calibrated setups draw through the slab pipeline, whose pool
        # size follows the usable CPUs; every schedule gives the pinned bits
        monkeypatch.setattr("depnorm.calibrate._MAX_WORKERS", 3)
        monkeypatch.setattr("depnorm.calibrate._usable_cpus", lambda: cpus)
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-5)
            self.test_pinned_pvalues(source_dim, projection_dim, max_lag)
        finally:
            sys.setswitchinterval(interval)


class TestNullSize:
    def test_scalar_colored_test_size_on_gaussian_ar1(self):
        # H0 source: independent AR(1) Gaussian channels, no copula
        rng = RngStream(555)
        n, reals, m = 1000, 100, 150
        rates = []
        for r in range(reals):
            gen = rng.substream(r).generator()
            x = ar1_filter(gen.standard_normal((2, n + 1000)), 0.8, 1000)
            x -= x.mean(axis=1, keepdims=True)
            phis = gen.uniform(0, np.pi, m)
            bases = np.stack([np.sin(phis), np.cos(phis)], axis=1)[:, None]
            pv = _colored1_pvalues(x, bases, n - 1)
            rates.append(np.mean(pv < 0.05))
        assert abs(np.mean(rates) - 0.05) < 0.02

    def test_iid_moments_overreject_colored_data(self):
        # the same H0 data fails the uncorrected test far more often, which
        # is exactly what the colored null moments are for
        rng = RngStream(555)
        n = 1000
        rates = []
        mom = dn.iid_null_moments(1, n)
        for r in range(40):
            gen = rng.substream(r).generator()
            x = ar1_filter(gen.standard_normal((2, n + 1000)), 0.8, 1000)
            x -= x.mean(axis=1, keepdims=True)
            phis = gen.uniform(0, np.pi, 100)
            y = np.stack([np.sin(phis), np.cos(phis)], axis=1) @ x
            b = _mardia_batch(y[:, None, :])
            z = (b - mom.mean) / np.sqrt(mom.variance)
            rates.append(np.mean(dn.two_sided_p_value(z) < 0.05))
        assert np.mean(rates) > 0.1

    def test_bivariate_calibrated_test_size_on_gaussian_ar1(self):
        rng = RngStream(556)
        n = 1000
        rates = []
        for r in range(20):
            gen = rng.substream(r).generator()
            x = ar1_filter(gen.standard_normal((3, n + 1000)), 0.8, 1000)
            x -= x.mean(axis=1, keepdims=True)
            cov = dn.sample_cross_covariance(TimeSeriesSample(x), n - 1)
            z_batch = dn.simulate_gaussian_batch(
                dn.GaussianSurrogate(cov, n), rng.substream(r, 99), 400
            )
            rej = 0
            m = 40
            for _ in range(m):
                basis = dn.sample_plane(gen).basis()
                bd = _mardia_batch((basis @ x)[None, :, :])
                bn = _mardia_batch(np.einsum("kp,rpn->rkn", basis, z_batch))
                zscore = (bd[0] - bn.mean()) / bn.std(ddof=1)
                rej += dn.two_sided_p_value(zscore) < 0.05
            rates.append(rej / m)
        assert abs(np.mean(rates) - 0.05) < 0.02


# The outputs of `depnorm reproduce-tables --fast --seed 16`, as recorded.
_RECORDED = Path(__file__).parent / "reproduce_fast_seed16"


class TestReproduceTables:
    def test_files_columns_and_determinism(self, fast_tables):
        # the fast run at the default seed reproduces the recorded bytes
        assert list(fast_tables) == ["table1", "table2", "table3", "table4", "report"]
        for name, path in fast_tables.items():
            if name != "report":
                header = path.read_text().splitlines()[0]
                assert header == "copula,test,alpha,rate,paper_rate,abs_diff"
            assert path.read_bytes() == (_RECORDED / path.name).read_bytes(), name

    def test_paper_rates_echoed_in_csv(self, fast_tables):
        rows = fast_tables["table1"].read_text().splitlines()[1:]
        gumbel_b1 = [r for r in rows if r.startswith("gumbel,colored1,0.05")]
        assert len(gumbel_b1) == 1
        assert gumbel_b1[0].split(",")[4] == "0.1250"
        report = json.loads(fast_tables["report"].read_text())
        assert set(report["tables"]) == {"table1", "table2", "table3", "table4"}
        det = report["tables"]["table1"]["gumbel"]["realizations"]
        assert len(det) == 3
