"""Sweep engine and serialization tests."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transduction_mir import (
    ConfigError,
    EmptySweep,
    GridAxis,
    MirError,
    ReceptorSpec,
    SweepConfig,
    SweepRow,
    Transition,
    TruncatedGaussianSpec,
    ValidationError,
    audit_rows,
    chr2_skeleton,
    estimate_mir,
    find_capacity,
    mir_bounds,
    mir_discrete,
    mir_quadrature,
    mir_series,
    receptor,
    rows_from_csv,
    rows_from_json,
    rows_to_csv,
    rows_to_json,
    run_sweep,
    simulate,
    truncgauss,
)
from transduction_mir.cli import main
from transduction_mir.sweep import CSV_HEADER, VALID_METHODS, _derive_seed, _edge_note
from transduction_mir.truncgauss import _gl_nodes


def small_config(unit_chr2, **overrides):
    defaults = dict(
        receptor=unit_chr2,
        a=1e-5,
        b=2.0,
        mu_bar_grid=GridAxis(0.5, 1.5, 3),
        sigma_bar_grid=GridAxis(0.2, 0.6, 2),
        methods=("quadrature", "bounds_s2"),
        seed=42,
    )
    defaults.update(overrides)
    return SweepConfig(**defaults)


def single_point_row(config, index, mu_bar, sigma_bar):
    """The row a sweep should hold at one point, from the public
    single-point functions called one method at a time in VALID_METHODS
    order (the sweep's audit is not applied)."""
    try:
        dist = TruncatedGaussianSpec(mu_bar, sigma_bar, config.a, config.b)
    except ValidationError as exc:
        return SweepRow(mu_bar, sigma_bar, status=f"distribution:{type(exc).__name__}:{exc}")
    spec = config.receptor
    calls = {
        "quadrature": lambda: {"mir_quadrature": mir_quadrature(spec, dist).value},
        "series": lambda: {"mir_series": mir_series(spec, dist, config.series_k).value},
        "discrete": lambda: {"mir_discrete": mir_discrete(spec, dist, config.delta_t).value},
    }

    def bounds(s):
        pair = mir_bounds(spec, dist, s)
        return {f"lb_s{s}": pair.lower, f"ub_s{s}": pair.upper}

    calls["bounds_s2"] = lambda: bounds(2)
    calls["bounds_s4"] = lambda: bounds(4)

    def mc():
        traj = simulate(spec, dist, config.delta_t, config.mc_n, _derive_seed(config.seed, index))
        est = estimate_mir(traj, spec, dist)
        return {"mc_value": est.value, "mc_stderr": est.stderr}

    calls["mc"] = mc
    values, problems = {"mu": dist.mu, "sigma2": dist.sigma2}, []
    for method in VALID_METHODS:
        if method in config.methods:
            try:
                values.update(calls[method]())
            except MirError as exc:
                problems.append(f"{method}:{type(exc).__name__}")
    return SweepRow(mu_bar, sigma_bar, status=";".join(problems) or "ok", **values)


class TestGridAxis:
    def test_single_point_grid(self):
        axis = GridAxis(1.0, 1.0, 1)
        np.testing.assert_array_equal(axis.values(), [1.0])

    def test_linear_values(self):
        axis = GridAxis(0.0, 1.0, 5)
        np.testing.assert_allclose(axis.values(), [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_rejects_bad_ranges(self):
        with pytest.raises(ConfigError):
            GridAxis(1.0, 0.5, 3)
        with pytest.raises(ConfigError):
            GridAxis(0.5, 0.5, 3)
        with pytest.raises(ConfigError):
            GridAxis(0.0, 1.0, 0)


class TestConfigValidation:
    def test_unknown_method(self, unit_chr2):
        with pytest.raises(ConfigError):
            small_config(unit_chr2, methods=("quadrature", "magic"))

    def test_series_needs_convergence_region(self, unit_chr2):
        with pytest.raises(ConfigError):
            small_config(unit_chr2, methods=("series",), b=2.5)
        with pytest.raises(ConfigError):
            small_config(unit_chr2, methods=("series",), a=0.0)

    def test_bad_format(self, unit_chr2, tmp_path):
        # the output format is read by the sweep command, before any row runs
        doc = {
            "receptor": unit_chr2.to_mapping(),
            "sweep": {
                "a": 1e-5,
                "b": 2.0,
                "mu_bar": {"min": 1.0, "max": 1.0, "steps": 1},
                "sigma_bar": {"min": 0.5, "max": 0.5, "steps": 1},
                "methods": ["quadrature"],
            },
            "output": {"format": "xml"},
        }
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        out = tmp_path / "rows.out"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 2
        assert not out.exists()


class TestRunSweep:
    def test_single_point_sandwich(self, unit_chr2):
        config = small_config(
            unit_chr2,
            mu_bar_grid=GridAxis(1.0, 1.0, 1),
            sigma_bar_grid=GridAxis(0.5, 0.5, 1),
            methods=("quadrature", "bounds_s2"),
        )
        rows = run_sweep(config)
        assert len(rows) == 1
        row = rows[0]
        assert row.status == "ok"
        assert row.lb_s2 <= row.mir_quadrature <= row.ub_s2
        assert row.mir_series is None
        assert row.mc_value is None

    def test_ordering_mu_major(self, unit_chr2):
        rows = run_sweep(small_config(unit_chr2))
        mus = [row.mu_bar for row in rows]
        sgs = [row.sigma_bar for row in rows]
        assert mus == sorted(mus)
        assert sgs[:2] == sorted(sgs[:2])
        assert len(rows) == 6

    def test_degenerate_sigma_row(self, unit_chr2):
        config = small_config(
            unit_chr2,
            mu_bar_grid=GridAxis(1.0, 1.0, 1),
            sigma_bar_grid=GridAxis(1e-8, 1e-8, 1),
            methods=("quadrature",),
        )
        rows = run_sweep(config)
        assert rows[0].mir_quadrature < 1e-8

    def test_per_point_failure_recorded(self, unit_chr2):
        config = small_config(
            unit_chr2,
            methods=("quadrature", "discrete"),
            delta_t=0.75,  # inadmissible at x = b for the unit ring
        )
        rows = run_sweep(config)
        assert all("discrete:StepTooLarge" in row.status for row in rows)
        assert all(row.mir_quadrature is not None for row in rows)

    def test_methods_run_in_one_fixed_order(self, unit_chr2):
        # the config's method order changes neither the row nor the status
        def sweep_csv(methods):
            config = small_config(
                unit_chr2,
                mu_bar_grid=GridAxis(1.0, 1.0, 1),
                sigma_bar_grid=GridAxis(0.5, 0.5, 1),
                methods=methods,
                delta_t=0.75,
            )
            return rows_to_csv(run_sweep(config))

        forward = sweep_csv(VALID_METHODS)
        assert sweep_csv(VALID_METHODS[::-1]) == forward
        assert rows_from_csv(forward)[0].status == "discrete:StepTooLarge;mc:StepTooLarge"

    def test_deterministic_across_reruns(self, unit_chr2):
        config = small_config(
            unit_chr2,
            methods=("quadrature", "mc"),
            mc_n=2000,
            delta_t=1e-2,
        )
        _gl_nodes.cache_clear()
        cold = rows_to_csv(run_sweep(config))
        again = rows_to_csv(run_sweep(config))
        # an unrelated sweep (other grid, other seed) runs between the reruns
        run_sweep(small_config(unit_chr2, mu_bar_grid=GridAxis(0.7, 1.3, 2), seed=5))
        warm = rows_to_csv(run_sweep(config))
        assert cold == again == warm

    def test_one_stacked_solve_per_sweep(self, unit_chr2, monkeypatch):
        stacks = []
        solve = receptor._solve_stationary
        monkeypatch.setattr(
            receptor, "_solve_stationary", lambda q, errors: stacks.append(len(q)) or solve(q, errors)
        )
        config = small_config(
            unit_chr2,
            mu_bar_grid=GridAxis(0.5, 1.5, 2),
            methods=("quadrature", "series", "bounds_s2", "bounds_s4", "discrete"),
        )
        rows = run_sweep(config)
        assert [row.status for row in rows] == ["ok"] * 4
        assert stacks == [4]

    def test_refinement_calls_per_sweep(self, unit_chr2, monkeypatch):
        # one E[x ln x] pass, one pass over the x-dependent diagonal entries
        # of every point for the discrete rate, and one pass over the moment
        # vectors of every point for the series
        calls = []
        integrate = truncgauss._integrate
        monkeypatch.setattr(
            truncgauss,
            "_integrate",
            lambda *args: calls.append((len(args[1]), args[6])) or integrate(*args),
        )
        config = small_config(
            unit_chr2,
            mu_bar_grid=GridAxis(0.2, 1.8, 8),
            sigma_bar_grid=GridAxis(0.1, 1.0, 8),
            methods=("quadrature", "series", "bounds_s2", "bounds_s4", "discrete"),
        )
        rows = run_sweep(config)
        assert [row.status for row in rows] == ["ok"] * 64
        assert len(calls) == 3
        # E[x ln x], then one diagonal entry per point
        assert calls.count((64, "expectation")) == 2
        assert calls.count((64, "moment quadrature")) == 1

    # the reducible receptor fails every valid row's stationary solve; at
    # delta_t = 0.75 discrete and mc fail with StepTooLarge, raised first
    @pytest.mark.parametrize("delta_t", [1e-3, 0.75])
    @pytest.mark.parametrize("spec", ["reducible", "chr2"])
    def test_statuses_match_single_point_calls(self, unit_chr2, spec, delta_t):
        receptor_spec = unit_chr2 if spec == "chr2" else ReceptorSpec(
            "reducible",
            ("A", "B", "C"),
            (
                Transition(0, 1, 1.0, True),
                Transition(1, 0, 1.0, False),
                Transition(2, 0, 1.0, False),  # nothing enters C
            ),
        )
        config = small_config(
            receptor_spec,
            a=0.02,
            mu_bar_grid=GridAxis(-3.0, 1.0, 3),  # mu_bar = -3 at sigma 0.05 keeps no mass
            sigma_bar_grid=GridAxis(0.05, 0.5, 2),
            methods=VALID_METHODS,
            delta_t=delta_t,
            mc_n=2000,
        )
        rows = run_sweep(config)
        expected = [single_point_row(config, i, row.mu_bar, row.sigma_bar)
                    for i, row in enumerate(rows)]
        assert rows == expected
        statuses = {row.status.split(":")[0] for row in rows}
        assert "distribution" in statuses and len(statuses) > 1

    def test_audit_clean(self, unit_chr2):
        rows = run_sweep(small_config(unit_chr2, methods=("quadrature", "bounds_s2", "bounds_s4")))
        assert audit_rows(rows) == []

    def test_audit_slack_is_relative_to_the_rate(self, unit_chr2):
        # a window 0.0016 parent sigmas wide: the rate is 5.6e-6 bits/s, and
        # the s=4 pair misses it by 1e-4 relative, which an absolute slack of
        # 1e-9 bits/s lets pass; the s=2 pair holds it
        mu_bar, sigma_bar = -0.23401700995488373, 1.5972108257237898
        config = small_config(
            unit_chr2,
            a=0.05928128419236875,
            b=0.06180208139557882,
            mu_bar_grid=GridAxis(mu_bar, mu_bar, 1),
            sigma_bar_grid=GridAxis(sigma_bar, sigma_bar, 1),
            methods=("quadrature", "bounds_s2", "bounds_s4"),
        )
        (row,) = run_sweep(config)
        exact = row.mir_quadrature
        assert row.lb_s2 <= exact <= row.ub_s2
        assert row.lb_s4 - exact > 1e-5 * exact
        message = f"s=4 bounds [{row.lb_s4}, {row.ub_s4}] fail to sandwich {exact}"
        assert row.status == f"audit:{message}"
        assert audit_rows([row]) == [(0, message)]

    def test_rows_match_direct_api_calls(self, unit_chr2):
        from transduction_mir import TruncatedGaussianSpec, mir_quadrature

        rows = run_sweep(small_config(unit_chr2))
        for row in rows:
            dist = TruncatedGaussianSpec(row.mu_bar, row.sigma_bar, 1e-5, 2.0)
            assert row.mu == dist.mu
            assert row.mir_quadrature == mir_quadrature(unit_chr2, dist).value


class TestFindCapacity:
    def test_single_row(self):
        rows = [SweepRow(mu_bar=1.0, sigma_bar=0.5, mir_quadrature=0.05)]
        assert find_capacity(rows) == (1.0, 0.5, 0.05)

    def test_tie_break(self):
        rows = [
            SweepRow(mu_bar=mb, sigma_bar=sb, mir_quadrature=1.0)
            for mb in (2.0, 1.0)
            for sb in (0.9, 0.3)
        ]
        assert find_capacity(rows) == (1.0, 0.3, 1.0)

    def test_empty(self):
        with pytest.raises(EmptySweep):
            find_capacity([])

    def test_unpopulated_field(self):
        rows = [SweepRow(mu_bar=1.0, sigma_bar=0.5)]
        with pytest.raises(ValidationError):
            find_capacity(rows, by="mir_quadrature")

    def test_real_sweep_argmax(self, unit_chr2):
        rows = run_sweep(small_config(unit_chr2))
        mu_bar, sigma_bar, value = find_capacity(rows, by="ub_s2")
        assert value == max(row.ub_s2 for row in rows)


class TestEdgeNote:
    @staticmethod
    def grid(peak, mu_bars=(0.5, 1.0, 1.5), sigma_bars=(0.2, 0.4, 0.6)):
        """Rows whose mir_quadrature peaks at the grid point ``peak``."""
        return [
            SweepRow(mu_bar=mb, sigma_bar=sb, mir_quadrature=-abs(mb - peak[0]) - abs(sb - peak[1]))
            for mb in mu_bars
            for sb in sigma_bars
        ]

    def test_interior_argmax_has_no_edge(self):
        rows = self.grid((1.0, 0.4))
        assert find_capacity(rows)[:2] == (1.0, 0.4)
        assert _edge_note(rows, 1.0, 0.4) == ""

    @pytest.mark.parametrize(
        "peak, clause",
        [
            ((0.5, 0.4), "the mu_bar min edge"),
            ((1.0, 0.6), "the sigma_bar max edge"),
            ((1.5, 0.2), "the mu_bar max edge and the sigma_bar min edge"),
        ],
    )
    def test_edge_argmax_is_named(self, peak, clause):
        rows = self.grid(peak)
        assert find_capacity(rows)[:2] == peak
        note = _edge_note(rows, *peak)
        assert note == f" on {clause}; the maximum may lie outside the grid"

    def test_single_step_axis_has_no_edge(self):
        rows = self.grid((1.0, 0.4), sigma_bars=(0.4,))
        assert _edge_note(rows, 1.0, 0.4) == ""
        assert _edge_note(rows, 0.5, 0.4).startswith(" on the mu_bar min edge;")


class TestSerialization:
    def test_csv_header(self, unit_chr2):
        text = rows_to_csv(run_sweep(small_config(unit_chr2)))
        assert text.splitlines()[0] == CSV_HEADER

    def test_csv_round_trip(self, unit_chr2):
        rows = run_sweep(small_config(unit_chr2))
        again = rows_from_csv(rows_to_csv(rows))
        assert again == rows

    def test_csv_round_trip_with_failures(self, unit_chr2):
        rows = run_sweep(small_config(unit_chr2, methods=("quadrature", "discrete"), delta_t=0.75))
        again = rows_from_csv(rows_to_csv(rows))
        assert again == rows

    def test_json_round_trip(self, unit_chr2):
        rows = run_sweep(small_config(unit_chr2))
        again = rows_from_json(rows_to_json(rows))
        assert again == rows
        payload = json.loads(rows_to_json(rows))
        assert payload[0]["mir_series"] is None

    def test_empty_fields_blank_in_csv(self, unit_chr2):
        text = rows_to_csv(run_sweep(small_config(unit_chr2, methods=("quadrature",))))
        first = text.splitlines()[1].split(",")
        assert first[6] == ""  # lb_s2 not requested

    @pytest.mark.parametrize(
        "text",
        ['[{"bogus": 3}]', '{"bogus": 3}', "[1]", '{"a": 1}', "{not json"],
        ids=["unknown-key", "object-payload", "number-entry", "string-entries", "bad-json"],
    )
    def test_json_reader_raises_validation_error(self, text):
        with pytest.raises(ValidationError):
            rows_from_json(text)

    @pytest.mark.parametrize(
        "text",
        [
            '[{"mu_bar": "x", "sigma_bar": [1]}]',
            '[{"mu_bar": true, "sigma_bar": 0.5}]',
            '[{"mu_bar": 1.0, "sigma_bar": 0.5, "mu": {}}]',
            '[{"mu_bar": 1.0, "sigma_bar": 0.5, "status": 3}]',
        ],
        ids=["string-and-list", "bool", "object", "numeric-status"],
    )
    def test_json_reader_checks_values(self, text):
        with pytest.raises(ValidationError):
            rows_from_json(text)

    def test_json_reader_keeps_numbers_and_nulls(self):
        (row,) = rows_from_json('[{"mu_bar": 1, "sigma_bar": 0.5, "mu": null, "status": "ok"}]')
        assert row == SweepRow(mu_bar=1, sigma_bar=0.5)

    @pytest.mark.parametrize("cell", ["lots", "1.0.0"])
    def test_csv_reader_raises_validation_error_on_a_non_numeric_cell(self, cell):
        text = rows_to_csv([SweepRow(mu_bar=1.0, sigma_bar=0.5)])
        assert "\n1.0,0.5," in text
        with pytest.raises(ValidationError):
            rows_from_csv(text.replace("\n1.0,0.5,", f"\n1.0,{cell},"))

    def test_csv_reader_raises_validation_error_on_empty_text(self):
        with pytest.raises(ValidationError):
            rows_from_csv("")

    finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
    cell = st.one_of(st.none(), finite)

    @given(
        rows=st.lists(
            st.tuples(
                finite,
                finite,
                cell,
                cell,
                cell,
                st.text(
                    alphabet=st.characters(blacklist_categories=("Cs", "Cc")),
                    max_size=30,
                ),
            ),
            max_size=8,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_csv_round_trip_property(self, rows):
        # arbitrary finite floats and hostile status strings (commas,
        # quotes, unicode) must survive emit/parse exactly
        built = [
            SweepRow(
                mu_bar=mb,
                sigma_bar=sb,
                mir_quadrature=mq,
                lb_s2=lb,
                ub_s4=ub,
                status=status,
            )
            for mb, sb, mq, lb, ub, status in rows
        ]
        assert rows_from_csv(rows_to_csv(built)) == built

    @given(
        values=st.lists(
            st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=25
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_find_capacity_matches_brute_force(self, values):
        rows = [
            SweepRow(
                mu_bar=float(i // 5), sigma_bar=float(i % 5), mir_quadrature=v
            )
            for i, v in enumerate(values)
        ]
        mu_bar, sigma_bar, value = find_capacity(rows)
        best = max(
            rows,
            key=lambda r: (r.mir_quadrature, -r.mu_bar, -r.sigma_bar),
        )
        assert (mu_bar, sigma_bar, value) == (
            best.mu_bar,
            best.sigma_bar,
            best.mir_quadrature,
        )


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: GridAxis(1.0, 0.0, 1), ConfigError, "grid needs min <= max, got [1.0, 0.0]"),
        (
            lambda: small_config(chr2_skeleton(), methods=("quadrature", "quadrature")),
            ConfigError,
            "methods must not repeat",
        ),
        (
            lambda: find_capacity([SweepRow(1.0, 1.0, mir_quadrature=0.1)], by="nope"),
            ValidationError,
            "cannot maximize over field 'nope'",
        ),
        (
            lambda: rows_from_csv(CSV_HEADER + "\n1.0,2.0\n"),
            ValidationError,
            "malformed CSV record: ['1.0', '2.0']",
        ),
    ],
    ids=["grid-min-above-max", "repeated-methods", "unknown-field", "short-record"],
)
def test_rejections_name_the_fault(call, error, message):
    with pytest.raises(ValidationError) as info:
        call()
    assert type(info.value) is error and str(info.value) == message
