"""Sweep engine and serialization tests."""

import csv
import io
import json
import math
from dataclasses import replace

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
    SweepTable,
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
from transduction_mir import sweep as sweep_module
from transduction_mir.cli import main
from transduction_mir.sweep import CSV_HEADER, VALID_METHODS, _derive_seed, _edge_note
from transduction_mir.truncgauss import _gl_nodes

from oracles import audit_rows_reference, with_audit


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
        rows = run_sweep(config).rows()
        assert len(rows) == 1
        row = rows[0]
        assert row.status == "ok"
        assert row.lb_s2 <= row.mir_quadrature <= row.ub_s2
        assert row.mir_series is None
        assert row.mc_value is None

    def test_ordering_mu_major(self, unit_chr2):
        rows = run_sweep(small_config(unit_chr2)).rows()
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
        rows = run_sweep(config).rows()
        assert rows[0].mir_quadrature < 1e-8

    def test_per_point_failure_recorded(self, unit_chr2):
        config = small_config(
            unit_chr2,
            methods=("quadrature", "discrete"),
            delta_t=0.75,  # inadmissible at x = b for the unit ring
        )
        rows = run_sweep(config).rows()
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
        rows = run_sweep(config).rows()
        assert [row.status for row in rows] == ["ok"] * 4
        assert stacks == [4]

    def test_refinement_calls_per_sweep(self, unit_chr2, monkeypatch):
        # one pass whose outputs are E[x ln x] and the x-dependent diagonal
        # entry of every point for the discrete rate, one pass over the
        # moment vectors of every point for the series, and one over the
        # moments about 0 and about the mean of every point for the s=4
        # bounds; each call as (rows, outputs, what)
        calls = []
        integrate = truncgauss._integrate
        monkeypatch.setattr(
            truncgauss,
            "_integrate",
            lambda *args: calls.append((len(args[1]), *args[5:7])) or integrate(*args),
        )
        config = small_config(
            unit_chr2,
            mu_bar_grid=GridAxis(0.2, 1.8, 8),
            sigma_bar_grid=GridAxis(0.1, 1.0, 8),
            methods=("quadrature", "series", "bounds_s2", "bounds_s4", "discrete"),
        )
        rows = run_sweep(config).rows()
        assert [row.status for row in rows] == ["ok"] * 64
        entries = len(np.flatnonzero(np.diagonal(unit_chr2.slope)))
        assert calls == [
            (64, 1 + entries, "expectation"),
            (64, config.series_k - 1, "moment quadrature"),
            (128, 3, "moment quadrature"),
        ]
        # without the discrete rate, E[x ln x] is a pass of its own
        calls.clear()
        run_sweep(replace(config, methods=("quadrature", "bounds_s2")))
        assert calls == [(64, 1, "expectation")]

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
        rows = run_sweep(config).rows()
        expected = [single_point_row(config, i, row.mu_bar, row.sigma_bar)
                    for i, row in enumerate(rows)]
        assert rows == expected
        statuses = {row.status.split(":")[0] for row in rows}
        assert "distribution" in statuses and len(statuses) > 1

    def test_audit_clean(self, unit_chr2):
        rows = run_sweep(small_config(unit_chr2, methods=("quadrature", "bounds_s2", "bounds_s4")))
        assert audit_rows(rows) == []

    def test_audit_slack_is_relative_to_the_rate(self, unit_chr2):
        # a window 0.0016 parent sigmas wide, where the rate is 5.6e-6
        # bits/s.  There the closed-form sigma2 is 2.9e-7 relative off the
        # moment quadrature's, so the s=4 bounds fail typed, and the s=2
        # pair holds the rate
        mu_bar, sigma_bar = -0.23401700995488373, 1.5972108257237898
        config = small_config(
            unit_chr2,
            a=0.05928128419236875,
            b=0.06180208139557882,
            mu_bar_grid=GridAxis(mu_bar, mu_bar, 1),
            sigma_bar_grid=GridAxis(sigma_bar, sigma_bar, 1),
            methods=("quadrature", "bounds_s2", "bounds_s4"),
        )
        (row,) = run_sweep(config).rows()
        exact = row.mir_quadrature
        assert row.lb_s2 <= exact <= row.ub_s2
        assert (row.status, row.lb_s4, row.ub_s4) == ("bounds_s4:ValidationError", None, None)
        with pytest.raises(ValidationError, match=r"quadrature central\[2\] = .* disagrees"):
            mir_bounds(unit_chr2, TruncatedGaussianSpec(mu_bar, sigma_bar, config.a, config.b), 4)
        # an s=4 pair that misses the rate by 1e-4 relative is a violation,
        # which an absolute slack of 1e-9 bits/s would let pass
        missed = SweepRow(mu_bar, sigma_bar, mir_quadrature=exact, lb_s2=row.lb_s2,
                          ub_s2=row.ub_s2, lb_s4=exact * (1.0 + 1e-4), ub_s4=exact * (1.0 + 2e-4))
        message = f"s=4 bounds [{missed.lb_s4}, {missed.ub_s4}] fail to sandwich {exact}"
        assert audit_rows([missed]) == [(0, message)]
        assert audit_rows([replace(missed, lb_s4=exact * (1.0 + 5e-10))]) == []

    def test_rows_match_direct_api_calls(self, unit_chr2):
        from transduction_mir import TruncatedGaussianSpec, mir_quadrature

        rows = run_sweep(small_config(unit_chr2)).rows()
        for row in rows:
            dist = TruncatedGaussianSpec(row.mu_bar, row.sigma_bar, 1e-5, 2.0)
            assert row.mu == dist.mu
            assert row.mir_quadrature == mir_quadrature(unit_chr2, dist).value


#: find_capacity and _edge_note take a row list or a SweepTable: each test
#: of them runs on both
CONTAINERS = (list, SweepTable.from_rows)


class TestFindCapacity:
    def test_single_row(self):
        for container in CONTAINERS:
            rows = container([SweepRow(mu_bar=1.0, sigma_bar=0.5, mir_quadrature=0.05)])
            assert find_capacity(rows) == (1.0, 0.5, 0.05)

    def test_tie_break(self):
        rows = [
            SweepRow(mu_bar=mb, sigma_bar=sb, mir_quadrature=1.0)
            for mb in (2.0, 1.0)
            for sb in (0.9, 0.3)
        ]
        for container in CONTAINERS:
            assert find_capacity(container(rows)) == (1.0, 0.3, 1.0)

    def test_empty(self):
        for container in CONTAINERS:
            with pytest.raises(EmptySweep):
                find_capacity(container([]))

    def test_unpopulated_field(self):
        for container in CONTAINERS:
            rows = container([SweepRow(mu_bar=1.0, sigma_bar=0.5)])
            with pytest.raises(ValidationError):
                find_capacity(rows, by="mir_quadrature")

    def test_real_sweep_argmax(self, unit_chr2):
        table = run_sweep(small_config(unit_chr2))
        rows = table.rows()
        for container in (table, rows):
            mu_bar, sigma_bar, value = find_capacity(container, by="ub_s2")
            assert value == max(row.ub_s2 for row in rows)

    def test_nan_wins_only_in_the_first_row(self):
        # a scan for the least (-value, mu_bar, sigma_bar) keeps a nan that
        # comes first, and never takes one that comes later
        nan, cells = math.nan, [(1.0, 0.2), (0.5, 0.4), (0.5, 0.6)]
        first = [SweepRow(mb, sb, mir_quadrature=v) for (mb, sb), v in zip(cells, (nan, 2.0, 3.0))]
        later = [SweepRow(mb, sb, mir_quadrature=v) for (mb, sb), v in zip(cells, (2.0, nan, 1.0))]
        for container in CONTAINERS:
            assert math.isnan(find_capacity(container(first))[2])
            assert find_capacity(container(later)) == (1.0, 0.2, 2.0)


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
        for container in CONTAINERS:
            rows = container(self.grid((1.0, 0.4)))
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
        for container in CONTAINERS:
            rows = container(self.grid(peak))
            assert find_capacity(rows)[:2] == peak
            note = _edge_note(rows, *peak)
            assert note == f" on {clause}; the maximum may lie outside the grid"

    def test_single_step_axis_has_no_edge(self):
        for container in CONTAINERS:
            rows = container(self.grid((1.0, 0.4), sigma_bars=(0.4,)))
            assert _edge_note(rows, 1.0, 0.4) == ""
            assert _edge_note(rows, 0.5, 0.4).startswith(" on the mu_bar min edge;")


class TestSerialization:
    def test_csv_header(self, unit_chr2):
        text = rows_to_csv(run_sweep(small_config(unit_chr2)))
        assert text.splitlines()[0] == CSV_HEADER

    def test_csv_round_trip(self, unit_chr2):
        rows = run_sweep(small_config(unit_chr2)).rows()
        again = rows_from_csv(rows_to_csv(rows))
        assert again == rows

    def test_csv_round_trip_with_failures(self, unit_chr2):
        config = small_config(unit_chr2, methods=("quadrature", "discrete"), delta_t=0.75)
        rows = run_sweep(config).rows()
        again = rows_from_csv(rows_to_csv(rows))
        assert again == rows

    def test_json_round_trip(self, unit_chr2):
        rows = run_sweep(small_config(unit_chr2)).rows()
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

    @staticmethod
    def writer_csv(rows):
        """The rows as ``csv.writer`` writes them, cell by cell."""
        names = CSV_HEADER.split(",")
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(names)
        for row in rows:
            values = [getattr(row, name) for name in names[:-1]]
            writer.writerow(["" if v is None else repr(float(v)) for v in values] + [row.status])
        return buffer.getvalue()

    @pytest.mark.parametrize(
        "status", ["ok", "", "a,b", 'say "hi"', "a\rb", "a\nb", "\r\n", '",\r\n"', "x y"]
    )
    def test_csv_bytes_are_csv_writer_bytes(self, status):
        rows = [SweepRow(mu_bar=1.0, sigma_bar=0.5, mu=0.75, status=status),
                SweepRow(mu_bar=-0.0, sigma_bar=1e-300, lb_s4=2.5e17)]
        assert rows_to_csv(rows) == self.writer_csv(rows)
        assert rows_to_csv([]) == self.writer_csv([]) == CSV_HEADER + "\n"

    @staticmethod
    def dumps_json(rows):
        """The rows as ``json.dumps`` writes their objects."""
        names = CSV_HEADER.split(",")
        return json.dumps([{name: getattr(row, name) for name in names} for row in rows],
                          indent=2) + "\n"

    # any float, nan and the infinities among them, or an absent cell
    any_cell = st.one_of(st.none(), st.floats(width=64))

    @given(
        rows=st.lists(
            st.tuples(
                any_cell,
                any_cell,
                any_cell,
                st.text(
                    alphabet=st.one_of(
                        st.sampled_from(',"\r\n ;:ok'),
                        st.characters(blacklist_categories=("Cs",)),
                    ),
                    max_size=12,
                ),
            ),
            max_size=8,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_csv_bytes_property(self, rows):
        # any status, control characters included, is quoted as csv.writer
        # quotes it; a present nan is written nan and an absent cell "", in
        # the grid columns too, from a row list and from its table alike
        built = [
            SweepRow(mu_bar=mb, sigma_bar=sb, mir_discrete=md, status=status)
            for mb, sb, md, status in rows
        ]
        table = SweepTable.from_rows(built)
        assert rows_to_csv(built) == rows_to_csv(table) == self.writer_csv(built)
        assert rows_to_json(built) == rows_to_json(table) == self.dumps_json(built)

    def test_nan_and_absent_cells_are_told_apart(self):
        rows = [SweepRow(mu_bar=1.0, sigma_bar=math.nan, mu=math.nan, mir_quadrature=math.inf)]
        assert rows_to_csv(rows).splitlines()[1] == "1.0,nan,nan,,inf,,,,,,,,,ok"
        payload = rows_to_json(rows)
        assert '"sigma_bar": NaN,' in payload and '"sigma2": null,' in payload
        assert '"mir_quadrature": Infinity,' in payload
        (again,) = rows_from_csv(rows_to_csv(rows))
        assert (again.sigma2, math.isnan(again.mu), again.mir_quadrature) == (None, True, math.inf)

    def test_csv_reader_wraps_csv_errors(self):
        # a bare carriage return in an unquoted cell is text csv.reader
        # refuses: a ValidationError, not the csv module's own error
        bare = CSV_HEADER + "\n1.0,0.5" + "," * 11 + "a\rb\n"
        with pytest.raises(ValidationError, match="malformed CSV text"):
            rows_from_csv(bare)
        # csv.writer leaves a "\r" in a status unquoted when the line
        # terminator is "\n"; such text round-trips or is refused typed
        rows = [SweepRow(1.0, 0.5, status="a\rb")]
        try:
            again = rows_from_csv(rows_to_csv(rows))
        except ValidationError:
            return
        assert again == rows

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
        best = max(
            rows,
            key=lambda r: (r.mir_quadrature, -r.mu_bar, -r.sigma_bar),
        )
        for container in CONTAINERS:
            assert find_capacity(container(rows)) == (
                best.mu_bar,
                best.sigma_bar,
                best.mir_quadrature,
            )


def grid_config(receptor_spec, **overrides):
    """A 6x5 grid whose mu_bar = -3 rows keep no mass at sigma_bar = 0.05,
    so its first row fails in the distribution."""
    return small_config(
        receptor_spec,
        a=0.02,
        mu_bar_grid=GridAxis(-3.0, 1.5, 6),
        sigma_bar_grid=GridAxis(0.05, 0.8, 5),
        **overrides,
    )


def assert_same_table(got, want):
    """Cell for cell: the same presence, the same bits where present, the
    same statuses and the same grid value per row."""
    for name in CSV_HEADER.split(",")[:-1]:
        np.testing.assert_array_equal(got.present[name], want.present[name])
        mask = want.present[name]
        assert got.values[name][mask].tobytes() == want.values[name][mask].tobytes()
    for name, (distinct, index) in want.axes.items():
        got_distinct, got_index = got.axes[name]
        assert got_distinct[got_index].tobytes() == distinct[index].tobytes()
        assert distinct[index].tobytes() == want.values[name].tobytes()
    assert got.statuses == want.statuses


class TestSweepTable:
    @pytest.mark.parametrize(
        "methods, delta_t",
        [
            (("quadrature", "bounds_s2"), 1e-3),
            (("quadrature", "series", "bounds_s2", "bounds_s4", "discrete"), 1e-3),
            (("quadrature", "discrete", "mc"), 0.75),
        ],
        ids=["surface", "panel", "failures"],
    )
    def test_rows_round_trip(self, unit_chr2, methods, delta_t):
        table = run_sweep(grid_config(unit_chr2, methods=methods, delta_t=delta_t, mc_n=500))
        rows = table.rows()
        assert_same_table(SweepTable.from_rows(rows), table)
        # one formatter: the table's bytes are its rows' bytes, and those of
        # csv.writer and json.dumps
        assert rows_to_csv(table) == rows_to_csv(rows) == TestSerialization.writer_csv(rows)
        assert rows_to_json(table) == rows_to_json(rows) == TestSerialization.dumps_json(rows)

    def test_distribution_error_keeps_the_callers_values(self, unit_chr2):
        # _spec_rows gets Python floats, so a message shows the grid value
        # as a single-point call on that value shows it
        table = run_sweep(grid_config(unit_chr2, methods=("quadrature",)))
        mu_bar, sigma_bar = table.cell("mu_bar", 0), table.cell("sigma_bar", 0)
        with pytest.raises(ValidationError) as info:
            TruncatedGaussianSpec(mu_bar, sigma_bar, 0.02, 2.0)
        assert table.statuses[0] == f"distribution:ValidationError:{info.value}"
        assert (table.cell("mu", 0), table.cell("mir_quadrature", 0)) == (None, None)

    def test_axes_hold_each_grid_value_once(self, unit_chr2):
        table = run_sweep(grid_config(unit_chr2, methods=("quadrature",)))
        grids = (("mu_bar", GridAxis(-3.0, 1.5, 6)), ("sigma_bar", GridAxis(0.05, 0.8, 5)))
        for name, grid in grids:
            distinct, index = table.axes[name]
            assert distinct.tobytes() == grid.values().tobytes()
            assert table.values[name].tobytes() == distinct[index].tobytes()

    def test_empty_rows(self):
        table = SweepTable.from_rows([])
        assert table.rows() == [] and audit_rows(table) == []
        assert rows_to_csv(table) == CSV_HEADER + "\n" and rows_to_json(table) == "[]\n"


class TestColumnAudit:
    """The column audit against the row-by-row reference in tests/oracles.py."""

    @staticmethod
    def inject_misses(monkeypatch, seed):
        """A bounds kernel that misses: on a seeded share of rows the lower
        gap bound is lifted to twice the upper one, on another the upper one
        is nan, and on a third the row fails typed, each drawn per order."""
        real = sweep_module._bounds_rows

        def missing(columns, s, chains=None):
            gap_lower, gap_upper, mu_s, gain, errors = real(columns, s, chains)
            pick = np.random.default_rng([seed, s]).random(len(gap_lower))
            fails = (pick >= 0.45) & (pick < 0.55)
            gap_lower = np.where(pick < 0.3, 2.0 * gap_upper, gap_lower)
            gap_upper = np.where((pick >= 0.3) & (pick < 0.45), np.nan, gap_upper)
            gap_lower[fails] = gap_upper[fails] = np.nan
            errors = [ValidationError("injected") if f else e for f, e in zip(fails, errors)]
            return gap_lower, gap_upper, mu_s, gain, errors

        monkeypatch.setattr(sweep_module, "_bounds_rows", missing)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sweep_audit_matches_reference(self, unit_chr2, monkeypatch, seed):
        self.inject_misses(monkeypatch, seed)
        # discrete fails StepTooLarge on every row at delta_t = 0.75, so an
        # audit message follows a method failure there
        config = grid_config(
            unit_chr2,
            methods=("quadrature", "bounds_s2", "bounds_s4", "discrete"),
            delta_t=0.75 if seed == 2 else 1e-3,
        )
        audit = sweep_module.audit_rows
        monkeypatch.setattr(sweep_module, "audit_rows", lambda rows: [])
        unaudited = run_sweep(config).statuses
        monkeypatch.setattr(sweep_module, "audit_rows", audit)
        table = run_sweep(config)
        rows = table.rows()
        expected = audit_rows_reference(rows)
        assert audit_rows(table) == audit_rows(rows) == expected
        assert table.statuses == with_audit(unaudited, expected)
        # misses at both orders in one row, nan bounds, and typed failures
        by_order = [{i for i, message in expected if message.startswith(f"s={s} ")} for s in (2, 4)]
        assert by_order[0] & by_order[1]
        assert any(", nan]" in message for _, message in expected)
        assert any(status.startswith("bounds_s") for status in unaudited)
        if seed == 2:
            assert all(";audit:" in table.statuses[i] for i, _ in expected)

    def test_ties_and_nonfinite_cells_match_reference(self):
        # each bound placed a few ulps either side of the tie lb - slack ==
        # exact (or exact == ub + slack), plus nan, inf and absent cells
        rng = np.random.default_rng(11)
        exacts = [*rng.uniform(1e-6, 2.0, 30).tolist(), 1e-300, 0.0, 4e-4, math.inf]
        rows, ties = [], 0
        for exact in exacts:
            slack = max(1e-9 * abs(exact), 1e-12)
            lb, ub = exact + slack, exact - slack
            for step in range(-3, 4):
                lb_k, ub_k = lb, ub
                for _ in range(abs(step)):
                    lb_k = math.nextafter(lb_k, math.copysign(math.inf, step))
                    ub_k = math.nextafter(ub_k, math.copysign(math.inf, step))
                ties += (lb_k - slack == exact) + (exact == ub_k + slack)
                rows.append(SweepRow(1.0, 0.5, mir_quadrature=exact, lb_s2=lb_k, ub_s2=exact + 1.0,
                                     lb_s4=exact - 1.0, ub_s4=ub_k))
        for lb, ub in ((math.nan, 1.0), (0.0, math.nan), (None, None), (-math.inf, math.inf),
                       (math.inf, math.inf)):
            rows.append(SweepRow(1.0, 0.5, mir_quadrature=0.5, lb_s2=lb, ub_s2=ub,
                                 lb_s4=lb, ub_s4=ub))
        rows += [SweepRow(1.0, 0.5, mir_quadrature=math.nan, lb_s2=0.0, ub_s2=1.0),
                 SweepRow(1.0, 0.5, lb_s2=2.0, ub_s2=1.0)]
        expected = audit_rows_reference(rows)
        assert ties >= len(exacts)
        assert audit_rows(rows) == audit_rows(SweepTable.from_rows(rows)) == expected
        assert {message[:3] for _, message in expected} == {"s=2", "s=4"}


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
