"""End-to-end checks of the command-line layer.

Everything here goes through `thermomap.cli.main` with real config files in
a temp directory, asserting on exit codes and the artifacts on disk. The
mathematical content is only sanity-checked (the module tests own that);
what this file owns is the file-format contract: exit codes, CSV schemas,
17-digit round-trips, strict config validation with line-anchored errors,
and byte-identical output regardless of the threads flag.
"""

import dataclasses
import filecmp
import json
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from thermomap import cli
from thermomap.cli import (
    CSV_CHUNK_ROWS,
    _fmt,
    main,
    read_measure,
    write_csv,
)
from thermomap.conformal import AtomicMeasure
from thermomap.errors import ConfigError, ConvergenceError
from thermomap.g17 import format_rows, significands
from thermomap.maps import pw_linear_map
from thermomap.potentials import CosineSeriesPotential
from thermomap.pressure import pressure_curve, tree_pressure

from helpers import tent_bernoulli_atoms

LOG2 = float(np.log(2.0))


def write_config(tmp_path, name="config.json", **overrides):
    cfg = {
        "map": {"kind": "full_linear", "branches": 2},
        "potential": None,
        "command_params": {},
        "output_dir": str(tmp_path / "out"),
        "seed": 0,
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=1))
    return path


BERNOULLI = {
    "kind": "branch_pw_constant",
    "segments": [0.0, 0.5, 1.0],
    "values": [0.0, -1.0],
}


def write_measure(path, m):
    """A measure file as `main` writes it: the point and mass columns."""
    write_csv(path, ("point", "mass"), np.column_stack((m.points, m.masses)))


def read_csv(path):
    lines = Path(path).read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestMeasureFiles:
    def test_round_trip_uniform(self, tmp_path):
        m = AtomicMeasure(
            points=(np.arange(64) + 0.5) / 64.0,
            masses=np.full(64, 1.0 / 64.0),
            domain=(0.0, 1.0),
        )
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        write_measure(p1, m)
        write_measure(p2, read_measure(p1))
        assert filecmp.cmp(p1, p2, shallow=False)

    def test_round_trip_bernoulli_atoms(self, tmp_path):
        # irrational-looking masses exercise the 17-digit formatting
        m = tent_bernoulli_atoms(1.0 / (1.0 + np.exp(-1.0)), 10)
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        write_measure(p1, m)
        back = read_measure(p1)
        np.testing.assert_array_equal(back.points, m.points)
        np.testing.assert_array_equal(back.masses, m.masses)
        write_measure(p2, back)
        assert filecmp.cmp(p1, p2, shallow=False)

    def test_rejects_bad_mass_sum(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("point,mass\n0.25,0.5\n0.75,0.4\n")
        with pytest.raises(ConfigError):
            read_measure(path)

    def test_rejects_unsorted_points(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("point,mass\n0.75,0.5\n0.25,0.5\n")
        with pytest.raises(ConfigError):
            read_measure(path)

    def test_rejects_negative_mass(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("point,mass\n0.25,1.5\n0.75,-0.5\n")
        with pytest.raises(ConfigError):
            read_measure(path)

    def test_rejects_missing_header(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("x,w\n0.25,0.5\n0.75,0.5\n")
        with pytest.raises(ConfigError):
            read_measure(path)

    @pytest.mark.parametrize(
        "body, line",
        [
            ("0.1,0.5\n0.2,nan\n", 3),  # nan mass
            ("nan,0.5\n0.2,0.5\n", 2),  # nan point
            ("0.1,0.5\ninf,0.5\n", 3),  # inf point
            # lines are numbered as written, blank lines above the header too
            ("\npoint,mass\n0.1,0.5\n0.2,nan\n", 4),
            ("\n  \n\npoint,mass\nnan,0.5\n0.2,0.5\n", 5),
        ],
    )
    def test_rejects_non_finite_cell(self, tmp_path, body, line):
        # a nan sum passes every comparison, so the cells are checked first
        path = tmp_path / "m.csv"
        path.write_text(body if "point,mass" in body else "point,mass\n" + body)
        with pytest.raises(ConfigError, match=f"{path}:{line}: non-finite"):
            read_measure(path)


# Float64 edge cases planted into the random tables below.
SPECIAL_FLOATS = [
    float("nan"), float("inf"), float("-inf"), 0.0, -0.0,
    5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
    1e300, -1e300, 1e-300, -1e-300, 1.7976931348623157e308, 0.1, 1.0 / 3.0,
]
# Each side of both edges of 10 <= |x| < 1e17, the band g17 sends to %.17g.
BAND_EDGES = [9.999999999999998, 10.0, 12.5, 1e16, 99999999999999984.0, 1e17]


def per_cell_reference(header, table) -> bytes:
    return "".join(
        [",".join(header) + "\n"]
        + [",".join("%.17g" % x for x in row) + "\n" for row in table.tolist()]
    ).encode()


def measure_like(rng, shape) -> np.ndarray:
    """Log-uniform |x| in [1e-12, 10) with random signs: no cell with
    10 <= |x| < 1e17, so only g17's digit checks send cells to %.17g."""
    table = 10.0 ** rng.uniform(-12, 1, shape) * rng.choice([-1.0, 1.0], shape)
    assert (np.abs(table) < 10).all()
    return table


class TestFloatTableStreaming:
    """The chunked all-float path of write_csv (the vectorized digits of
    thermomap.g17) against the per-cell reference, its memory bound, and the
    measure-file round trip across chunk boundaries."""

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        n_rows=st.sampled_from(
            [1, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1]
        ),
        n_cols=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        planted=st.lists(
            st.tuples(
                st.integers(0, 3 * (CSV_CHUNK_ROWS + 1) - 1),
                st.one_of(st.sampled_from(SPECIAL_FLOATS + BAND_EDGES), st.floats()),
            ),
            max_size=24,
        ),
    )
    def test_matches_per_cell_reference(self, tmp_path, n_rows, n_cols, seed, planted):
        # random bit patterns reach every float64 class: nan payloads,
        # subnormals, both zeros, both infinities, exponents up to 1e+-308
        bits = np.random.default_rng(seed).integers(
            0, 2**64, size=(n_rows, n_cols), dtype=np.uint64
        )
        table = bits.view(np.float64).copy()
        flat = table.reshape(-1)
        for index, value in planted:
            flat[index % flat.size] = value
        header = [f"c{j}" for j in range(n_cols)]
        path = tmp_path / "t.csv"
        write_csv(path, header, table)
        expected = "".join(
            [",".join(header) + "\n"]
            + [",".join(_fmt(x) for x in row) + "\n" for row in table]
        )
        assert path.read_bytes() == expected.encode()

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        n_rows=st.sampled_from(
            [1, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS + 1, 2 * CSV_CHUNK_ROWS + 7]
        ),
        n_cols=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_bit_patterns_match_reference(self, tmp_path, n_rows, n_cols, seed):
        table = np.random.default_rng(seed).integers(
            0, 2**64, size=(n_rows, n_cols), dtype=np.uint64
        ).view(np.float64)
        header = [f"c{j}" for j in range(n_cols)]
        path = tmp_path / "t.csv"
        write_csv(path, header, table)
        assert path.read_bytes() == per_cell_reference(header, table)

    # nan, +-inf and +-0 have no digits; 2**-25 = 2.98023223876953125e-08 is
    # an exact tie at 17 digits; log10 of 1e23 (9.99...e22) rounds to 23
    FALLBACK = [float("nan"), float("inf"), float("-inf"), 0.0, -0.0,
                2.0**-25, -(2.0**-25), 1e23]
    # formatted from their digits, at the ends of the exponent range
    EXTREME = [5e-324, -5e-324, 1.7976931348623157e308, 1e-300, -1e-300]

    def test_fallback_cells_spliced_in_order(self, tmp_path):
        # band cells reach %.17g through format_rows, whatever their digits
        special = np.array(self.FALLBACK + self.EXTREME + BAND_EDGES)
        _, _, exact = significands(special)
        assert not exact[: len(self.FALLBACK)].any()
        assert exact[len(self.FALLBACK):-len(BAND_EDGES)].all()
        rng = np.random.default_rng(7)
        table = rng.standard_normal((2 * CSV_CHUNK_ROWS + 7, 2)) * 1e3
        # in both columns: mid first chunk, across the chunk boundary, and
        # mid second chunk
        for r in (CSV_CHUNK_ROWS // 2, CSV_CHUNK_ROWS - 6, 3 * CSV_CHUNK_ROWS // 2):
            table[r:r + special.size, 0] = special
            table[r:r + special.size, 1] = special[::-1]
        path = tmp_path / "t.csv"
        write_csv(path, ("a", "b"), table)
        assert path.read_bytes() == per_cell_reference(("a", "b"), table)

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        n_rows=st.sampled_from([CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS + 1]),
        n_cols=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_measure_like_tables_match_reference(self, tmp_path, n_rows, n_cols, seed):
        table = measure_like(np.random.default_rng(seed), (n_rows, n_cols))
        header = [f"c{j}" for j in range(n_cols)]
        path = tmp_path / "t.csv"
        write_csv(path, header, table)
        assert path.read_bytes() == per_cell_reference(header, table)

    def test_narrow_chunk_then_wide_chunk(self, tmp_path):
        # the second chunk's one 12.5, a cell with an integer part, falls
        # back to %.17g within the 32-byte frame
        table = measure_like(np.random.default_rng(12), (2 * CSV_CHUNK_ROWS, 2))
        table[CSV_CHUNK_ROWS + 5, 1] = 12.5
        path = tmp_path / "t.csv"
        write_csv(path, ("a", "b"), table)
        assert path.read_bytes() == per_cell_reference(("a", "b"), table)

    def test_fallback_cells_spliced_into_narrow_chunks(self, tmp_path):
        # fallback cells, band cells among them, among measure-like cells
        special = np.array(self.FALLBACK + self.EXTREME + BAND_EDGES)
        table = measure_like(np.random.default_rng(7), (2 * CSV_CHUNK_ROWS + 7, 2))
        for r in (CSV_CHUNK_ROWS // 2, CSV_CHUNK_ROWS - 6, 3 * CSV_CHUNK_ROWS // 2):
            table[r:r + special.size, 0] = special
            table[r:r + special.size, 1] = special[::-1]
        path = tmp_path / "t.csv"
        write_csv(path, ("a", "b"), table)
        assert path.read_bytes() == per_cell_reference(("a", "b"), table)

    def test_float32_signaling_nan_casts_silently(self):
        # 0x7f800001 is a float32 signaling nan, 0xffc00000 a quiet one
        bits = np.array([[0x7F800001, 0x3FC00000], [0xFFC00000, 0x00000001]],
                        dtype=np.uint32)
        table = bits.view(np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = format_rows(table)
        expected = "".join(",".join(_fmt(x) for x in row) + "\n" for row in table)
        assert got == expected.encode()

    def test_memory_bounded_by_chunk(self, tmp_path):
        def traced_peak(n_rows):
            table = np.random.default_rng(n_rows).random((n_rows, 2))
            tracemalloc.start()
            try:
                write_csv(tmp_path / "t.csv", ("a", "b"), table)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        traced_peak(10)  # the digit tables are built once, on first use
        small, large = traced_peak(50_000), traced_peak(200_000)
        assert large <= 1.1 * small, (small, large)

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_measure_round_trip_above_one_chunk(self, tmp_path_factory, seed):
        rng = np.random.default_rng(seed)
        n = 2 * CSV_CHUNK_ROWS + 7
        # on [0, 20] about half the points have an integer part
        for hi in (1.0, 20.0):
            points = np.unique(hi * rng.random(n))
            weights = rng.random(points.size) + 1e-3
            m = AtomicMeasure(points=points, masses=weights / weights.sum(),
                              domain=(0.0, hi))
            path = tmp_path_factory.mktemp("m") / "m.csv"
            write_measure(path, m)
            back = read_measure(path)
            np.testing.assert_array_equal(back.points, m.points)
            np.testing.assert_array_equal(back.masses, m.masses)


class TestConfigValidation:
    def test_unknown_top_level_key_exits_64(self, tmp_path, capsys):
        path = write_config(tmp_path, extra_stuff=1)
        assert main(["pressure", str(path)]) == 64
        err = capsys.readouterr().err
        assert "extra_stuff" in err
        assert f"{path}:" in err  # anchored to a line in the file

    def test_unknown_key_anchored_within_its_own_object(self, tmp_path, capsys):
        # n_max is a valid key of command_params, lines above the bad one
        path = write_config(tmp_path, command_params={
            "n_max": 6, "lags": 5, "observables": [{"lo": 0.0, "hi": 0.5, "n_max": 4}],
        })
        lines = path.read_text().splitlines()
        _, line = [i for i, text in enumerate(lines, start=1) if '"n_max"' in text]
        assert main(["correlations", str(path)]) == 64
        assert f"{path}:{line}: unknown key 'n_max' in command_params.observables[0]" \
            in capsys.readouterr().err
        # a top-level key that the map object, lines above, also has, and
        # that a string value in between spells
        path = write_config(tmp_path, name="kind.json", output_dir="kind", kind="pressure")
        lines = path.read_text().splitlines()
        *before, line = [i for i, text in enumerate(lines, start=1) if '"kind"' in text]
        assert len(before) == 2
        assert main(["pressure", str(path)]) == 64
        assert f"{path}:{line}: unknown key 'kind' in config" in capsys.readouterr().err

    @pytest.mark.parametrize("command, key", [
        ("pressure", "n_min"), ("entropy", "n_min"), ("conformal", "bins"),
        ("conformal", "theta"), ("equilibrium", "bins"), ("correlations", "theta"),
        ("audit-all", "intervals"), ("audit-all", "conformality_bound"),
        ("audit-all", "adjoint_bound"),
    ])
    def test_fixed_setting_is_an_unknown_key(self, tmp_path, capsys, monkeypatch,
                                             command, key):
        # the weak limit's bins and depth weights, the reports' first depth and
        # audit-all's intervals and bounds are constants, not settings
        def walked(*args, **kwargs):
            raise AssertionError("the tree walk ran")

        monkeypatch.setattr(cli, "level_sums", walked)
        monkeypatch.setattr(cli, "tree_pressure", walked)
        path = write_config(tmp_path, command_params={key: 1})
        assert main([command, str(path)]) == 64
        assert f"unknown key {key!r} in command_params" in capsys.readouterr().err
        assert list((tmp_path / "out").iterdir()) == []

    def test_unknown_map_key_exits_64(self, tmp_path, capsys):
        path = write_config(
            tmp_path, map={"kind": "full_linear", "branches": 2, "slope": 3}
        )
        assert main(["pressure", str(path)]) == 64
        assert "slope" in capsys.readouterr().err

    def test_alpha_potential_key_exits_64(self, tmp_path, capsys):
        # potentials take no Holder exponent from the config
        path = write_config(tmp_path, potential={**BERNOULLI, "alpha": 0.5})
        assert main(["pressure", str(path)]) == 64
        assert "'alpha'" in capsys.readouterr().err

    def test_unknown_command_param_exits_64(self, tmp_path, capsys):
        path = write_config(tmp_path, command_params={"n_maxx": 9})
        assert main(["pressure", str(path)]) == 64
        assert "n_maxx" in capsys.readouterr().err

    def test_missing_map_exits_64(self, tmp_path, capsys):
        cfg = {"potential": None, "output_dir": str(tmp_path)}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main(["pressure", str(path)]) == 64
        assert "map" in capsys.readouterr().err

    def test_json_syntax_error_reports_line(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text('{\n "map": {"kind": "full_linear"\n}\n')
        assert main(["pressure", str(path)]) == 64
        assert f"{path}:" in capsys.readouterr().err

    def test_missing_file_exits_64(self, tmp_path):
        assert main(["pressure", str(tmp_path / "nope.json")]) == 64

    @pytest.mark.parametrize(
        "case", ["config-is-directory", "config-not-utf8", "output-dir-is-file"]
    )
    def test_unreadable_config_or_output_dir_exits_64(self, tmp_path, capsys, case):
        path = write_config(tmp_path)
        if case == "config-is-directory":
            path = tmp_path / "configs"
            path.mkdir()
        elif case == "config-not-utf8":
            path.write_bytes(path.read_bytes() + b"\xff")
        else:
            (tmp_path / "out").write_text("a file\n")

        def tree():
            return sorted(
                (str(p), p.is_file() and p.read_bytes()) for p in tmp_path.rglob("*")
            )

        before = tree()
        assert main(["pressure", str(path)]) == 64
        assert "config error:" in capsys.readouterr().err
        assert tree() == before  # nothing written

    def test_bad_threads_flag_exits_64(self, tmp_path):
        path = write_config(tmp_path)
        assert main(["pressure", str(path), "--threads", "0"]) == 64

    def test_bad_potential_kind_exits_64(self, tmp_path, capsys):
        path = write_config(tmp_path, potential={"kind": "mystery"})
        assert main(["pressure", str(path)]) == 64
        assert "kind" in capsys.readouterr().err

    def test_pw_linear_map_accepted(self, tmp_path):
        path = write_config(
            tmp_path,
            map={
                "kind": "pw_linear",
                "breakpoints": [0.0, 0.5, 1.0],
                "slopes": [2.0, -2.0],
                "intercepts": [0.0, 2.0],
            },
        )
        assert main(["pressure", str(path)]) == 0


    @pytest.mark.parametrize(
        "command, params",
        [
            ("pressure", {"n_max": "12"}),
            ("pressure", {"n_max": 12.5}),
            ("pressure", {"n_max": True}),
            ("pressure", {"x0": "0.3"}),
            ("pressure", {"x0": False}),
            ("pressure", {"x0": float("nan")}),
            ("pressure", {"n_max": 10**400}),
            ("norms", {"scale": None}),
            ("norms", {"alpha": "0.5"}),
            ("norms", {"scale": float("inf")}),
            ("curve", {"t_count": 9.0, "chi": BERNOULLI}),
            ("curve", {"t_count": -1, "chi": BERNOULLI}),
            ("curve", {"t_count": 4, "chi": BERNOULLI}),
        ],
        ids=["int-string", "int-fraction", "int-bool", "float-string",
             "float-bool", "float-nan", "int-huge", "float-null", "alpha-string",
             "scale-inf", "t_count-float", "t_count-negative", "t_count-four"],
    )
    def test_bad_param_exits_64_before_any_work(
        self, tmp_path, capsys, monkeypatch, command, params
    ):
        import thermomap.cli as cli

        def walked(*args, **kwargs):
            raise AssertionError("the tree walk ran")

        monkeypatch.setattr(cli, "level_sums", walked)
        monkeypatch.setattr(cli, "tree_pressure", walked)
        path = write_config(tmp_path, command_params=params)
        assert main([command, str(path)]) == 64
        key = next(k for k in params if k != "chi")
        assert f"command_params.{key}" in capsys.readouterr().err
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize(
        "command, key, value",
        [(c, "n_max", 0) for c in ("pressure", "entropy", "curve", "appendix")]
        + [(c, "n_max", 3) for c in ("conformal", "equilibrium", "correlations", "audit-all")]
        + [(c, "tree_depth", 0) for c in ("equilibrium", "correlations", "audit-all")]
        + [("norms", "scale", 0), ("norms", "scale", -1), ("norms", "alpha", 1.5),
           ("appendix", "gap", 0), ("appendix", "gap", -1),
           ("correlations", "observables[0]", [{"lo": 0.6, "hi": 0.2}])],
        ids=str,
    )
    def test_out_of_range_param_exits_64_naming_the_key(
        self, tmp_path, capsys, command, key, value
    ):
        """The bounds the library enforces are the schema's, so the error
        names the key instead of coming from inside the pipeline; an indexed
        key sets the list it indexes."""
        params = {key.split("[")[0]: value,
                  **({"chi": BERNOULLI} if command == "curve" else {})}
        path = write_config(tmp_path, command_params=params)
        assert main([command, str(path)]) == 64
        assert f"command_params.{key} must be" in capsys.readouterr().err
        assert list((tmp_path / "out").glob("*.csv")) == []

    def test_float_param_takes_an_int(self, tmp_path):
        files = []
        for alpha in (1, 1.0):
            out = tmp_path / f"alpha_{alpha!r}"
            path = write_config(
                tmp_path, name=f"{alpha!r}.json", output_dir=str(out),
                command_params={"draws": 2, "atoms": 16, "alpha": alpha},
            )
            assert main(["norms", str(path)]) == 0
            files.append(out / "norms.csv")
        assert filecmp.cmp(*files, shallow=False)


POTENTIAL_SPECS = {
    "constant": {"kind": "constant", "values": [-0.5]},
    "branch_pw_constant": BERNOULLI,
    "cosine_series": {"kind": "cosine_series", "coefficients": [0.3, -0.2],
                      "offset": 0.1},
    "pw_linear": {"kind": "pw_linear", "segments": [0.0, 0.5, 1.0],
                  "values": [0.0, -0.5, 0.2]},
}
TENT = {"kind": "pw_linear", "breakpoints": [0.0, 0.5, 1.0],
        "slopes": [2.0, -2.0], "intercepts": [0.0, 2.0]}


BAD_NUMBERS = {"wrong-type": "0.5", "bool": True, "nan": float("nan"),
               "inf": float("inf"), "null": None}


def bad_lists(spec, key):
    """Malformed values of the list `spec[key]`: each bad number in its
    first place (named key[0]), null, an empty list and a non-list."""
    cases = {f"item-{k}": ([v] + spec[key][1:], f"{key}[0]")
             for k, v in BAD_NUMBERS.items()}
    cases.update({k: (v, key) for k, v in
                  {"null": None, "empty": [], "non-list": 0.5}.items()})
    return cases


def kind_cases(spec, where, command, wrap):
    """Every malformed value of every key of a map or potential object at
    key path `where`; `wrap` puts the object into a config."""
    for key, value in spec.items():
        if key == "kind":
            bad = {"unknown": ("mystery", key), "number": (5, key),
                   "null": (None, key)}
        elif isinstance(value, list):
            bad = bad_lists(spec, key)
        else:
            bad = {k: (v, key) for k, v in BAD_NUMBERS.items()}
        for case, (bad_value, path) in bad.items():
            yield pytest.param(
                command, wrap({**spec, key: bad_value}), f"{where}.{path}",
                id=f"{where}.{key}-{case}-{spec['kind']}",
            )


def malformed_cases():
    """(command, config overrides, key path the error must name)."""
    top = {
        "seed": {**BAD_NUMBERS, "negative": -1, "fraction": 1.5},
        "output_dir": {"wrong-type": 5, "bool": True, "null": None,
                       "list": ["out"]},
        "map": {"wrong-type": 5, "null": None, "list": []},
        "potential": {"wrong-type": 5, "bool": True, "list": []},
        "command_params": {"wrong-type": 5, "null": None, "list": []},
    }
    for key, bad in top.items():
        for case, value in bad.items():
            yield pytest.param("pressure", {key: value}, key, id=f"{key}-{case}")
    for case, value in {**BAD_NUMBERS, "one": 1, "fraction": 2.5}.items():
        yield pytest.param(
            "pressure", {"map": {"kind": "full_linear", "branches": value}},
            "map.branches", id=f"map.branches-{case}",
        )
    yield from kind_cases(TENT, "map", "pressure", lambda m: {"map": m})
    for spec in POTENTIAL_SPECS.values():
        yield from kind_cases(spec, "potential", "pressure",
                              lambda v: {"potential": v})
        yield from kind_cases(
            spec, "command_params.chi", "curve",
            lambda v: {"command_params": {"chi": v}},
        )
    for case, value in {"wrong-type": 5, "null": None}.items():
        yield pytest.param("curve", {"command_params": {"chi": value}},
                           "command_params.chi", id=f"chi-{case}")
    # a zero alpha used to divide by zero before the norms library checked it
    yield pytest.param("norms", {"command_params": {"alpha": 0}},
                       "command_params.alpha", id="norms.alpha-zero")
    observable = {"lo": 0.1, "hi": 0.4, "width": 0.05}
    for case, (value, path) in {"wrong-type": (5, ""), "empty": ([], ""),
                                "item": ([5], "[0]")}.items():
        yield pytest.param(
            "correlations", {"command_params": {"observables": value}},
            f"command_params.observables{path}", id=f"observables-{case}",
        )
    for key in observable:
        bad = dict(BAD_NUMBERS)
        if key == "width":
            bad.update({"zero": 0, "negative": -0.1})
        for case, value in bad.items():
            yield pytest.param(
                "correlations",
                {"command_params": {
                    "observables": [observable, {**observable, key: value}]}},
                f"command_params.observables[1].{key}",
                id=f"observables.{key}-{case}",
            )


class TestMalformedValues:
    @pytest.mark.parametrize("command, overrides, key", malformed_cases())
    def test_exits_64_naming_the_key_before_any_work(
        self, tmp_path, capsys, monkeypatch, command, overrides, key
    ):
        def walked(*args, **kwargs):
            raise AssertionError("the tree walk ran")

        for name in ("level_sums", "tree_pressure", "pressure_curve"):
            monkeypatch.setattr(cli, name, walked)
        path = write_config(tmp_path, **overrides)
        assert main([command, str(path)]) == 64
        assert f"{key} " in capsys.readouterr().err
        assert list((tmp_path / "out").glob("*")) == []

    @pytest.mark.parametrize(
        "overrides, key",
        [({"potential": {**BERNOULLI, "segments": [0.0, 0.6, 0.2, 1.0],
                         "values": [0.0, -1.0, 0.5]}}, "potential"),
         ({"potential": {**BERNOULLI, "values": [0.0]}}, "potential"),
         ({"map": {**TENT, "slopes": [2.0]}}, "map")],
        ids=["unsorted-segments", "segments-values-lengths", "map-lengths"],
    )
    def test_inconsistent_values_exit_64_naming_the_object(
        self, tmp_path, capsys, overrides, key
    ):
        path = write_config(tmp_path, **overrides)
        assert main(["pressure", str(path)]) == 64
        assert f"{path}: {key}: " in capsys.readouterr().err


class TestPressureCommand:
    def test_tent_entropy_value(self, tmp_path):
        path = write_config(tmp_path, command_params={"n_max": 10})
        assert main(["pressure", str(path)]) == 0
        header, rows = read_csv(tmp_path / "out" / "pressure.csv")
        assert header == ["n", "p_n", "P_hat", "delta", "status"]
        assert len(rows) == 10
        assert abs(float(rows[-1][2]) - LOG2) < 1e-12
        assert all(r[4] == "ok" for r in rows)

    def test_budget_exhaustion_exits_3_with_partial_rows(self, tmp_path):
        path = write_config(tmp_path, command_params={"n_max": 30})
        assert main(["pressure", str(path), "--budget", "5000"]) == 3
        _, rows = read_csv(tmp_path / "out" / "pressure.csv")
        assert 0 < len(rows) < 30
        assert all(r[4] == "budget" for r in rows)

    def test_entropy_command_ignores_potential(self, tmp_path):
        path = write_config(
            tmp_path, potential=BERNOULLI, command_params={"n_max": 8}
        )
        assert main(["entropy", str(path)]) == 0
        _, rows = read_csv(tmp_path / "out" / "entropy.csv")
        assert abs(float(rows[-1][2]) - LOG2) < 1e-12


class TestExitThree:
    """Exit 3 from a flagged result keeps every artifact, marked in its status
    column; exit 3 from a raised budget or convergence failure writes
    nothing."""

    def test_flagged_results_write_raised_failures_do_not(self, tmp_path):
        def run(command, name, *flags, **overrides):
            out = tmp_path / name
            path = write_config(
                tmp_path, name=f"{name}.json", output_dir=str(out), **overrides
            )
            assert main([command, str(path), *flags]) == 3
            return sorted(p.name for p in out.iterdir())

        budget = ("--budget", "5000")
        annihilating = {"kind": "constant", "values": [-800.0]}
        assert run(
            "pressure", "flagged", *budget, command_params={"n_max": 30}
        ) == ["pressure.csv"]
        _, rows = read_csv(tmp_path / "flagged" / "pressure.csv")
        assert rows and all(r[4] == "budget" for r in rows)
        assert run("audit-all", "over_budget", *budget,
                   command_params={"n_max": 12}) == []
        assert run("equilibrium", "annihilated", potential=annihilating,
                   command_params={"n_max": 10}) == []
        assert run("audit-all", "audit_annihilated", potential=annihilating,
                   command_params={"n_max": 10}) == []

    def test_failure_raised_late_in_audit_all_writes_nothing(
        self, tmp_path, monkeypatch, capsys
    ):
        def failing(*args, **kwargs):
            raise ConvergenceError("hyperbolicity check failed")

        monkeypatch.setattr(cli, "hyperbolicity_check", failing)
        path = write_config(
            tmp_path, potential=BERNOULLI,
            command_params={"n_max": 10, "tree_depth": 10},
        )
        assert main(["audit-all", str(path)]) == 3
        assert "hyperbolicity check failed" in capsys.readouterr().err
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("command", ["equilibrium", "correlations", "audit-all"])
    def test_nonpositive_certified_entropy_raises_and_writes_nothing(
        self, tmp_path, monkeypatch, capsys, command
    ):
        # a collapsed eigenvalue drives log(lambda) - int phi dnu below 0
        real = cli.power_iteration
        monkeypatch.setattr(cli, "power_iteration", lambda *args, **kwargs: (
            dataclasses.replace(real(*args, **kwargs), eigenvalue=1e-3,
                                log_eigenvalue=float(np.log(1e-3)))))
        path = write_config(
            tmp_path, potential=BERNOULLI,
            command_params={"n_max": 10, "tree_depth": 10},
        )
        assert main([command, str(path)]) == 2
        assert "nonpositive" in capsys.readouterr().err
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("command", ["equilibrium", "correlations", "audit-all"])
    def test_eigenfunction_without_mass_on_mu_is_an_audit_failure(
        self, tmp_path, monkeypatch, capsys, command
    ):
        # h = 0 leaves nu no mass: exit 2, not a config error (exit 64)
        real = cli.power_iteration

        def vanishing(*args, **kwargs):
            eigen = real(*args, **kwargs)
            return dataclasses.replace(eigen, h=eigen.h.with_values(0.0 * eigen.h.values))

        monkeypatch.setattr(cli, "power_iteration", vanishing)
        path = write_config(
            tmp_path, potential=BERNOULLI,
            command_params={"n_max": 10, "tree_depth": 10},
        )
        assert main([command, str(path)]) == 2
        assert "nonpositive mass against mu" in capsys.readouterr().err
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("command", ["equilibrium", "correlations", "audit-all"])
    def test_unconverged_weak_limit_is_flagged(self, tmp_path, monkeypatch, command):
        real = cli.weak_limit
        monkeypatch.setattr(cli, "weak_limit", lambda *args, **kwargs: (
            dataclasses.replace(real(*args, **kwargs), converged=False)))
        path = write_config(
            tmp_path, potential=BERNOULLI,
            command_params={"n_max": 10, "tree_depth": 10},
        )
        assert main([command, str(path)]) == 3
        name = "correlations.csv" if command == "correlations" else "equilibrium.csv"
        _, rows = read_csv(tmp_path / "out" / name)
        assert rows and all(r[-1] == "not_converged" for r in rows)

    # doubling + cos(0.3, -0.2): at --tol 1e-300 power iteration runs out of
    # iterations on the 64-point grid, while the weak limit converges
    @pytest.mark.parametrize("command, files", [
        ("equilibrium", ["equilibrium.csv", "mu.csv", "nu.csv"]),
        ("correlations", ["correlations.csv"]),
        ("audit-all", ["audit.csv", "conformal.csv", "equilibrium.csv",
                       "measure.csv", "nu.csv", "pressure.csv"]),
    ])
    def test_unconverged_eigenpair_is_flagged(self, tmp_path, command, files):
        path = write_config(
            tmp_path, potential=COSINE,
            command_params={"x0": 0.2, "n_max": 10, "tree_depth": 10},
        )
        assert main([command, str(path), "--tol", "1e-300", "--grid", "64"]) == 3
        out = tmp_path / "out"
        assert sorted(p.name for p in out.iterdir()) == files
        if command == "correlations":
            _, rows = read_csv(out / "correlations.csv")
            assert rows and all(r[-1] == "not_converged" for r in rows)
            return
        header, rows = read_csv(out / "equilibrium.csv")
        assert dict(zip(header, rows[0]))["status"] == "not_converged"
        if command == "audit-all":
            header, rows = read_csv(out / "conformal.csv")
            row = dict(zip(header, rows[0]))
            assert (row["converged"], row["status"]) == ("true", "ok")


# The tent map on [0, 2] and a cosine series that must follow that domain.
TENT_0_2 = {
    "kind": "pw_linear",
    "breakpoints": [0.0, 1.0, 2.0],
    "slopes": [2.0, -2.0],
    "intercepts": [0.0, 4.0],
}
COSINE = {"kind": "cosine_series", "coefficients": [0.3, -0.2]}
# The same tent scaled to [0, 20].
TENT_0_20 = {
    "kind": "pw_linear",
    "breakpoints": [0.0, 10.0, 20.0],
    "slopes": [2.0, -2.0],
    "intercepts": [0.0, 40.0],
}


class TestCosineOnMapDomain:
    def _imap_and_cosine(self):
        imap = pw_linear_map([0.0, 1.0, 2.0], [2.0, -2.0], [0.0, 4.0])
        return imap, CosineSeriesPotential((0.3, -0.2), lo=0.0, hi=2.0)

    def test_pressure_potential_spans_map_domain(self, tmp_path):
        path = write_config(
            tmp_path, map=TENT_0_2, potential=COSINE,
            command_params={"x0": 0.6, "n_max": 8},
        )
        assert main(["pressure", str(path)]) == 0
        _, rows = read_csv(tmp_path / "out" / "pressure.csv")
        imap, cosine = self._imap_and_cosine()
        report = tree_pressure(imap, cosine, 0.6, 8)
        assert [float(r[1]) for r in rows] == list(report.p_values)

    def test_curve_chi_spans_map_domain(self, tmp_path):
        path = write_config(
            tmp_path, map=TENT_0_2,
            command_params={
                "x0": 0.6, "n_max": 6, "t_lo": -1.0, "t_hi": 1.0,
                "t_count": 5, "chi": COSINE,
            },
        )
        assert main(["curve", str(path)]) == 0
        _, rows = read_csv(tmp_path / "out" / "curve.csv")
        imap, cosine = self._imap_and_cosine()
        curve = pressure_curve(
            imap, None, cosine, np.linspace(-1.0, 1.0, 5), x0=0.6, n_max=6
        )
        assert [float(r[1]) for r in rows] == list(curve.estimates)

    def test_audit_all_probes_follow_map_domain(self, tmp_path):
        # the adjoint probes read (x - lo) / (hi - lo), so the tent on
        # [0, 20] audits exactly as the doubling map's tent on [0, 1]
        # (so does the default x0, 0.3 of the way across the domain)
        audits = {}
        for name, imap, x0 in (
            ("unit", {"kind": "full_linear", "branches": 2}, 0.3),
            ("wide", TENT_0_20, 6.0),
            ("wide-default", TENT_0_20, None),
        ):
            params = {"n_max": 10, "tree_depth": 10}
            path = write_config(
                tmp_path, name=f"{name}.json", map=imap,
                command_params=params if x0 is None else {"x0": x0, **params},
                output_dir=str(tmp_path / name),
            )
            assert main(["audit-all", str(path), "--grid", "256"]) == 0
            audits[name] = (tmp_path / name / "audit.csv").read_bytes()
        assert audits["wide"] == audits["unit"]
        assert audits["wide-default"] == audits["unit"]

    @pytest.mark.parametrize("command", [
        "pressure", "entropy", "conformal", "equilibrium", "correlations", "curve",
        "audit-all",
    ])
    def test_default_x0_is_three_tenths_across_the_domain(self, tmp_path, command):
        params = {"n_max": 6, "tree_depth": 6, "lags": 5, "chi": COSINE}
        params = {k: v for k, v in params.items() if k in cli.COMMANDS[command][0]}
        runs = {}
        for name, x0 in (("default", None), ("explicit", 6.0)):
            path = write_config(
                tmp_path, name=f"{name}.json", map=TENT_0_20, potential=COSINE,
                command_params=params if x0 is None else {"x0": x0, **params},
                output_dir=str(tmp_path / name),
            )
            code = main([command, str(path), "--grid", "64"])
            files = sorted((tmp_path / name).iterdir())
            runs[name] = code, [(f.name, f.read_bytes()) for f in files]
        assert runs["default"] == runs["explicit"]
        assert runs["default"][1]


class TestConformalCommand:
    def test_bernoulli_measure_artifacts(self, tmp_path):
        path = write_config(
            tmp_path,
            potential=BERNOULLI,
            command_params={"n_max": 12},
        )
        assert main(["conformal", str(path)]) == 0
        out = tmp_path / "out"
        measure = read_measure(out / "measure.csv")
        assert abs(float(measure.masses.sum()) - 1.0) < 1e-9
        header, rows = read_csv(out / "conformal.csv")
        row = dict(zip(header, rows[0]))
        assert row["converged"] == "true"
        # Bernoulli transition parameter is the pressure, which is 0 after
        # the normalization built into the weak-limit pipeline's c
        assert abs(float(row["c"]) - np.log(1.0 + np.exp(-1.0))) < 5e-2
        _, brows = read_csv(out / "binned.csv")
        assert len(brows) == 64


class TestEquilibriumCommand:
    def test_bernoulli_eigenvalue_and_entropy(self, tmp_path):
        path = write_config(
            tmp_path,
            potential=BERNOULLI,
            command_params={"n_max": 14, "tree_depth": 12},
        )
        assert main(["equilibrium", str(path)]) == 0
        header, rows = read_csv(tmp_path / "out" / "equilibrium.csv")
        row = dict(zip(header, rows[0]))
        assert abs(float(row["lambda"]) - (1.0 + np.exp(-1.0))) < 1e-10
        expected_h = np.log(1 + np.e) - 1.0 / (1.0 + np.exp(-1.0))
        assert abs(float(row["entropy"]) - expected_h) < 5e-3
        assert row["hyperbolicity"] == "hyperbolic"
        nu = read_measure(tmp_path / "out" / "nu.csv")
        assert abs(float(nu.masses.sum()) - 1.0) < 1e-9

    def test_annihilated_iterate_is_a_numerical_failure(self, tmp_path, capsys):
        # a valid config whose weights exp(-800) underflow the transfer
        # operator to zero: a convergence failure (3), not a config error
        path = write_config(
            tmp_path,
            potential={"kind": "constant", "values": [-800.0]},
            command_params={"n_max": 10},
        )
        assert main(["equilibrium", str(path)]) == 3
        assert "annihilated" in capsys.readouterr().err


class TestCorrelationsCommand:
    def test_default_observable_schema(self, tmp_path):
        path = write_config(
            tmp_path,
            potential=BERNOULLI,
            command_params={"n_max": 12, "lags": 6},
        )
        assert main(["correlations", str(path)]) == 0
        header, rows = read_csv(tmp_path / "out" / "correlations.csv")
        assert header == ["observable", "n", "c_n", "rho", "r_squared", "status"]
        assert len(rows) == 6
        assert [int(r[1]) for r in rows] == [1, 2, 3, 4, 5, 6]

    def test_builds_no_nu_on_mus_atoms(self, tmp_path, monkeypatch):
        # correlations.csv reads no nu: the entropy guard gets mu's projection
        # onto h's grid, never mu's own atoms
        sizes, measures = [], []
        real_state, real_limit = cli.equilibrium_state, cli.weak_limit

        def state(potential, measure, *args, **kwargs):
            sizes.append(measure.size)
            return real_state(potential, measure, *args, **kwargs)

        def limit(*args, **kwargs):
            result = real_limit(*args, **kwargs)
            measures.append(result.measure)
            return result

        monkeypatch.setattr(cli, "equilibrium_state", state)
        monkeypatch.setattr(cli, "weak_limit", limit)
        path = write_config(
            tmp_path, potential=BERNOULLI,
            command_params={"n_max": 10, "tree_depth": 10, "lags": 6},
        )
        assert main(["correlations", str(path), "--grid", "128"]) == 0
        (mu,) = measures
        assert mu.size > 128
        assert sizes and all(size <= 128 for size in sizes)

    def test_bad_second_observable_stops_before_any_work(
        self, tmp_path, capsys, monkeypatch
    ):
        import thermomap.cli as cli

        calls = []
        monkeypatch.setattr(
            cli, "correlation", lambda *a, **k: calls.append(a)
        )
        path = write_config(
            tmp_path,
            potential=BERNOULLI,
            command_params={
                "n_max": 10,
                "lags": 6,
                "observables": [
                    {"lo": 0.1, "hi": 0.4},
                    {"lo": 0.2, "hi": 0.6, "depth": 3},
                ],
            },
        )
        assert main(["correlations", str(path)]) == 64
        assert "observables[1]" in capsys.readouterr().err
        assert list((tmp_path / "out").iterdir()) == []
        assert calls == []

    @pytest.mark.parametrize(
        "params",
        [
            {"observables": []},
            {"observables": {"lo": 0.1, "hi": 0.4}},
            {"observables": [0.1]},
            {"observables": [{"lo": 0.1}]},
            {"observables": [{"lo": "0.1", "hi": 0.4}]},
            {"observables": [{"lo": 0.1, "hi": 0.4, "width": 0}]},
            {"observables": [{"lo": 0.1, "hi": 0.4, "width": True}]},
            {"observables": [{"lo": 0.1, "hi": 10**400}]},
            {"lags": 4},
            {"lags": 6.0},
        ],
        ids=["empty", "not-a-list", "not-an-object", "missing-hi", "string-lo",
             "zero-width", "bool-width", "huge-int-hi", "lags-4", "lags-float"],
    )
    def test_bad_params_exit_64_and_write_nothing(self, tmp_path, capsys, params):
        path = write_config(
            tmp_path, potential=BERNOULLI,
            command_params={"n_max": 10, "lags": 6, **params},
        )
        assert main(["correlations", str(path)]) == 64
        key = "observables" if "observables" in params else "lags"
        assert f"command_params.{key}" in capsys.readouterr().err
        assert list((tmp_path / "out").iterdir()) == []

    def test_lags_past_the_floor_are_flagged_one_by_one(self, tmp_path):
        # doubling + cos at depth 10: mu's invariance defect floors each
        # sequence after a few lags, and the fit reads only the lags before
        path = write_config(
            tmp_path, potential=COSINE,
            command_params={
                "x0": 0.2, "n_max": 10, "tree_depth": 10, "lags": 12,
                "observables": [{"lo": 0.1, "hi": 0.4},
                                {"lo": 0.3, "hi": 0.9, "width": 0.1}],
            },
        )
        assert main(["correlations", str(path)]) == 0
        header, rows = read_csv(tmp_path / "out" / "correlations.csv")
        for idx in ("0", "1"):
            mine = [dict(zip(header, r)) for r in rows if r[0] == idx]
            statuses = [r["status"] for r in mine]
            resolved = statuses.count("ok")
            assert 2 <= resolved < 12
            assert statuses == ["ok"] * resolved + ["below_resolution"] * (12 - resolved)
            (rho,) = {r["rho"] for r in mine}
            assert 0.0 < float(rho) < 1.0

    def test_each_observable_matches_its_own_run(self, tmp_path):
        # each observable's rows equal the rows of a run with it alone
        specs = [{"lo": 0.1, "hi": 0.4}, {"lo": 0.3, "hi": 0.9, "width": 0.1}]

        def run(name, observables):
            cfg = write_config(
                tmp_path, name=f"{name}.json", potential=BERNOULLI,
                command_params={"n_max": 10, "lags": 6,
                                "observables": observables},
                output_dir=str(tmp_path / name),
            )
            assert main(["correlations", str(cfg)]) == 0
            return read_csv(tmp_path / name / "correlations.csv")[1]

        both = run("both", specs)
        for idx, spec in enumerate(specs):
            alone = run(f"alone{idx}", [spec])
            assert [r[1:] for r in both if r[0] == str(idx)] == [
                r[1:] for r in alone
            ]


class TestNormsCommand:
    def test_chain_audit_passes_and_writes_slack(self, tmp_path):
        path = write_config(
            tmp_path, command_params={"draws": 5, "atoms": 32, "alpha": 0.5}
        )
        assert main(["norms", str(path)]) == 0
        header, rows = read_csv(tmp_path / "out" / "norms.csv")
        assert len(rows) == 5
        i = header.index("passed")
        assert all(r[i] == "true" for r in rows)

    def test_seed_changes_draws(self, tmp_path):
        p1 = write_config(
            tmp_path, name="a.json", seed=1,
            command_params={"draws": 3, "atoms": 32},
            output_dir=str(tmp_path / "o1"),
        )
        p2 = write_config(
            tmp_path, name="b.json", seed=2,
            command_params={"draws": 3, "atoms": 32},
            output_dir=str(tmp_path / "o2"),
        )
        assert main(["norms", str(p1)]) == 0
        assert main(["norms", str(p2)]) == 0
        assert not filecmp.cmp(
            tmp_path / "o1" / "norms.csv", tmp_path / "o2" / "norms.csv",
            shallow=False,
        )


    @pytest.mark.parametrize(
        "key, value",
        [("p", "x"), ("p", float("nan")), ("p", float("inf")), ("p", 0.5),
         ("atoms", 0), ("atoms", 48.5), ("draws", -1), ("draws", 0)],
        ids=["p-string", "p-nan", "p-inf", "p-below-one", "atoms-zero",
             "atoms-fraction", "draws-negative", "draws-zero"],
    )
    def test_bad_param_exits_64_and_writes_nothing(
        self, tmp_path, capsys, key, value
    ):
        path = write_config(
            tmp_path, command_params={"draws": 2, "atoms": 16, key: value}
        )
        assert main(["norms", str(path)]) == 64
        assert f"command_params.{key}" in capsys.readouterr().err
        assert list((tmp_path / "out").iterdir()) == []


class TestCurveCommand:
    def test_schema_and_convexity(self, tmp_path):
        path = write_config(
            tmp_path,
            command_params={
                "t_lo": -1.0, "t_hi": 1.0, "t_count": 9, "n_max": 8,
                "chi": BERNOULLI,
            },
        )
        assert main(["curve", str(path)]) == 0
        header, rows = read_csv(tmp_path / "out" / "curve.csv")
        assert header == ["t", "P_hat", "dP_central", "d2P_central", "fit_residual"]
        assert len(rows) == 9
        # endpoints carry nan differences, interior second differences >= 0
        assert rows[0][2] == "nan" and rows[-1][3] == "nan"
        interior = [float(r[3]) for r in rows[1:-1]]
        assert all(d2 >= -1e-9 for d2 in interior)

    def test_zero_t_step_exits_64_and_writes_nothing(self, tmp_path, capsys):
        path = write_config(tmp_path, command_params={
            "t_lo": 0.5, "t_hi": 0.5, "t_count": 5, "n_max": 4, "chi": BERNOULLI,
        })
        assert main(["curve", str(path)]) == 64
        assert "nonzero step" in capsys.readouterr().err
        assert list((tmp_path / "out").iterdir()) == []

    def test_missing_chi_exits_64(self, tmp_path):
        path = write_config(tmp_path, command_params={"t_count": 5})
        assert main(["curve", str(path)]) == 64

    @pytest.mark.parametrize(
        "t_max, code",
        [(1e80, 0), (1e103, 64), (1e300, 64), (1e-60, 0), (1e-100, 0), (1e-200, 64)],
    )
    def test_huge_t_range_exits_0_or_64(self, tmp_path, capsys, recwarn, t_max, code):
        # the step check scales with the step; a max|t| whose cube overflows
        # or a step whose square underflows is refused before any walk, and
        # the cubic is fitted in t / 2**k, so polyfit neither over- nor
        # underflows in between
        path = write_config(
            tmp_path,
            potential={"kind": "cosine_series", "coefficients": [0.3, -0.2]},
            command_params={"t_lo": -t_max, "t_hi": t_max, "t_count": 5,
                            "n_max": 4, "chi": BERNOULLI},
        )
        assert main(["curve", str(path)]) == code
        if code == 0:
            header, rows = read_csv(tmp_path / "out" / "curve.csv")
            assert len(rows) == 5
            assert np.isfinite(float(rows[0][header.index("fit_residual")]))
            assert [str(w.message) for w in recwarn] == []
        else:
            message = "underflows" if t_max < 1 else "overflows"
            assert message in capsys.readouterr().err
            assert list((tmp_path / "out").iterdir()) == []


class TestAppendixCommand:
    def test_constructed_example_fields(self, tmp_path):
        path = write_config(
            tmp_path,
            map={"kind": "full_linear", "branches": 4},
            command_params={"gap": float(np.log(4.0))},
        )
        assert main(["appendix", str(path)]) == 0
        header, rows = read_csv(tmp_path / "out" / "appendix.csv")
        row = dict(zip(header, rows[0]))
        assert row["hyperbolic"] == "true"
        assert row["bounded_range"] == "false"
        assert float(row["phi_range"]) > float(row["entropy"])


class TestAuditAll:
    def test_bernoulli_all_green(self, tmp_path):
        path = write_config(
            tmp_path,
            potential=BERNOULLI,
            command_params={"n_max": 12, "tree_depth": 10},
        )
        assert main(["audit-all", str(path)]) == 0
        out = tmp_path / "out"
        for artifact in ("pressure.csv", "measure.csv", "conformal.csv",
                         "equilibrium.csv", "nu.csv", "audit.csv"):
            assert (out / artifact).exists()
        header, rows = read_csv(out / "audit.csv")
        assert header == ["name", "value", "bound", "passed", "status"]
        assert all(r[3] == "true" for r in rows)

    def test_hyperbolic_run_audit_rows(self, tmp_path):
        # nonpositive entropy under a hyperbolic verdict is an AuditError
        # (exit 2) before audit.csv is written, so no entropy row is kept
        path = write_config(
            tmp_path,
            potential=BERNOULLI,
            command_params={"n_max": 12, "tree_depth": 10},
        )
        assert main(["audit-all", str(path)]) == 0
        header, rows = read_csv(tmp_path / "out" / "equilibrium.csv")
        assert dict(zip(header, rows[0]))["hyperbolicity"] == "hyperbolic"
        _, rows = read_csv(tmp_path / "out" / "audit.csv")
        assert [r[0] for r in rows] == [
            "conformality_max_delta",
            "full_support_min_64bin",
            "eigen_vs_tree",
            "adjoint_max_deviation",
            "atom_max_bin_mass_512",
        ]

    def test_threads_flag_never_changes_bytes(self, tmp_path):
        digests = {}
        for threads in (1, 2, 8):
            cfg = write_config(
                tmp_path,
                name=f"t{threads}.json",
                potential=BERNOULLI,
                command_params={"n_max": 12, "tree_depth": 10},
                output_dir=str(tmp_path / f"o{threads}"),
            )
            assert main(["audit-all", str(cfg), "--threads", str(threads)]) == 0
            digests[threads] = {
                f.name: f.read_bytes()
                for f in sorted((tmp_path / f"o{threads}").iterdir())
            }
        assert digests[1] == digests[2] == digests[8]

    def test_repeat_run_is_byte_identical(self, tmp_path):
        cfg = write_config(
            tmp_path,
            potential=BERNOULLI,
            command_params={"n_max": 12, "tree_depth": 10},
        )
        assert main(["audit-all", str(cfg)]) == 0
        first = {
            f.name: f.read_bytes() for f in (tmp_path / "out").iterdir()
        }
        assert main(["audit-all", str(cfg)]) == 0
        second = {
            f.name: f.read_bytes() for f in (tmp_path / "out").iterdir()
        }
        assert first == second


class TestOneWeightBuild:
    """Grid functions integrate against mu through one hat-weight vector,
    shared by power iteration and the adjoint audit."""

    @pytest.mark.parametrize("command", ["equilibrium", "correlations", "audit-all"])
    def test_weights_built_once(self, tmp_path, monkeypatch, command):
        builds = []
        real = AtomicMeasure.hat_weights

        def counting(self, grid):
            if self._hat is None or not np.array_equal(self._hat[0], grid):
                builds.append(self.size)
            return real(self, grid)

        monkeypatch.setattr(AtomicMeasure, "hat_weights", counting)
        params = {"n_max": 10, "tree_depth": 10}
        if command == "correlations":
            params["lags"] = 6
        path = write_config(tmp_path, potential=BERNOULLI, command_params=params)
        assert main([command, str(path)]) == 0
        assert len(builds) == 1


class TestOneTreeWalk:
    """Each tree pipeline walks the preimage tree once and reduces that walk
    to the pressure, the transition parameter and the weak limit."""

    @pytest.mark.parametrize(
        "command", ["conformal", "equilibrium", "correlations", "audit-all"]
    )
    def test_pipeline_walks_once(self, tmp_path, monkeypatch, command):
        import thermomap.maps as maps

        walks = []
        real = maps.iter_preimage_levels

        def counting(*args, **kwargs):
            walks.append(args[3])
            return real(*args, **kwargs)

        # every module-level copy, so a walk from any module is counted
        for name, module in list(sys.modules.items()):
            if name.startswith("thermomap") and (
                getattr(module, "iter_preimage_levels", None) is real
            ):
                monkeypatch.setattr(module, "iter_preimage_levels", counting)
        params = {"n_max": 10}
        if command != "conformal":
            params["tree_depth"] = 12
        if command == "correlations":
            params["lags"] = 6
        path = write_config(tmp_path, potential=BERNOULLI, command_params=params)
        assert main([command, str(path)]) == 0
        assert walks == [10 if command == "conformal" else 12]

    @pytest.mark.parametrize("tree_depth", [9, 13])
    def test_audit_all_files_match_single_commands(self, tmp_path, tree_depth):
        def run(command, name, **params):
            cfg = write_config(
                tmp_path, name=f"{name}.json", potential=BERNOULLI,
                command_params=params, output_dir=str(tmp_path / name),
            )
            assert main([command, str(cfg)]) == 0
            return tmp_path / name

        audit = run("audit-all", "audit", n_max=11, tree_depth=tree_depth)
        pressure = run("pressure", "pressure", n_max=tree_depth)
        conformal = run("conformal", "conformal", n_max=11)
        equilibrium = run("equilibrium", "equilibrium", n_max=11,
                          tree_depth=tree_depth)
        assert (audit / "pressure.csv").read_bytes() == (
            pressure / "pressure.csv").read_bytes()
        for name in ("measure.csv", "conformal.csv"):
            assert (audit / name).read_bytes() == (conformal / name).read_bytes()
        for name in ("equilibrium.csv", "nu.csv"):
            assert (audit / name).read_bytes() == (
                equilibrium / name).read_bytes()
