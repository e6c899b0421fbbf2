import ast
import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from survkit import (
    Accounting,
    ClipReport,
    Dataset,
    LinearModelSource,
    ModelBounds,
    NoiseKind,
    PrivacyParams,
    RngSpec,
    clip_to_bounds,
    gen_synthetic1,
    gen_synthetic2,
    load_csv,
    load_private,
    make_noise_spec,
    model_distance,
    privatize,
    save_csv,
    save_private,
    sparse_coefficients,
    validate_dataset,
)
from survkit import datagen
from survkit.core import _RNG_TAGS
from survkit.datagen import CsvFormatError, source_from_spec
from survkit.mechanisms import NoiseSpec, PrivateDataset

_SRC = Path(datagen.__file__).resolve().parents[1]


def _reference_clip(x, y, zeta, tau):
    """The per-column count and full clamp that ``_clip`` must agree with."""
    cov = np.count_nonzero(x > zeta, axis=0) + np.count_nonzero(x < -zeta, axis=0)
    resp = np.count_nonzero(y > tau) + np.count_nonzero(y < -tau)
    report = ClipReport(tuple(int(c) for c in cov), int(resp))
    return np.clip(x, -zeta, zeta), np.clip(y, -tau, tau), report


@st.composite
def _clip_cases(draw):
    """(x, y, zeta, tau) with cells at +-bound, 0.0, -0.0 and +-inf among
    finite values on both sides of the envelope."""
    zeta, tau = draw(st.floats(0.25, 4.0)), draw(st.floats(0.25, 4.0))
    m, d = draw(st.integers(1, 6)), draw(st.integers(1, 4))

    def cells(bound, n):
        special = st.sampled_from([bound, -bound, 0.0, -0.0, math.inf, -math.inf])
        values = st.one_of(special, st.floats(-2.0 * bound, 2.0 * bound))
        return np.array(draw(st.lists(values, min_size=n, max_size=n)))

    return cells(zeta, m * d).reshape(m, d), cells(tau, m), zeta, tau


_INSIDE = np.array([[1.0, -1.0], [-0.0, 0.5]])


class TestClipKernel:
    @given(case=_clip_cases())
    @example(case=(_INSIDE, np.array([2.0, -0.0]), 1.0, 2.0))  # all inside, at the bounds
    @example(case=(_INSIDE * 3, np.array([0.5, -0.0]), 1.0, 1.0))  # only x outside
    @example(case=(_INSIDE, np.array([3.0, -3.0]), 1.0, 1.0))  # only y outside
    @example(case=(np.array([[math.inf, -math.inf]]), np.array([-math.inf]), 1.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_matches_per_column_reference(self, case):
        x, y, zeta, tau = case
        ref_x, ref_y, ref = _reference_clip(x, y, zeta, tau)
        runs = [datagen._clip(x.copy(), y.copy(), ModelBounds(zeta, tau, 1.0))]
        if np.isfinite(x).all() and np.isfinite(y).all():  # a Dataset holds finite entries
            runs.append(clip_to_bounds(Dataset(x, y, ModelBounds(9.0, 9.0, 1.0)), zeta, tau))
        for out, report in runs:
            assert report == ref
            assert all(type(c) is int for c in (*report.covariate_clips, report.response_clips))
            assert out.x.tobytes() == ref_x.tobytes() and out.y.tobytes() == ref_y.tobytes()
            assert validate_dataset(out).ok

    def test_nan_still_fails_the_row_rule(self):
        x = np.array([[0.5, math.nan]])
        with pytest.raises(ValueError, match="^covariates must be finite$"):
            datagen._clip(x, np.zeros(1), ModelBounds(1.0, 1.0, 1.0))

    def test_arrays_inside_are_kept_untouched(self):
        x, y = _INSIDE.copy(), np.array([1.0, -0.0])
        before = x.tobytes(), y.tobytes()
        # Read-only arrays: any write to them raises.
        x.setflags(write=False)
        y.setflags(write=False)
        out, report = datagen._clip(x, y, ModelBounds(1.0, 1.0, 1.0))
        assert out.x is x and out.y is y
        assert (x.tobytes(), y.tobytes()) == before
        assert report == ClipReport((0, 0), 0)

    # Peak traced bytes of the call, in covariate matrices: one boolean mask
    # (0.125) alive at a time, from a count or the row rule's finiteness
    # check, plus the indices of a few dozen cells outside.  Two masks alive
    # at once, or a clamp through a temporary, exceed the bound.
    @pytest.mark.parametrize("covariate, zeta", [("uniform", 1.0), ("normal", 4.0)],
                             ids=["inside", "outside"])
    def test_transient_peak(self, covariate, zeta):
        m, d = 100_000, 10
        gen = np.random.default_rng(12)
        # Both paths once first: first-call work is not the call's memory.
        datagen._clip(gen.normal(size=(5, d)) * 9, gen.normal(size=5), ModelBounds(1, 1, 1))
        x = gen.uniform(-1, 1, (m, d)) if covariate == "uniform" else gen.normal(size=(m, d))
        y = gen.uniform(-1, 1, m)
        tracemalloc.start()
        try:
            _, report = datagen._clip(x, y, ModelBounds(zeta, 1.0, 1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (report.total > 0) == (covariate == "normal")
        assert peak <= 0.135 * x.nbytes


class TestClipToBounds:
    def test_identity_when_within(self):
        ds = Dataset([[0.5, -0.5]], [0.1], ModelBounds(1, 1, 1))
        out, rep = clip_to_bounds(ds, 1.0, 1.0)
        assert rep.total == 0
        assert np.array_equal(out.x, ds.x) and np.array_equal(out.y, ds.y)
        assert validate_dataset(out).ok

    def test_single_clamp_counted(self):
        ds = Dataset([[5.0]], [0.0], ModelBounds(10, 1, 1))
        out, rep = clip_to_bounds(ds, 1.0, 1.0)
        assert out.x[0, 0] == 1.0
        assert rep.covariate_clips == (1,) and rep.response_clips == 0

    def test_four_sigma_clip_fraction(self):
        # oracle: 2 * Phi_bar(4) = 6.334e-5 per cell; 1e5 cells -> Poisson(6.3)
        gen = np.random.default_rng(8)
        x = gen.normal(size=(10_000, 10))
        ds = Dataset(x, np.zeros(10_000), ModelBounds(100, 1, 1))
        _, rep = clip_to_bounds(ds, 4.0, 1.0)
        assert 0 <= sum(rep.covariate_clips) <= 25

    def test_idempotent(self):
        gen = np.random.default_rng(9)
        ds = Dataset(gen.normal(size=(50, 2)) * 3, gen.normal(size=50), ModelBounds(99, 99, 1))
        once, rep1 = clip_to_bounds(ds, 1.0, 1.0)
        twice, rep2 = clip_to_bounds(once, 1.0, 1.0)
        assert rep2.total == 0
        assert np.array_equal(once.x, twice.x)

    @pytest.mark.parametrize("zeta, tau, name", [(0.0, 1.0, "zeta"), (1.0, -1.0, "tau")])
    def test_bounds_must_be_positive(self, zeta, tau, name):
        ds = Dataset([[0.5]], [0.1], ModelBounds(1, 1, 1))
        with pytest.raises(ValueError, match=f"^{name} must be positive$"):
            clip_to_bounds(ds, zeta, tau)


class TestSparseCoefficients:
    def test_expected_support_size(self):
        gen = np.random.default_rng(10)
        counts = [np.count_nonzero(sparse_coefficients(100, gen)) for _ in range(1000)]
        assert 9.0 <= float(np.mean(counts)) <= 11.0

    def test_values_in_range(self):
        gen = np.random.default_rng(11)
        th = sparse_coefficients(25, gen)
        nz = th[th != 0]
        assert len(nz) >= 1 and np.all((1.0 <= nz) & (nz <= 10.0))


class TestSynthetic1:
    def test_single_row_bookkeeping(self):
        survey, theta_s, theta_star, _ = gen_synthetic1(3, 1, 0.0, RngSpec(0))
        assert survey.size == 1 and survey.dim == 3
        assert theta_s.shape == theta_star.shape == (3,)

    def test_deterministic(self):
        a = gen_synthetic1(5, 100, 0.7, RngSpec(21, 3))
        b = gen_synthetic1(5, 100, 0.7, RngSpec(21, 3))
        assert a[0].x.tobytes() == b[0].x.tobytes()
        assert np.array_equal(a[1], b[1]) and np.array_equal(a[2], b[2])

    def test_close_regime_distances(self):
        # Monte-Carlo oracle under the variance convention: coefficient gap
        # is sqrt(0.02 chi2_10), so P(dist < 0.75) = P(chi2_10 < 28.1) ~ 0.998.
        probes = np.random.default_rng(0).normal(size=(2000, 10))
        hits = 0
        for seed in range(60):
            _, theta_s, theta_star, _ = gen_synthetic1(10, 1, 0.0, RngSpec(seed))
            hits += model_distance(theta_s, theta_star, probes) < 0.75
        assert hits >= 57  # >= 95%

    def test_far_regime_distance_large(self):
        probes = np.random.default_rng(0).normal(size=(2000, 10))
        for seed in range(10):
            _, theta_s, theta_star, _ = gen_synthetic1(10, 1, 2.0, RngSpec(seed))
            assert model_distance(theta_s, theta_star, probes) > 3.0

    def test_sampler_draws_from_star_model(self):
        _, _, theta_star, sampler = gen_synthetic1(4, 1, 1.0, RngSpec(5))
        x, y = sampler.draw(50_000, np.random.default_rng(0))
        resid = y - x @ theta_star
        assert float(np.var(resid)) == pytest.approx(0.1, rel=0.05)
        assert abs(float(np.mean(x))) < 0.02

    def test_sampler_keeps_its_own_read_only_theta(self):
        _, _, theta_star, sampler = gen_synthetic1(4, 1, 1.0, RngSpec(5))
        before = theta_star.copy()
        theta_star *= 0  # the caller's copy stays writable
        assert np.array_equal(sampler.theta, before)
        with pytest.raises(ValueError, match="read-only"):
            sampler.theta[0] = 0.0


class TestSynthetic2:
    def test_noise_variances_match_within_2pct(self):
        m, d = 100_000, 10  # 1e6 noise cells per kind
        clean_g, noisy_g, _ = gen_synthetic2(d, m, NoiseKind.GAUSSIAN, RngSpec(3))
        clean_l, noisy_l, _ = gen_synthetic2(d, m, NoiseKind.LAPLACE, RngSpec(3))
        vg = float(np.var(noisy_g.z - clean_g.x))
        vl = float(np.var(noisy_l.z - clean_l.x))
        assert vg == pytest.approx(1.0, rel=0.02)
        assert vl == pytest.approx(1.0, rel=0.02)
        assert vg == pytest.approx(vl, rel=0.02)

    def test_noise_kind_must_be_a_noise_kind(self):
        with pytest.raises(ValueError, match="noise_kind must be a NoiseKind, got 'laplace'"):
            gen_synthetic2(2, 10, "laplace", RngSpec(0))

    def test_laplace_scale_matches_unit_variance(self):
        # Laplace(0, 1/sqrt 2) has variance 2 * (1/sqrt 2)^2 = 1, and the
        # bundle's variance is its noise's: 1 - 2.2e-16 in floating point.
        _, noisy, _ = gen_synthetic2(2, 10, NoiseKind.LAPLACE, RngSpec(0))
        assert noisy.noise.scale == 1 / math.sqrt(2)
        assert noisy.noise_variance == noisy.noise.per_coordinate_variance == 0.9999999999999998

    def test_clean_data_shared_across_kinds(self):
        clean_g, _, th_g = gen_synthetic2(6, 500, NoiseKind.GAUSSIAN, RngSpec(17))
        clean_l, _, th_l = gen_synthetic2(6, 500, NoiseKind.LAPLACE, RngSpec(17))
        assert clean_g.x.tobytes() == clean_l.x.tobytes()
        assert np.array_equal(th_g, th_l)

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**64 - 1), stream=st.integers(0, 2**32),
           d=st.integers(1, 6), m=st.integers(1, 400))
    def test_noise_is_the_inverse_cdf_of_one_uniform_block(self, seed, stream, d, m):
        # The transforms written out in full on a fresh draw of the uniform
        # block; the generator evaluates them in place and must match bitwise.
        from scipy.special import ndtri

        rng = RngSpec(seed, stream)
        u = rng.derive(_RNG_TAGS["covariate_noise"]).random(size=(m, d))
        u = np.clip(u, 2.0**-53, 1.0 - 2.0**-53)
        scale = 1.0 / math.sqrt(2.0)
        noise = {
            NoiseKind.GAUSSIAN: ndtri(u),
            NoiseKind.LAPLACE: -scale * np.sign(u - 0.5) * np.log1p(-2.0 * np.abs(u - 0.5)),
        }
        for kind, w in noise.items():
            clean, noisy, _ = gen_synthetic2(d, m, kind, rng)
            assert noisy.z.tobytes() == (clean.x + w).tobytes()

    def test_kinds_build_in_either_order(self):
        # Each kind draws its own uniforms, so the Laplace kind built first
        # leaves the Gaussian kind as gen_synthetic2 builds it alone.
        d, m, rng = 5, 300, RngSpec(8, 4)
        clean, _ = datagen._sparse_survey(d, m, rng)
        order = (NoiseKind.LAPLACE, NoiseKind.GAUSSIAN)
        built = {kind: datagen._with_covariate_noise(clean, kind, rng) for kind in order}
        for kind, noisy in built.items():
            assert noisy.z.tobytes() == gen_synthetic2(d, m, kind, rng)[1].z.tobytes()

    def test_deterministic(self):
        a = gen_synthetic2(4, 50, NoiseKind.LAPLACE, RngSpec(2, 9))
        b = gen_synthetic2(4, 50, NoiseKind.LAPLACE, RngSpec(2, 9))
        assert a[1].z.tobytes() == b[1].z.tobytes()


class TestCsvRoundTrip:
    def test_single_row_exact(self, tmp_path):
        ds = Dataset([[0.1, -2.5e-17]], [math.pi], ModelBounds(1, 4, 1))
        p = tmp_path / "one.csv"
        save_csv(ds, p)
        back = load_csv(p, ds.bounds)
        assert back.x.tobytes() == ds.x.tobytes()
        assert back.y.tobytes() == ds.y.tobytes()

    def test_large_random_round_trip_bitwise(self, tmp_path):
        gen = np.random.default_rng(12)
        ds = Dataset(gen.normal(size=(10_000, 4)), gen.normal(size=10_000),
                     ModelBounds(10, 10, 1))
        p = tmp_path / "big.csv"
        save_csv(ds, p)
        back = load_csv(p)
        assert back.x.tobytes() == ds.x.tobytes()
        assert back.y.tobytes() == ds.y.tobytes()

    @pytest.mark.parametrize("twin", [True, False])
    def test_envelope_of_negative_extremes(self, tmp_path, twin):
        # The largest |x| and |y| are negative cells, as read through the
        # twin and from the text.
        ds = Dataset([[-3.25, 1.0], [2.0, -0.5]], [-5.5, 4.0], ModelBounds(4, 6, 1))
        p = tmp_path / "neg.csv"
        save_csv(ds, p)
        if not twin:
            datagen._twin_path(p).unlink()
        assert load_csv(p).bounds == ModelBounds(3.25, 5.5, 1.0)

    def test_empty_data_section_rejected(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("x1,y\n")
        with pytest.raises(CsvFormatError, match="no data rows"):
            load_csv(p)

    def test_zero_byte_file_rejected(self, tmp_path):
        p = tmp_path / "zero.csv"
        p.write_bytes(b"")
        with pytest.raises(CsvFormatError, match="zero.csv: empty file"):
            load_csv(p)

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "hdr.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(CsvFormatError, match="header"):
            load_csv(p)

    def test_ragged_row_located(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("x1,x2,y\n1,2,3\n4,5\n")
        with pytest.raises(CsvFormatError, match="3"):
            load_csv(p)

    def test_non_numeric_cell_located(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("x1,y\n1,2\nfoo,3\n")
        with pytest.raises(CsvFormatError, match="column 1"):
            load_csv(p)

    def test_missing_value_rejected(self, tmp_path):
        p = tmp_path / "gap.csv"
        p.write_text("x1,x2,y\n1,,3\n")
        with pytest.raises(CsvFormatError, match="column 2"):
            load_csv(p)

    def test_non_finite_value_rejected(self, tmp_path):
        p = tmp_path / "inf.csv"
        p.write_text("x1,y\ninf,0\n")
        with pytest.raises(CsvFormatError, match="column 1: non-finite"):
            load_csv(p)


def _row_by_row_load_csv(path):
    """The row-by-row reader that load_csv replaced, kept as the reference:
    returns (x, y) or raises CsvFormatError."""
    path = Path(path)
    rows: list[list[float]] = []
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError(f"{path}: empty file") from None
        d = len(header) - 1
        expected = [f"x{i + 1}" for i in range(d)] + ["y"]
        if d < 1 or header != expected:
            raise CsvFormatError(
                f"{path}: header must be x1,...,xd,y; got {','.join(header)}"
            )
        for lineno, row in enumerate(reader, start=2):
            if len(row) != d + 1:
                raise CsvFormatError(
                    f"{path}:{lineno}: expected {d + 1} fields, got {len(row)}"
                )
            parsed = []
            for col, cell in enumerate(row):
                try:
                    value = float(cell)
                except ValueError:
                    raise CsvFormatError(
                        f"{path}:{lineno}: column {col + 1}: not a number: {cell!r}"
                    ) from None
                if not math.isfinite(value):
                    raise CsvFormatError(
                        f"{path}:{lineno}: column {col + 1}: non-finite value: {cell!r}"
                    )
                parsed.append(value)
            rows.append(parsed)
    if not rows:
        raise CsvFormatError(f"{path}: no data rows")
    arr = np.asarray(rows, dtype=np.float64)
    return arr[:, :-1], arr[:, -1]


def _outcome(read, path):
    try:
        x, y = read(path)
    except CsvFormatError as exc:
        return ("error", str(exc))
    return ("data", x.shape, x.tobytes(), y.tobytes())


def _load_arrays(path):
    ds = load_csv(path)
    return ds.x, ds.y


_ODD_CELLS = [
    "", " ", "#1", "# c", '"1.5"', '"2"5', '"1,5"', '""', ' "1"', '1"', '"1.5" ',
    " 1.5 ", "\t2\t", "+1.5", "-0", "0x1p3", "inf", "-Infinity", "nan", "NaN",
    "infinity", "1e500", "-1e500", "1e-400", "\x1c1", "1\x1f", "1_0", "\u0661",
    "\u20031.5", '"7', '"8\n"',
]
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _float_only(cell):
    """Whether float() reads ``cell`` only because of what np.loadtxt does
    not read: digit underscores or non-ASCII digits."""
    return "_" in cell or not cell.strip().isascii()


@st.composite
def _csv_texts(draw):
    d = draw(st.integers(1, 3))
    headers = [",".join([f"x{i + 1}" for i in range(d)] + ["y"])] * 7
    headers += ['"x1",' + ",".join([f"x{i + 2}" for i in range(d - 1)] + ["y"]), "a,b", ""]
    header = headers[draw(st.integers(0, 9))]
    cell = st.one_of(_FINITE.map(repr), st.sampled_from(_ODD_CELLS))
    valid = st.lists(_FINITE.map(repr), min_size=d + 1, max_size=d + 1).map(",".join)
    odd = st.lists(cell, min_size=d + 1, max_size=d + 1).map(",".join)
    ragged = st.lists(cell, min_size=0, max_size=d + 2).map(",".join)
    # Row kinds by share: 60 % valid, 20 % odd cells, 10 % ragged, 10 % blank.
    kinds = [valid] * 6 + [odd] * 2 + [ragged, st.just("")]
    lines = [header] + [draw(kinds[draw(st.integers(0, 9))])
                        for _ in range(draw(st.integers(0, 6)))]
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text[: -len(ends[-1])]
    return text


class TestCsvReaderEquivalence:
    """load_csv against the row-by-row reader it replaced, on the same files."""

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=150)
    @given(text=_csv_texts())
    @example(text="x1,x2,y\n1,2\n3,4\n")
    @example(text="x1,y\n\n")
    @example(text="x1,y\r1,2\r\r3,4\r")
    @example(text="x1,x2,y\r\n1,2,3\r\n4,5,6\r\n\r\n")
    @example(text='x1,y\n"1.5",2\n"3" ,4\n+5,"6"7')
    @example(text="x1,y\n1_0,2\n3,4\n")
    @example(text="x1,y\n1,2\n\u0661,3\n")
    @example(text='x1,y\n1,2\n3,"4\n"\n5,6\n')
    @example(text='x1,y\n1,"2\n\n"\n3,"\r\n\r\n4"\r\n')
    @example(text='x1,y\n1,"2\n3,4\n')
    @example(text="x1,y\n1,\x1c2\n")
    def test_same_arrays_or_same_error(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "equivalence.csv"
        path.write_bytes(text.encode("utf-8"))
        new = _outcome(_load_arrays, path)
        old = _outcome(_row_by_row_load_csv, path)
        if new != old:
            # The one difference: a cell that float() reads and np.loadtxt
            # does not is rejected, at its line and column.
            m = re.fullmatch(re.escape(str(path)) + r":\d+: column \d+: not a number: (.*)",
                             new[1] if new[0] == "error" else "", re.DOTALL)
            assert m, (text, new, old)
            cell = ast.literal_eval(m.group(1))
            float(cell)  # raises unless float() reads the cell
            assert _float_only(cell), (text, new, old)


class TestReaderOfRecord:
    """The row reader defines the format; np.loadtxt reads only plain files."""

    @pytest.mark.parametrize("text", [
        'x1,y\n"1.5",2\n3,"-4e-3"\n',
        '"x1",y\r\n1,"2"\r\n',
        'x1,x2,y\n1,"2\n",3\n4," 5 ",6\n',
        'x1,y\n1,2\n"nan",3\n',
    ])
    def test_quoted_cells_go_through_the_row_reader(self, tmp_path, text):
        path = tmp_path / "quoted.csv"
        path.write_bytes(text.encode("utf-8"))
        with mock.patch.object(datagen, "_read_rows", wraps=datagen._read_rows) as rows:
            new = _outcome(_load_arrays, path)
        assert rows.call_count == 1
        assert new == _outcome(_row_by_row_load_csv, path)

    def test_plain_file_stays_on_the_fast_path(self, tmp_path):
        path = tmp_path / "plain.csv"
        save_csv(Dataset(np.eye(3), np.arange(3.0), ModelBounds(1, 4, 1)), path)
        with mock.patch.object(datagen, "_read_rows") as rows:
            back = load_csv(path)
        rows.assert_not_called()
        assert back.x.tobytes() == np.eye(3).tobytes()


_SPECIAL_FLOATS = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    -1.7976931348623157e308, 0.1, 1 / 3, 1e16, 123456789.0,
])


class TestCsvWriterProperties:
    @settings(max_examples=80)
    @given(data=st.data())
    def test_round_trip_bit_exact_and_csv_writer_bytes(self, tmp_path_factory, data):
        m = data.draw(st.integers(1, 6))
        d = data.draw(st.integers(1, 4))
        value = st.one_of(_SPECIAL_FLOATS, _FINITE)
        x = np.array(data.draw(st.lists(st.lists(value, min_size=d, max_size=d),
                                        min_size=m, max_size=m)), dtype=np.float64)
        y = np.array(data.draw(st.lists(value, min_size=m, max_size=m)), dtype=np.float64)
        ds = Dataset(x, y, ModelBounds(1, 1, 1))
        path = tmp_path_factory.getbasetemp() / "round_trip.csv"
        # Small blocks, so the block boundaries fall inside the file.
        with mock.patch.object(datagen, "_WRITE_BLOCK_ROWS", data.draw(st.integers(1, 4))):
            save_csv(ds, path)
        # Read back twice: through the twin, with no parse at all, then from
        # the text alone.
        with mock.patch.object(datagen, "_read_rows", side_effect=AssertionError), \
                mock.patch.object(np, "loadtxt", side_effect=AssertionError):
            via_twin = load_csv(path)
        datagen._twin_path(path).unlink()
        parsed = load_csv(path)
        envelope = ModelBounds(max(float(np.abs(x).max()), 1e-12),
                               max(float(np.abs(y).max()), 1e-12), 1.0)
        for back in (via_twin, parsed):
            assert back.x.tobytes() == ds.x.tobytes()
            assert back.y.tobytes() == ds.y.tobytes()
            assert back.bounds == envelope
        ref = io.StringIO(newline="")
        writer = csv.writer(ref)
        writer.writerow([f"x{i + 1}" for i in range(d)] + ["y"])
        for row, yi in zip(x, y):
            writer.writerow([repr(float(v)) for v in row] + [repr(float(yi))])
        assert path.read_bytes() == ref.getvalue().encode("utf-8")

    def test_one_block_of_python_floats_at_a_time(self, tmp_path):
        # A block's tolist() is released before the next block is formatted,
        # so writing three blocks peaks about where writing one does.
        peaks = []
        with mock.patch.object(datagen, "_WRITE_BLOCK_ROWS", 1024):
            for blocks in (1, 3):
                x = np.random.default_rng(blocks).normal(size=(1024 * blocks, 40))
                tracemalloc.start()
                try:
                    datagen._write_rows(tmp_path / f"b{blocks}.csv", x, x[:, 0].copy())
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        assert peaks[1] < 1.25 * peaks[0], peaks


def _repr_rows(block) -> bytes:
    return "".join(",".join(map(repr, row)) + "\r\n" for row in block.tolist()).encode("utf-8")


class TestBlockFormatterIsRepr:
    """datagen._block_text writes what repr writes, cell for cell: orjson
    inside 1e-4 <= |v| < 1e16 (and zero), repr for the rows it leaves."""

    _MAX = np.finfo(np.float64).max
    _EDGES = [np.nextafter(1e-4, 0), 1e-4, np.nextafter(1e-4, 1), np.nextafter(1e16, 0), 1e16,
              0.0, 5e-324, _MAX]
    _EDGES += [-v for v in _EDGES]

    @settings(max_examples=200)
    @given(st.integers(1, 5).flatmap(
        lambda d: st.lists(st.lists(_FINITE, min_size=d, max_size=d), min_size=1, max_size=8)))
    def test_any_finite_rows(self, rows):
        block = np.array(rows, dtype=np.float64)
        assert datagen._block_text(block) == _repr_rows(block)

    def test_the_edges_of_the_fast_range(self):
        # Every ordered pair of edges, each beside a fast-range cell, so
        # rows repr formats sit between rows orjson formats.
        rows = [[a, 0.5, b] for a in self._EDGES for b in self._EDGES]
        block = np.array(rows + [[1.25, -3.0, 7e15]] * 3, dtype=np.float64)
        assert datagen._block_text(block) == _repr_rows(block)

    def test_orjson_agrees_with_repr_exactly_inside_the_range(self):
        # The range's bounds are where orjson's text starts to differ.
        import orjson

        def agrees(v):
            text = orjson.dumps(np.array([v]), option=orjson.OPT_SERIALIZE_NUMPY)
            return text == f"[{float(v)!r}]".encode()

        assert [agrees(v) for v in self._EDGES[:5]] == [False, True, True, True, False]

    def test_a_seeded_sample_across_every_decimal_exponent(self):
        gen = np.random.default_rng(29)
        rows, d = 80_000, 10
        # Each row shares one decimal exponent: one row for every exponent
        # from the subnormals to the largest, the rest in the fast range or
        # one decade beside it, since repr itself formats rows outside it.
        exponent = gen.integers(-5, 17, rows)
        exponent[:631] = np.arange(-323, 308)
        values = gen.uniform(1, 10, (rows, d)) * 10.0 ** exponent[:, None].astype(np.float64)
        values *= gen.choice([-1.0, 1.0], (rows, d))
        b = datagen._WRITE_BLOCK_ROWS
        for i in range(0, rows, b):
            block = values[i:i + b]
            assert datagen._block_text(block) == _repr_rows(block)


def _traced_peak(fn) -> int:
    """The tracemalloc peak, in bytes, of the second of two calls of ``fn``:
    the first fills the caches that imports and first calls make."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    """A dataset file's write, digest and read hold the arrays plus one small
    block, at the benchmark's m = 3e4, d = 10 (one m x d matrix is 2.4 MB)."""

    M, D = 30_000, 10

    @pytest.fixture
    def arrays(self):
        gen = np.random.default_rng(27)
        return gen.normal(size=(self.M, self.D)), gen.normal(size=self.M)

    def test_write_rows_holds_one_block_of_text(self, tmp_path, arrays):
        peak = _traced_peak(lambda: datagen._write_rows(tmp_path / "w.csv", *arrays))
        assert peak < 1_000_000, peak

    def test_file_digest_reads_through_one_small_buffer(self, tmp_path, arrays):
        path = tmp_path / "d.csv"
        datagen._write_rows(path, *arrays)
        assert _traced_peak(lambda: datagen._file_digest(path)) < 100_000
        assert datagen._file_digest(path) == hashlib.sha256(path.read_bytes()).digest()

    def test_load_through_the_twin_holds_the_arrays_and_little_more(self, tmp_path, arrays):
        x, y = arrays
        path = tmp_path / "l.csv"
        datagen._write_rows(path, x, y)
        peak = _traced_peak(lambda: load_csv(path))
        assert peak < x.nbytes + y.nbytes + 500_000, peak

    def test_a_save_hashes_what_it_writes(self, tmp_path, arrays):
        path = tmp_path / "s.csv"
        modes = []
        real_open = io.open

        def spy(file, mode="r", *args, **kwargs):
            if isinstance(file, (str, os.PathLike)) and Path(file) == path:
                modes.append(mode)
            return real_open(file, mode, *args, **kwargs)

        with mock.patch("io.open", spy), mock.patch("builtins.open", spy), \
                mock.patch.object(datagen, "_file_digest", side_effect=AssertionError):
            save_csv(Dataset(*arrays, ModelBounds(10, 10, 1)), path)
        assert modes == ["wb"]
        with datagen._twin_path(path).open("rb") as fh:
            record = np.lib.format.read_array(fh, allow_pickle=False)
        assert record.tobytes() == hashlib.sha256(path.read_bytes()).digest()


def _write_twin(path, *records, allow_pickle=False):
    """A hand-made twin for the CSV ``path``: the SHA-256 of its bytes as it
    is now, then ``records``."""
    digest = np.frombuffer(hashlib.sha256(Path(path).read_bytes()).digest(), np.uint8)
    with datagen._twin_path(path).open("wb") as fh:
        for a in (digest, *records):
            np.lib.format.write_array(fh, a, allow_pickle=allow_pickle)


def _parsed(path):
    """load_csv's outcome for ``path`` with its twin set aside: the text path's."""
    twin = datagen._twin_path(path)
    held = twin.with_name("held-twin")
    twin.rename(held)
    try:
        return _outcome(_load_arrays, path)
    finally:
        held.rename(twin)


class TestBinaryTwin:
    """A twin replaces the parse only when it is the twin of the CSV as it is now."""

    @pytest.fixture
    def saved(self, tmp_path):
        gen = np.random.default_rng(3)
        ds = Dataset(gen.normal(size=(40, 3)), gen.normal(size=40), ModelBounds(10, 10, 1))
        path = tmp_path / "data.csv"
        save_csv(ds, path)
        return ds, path

    def test_written_beside_the_csv_and_read_without_a_parse(self, saved):
        ds, path = saved
        assert datagen._twin_path(path) == path.with_name("data.csv.twin")
        assert datagen._twin_path(path).is_file()
        with mock.patch.object(np, "loadtxt", side_effect=AssertionError):
            back = load_csv(path)
        assert back.x.tobytes() == ds.x.tobytes() and back.y.tobytes() == ds.y.tobytes()
        assert not back.x.flags.writeable and not back.y.flags.writeable

    @pytest.mark.parametrize("edit", ["digit", "header"])
    def test_csv_edited_after_writing_is_parsed(self, saved, edit):
        ds, path = saved
        lines = path.read_bytes().split(b"\r\n")
        if edit == "digit":
            cell = lines[1]
            i = next(k for k, c in enumerate(cell) if chr(c).isdigit())
            lines[1] = cell[:i] + str((int(chr(cell[i])) + 1) % 10).encode() + cell[i + 1:]
        else:
            lines[0] = b"x1,x2,z"
        path.write_bytes(b"\r\n".join(lines))
        with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt:
            outcome = _outcome(_load_arrays, path)
        loadtxt.assert_called_once()
        assert outcome == _parsed(path)
        if edit == "digit":
            assert outcome[0] == "data" and outcome[2] != ds.x.tobytes()
        else:
            assert outcome[0] == "error" and "header must be" in outcome[1]

    @pytest.mark.parametrize("twin", [
        "truncated", "empty", "garbage", "another csv", "short y", "flat x", "float32",
        "fortran order", "pickled",
    ])
    def test_broken_twin_falls_back_to_the_parse(self, saved, tmp_path, twin):
        ds, path = saved
        x, y = ds.x, ds.y
        twin_file = datagen._twin_path(path)
        if twin == "truncated":
            twin_file.write_bytes(twin_file.read_bytes()[:-8])
        elif twin == "empty":
            twin_file.write_bytes(b"")
        elif twin == "garbage":
            twin_file.write_bytes(b"\x93NUMPY\x01\x00garbage" * 50)
        elif twin == "another csv":
            other = tmp_path / "other.csv"
            save_csv(Dataset(x + 1.0, y, ds.bounds), other)
            twin_file.write_bytes(datagen._twin_path(other).read_bytes())
        elif twin == "short y":
            _write_twin(path, x, y[:-1])
        elif twin == "flat x":
            _write_twin(path, x.ravel(), y)
        elif twin == "float32":
            _write_twin(path, x.astype(np.float32), y)
        elif twin == "fortran order":
            _write_twin(path, np.asfortranarray(x), y)
        else:
            _write_twin(path, x.astype(object), y, allow_pickle=True)
        with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt:
            outcome = _outcome(_load_arrays, path)
        loadtxt.assert_called_once()
        assert outcome == _parsed(path) == ("data", x.shape, x.tobytes(), y.tobytes())

    def test_twin_without_its_csv(self, saved):
        _, path = saved
        path.unlink()
        with pytest.raises(FileNotFoundError, match="No such file") as exc:
            load_csv(path)
        assert str(path) in str(exc.value)

    def test_nothing_is_hashed_without_a_twin(self, saved):
        _, path = saved
        with mock.patch("hashlib.sha256", wraps=hashlib.sha256) as sha256:
            load_csv(path)
            assert sha256.call_count == 1  # the twin's check
            datagen._twin_path(path).unlink()
            load_csv(path)
            assert sha256.call_count == 1

    def test_importing_the_cli_loads_no_hashlib(self):
        # hashlib loads OpenSSL (about 3.5 MB RSS); only a twin's read or write needs it.
        code = "import sys, survkit.cli; print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": str(_SRC)})
        assert out.stdout == "[]\n"

    def test_no_twin_beside_what_is_not_a_regular_file(self, tmp_path):
        # /dev/null has no directory entry of its own to sit beside.
        with mock.patch.object(datagen, "_twin_path", side_effect=AssertionError):
            save_csv(Dataset([[0.5]], [0.5], ModelBounds(1, 1, 1)), "/dev/null")


class TestPrivateBundle:
    def test_round_trip(self, tmp_path):
        _, noisy, _ = gen_synthetic2(3, 20, NoiseKind.LAPLACE, RngSpec(4))
        p = tmp_path / "bundle.csv"
        csv_path, side = save_private(noisy, p)
        assert side.name == "bundle.meta.json"
        back = load_private(csv_path)
        assert back.z.tobytes() == noisy.z.tobytes()
        assert back.y.tobytes() == noisy.y.tobytes()
        assert back.noise_variance == noisy.noise_variance
        assert back.noise.kind is NoiseKind.LAPLACE
        meta = json.loads(side.read_text())
        assert meta["sigma_w_diagonal"] == noisy.noise.per_coordinate_variance
        assert "per_coordinate_variance" not in meta  # one variance per bundle

    def test_sidecar_with_the_old_laplace_variance_loads(self, tmp_path):
        # gen --kind synthetic2 sidecars once recorded 1.0 for the Laplace
        # variance 1 - 2.2e-16; the loaded bundle's variance is its noise's.
        _, noisy, _ = gen_synthetic2(3, 20, NoiseKind.LAPLACE, RngSpec(4))
        csv_path, side = save_private(noisy, tmp_path / "bundle.csv")
        side.write_text(json.dumps({**json.loads(side.read_text()), "sigma_w_diagonal": 1.0}))
        assert load_private(csv_path).noise_variance == 0.9999999999999998

    def test_sidecar_with_the_old_variance_key_loads(self, tmp_path):
        # Bundles written before the duplicate key was dropped still load.
        _, noisy, _ = gen_synthetic2(3, 20, NoiseKind.GAUSSIAN, RngSpec(4))
        csv_path, side = save_private(noisy, tmp_path / "bundle.csv")
        meta = json.loads(side.read_text())
        side.write_text(json.dumps({**meta, "per_coordinate_variance": 1.0}))
        back = load_private(csv_path)
        assert back.noise_variance == 1.0
        assert back.z.tobytes() == noisy.z.tobytes()

    def test_truncated_csv_rejected(self, tmp_path):
        _, noisy, _ = gen_synthetic2(3, 20, NoiseKind.LAPLACE, RngSpec(4))
        csv_path, _ = save_private(noisy, tmp_path / "bundle.csv")
        lines = csv_path.read_bytes().splitlines(keepends=True)
        csv_path.write_bytes(b"".join(lines[:-1]))
        with pytest.raises(CsvFormatError, match=r"20 x 3, the CSV holds 19 x 3"):
            load_private(csv_path)

    def test_variance_is_checked_against_the_noise_spec(self, tmp_path):
        _, noisy, _ = gen_synthetic2(3, 20, NoiseKind.LAPLACE, RngSpec(4))
        csv_path, side = save_private(noisy, tmp_path / "bundle.csv")
        meta = json.loads(side.read_text())
        meta["sigma_w_diagonal"] = 1.5
        side.write_text(json.dumps(meta))
        with pytest.raises(CsvFormatError, match=re.escape(
                f"{side}: key 'sigma_w_diagonal': 1.5 is not the variance "
                "0.9999999999999998 of laplace noise at scale 0.7071067811865475")):
            load_private(csv_path)

    def test_zero_variance_matches_zero(self, tmp_path):
        pds = PrivateDataset([[0.5]], [0.5], NoiseSpec(NoiseKind.GAUSSIAN, 0.0), None, None)
        csv_path, _ = save_private(pds, tmp_path / "clear.csv")
        assert load_private(csv_path).noise_variance == 0.0

    def test_missing_sidecar_rejected(self, tmp_path):
        ds = Dataset([[0.1]], [0.2], ModelBounds(1, 1, 1))
        p = tmp_path / "plain.csv"
        save_csv(ds, p)
        with pytest.raises(CsvFormatError, match="sidecar"):
            load_private(p)


def _publish(path, privacy: PrivacyParams, zeta=2.0):
    """A 30 x 3 survey published at ``privacy`` and ``zeta``, as ``publish`` does;
    returns the bundle's CSV and sidecar paths."""
    x = np.random.default_rng(5).uniform(-zeta, zeta, size=(30, 3))
    ds = Dataset(x, x.sum(axis=1), ModelBounds(zeta, 10.0, 1.0))
    pds = privatize(ds, make_noise_spec(privacy, zeta, 3), privacy, RngSpec(5))
    return save_private(pds, path, zeta=zeta)


class TestSidecarBudget:
    """A sidecar with its privacy budget and zeta must hold the noise that
    budget calibrates to."""

    @pytest.mark.parametrize("privacy", [
        PrivacyParams(2.0), PrivacyParams(0.5, 0.0, Accounting.WHOLE_RECORD),
        PrivacyParams(0.8, 1e-5), PrivacyParams(1.0, 0.1, Accounting.WHOLE_RECORD),
    ])
    def test_published_bundle_loads(self, tmp_path, privacy):
        csv_path, _ = _publish(tmp_path / "pub.csv", privacy)
        assert load_private(csv_path).privacy == privacy

    def test_gaussian_above_alpha_one_loads_without_a_warning(self, tmp_path):
        privacy = PrivacyParams(3.0, 0.1)
        with pytest.warns(RuntimeWarning, match="alpha=3.0 > 1"):
            csv_path, _ = _publish(tmp_path / "pub.csv", privacy)
        assert load_private(csv_path).privacy == privacy  # warnings are errors here

    @pytest.mark.parametrize("key, value, bad_key, message", [
        ("alpha", 0.01, "noise_scale",
         "laplace noise at scale 2.0 is not the laplace noise at scale 400.0 that "
         "alpha=0.01, beta=0.0, per-coord accounting and zeta=2.0 calibrate"),
        ("beta", 0.1, "noise_kind", "laplace noise at scale 2.0 is not the gaussian noise"),
        ("accounting", "whole-record", "noise_scale",
         "is not the laplace noise at scale 6.0 that"),
        ("zeta", 1.0, "noise_scale", "is not the laplace noise at scale 1.0 that"),
        ("zeta", -1.0, "zeta", "zeta must be positive"),
        ("zeta", "2.0", "zeta", "expected a JSON number, got '2.0'"),
    ])
    def test_a_budget_other_than_the_noise_is_rejected(self, tmp_path, key, value, bad_key,
                                                       message):
        csv_path, side = _publish(tmp_path / "pub.csv", PrivacyParams(2.0))
        side.write_text(json.dumps({**json.loads(side.read_text()), key: value}))
        with pytest.raises(CsvFormatError, match=re.escape(f"{side}: key {bad_key!r}: ")
                           + ".*" + re.escape(message)):
            load_private(csv_path)

    @pytest.mark.parametrize("key, value, message", [
        ("seed", -1, "seed must be an unsigned 64-bit integer"),
        ("seed", 2**64, "seed must be an unsigned 64-bit integer"),
        ("seed", 2.7, "seed must be an unsigned 64-bit integer"),
        ("seed", True, "seed must be an unsigned 64-bit integer"),
        ("stream", -1, "stream must be a non-negative integer"),
        ("stream", 1.5, "stream must be a non-negative integer"),
    ])
    def test_a_bad_seed_or_stream_is_named_by_file_and_key(self, tmp_path, key, value, message):
        csv_path, side = _publish(tmp_path / "pub.csv", PrivacyParams(2.0))
        side.write_text(json.dumps({**json.loads(side.read_text()), key: value}))
        with pytest.raises(CsvFormatError, match=f"^{re.escape(f'{side}: key {key!r}: {message}')}$"):
            load_private(csv_path)

    def test_sidecar_without_zeta_is_not_checked(self, tmp_path):
        csv_path, side = _publish(tmp_path / "pub.csv", PrivacyParams(2.0))
        meta = json.loads(side.read_text())
        del meta["zeta"]
        side.write_text(json.dumps({**meta, "alpha": 0.01}))
        back = load_private(csv_path)
        assert (back.privacy.alpha, back.noise.scale) == (0.01, 2.0)


class TestLinearModelSource:
    def test_spec_round_trip(self):
        src = LinearModelSource([1.0, -2.0], 0.25, "uniform", 3.0)
        back = source_from_spec(src.spec_dict())
        x1, y1 = src.draw(10, np.random.default_rng(0))
        x2, y2 = back.draw(10, np.random.default_rng(0))
        assert np.array_equal(x1, x2) and np.array_equal(y1, y2)

    @pytest.mark.parametrize("args, message", [
        (([[1.0]], 0.1), r"theta must be 1-dimensional, got shape \(1, 1\)"),
        (([1.0, math.nan], 0.1), "theta must be finite"),
        (([1.0], -0.1), "noise_var must be non-negative"),
        (([1.0], math.nan), "noise_var must be non-negative"),
        (([1.0], 0.1, "normal", 0.0), "scale must be positive"),
        (([1.0], 0.1, "normal", math.inf), "scale must be positive"),
        (([1.0], 0.1, "cauchy"), "unknown covariate kind 'cauchy'"),
    ])
    def test_rejects_bad_arguments(self, args, message):
        with pytest.raises(ValueError, match=message):
            LinearModelSource(*args)

    def test_envelope_pins_the_generators_formulas(self):
        # At scale 1, bit for bit the envelopes the generators computed before
        # they drew through LinearModelSource: 4 sigma of the response, and
        # zeta = 4 for normal covariates or the uniform's bound 1.
        theta = np.random.default_rng(3).uniform(1.0, 10.0, size=7)
        tt = float(theta @ theta)
        assert LinearModelSource(theta, 0.1).envelope() == (4.0, 4.0 * math.sqrt(tt + 0.1))
        assert LinearModelSource(theta, 1.0, "uniform").envelope() == (
            1.0, 4.0 * math.sqrt(tt / 3.0 + 1.0))
        # At another scale a covariate's variance is scale^2, or scale^2 / 3.
        assert LinearModelSource(theta, 0.1, "normal", 2.5).envelope() == (
            10.0, 4.0 * math.sqrt(tt * 2.5 * 2.5 + 0.1))
        assert LinearModelSource(theta, 1.0, "uniform", 2.5).envelope() == (
            2.5, 4.0 * math.sqrt(tt * 2.5 * 2.5 / 3.0 + 1.0))

    def test_unknown_spec_type_rejected(self):
        with pytest.raises(ValueError):
            source_from_spec({"type": "nope"})
