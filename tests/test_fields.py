import json
import math
import os
import re
import tempfile
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from canonica.common import DomainError, EquationKind, FieldFileError, GeometryMismatch
from canonica.fields import (
    AiryKM,
    BesselBeam,
    FundHeat,
    Gauss,
    Grid1D,
    GridKind,
    HeatAssoc,
    HeatPoly,
    PlaneChirp,
    PointSource,
    RadialType,
    RadialHeatPoly,
    SampledField,
    StdHG,
    StdLG,
    heat_poly_coeffs,
    heat_poly_eval,
    read_field,
    sample,
    write_field,
)
from canonica import fields, specfun


def test_grid_basics():
    g = Grid1D.from_span(GridKind.FULL_LINE, -6.0, 6.0, 512)
    assert g.count == 512
    assert g.points[0] == -6.0
    assert g.points[-1] == pytest.approx(6.0)
    with pytest.raises(ValueError):
        Grid1D(GridKind.HALF_LINE, -1.0, 0.1, 8)
    with pytest.raises(ValueError):
        Grid1D(GridKind.FULL_LINE, 0.0, -0.1, 8)


@pytest.mark.parametrize("kind", [GridKind.FULL_LINE, GridKind.HALF_LINE])
@pytest.mark.parametrize("start, step", [
    (math.nan, 0.1), (0.0, math.nan), (math.inf, 0.1), (0.0, math.inf), (-math.inf, 0.1),
])
def test_grid_rejects_a_non_finite_start_or_step(kind, start, step):
    # NaN compares false with everything, so the sign checks alone let it through
    with pytest.raises(ValueError, match="must be finite"):
        Grid1D(kind, start, step, 3)


def test_plane_chirp_value():
    f = PlaneChirp(2.0)
    ref = math.exp(0.0) / math.sqrt(2 * math.pi) * np.exp(-2j)
    assert f.eval(0.0, 1.0) == pytest.approx(ref)


def test_point_source_singular_at_origin():
    with pytest.raises(DomainError):
        PointSource(1.0).eval(0.3, 0.0)


def test_airy_km_source_limit():
    f = AiryKM(1.5)
    x = 0.7
    ref = np.exp(1j * (1.5 * x - x**3 / 3.0)) / math.sqrt(2 * math.pi)
    assert f.eval(x, 0.0) == pytest.approx(ref)


def test_std_hg_normalization():
    assert StdHG(0).eval(0.0, 0.0) == pytest.approx(math.pi ** -0.25)


def test_std_hg_seed_is_hermite_gauss():
    # the zeta = 0 slice is the orthonormal Hermite-Gauss function
    x = np.linspace(-4, 4, 41)
    for n in (0, 1, 4):
        ref = (specfun.hermite(n, x) * np.exp(-x**2 / 2)
               / math.sqrt(2.0**n * math.factorial(n) * math.sqrt(math.pi)))
        assert np.max(np.abs(StdHG(n).eval(x, 0.0) - ref)) < 1e-14


def test_std_lg_seed():
    r = np.linspace(0, 5, 21)
    n, m = 2, 1
    ref = (math.sqrt(2 * math.factorial(n) / math.factorial(n + m))
           * r**m * np.exp(-r**2 / 2) * specfun.laguerre(n, m, r**2))
    assert np.max(np.abs(StdLG(n, m).eval(r, 0.0) - ref)) < 1e-14


def test_bessel_field():
    f = BesselBeam(2.0, 0)
    assert f.eval(0.0, 0.0) == pytest.approx(1.0)  # J_0(0) with unit phase
    # parity under negative coordinate, used by the symmetry maps
    f1 = BesselBeam(2.0, 1)
    assert f1.eval(-0.7, 0.3) == pytest.approx(-f1.eval(0.7, 0.3))


def test_heat_poly_coeffs():
    assert heat_poly_coeffs(0) == [(0, 1.0)]
    assert heat_poly_coeffs(2) == [(2, 1.0), (0, 1.0)]
    assert heat_poly_coeffs(3) == [(3, 1.0), (1, 3.0)]
    with pytest.raises(ValueError):
        heat_poly_coeffs(33)


def test_heat_poly_values():
    x = np.linspace(-2, 2, 9)
    assert np.allclose(HeatPoly(2).eval(x, 0.7), x**2 + 0.7)
    assert np.allclose(HeatPoly(3).eval(x, 0.5), x**3 + 3 * x * 0.5)


def test_heat_poly_ode_symbolic():
    # (t d2/dx2 + x d/dx - n) v_n == 0 exactly on the coefficient level
    for n in range(9):
        acc = {}
        for p, c in heat_poly_coeffs(n):
            j = (n - p) // 2
            if p >= 2:  # t * d2/dx2 term -> x^(p-2) t^(j+1)
                acc[(p - 2, j + 1)] = acc.get((p - 2, j + 1), 0.0) + c * p * (p - 1)
            acc[(p, j)] = acc.get((p, j), 0.0) + c * p - n * c
        assert all(abs(v) == 0.0 for v in acc.values())


def test_heat_poly_hermite_connection():
    # v_n(x, t) = (-t/2)^(n/2) H_n(x / sqrt(-2t)) for t < 0
    t = -0.8
    x = np.linspace(-2, 2, 9)
    for n in range(9):
        ref = (-t / 2) ** (n / 2) * specfun.hermite(n, x / math.sqrt(-2 * t))
        assert np.max(np.abs(heat_poly_eval(n, x, t) - ref)) < 1e-9


def test_generating_function():
    xs = np.linspace(-2, 2, 9)
    t = 0.5
    for chi in (-1.0, -0.3, 0.4, 1.0):
        acc = sum(chi**n / math.factorial(n) * np.asarray(HeatPoly(n).eval(xs, t))
                  for n in range(21))
        assert np.max(np.abs(acc - np.exp(chi * xs + chi**2 * t / 2))) < 1e-8


def test_heat_assoc_ode_residual_order():
    # (t d2/dx2 + x d/dx + n + 1) w_n -> 0 at second order in the step
    t = 0.9
    xs = np.linspace(-2.0, 2.0, 9)
    for n in (1, 3):
        w = HeatAssoc(n)
        res = []
        for h in (1e-2, 5e-3, 2.5e-3):
            up = np.asarray(w.eval(xs + h, t))
            dn = np.asarray(w.eval(xs - h, t))
            mid = np.asarray(w.eval(xs, t))
            d2 = (up - 2 * mid + dn) / h**2
            d1 = (up - dn) / (2 * h)
            res.append(np.max(np.abs(t * d2 + xs * d1 + (n + 1) * mid)))
        order = np.polyfit(np.log([1e-2, 5e-3, 2.5e-3]), np.log(res), 1)[0]
        assert order >= 1.8


def test_heat_assoc_and_fund():
    x = np.linspace(-3, 3, 13)
    t = 0.9
    s = np.exp(-x**2 / (2 * t)) / math.sqrt(2 * math.pi * t)
    # w_0 = S
    assert np.allclose(HeatAssoc(0).eval(x, t), s)
    assert np.allclose(FundHeat().eval(x, t), s)
    with pytest.raises(DomainError):
        FundHeat().eval(0.0, -0.1)


def test_radial_heat_poly():
    r = np.linspace(0, 4, 9)
    mu, t = 3.0, 0.5
    for n in range(5):
        ref = (2.0**n * math.factorial(n) * t**n
               * specfun.laguerre(n, mu / 2 - 1, -(r**2) / (2 * t)))
        assert np.max(np.abs(RadialHeatPoly(n, mu).eval(r, t) - ref)) < 1e-10
        # monomial initial data
        assert np.max(np.abs(RadialHeatPoly(n, mu).eval(r, 0.0) - r ** (2 * n))) < 1e-12


def test_gauss_helper():
    g = Gauss(1.0, 0.0, EquationKind.HEAT)
    x = np.linspace(-3, 3, 13)
    t = 0.7
    ref = np.sqrt(1 / (1 + t)) * np.exp(-x**2 / (2 * (1 + t)))
    assert np.allclose(g.eval(x, t), ref)
    with pytest.raises(ValueError):
        Gauss(1.0, 0.0, EquationKind.RADIAL_PWE)


def test_sample_geometry_checks():
    full = Grid1D.from_span(GridKind.FULL_LINE, -6, 6, 32)
    half = Grid1D.from_span(GridKind.HALF_LINE, 0, 6, 32)
    fld = sample(Gauss(1.0), full, 0.0)
    assert fld.values.shape == (32,)
    assert np.isrealobj(fld.values.real)
    with pytest.raises(GeometryMismatch):
        sample(Gauss(1.0), half, 0.0)
    with pytest.raises(GeometryMismatch):
        sample(BesselBeam(1.0, 0), full, 0.0)
    with pytest.raises(GeometryMismatch):
        SampledField(full, np.zeros(32), geometry=StdLG(0, 1).geometry)


def test_field_io_round_trip(tmp_path):
    grid = Grid1D.from_span(GridKind.FULL_LINE, -5, 5, 64)
    fld = sample(StdHG(3), grid, 0.4)
    path = tmp_path / "f.csv"
    write_field(fld, path)
    back = read_field(path)
    assert back.grid == fld.grid
    assert back.evol == fld.evol
    assert back.geometry == fld.geometry
    assert np.array_equal(back.values, fld.values)  # bit-stable text format
    # byte-identical rewrite
    path2 = tmp_path / "g.csv"
    write_field(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_field_io_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# not a field file\n")
    with pytest.raises(ValueError):
        read_field(path)
    path.write_text('# canonica-field v1 {"kind": "full-line", "start": 0.0, '
                    '"step": 1.0, "count": 2, "geometry": {"type": "linear"}, "evol": 0.0}\n'
                    "0.0,1.0\n")
    with pytest.raises(ValueError, match="bad.csv:2"):
        read_field(path)


# ---------------------------------------------------------------------------
# field-file format: the per-row reference writer and reader below are the
# original implementation, kept as the definition of the format

def _reference_bytes(fld):
    header = fld.grid.to_header()
    header["geometry"] = fld.geometry.to_json()
    header["evol"] = fld.evol
    lines = ["# canonica-field v1 " + json.dumps(header, sort_keys=True)]
    for x, v in zip(fld.grid.points, fld.values):
        lines.append(f"{x:.16e},{v.real:.16e},{v.imag:.16e}")
    return ("\n".join(lines) + "\n").encode()


def _reference_read(path):
    """Values of a field file by the per-row loop (the coordinate is not read)."""
    with open(path) as fh:
        header = json.loads(fh.readline()[len("# canonica-field v1 "):])
        values = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected 'coord,re,im'")
            try:
                values.append(complex(float(parts[1]), float(parts[2])))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    if len(values) != header["count"]:
        raise ValueError(f"{path}: row count {len(values)} != declared {header['count']}")
    return np.array(values)


def _bits(values):
    return np.asarray(values, dtype=complex).view(np.uint64)


_EDGE_VALUES = [complex(-0.0, 1.0), 5e-324, 1e300, -1e-300, 0.1 + 0.2,
                complex(2.5, -0.0), complex(-0.0, -0.0)]


@pytest.mark.parametrize("fld", [
    SampledField(Grid1D(GridKind.FULL_LINE, -3.25, 0.1, 7), _EDGE_VALUES, evol=-0.7),
    SampledField(Grid1D(GridKind.HALF_LINE, 0.0, 0.37, 7), _EDGE_VALUES,
                 RadialType(0.5, -0.25), 1.5),
    # more rows than one formatted block
    SampledField(Grid1D.from_span(GridKind.FULL_LINE, -20.0, 20.0, 70001),
                 np.random.default_rng(3).standard_normal((70001, 2)) @ [1, 1j]),
], ids=["negative-start", "radial-type", "three-blocks"])
def test_write_field_golden_bytes(tmp_path, fld):
    path = tmp_path / "f.csv"
    write_field(fld, path)
    assert path.read_bytes() == _reference_bytes(fld)
    back = read_field(path)
    assert np.array_equal(_bits(back.values), _bits(fld.values))  # sign of zero included
    assert (back.grid, back.geometry, back.evol) == (fld.grid, fld.geometry, fld.evol)


def _edge_file(tmp_path):
    fld = SampledField(Grid1D(GridKind.FULL_LINE, -3.25, 0.1, 7), _EDGE_VALUES)
    path = tmp_path / "f.csv"
    write_field(fld, path)
    head, *rows = path.read_text().splitlines()
    return path, head, rows


@pytest.mark.parametrize("edit", [
    lambda rows: [rows[0], "", rows[1], "", "", *rows[2:], ""],
    lambda rows: [rows[0], "   ", *rows[1:3], "\t \t", *rows[3:]],
    lambda rows: ["  " + r.replace(",", " ,\t") + "  " for r in rows],
    lambda rows: [r + "\r" for r in rows],
], ids=["blank-lines", "whitespace-lines", "padded-fields", "crlf"])
@pytest.mark.parametrize("final_newline", [True, False])
def test_read_field_matches_row_loop(tmp_path, edit, final_newline):
    path, head, rows = _edge_file(tmp_path)
    path.write_bytes(("\n".join([head, *edit(rows)]) + "\n" * final_newline).encode())
    assert np.array_equal(_bits(read_field(path).values), _bits(_reference_read(path)))


@pytest.mark.parametrize("edit", [
    lambda rows: [rows[0], "1.0,2.0", *rows[2:]],
    lambda rows: [rows[0], rows[1].rsplit(",", 1)[0] + ",abc", *rows[2:]],
    lambda rows: [rows[0], "# a comment", *rows[1:]],
    lambda rows: [],
    lambda rows: ["", "  "],
], ids=["two-columns", "non-numeric", "comment-row", "empty-body", "blank-body"])
def test_read_field_errors_match_row_loop(tmp_path, edit):
    path, head, rows = _edge_file(tmp_path)
    path.write_text("\n".join([head, *edit(rows)]) + "\n")
    with pytest.raises(ValueError) as expected:
        _reference_read(path)
    with pytest.raises(ValueError) as got:
        read_field(path)
    assert str(got.value) == str(expected.value)


def test_write_field_memory_is_bounded():
    fld = sample(Gauss(1.0), Grid1D.from_span(GridKind.FULL_LINE, -20.0, 20.0, 400_000), 0.0)
    with tempfile.TemporaryDirectory() as tmp:
        tracemalloc.start()
        try:
            write_field(fld, os.path.join(tmp, "f.csv"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 16 * 2**20, f"write_field peak {peak / 2**20:.1f} MiB"


# ---------------------------------------------------------------------------
# row formatting: fields._format_rows against one f-string a value

_X87 = np.finfo(np.longdouble).nmant >= 63

def _reference_rows(rows):
    return "".join(f"{a:.16e},{b:.16e},{c:.16e}\n" for a, b, c in rows.tolist()).encode()


def _as_rows(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, np.zeros(-len(values) % 3)]).reshape(-1, 3)


def _ties():
    """Every float odd * 2**-k whose exact decimal has 18 significant digits, the
    last a 5: 17 digits are a rounding tie.  The smallest and largest odd m of
    each k and 50 drawn between them."""
    rng = np.random.default_rng(25)
    ties = []
    for k in range(1, 26):
        lo, hi = -(-10**17 // 5**k) | 1, min(10**18 // 5**k, 2**53 - 1)
        if lo > hi:
            continue
        drawn = rng.integers(lo, hi, 50, endpoint=True) | 1
        ties += [m * 2.0**-k for m in [lo, hi - (hi % 2 == 0), *drawn.tolist()]
                 if 10**17 <= m * 5**k < 10**18]
    return np.array(ties)


def _sweep_values():
    tens = np.array([float(f"1e{p}") for p in range(-323, 309)])
    edges = np.concatenate([
        np.nextafter(tens, 0.0), tens, np.nextafter(tens, np.inf),
        np.ldexp(1.0, np.arange(-1074, 1024)),
        _ties(),
        [np.nan, np.inf, 0.0, 5e-324, np.finfo(float).max],
    ])
    # random bit patterns carry both signs already
    random = np.random.default_rng(23).integers(0, 2**64, 10**6, dtype=np.uint64).view(float)
    return np.concatenate([random, edges, -edges])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=12))
def test_format_rows_matches_fstring_on_any_bit_pattern(bits):
    # NaN, +-inf, subnormals and -0.0 are all bit patterns
    rows = _as_rows(np.array(bits, dtype=np.uint64).view(float))
    assert fields._format_rows(rows) == _reference_rows(rows)


def test_format_rows_matches_fstring_on_sweep():
    ties = _ties()
    assert 2.0**-25 in ties and len(ties) > 1000
    rows = _as_rows(_sweep_values())
    assert fields._format_rows(rows) == _reference_rows(rows)
    assert fields._format_rows(_as_rows([2.0**-25, -(2.0**-25)])) == \
        b"2.9802322387695312e-08,-2.9802322387695312e-08,0.0000000000000000e+00\n"


def test_power_of_ten_table_is_correctly_rounded():
    for p, entry in enumerate(fields._POW10, start=fields._POW10_LO):
        if not np.isfinite(entry):  # above 1e308 where the long double is float64
            continue
        half_ulp = Fraction(*np.spacing(entry).as_integer_ratio()) / 2
        assert abs(Fraction(*entry.as_integer_ratio()) - Fraction(10)**p) <= half_ulp, p


def test_format_rows_with_a_float64_band_sends_every_nonzero_value_to_percent(monkeypatch):
    # the band of a long double that is only float64: no nonzero value is decided
    monkeypatch.setattr(fields, "_EPS", float(np.finfo(float).eps))
    values = _sweep_values()[::20]
    assert np.array_equal(fields._decimal(values)[2], values == 0)
    rows = _as_rows(values)
    assert fields._format_rows(rows) == _reference_rows(rows)


def _reference_scale(x):
    """(s, e): |x| * 10**(16 - e) in long double, with 10**16 <= s < 10**17 where
    that is finite."""
    with np.errstate(all="ignore"):
        a = np.abs(x)
        e = np.floor(np.log10(np.where(np.isfinite(a) & (a != 0), a, 1.0))).astype(np.int64)
        s = a.astype(np.longdouble) * fields._POW10[16 - fields._POW10_LO - e]
        fix = np.flatnonzero((s < 1e16) | (s >= 1e17))  # log10 off by one
        e[fix] += np.where(s[fix] < 1e16, -1, 1)
        s[fix] = a[fix].astype(np.longdouble) * fields._POW10[16 - fields._POW10_LO - e[fix]]
    return s, e


def _reference_decimal(x):
    """fields._decimal with the tie test in long double: the fraction of s must
    clear 1/2 by 2 eps s.  The float64 test must decide no value this leaves to %."""
    s, e = _reference_scale(x)
    with np.errstate(all="ignore"):
        d = s.astype(np.int64)
        frac = s - d
        decided = (s >= 1e16) & (s < 1e17) & (np.abs(frac - 0.5) > s * (2 * fields._EPS))
    d += frac > 0.5
    carry = d == 10**17
    d[carry] = 10**16
    e += carry
    zero = np.abs(x) == 0
    d[zero] = 0
    e[zero] = 0
    return d, e, decided | zero


def _band_edge_values():
    """Values whose long-double fraction lies within four of its last-place units
    of the band edge |frac - 1/2| = 2 eps s, on both sides of it."""
    x = np.random.default_rng(28).integers(0, 2**64, 10**6, dtype=np.uint64).view(float)
    x = x[np.isfinite(x) & (x != 0)]
    s, _ = _reference_scale(x)
    gap = np.abs(s - s.astype(np.int64) - 0.5) - s * (2 * fields._EPS)
    near = np.abs(gap) <= 4 * np.spacing(s)
    assert (gap[near] > 0).sum() > 100 and (gap[near] < 0).sum() > 100
    return x[near]


def _assert_decides_within_reference(x):
    d, e, decided = fields._decimal(x)
    ref_d, ref_e, ref_decided = _reference_decimal(x)
    assert not (decided & ~ref_decided).any()
    assert np.array_equal(d[decided], ref_d[decided])
    assert np.array_equal(e[decided], ref_e[decided])
    if _X87:  # and its margin is wider by at most 1e-14: the same values take %
        assert np.array_equal(decided, ref_decided)


@pytest.mark.parametrize("values", [_sweep_values, _band_edge_values],
                         ids=["sweep", "band-edge"])
def test_decimal_decides_no_value_the_long_double_rule_sends_to_percent(values):
    _assert_decides_within_reference(values())


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=12))
def test_decimal_decides_within_the_long_double_rule_on_any_bit_pattern(bits):
    _assert_decides_within_reference(np.array(bits, dtype=np.uint64).view(float))


@pytest.mark.skipif(not _X87, reason="the long double is narrower than x87's 64-bit significand")
def test_format_rows_sends_few_values_of_an_hg_file_to_percent():
    fld = sample(StdHG(3), Grid1D.from_span(GridKind.FULL_LINE, -20.0, 20.0, 100_000), 0.5)
    values = np.concatenate([fld.grid.points, fld.values.real, fld.values.imag])
    share = 1.0 - fields._decimal(values)[2].mean()
    assert share < 0.05, f"{share:.1%} of the values take %"


# ---------------------------------------------------------------------------
# row parsing: fields._parse_rows against float() a token


def _float_per_token(text):
    return np.array([float(t) for t in re.split(rb"[,\n]", text)[:-1]])


def _assert_parses_like_float(text):
    rows = fields._parse_rows(text)
    assert rows is not None
    assert np.array_equal(rows.ravel().view(np.uint64), _float_per_token(text).view(np.uint64))


def _decided(text):
    return fields._binary(*fields._split(text))[1]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda k: st.lists(st.integers(0, 2**64 - 1), min_size=3 * k, max_size=3 * k)))
def test_parse_rows_matches_float_on_any_bit_pattern(bits):
    # NaN, +-inf, subnormals and -0.0 are all bit patterns
    rows = np.array(bits, dtype=np.uint64).view(float).reshape(-1, 3)
    _assert_parses_like_float(fields._format_rows(rows))


def _exact_midpoints():
    """Midpoints between adjacent doubles that 17 digits spell exactly: t * 10**q
    with t * 5**q odd in [2**53, 2**54) lies halfway between multiples of 2**(q+1),
    and t / 2 with t odd in [2**53, 2**54) halfway between integers."""
    rng = np.random.default_rng(24)
    out = []
    for q in range(-1, 23):
        f = 5 ** max(q, 0)
        lo, hi = -(-(2**53) // f), (2**54 - 1) // f
        out += [Fraction(f * t) * Fraction(2) ** q
                for t in rng.integers(lo, hi, 20, endpoint=True).tolist()
                if t % 2 and 2**53 <= f * t < 2**54]
    return out


def _midpoint_tokens():
    """17-digit tokens one unit below, at and above midpoints between adjacent
    doubles: random normal and subnormal ones, the midpoint below every power of
    two (where the ulp halves), and exact midpoints; both signs of each."""
    rng = np.random.default_rng(26)
    lower = np.concatenate([
        rng.integers(1, 0x7FEFFFFFFFFFFFFF, 3000, dtype=np.uint64).view(float),
        np.nextafter(np.ldexp(1.0, np.arange(-1073, 1024)), 0.0),
    ])
    midpoints = [(Fraction(a) + Fraction(b)) / 2
                 for a, b in zip(lower.tolist(), np.nextafter(lower, np.inf).tolist())]
    tokens = []
    for m in midpoints + _exact_midpoints():
        e = math.floor(math.log10(m))
        e += (m >= Fraction(10) ** (e + 1)) - (m < Fraction(10) ** e)
        d = math.floor(m * Fraction(10) ** (16 - e))
        for k in range(d - 1, d + 3):
            if 10**16 <= k < 10**17:
                digits = f"{k // 10**16}.{k % 10**16:016d}e{e:+03d}"
                tokens += [digits, "-" + digits]
    return tokens


_SPECIAL_TOKENS = [
    "0.0000000000000000e+00", "-0.0000000000000000e+00", "0.0000000000000000e-308",
    "-0.0000000000000000e+999", "nan", "-nan", "inf", "-inf", "1e5", " 2.5 ",
    "1.7976931348623157e+308", "1.7976931348623158e+308", "1.7976931348623159e+308",
    "1.8000000000000000e+308", "9.9999999999999999e+307", "1.0000000000000000e-307",
    "2.2250738585072011e-308", "2.2250738585072014e-308", "4.9406564584124654e-324",
    "2.4703282292062327e-324", "2.4703282292062328e-324", "1.0000000000000000e+000",
    "-1.2345678901234567e-100", "0.5000000000000000e+00", "0.0000000000000001e-300",
    "1.0000000000000000e-400", "1.0000000000000000e+400", "1.0000000000000000E+01",
    "1_0000000000000000e+00", "-2_2345678901234567e-10",  # no '.': float() reads 1e16
    "9.0071992547409930e+15", "9.0071992547409950e+15",  # ties, to even: 2**53, 2**53 + 4
]


def _sweep_text():
    tokens = _midpoint_tokens() + _SPECIAL_TOKENS
    tokens += ["0.0"] * (-len(tokens) % 3)
    return "".join(",".join(tokens[i:i + 3]) + "\n" for i in range(0, len(tokens), 3)).encode()


def test_parse_rows_matches_float_on_sweep():
    text = _sweep_text()
    assert len(text) > 10**6
    _assert_parses_like_float(text)
    assert fields._parse_rows(b"9.0071992547409930e+15,9.0071992547409950e+15,-0.0\n") \
        .tolist() == [[2.0**53, 2.0**53 + 4, -0.0]]
    if _X87:  # most tokens take the long-double path, not float()
        assert _decided(text).mean() > 0.9
    # every written value, its neighbours, the writer's ties and a million bit patterns
    _assert_parses_like_float(fields._format_rows(_as_rows(_sweep_values())))


@pytest.mark.parametrize("exponent", [
    "e+0a", "e+/1", "e+:1", "e+1/", "e-1:", "e+10/", "e+1:0", "e*01", "E+01", "e+0100",
])
def test_binary_leaves_a_malformed_exponent_to_float(exponent):
    # '/' and ':' sit just below '0' and just above '9'
    assert not _decided(f"1.2345678901234567{exponent},0.0,0.0\n".encode())[0]


def test_parse_rows_with_a_float64_band_sends_every_nonzero_token_to_float(monkeypatch):
    # the band and the power table of a long double that is only float64, where
    # 10**309 and up are inf: no nonzero token is decided
    monkeypatch.setattr(fields, "_EPS", float(np.finfo(float).eps))
    with np.errstate(over="ignore"):
        monkeypatch.setattr(fields, "_POW10", fields._POW10.astype(float).astype(np.longdouble))
    text = _sweep_text()
    decided = _decided(text)
    assert decided.any() and not decided[_float_per_token(text) != 0].any()
    _assert_parses_like_float(text)


@pytest.mark.skipif(not _X87, reason="the long double is narrower than x87's 64-bit significand")
@pytest.mark.parametrize("evol", [0.0, 0.5])
def test_parse_rows_sends_few_tokens_of_an_hg_file_to_float(evol):
    fld = sample(StdHG(3), Grid1D.from_span(GridKind.FULL_LINE, -20.0, 20.0, 100_000), evol)
    text = fields._format_rows(np.column_stack((fld.grid.points, fld.values.real,
                                                fld.values.imag)))
    share = 1.0 - _decided(text).mean()
    assert share < 0.01, f"{share:.1%} of the tokens take float()"


def test_read_field_memory_is_bounded():
    fld = sample(Gauss(1.0), Grid1D.from_span(GridKind.FULL_LINE, -20.0, 20.0, 400_000), 0.0)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.csv")
        write_field(fld, path)
        tracemalloc.start()
        try:
            back = read_field(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 16 * 2**20, f"read_field peak {peak / 2**20:.1f} MiB"
    assert np.array_equal(_bits(back.values), _bits(fld.values))


def test_read_field_reads_blocks_of_lines(tmp_path):
    fld = sample(Gauss(4.0), Grid1D.from_span(GridKind.FULL_LINE, -20.0, 20.0, 20_000), 0.0)
    path = tmp_path / "f.csv"
    write_field(fld, path)
    head, *rows = path.read_bytes().split(b"\n")[:-1]
    path.write_bytes(b"\n".join([head, *rows]))  # no final newline
    assert np.array_equal(_bits(read_field(path).values), _bits(fld.values))
    path.write_bytes(b"\n".join([head, b" " * 10**6 + rows[0], *rows[1:], b""]))  # a long line
    assert np.array_equal(_bits(read_field(path).values), _bits(fld.values))
    rows[12_345] = b"0.0," + rows[12_345].split(b",", 1)[1]
    path.write_bytes(b"\n".join([head, *rows, b""]))
    with pytest.raises(FieldFileError, match="f.csv:12347: coordinate 0.0 is not grid point 12345"):
        read_field(path)


_HEADER = {"kind": "full-line", "start": 0.0, "step": 0.5, "count": 3,
           "geometry": {"type": "linear"}, "evol": 0.0}


def _write_raw(path, header, rows):
    path.write_text("# canonica-field v1 " + json.dumps(header) + "\n"
                    + "".join(f"{x!r},{x + 1!r},0.0\n" for x in rows))


@pytest.mark.parametrize("key", list(_HEADER))
def test_read_field_names_a_missing_header_key(tmp_path, key):
    path = tmp_path / "bad.csv"
    _write_raw(path, {k: v for k, v in _HEADER.items() if k != key}, [0.0, 0.5, 1.0])
    with pytest.raises(ValueError, match=f"bad.csv: header has no '{key}'"):
        read_field(path)


@pytest.mark.parametrize("header, message", [
    ({**_HEADER, "count": "3"}, "header 'count' must be an integer"),
    ({**_HEADER, "count": 3.0}, "header 'count' must be an integer"),
    ({**_HEADER, "step": True}, "header 'step' must be a number"),
    ({**_HEADER, "step": -0.5}, "header: grid step must be positive"),
    ({**_HEADER, "geometry": {"type": "radial"}}, "header 'geometry' has no 'm'"),
    ([0.0, 0.5], "header is not a JSON object"),
])
def test_read_field_rejects_a_malformed_header(tmp_path, header, message):
    path = tmp_path / "bad.csv"
    _write_raw(path, header, [0.0, 0.5, 1.0])
    with pytest.raises(ValueError, match=f"bad.csv: {message}"):
        read_field(path)


@pytest.mark.parametrize("key, value", [
    ("step", math.nan), ("start", math.nan), ("step", math.inf), ("evol", -math.inf),
])
def test_read_field_rejects_a_non_finite_header_number(tmp_path, key, value):
    # Python's json reads NaN and Infinity; the grid's points would all be NaN
    path = tmp_path / "bad.csv"
    _write_raw(path, {**_HEADER, key: value}, [0.0, 0.5, 1.0])
    with pytest.raises(FieldFileError, match=f"bad.csv: header '{key}' must be finite"):
        read_field(path)


@pytest.mark.parametrize("pad", ["", "\n \n"], ids=["one-call", "row-loop"])
@pytest.mark.parametrize("rows, lineno", [
    ([0.0, 0.5, 1.5], 4),  # last row shifted by two steps
    ([0.0, 1.0, 2.0], 3),  # the rows' step is twice the header's
    ([0.5, 1.0, 1.5], 2),  # every row shifted by a step
])
def test_read_field_checks_the_coordinates(tmp_path, pad, rows, lineno):
    path = tmp_path / "bad.csv"
    _write_raw(path, _HEADER, rows)
    path.write_text(path.read_text() + pad)
    with pytest.raises(ValueError, match=f"bad.csv:{lineno}: coordinate"):
        read_field(path)


def test_read_field_accepts_coordinates_within_the_tolerance(tmp_path):
    path = tmp_path / "f.csv"
    rows = [0.0, 0.1 + 1e-9, 0.2 - 1e-9]
    _write_raw(path, {**_HEADER, "step": 0.1}, rows)
    assert np.array_equal(read_field(path).values, np.add(rows, 1))


@pytest.mark.parametrize("count", [10**8, 10**12])
def test_read_field_allocates_by_the_body_not_the_declared_count(tmp_path, count):
    path = tmp_path / "bad.csv"
    _write_raw(path, {**_HEADER, "count": count}, [0.0, 0.5])
    tracemalloc.start()
    try:
        with pytest.raises(FieldFileError, match=f"bad.csv: row count 2 != declared {count}$"):
            read_field(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20, f"read_field peak {peak / 2**20:.1f} MiB"
