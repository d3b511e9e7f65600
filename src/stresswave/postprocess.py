r"""Kinematic reconstruction and snapshot output.

The solver carries only the stress field; displacement and particle
velocity are recovered on a uniform sampling grid by trapezoidal
integration of the strain and strain rate, anchored at u(0) = v(0) = 0:

    eps_i     = eps(sigma_i)
    u_i       = u_{i-1} + (eps_i + eps_{i-1}) dx / 2
    epsdot_i  = eps'(sigma_i) sigmadot_i
    v_i       = v_{i-1} + (epsdot_i + epsdot_{i-1}) dx / 2
    c_i       = sqrt(1 / (rho eps'(sigma_i)))

eps and eps' come from one evaluation of w = (b|sigma|)^a.

Output is CSV with a header row, rows ended by \r\n and every float as
"%.17g", which reads back to the same float: snapshot_t<t to 6
decimals>.csv holds x,sigma,u,v,eps,c and spacetime.csv stacks every
snapshot's rows, each prefixed by t.  Snapshots are written in blocks of
whole snapshots up to BLOCK_ROWS rows, in text that is exactly '%.17g' % v,
made a column of a block at a time without a dtoa call per float
(_format_g17): the 17 digits come from an exact two-product with a
double-double power of ten and the %g layout from byte tables, into one
zero-padded byte buffer whose zero bytes are deleted once per block; each
snapshot's slice goes to its file and, with t before each row, to
spacetime.csv.  A value this path cannot settle exactly (nan, inf, |v|
outside [1e-280, 1e280], or a fraction within 1e-7 of a rounding tie) is
formatted by Python's own %, one element at a time.  The tables are built
with integer arithmetic on the first write, not at import.  What depends
only on the sample points is done once per run: their cells and basis
values are cached per space, and the x column is formatted once per x.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache
from pathlib import Path

import numpy as np

from .constitutive import MaterialParams
from .fe_space import FeSpace

BLOCK_ROWS = 2048  # sample rows per block of output: whole snapshots, at least one


@dataclass(frozen=True)
class Samples:
    """FE solution sampled on a uniform grid of M+1 points."""

    x: np.ndarray
    sigma: np.ndarray
    sigma_dot: np.ndarray


@dataclass(frozen=True)
class SnapshotRecord:
    """Sampled stress plus reconstructed kinematic fields."""

    x: np.ndarray
    sigma: np.ndarray
    sigma_dot: np.ndarray
    u: np.ndarray
    v: np.ndarray
    eps: np.ndarray
    c: np.ndarray


@lru_cache(maxsize=1)  # a run samples every snapshot on one space at one M
def _sample_points(space: FeSpace, M: int) -> tuple:
    """The M+1 uniformly spaced points (read-only) and their evaluator."""
    x = np.linspace(space.x_left, space.x_right, M + 1)
    x.flags.writeable = False
    return x, space.evaluator(x)


def sample_solution(space: FeSpace, Sigma: np.ndarray, Sigma_dot: np.ndarray,
                    M: int) -> Samples:
    """FE fields (n_dofs or (k, n_dofs)) at M+1 uniform points (cached per space and M)."""
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    x, at_x = _sample_points(space, M)
    sigma, sigma_dot = at_x(np.array([Sigma, Sigma_dot]))
    return Samples(x=x, sigma=sigma, sigma_dot=sigma_dot)


def reconstruct(samples: Samples, p: MaterialParams) -> SnapshotRecord:
    """Strain, displacement, particle velocity and wave speed from samples, row by row."""
    dx = np.diff(samples.x)
    if not np.allclose(dx, dx[0], rtol=1e-10, atol=0.0):
        raise ValueError("sample spacing must be uniform")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        eps, fp = p.law.strain(samples.sigma)
        c = p.law.speed(fp, samples.sigma)
    eps_dot = fp * samples.sigma_dot

    u = np.zeros_like(eps)
    v = np.zeros_like(eps)
    u[..., 1:] = np.cumsum(0.5 * (eps[..., 1:] + eps[..., :-1]) * dx, axis=-1)
    v[..., 1:] = np.cumsum(0.5 * (eps_dot[..., 1:] + eps_dot[..., :-1]) * dx,
                           axis=-1)
    return SnapshotRecord(x=samples.x, sigma=samples.sigma,
                          sigma_dot=samples.sigma_dot,
                          u=u, v=v, eps=eps, c=c)


def snapshot_filename(t: float) -> str:
    return f"snapshot_t{t:.6f}.csv"


# Exact "%.17g" text without a dtoa call per float.  With E = floor(log10|x|)
# and 10^(16-E) = hi + lo in double-double, V = |x| 10^(16-E) is p + r with
# p = fl(|x| hi) and r = (|x| hi - p) + |x| lo: Dekker's two-product makes
# |x| hi - p exact, so r is off by about 1e-15 and V rounds to the 17 digits
# D correctly unless its fraction is near one half.  A value's text is one
# row of bytes with zero bytes between its parts, deleted when written:
#     sign | "0.000" (E < 0) | integer digits | "." | fraction digits | "e+308"
_W = 46
_E_MIN, _E_MAX = -281, 280  # floor(log10|x|) for 1e-280 <= |x| <= 1e280
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter for float64


@cache
def _g17_tables():
    """Per E, from integer arithmetic: 10^(16-E) as hi, the two Veltkamp
    halves of hi, and lo; the count of integer digits; the text before and
    after the digits.  And the ASCII of 0000-9999 as little-endian uint32."""
    pow10, n_int, text = [], [], []
    for e in range(_E_MIN, _E_MAX + 1):
        if e <= 16:
            hi = float(10**(16 - e))
            lo = float(10**(16 - e) - int(hi))
        else:
            n = 10**(e - 16)
            hi = 1 / n
            num, den = hi.as_integer_ratio()
            lo = (den - num * n) / (den * n)
        pow10.append((hi, lo))
        if -4 <= e < 0:
            n_int.append(0)
            text.append((b"0." + b"0" * (-1 - e)).ljust(10, b"\0"))
        elif 0 <= e < 17:
            n_int.append(e + 1)
            text.append(b"\0" * 10)
        else:
            n_int.append(1)
            text.append(b"\0" * 5 + (b"e%+03d" % e).ljust(5, b"\0"))
    hi, lo = np.array(pow10).T
    t = hi * _SPLIT
    hh = t - (t - hi)
    c = np.arange(10000, dtype=np.uint32)
    ascii4 = (0x30303030 + c // 1000 + (c // 100 % 10 << 8)
              + (c // 10 % 10 << 16) + (c % 10 << 24)).astype("<u4")
    text = np.frombuffer(b"".join(text), np.uint8).reshape(-1, 10).T
    return (np.array([hi, hh, hi - hh, lo]), np.array(n_int, np.uint8),
            text.copy(), ascii4)


def _format_g17(values) -> np.ndarray:
    """'%.17g' % v of every float64 v in `values` as one row of ASCII bytes,
    padded by zero bytes: shape values.shape + (w,), w <= 46.

    A value the fast path cannot settle exactly (|x| outside [1e-280,
    1e280], nan, inf, or V within 1e-7 of a rounding tie) is formatted by
    Python's own %, so every row is exact by construction.
    """
    x = np.asarray(values, dtype=float).ravel()
    pow10, n_int, affix, ascii4 = _g17_tables()
    mag = np.abs(x)
    zero = mag == 0.0
    ok = (mag >= 1e-280) & (mag <= 1e280)
    a = np.where(ok, mag, 1.0)  # zero and the slow path take the layout of 1
    e = np.floor(np.log10(a)).astype(np.intp) - _E_MIN  # tables' index
    hi, hh, hl, lo = np.take(pow10, e, axis=1)
    t = a * _SPLIT
    ah = t - (t - a)
    al = a - ah
    p = a * hi
    r = (((ah * hh - p) + ah * hl + al * hh) + al * hl) + a * lo
    whole = np.floor(r)
    frac = r - whole
    d = p.astype(np.int64) + whole.astype(np.int64)  # floor(V)
    up = frac > 0.5
    ok &= (d >= 10**16) & (d + up < 10**17) & (np.abs(frac - 0.5) >= 1e-7)
    d += up

    n = x.size
    lead = d // 10**16
    d -= lead * 10**16
    chunks = np.empty((4, n), np.int64)
    for i, scale in enumerate((10**12, 10**8, 10**4)):
        np.floor_divide(d, scale, out=chunks[i])
    chunks[3] = d
    chunks[1:] -= chunks[:3] * 10**4
    digits = np.empty((17, n), np.uint8)
    digits[0] = lead + 48 - zero  # 0 prints as "0"
    digits[1:].reshape(4, 4, n)[...] = \
        ascii4[chunks].view(np.uint8).reshape(4, n, 4).transpose(0, 2, 1)
    k = np.arange(17, dtype=np.uint8)[:, None]
    nd = ((digits != 48).view(np.uint8) * (k + 1)).max(axis=0)  # no trailing 0
    before = n_int[e]

    out = np.empty((_W, n), np.uint8)
    out[0] = np.signbit(x).view(np.uint8) * 45
    np.take(affix[:5], e, axis=1, out=out[1:6])
    integer = k < before
    out[6:23] = digits * integer.view(np.uint8)
    out[23] = ((nd > before) & (before > 0)).view(np.uint8) * 46
    out[24:41] = digits * ((k < nd) & ~integer).view(np.uint8)
    np.take(affix[5:], e, axis=1, out=out[41:])
    slow = np.flatnonzero(~(ok | zero))
    if slow.size:
        text = b"".join((b"%.17g" % v).ljust(_W, b"\0")
                        for v in x[slow].tolist())
        out[:, slow] = np.frombuffer(text, np.uint8).reshape(-1, _W).T
    out = out[out.any(axis=1)]  # drop the byte slots no value uses
    return out.T.reshape(np.shape(values) + (len(out),))


@lru_cache(maxsize=1)  # a run writes every snapshot at the same x
def _x_text(x: bytes) -> np.ndarray:
    """_format_g17 of x (float64 bytes), kept for the next snapshot."""
    text = _format_g17(np.frombuffer(x))
    text.flags.writeable = False
    return text


def write_snapshot(record: SnapshotRecord, t: float | list, directory) -> Path:
    """Write the CSVs of one snapshot (1-D fields, a float t) or of a block
    ((k, M+1) fields, k times t) into `directory`, append them to
    spacetime.csv and return the last one's path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    times = np.atleast_1d(t).tolist()
    fields = [_x_text(np.asarray(record.x, dtype=float).tobytes())]
    fields += [_format_g17(v) for v in (record.sigma, record.u, record.v,
                                        record.eps, record.c)]
    width = sum(f.shape[-1] for f in fields) + len(fields) + 1
    buf = bytearray(b",") * (len(times) * len(fields[0]) * width)
    rows = np.frombuffer(buf, np.uint8).reshape(len(times), -1, width)
    at = 0
    for f in fields:  # each column of text, then a comma of the fill
        rows[..., at:at + f.shape[-1]] = f
        at += f.shape[-1] + 1
    rows[..., -2:] = np.frombuffer(b"\r\n", np.uint8)  # ends the last column
    body = buf.translate(None, b"\0")
    ends = np.cumsum([np.count_nonzero(r) for r in rows[:-1]]).tolist() + [len(body)]
    with open(directory / "spacetime.csv", "ab") as spacetime:
        if spacetime.tell() == 0:
            spacetime.write(b"t,x,sigma,u,v,eps,c\r\n")
        for t, start, end in zip(times, [0] + ends, ends):
            text = body if len(times) == 1 else body[start:end]  # one: no copy
            path = directory / snapshot_filename(t)
            with open(path, "wb") as fh:
                fh.writelines((b"x,sigma,u,v,eps,c\r\n", text))
            t_text = b"%.17g," % t  # each spacetime row starts with it
            spacetime.writelines((t_text, memoryview(
                text.replace(b"\n", b"\n" + t_text))[:-len(t_text)]))
    return path
