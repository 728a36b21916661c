"""Direct evolution of the master equation for rho(x, y, t) on an N x N grid.

End-to-end validation path: build a Gaussian state from target second
moments, step the full six-term PDE, and read the moments back off the grid.
Space uses 4th-order centered differences.  Time uses Lawson's
integrating-factor RK4 (Lawson, SIAM J. Numer. Anal. 4, 372 (1967); Hochbruck
& Ostermann, Acta Numerica 19, 209 (2010)): the stiff pointwise potential +
decoherence factor P(x, y) = -i(M omega0^2/2 hbar)(x^2 - y^2)
- (Dpp/hbar^2)(x - y)^2 is applied exactly as exp(P dt/2), and RK4 steps only
the stencil terms, so the step size is bounded by their spectrum alone.  That
spectrum is bounded through the numerical range: the kinetic stencil is
anti-hermitian and the position-diffusion stencil hermitian, so their sum's
numerical range lies in the disk whose radius is the hypot of their norms,
and the friction + anomalous stencil widens it by its norm (_radius_bound).

The discretization is built so that the discrete trace is conserved exactly
(up to roundoff and boundary leakage): P and every multiplicative term vanish
on the diagonal, the kinetic term telescopes under the trace, and the
position-diffusion term uses the antisymmetric first-derivative stencil
composed with itself.  P is hermitian-symmetric, so exp(P dt/2) keeps
rho = rho^dagger.

The Dpp term damps coherences like exp(-p2c (x - y)^2 / 2 hbar^2), so the
state is stored and stepped only on the band |x - y| <= K dx, with K worked
out from the analytic moment trajectory (plan_steps).  Of the band only the
upper half 0 <= y - x <= K dx is stored; the lower half is its mirror image
under rho = rho^dagger.  The band is both less work per step and a larger
step, since the friction bound grows with max |x - y|.  It is held in one
zero-bordered row-major buffer of N + 4 rows of K + 5 cells, in which each
stencil neighbour sits at a fixed flat offset, so every stencil read is one
contiguous run of the buffer; at K = N - 1 the buffer is the full grid's
zero-padded (N + 4)^2.  The grid is expanded back to N x N only at the end.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Optional, TextIO, Union

import numpy as np

from .core import StabilityError, StateError, SystemParams
from .diffusion import DiffusionConstants
from .dynamics import MomentState, analytic_solution

CSV_FLOAT_FMT = "%.17g"
_EDGE_FRACTION = 1e-10
# a Gaussian's |rho| at the band edge |x - y| = K dx, relative to its peak
_BAND_EDGE = 1e-12
# the update at m = 0 reads m <= 4, so a band of K >= 5 never reaches it
_MIN_BAND = 5
# analytic moment samples per call while planning the band
_SAMPLE_CHUNK = 4096
# max_k |16 sin k - 2 sin 2k|, reached at cos k = 1 - sqrt(3/2)
_D1_SYMBOL_MAX = 4.0 * math.sqrt(1.0 - (1.0 - math.sqrt(1.5)) ** 2) * (3.0 + math.sqrt(1.5))
# dt * R: a disk radius, below the radius 2.61 of the left half-disk inside
# RK4's stability region
_LAWSON_CFL = 2.5
# numpy aligns array data to 16 bytes, so where a buffer starts within a
# cache line followed the process's allocation history and moved the
# stepping time by up to 20% with the same code and output; every buffer
# starts on a 64-byte boundary instead
_ALIGN = 64


def _aligned_zeros(shape: tuple) -> np.ndarray:
    """A complex zero array of ``shape`` whose data starts on an _ALIGN-byte
    boundary."""
    size = math.prod(shape) * 16
    raw = np.zeros(size + _ALIGN, dtype=np.uint8)
    start = -raw.ctypes.data % _ALIGN
    return raw[start:start + size].view(complex).reshape(shape)


class BoundaryMassWarning(UserWarning):
    """|rho| at the grid edge or the band edge exceeds 1e-10 of the peak;
    results are suspect."""


@dataclass
class DensityGrid:
    """rho(x_i, x_j) on a shared axis x of N points spanning [-L, L]."""

    x: np.ndarray
    values: np.ndarray
    t: float = 0.0

    @property
    def N(self) -> int:
        return len(self.x)

    @property
    def L(self) -> float:
        return float(self.x[-1])

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])

    def trace(self) -> float:
        return float(np.real(np.diagonal(self.values)).sum() * self.dx)

    def hermiticity_residual(self) -> float:
        """max |rho - rho^dagger| relative to the peak of |rho|."""
        peak = float(np.abs(self.values).max())
        if peak == 0.0:
            return 0.0
        return float(np.abs(self.values - self.values.conj().T).max()) / peak

    def write_csv(self, f: Union[str, TextIO], params: Optional[SystemParams] = None) -> None:
        """Snapshot rows ``x,y,re,im`` after one header line with N, L, t, params."""
        if isinstance(f, str):
            with open(f, "w", newline="") as fh:
                self.write_csv(fh, params)
            return
        meta = f"# N={self.N} L={CSV_FLOAT_FMT % self.L} t={CSV_FLOAT_FMT % self.t}"
        if params is not None:
            meta += (f" M={params.M:g} omega0={params.omega0:g} gamma={params.gamma:g}"
                     f" T={params.T:g} omega_c={params.omega_c:g}"
                     f" hbar={params.hbar:g} kB={params.kB:g}")
        template = ",".join([CSV_FLOAT_FMT] * 4) + "\r\n"
        x = self.x.tolist()
        body = "".join([template % (xi, xj, re, im)
                        for xi, res, ims in zip(x, self.values.real.tolist(),
                                                self.values.imag.tolist())
                        for xj, re, im in zip(x, res, ims)])
        f.write(meta + "\r\nx,y,re,im\r\n" + body)


def gaussian_state(m: MomentState, N: int = 256, L: float = 0.0,
                   hbar: float = 1.0) -> DensityGrid:
    """Gaussian rho(x,y) with the given second moments, trace-normalized.

    rho = exp[-(x+y)^2/(8<q^2>) - p2c (x-y)^2/(2 hbar^2)
              + i <qp+pq>(x^2-y^2)/(4 hbar <q^2>)]
    with p2c = <p^2> - (<qp+pq>/2)^2/<q^2>.  L defaults to 8*sqrt(<q^2>).
    Rejects states violating u >= hbar^2/4 and boxes below L = 8*sqrt(<q^2>).
    """
    if m.q2 <= 0.0 or m.p2 <= 0.0:
        raise StateError("need positive <q^2> and <p^2>")
    u = m.uncertainty()
    if u < 0.25 * hbar * hbar * (1.0 - 1e-12):
        raise StateError(
            f"uncertainty product u={u:g} violates hbar^2/4={0.25 * hbar * hbar:g}")
    L_min = 8.0 * math.sqrt(m.q2)
    if L == 0.0:
        L = L_min
    if L < L_min * (1.0 - 1e-12):
        raise StateError(f"grid half-width {L:g} below 8*sqrt(<q^2>)={L_min:g}")

    x = np.linspace(-L, L, N)
    p2c = m.p2 - (m.qp / 2.0) ** 2 / m.q2
    X = x[:, None]
    Y = x[None, :]
    phase = m.qp * (X * X - Y * Y) / (4.0 * hbar * m.q2)
    rho = np.exp(-(X + Y) ** 2 / (8.0 * m.q2) - p2c * (X - Y) ** 2 / (2.0 * hbar * hbar)
                 + 1j * phase)
    g = DensityGrid(x, rho, t=m.t)
    g.values /= g.trace()
    return g


def _radius_bound(dx: float, K: int, p: SystemParams, d: DiffusionConstants) -> float:
    """R: an upper bound on the numerical radius, and so on the spectral
    radius, of the stencil terms that Lawson RK4 steps explicitly on the
    band |x - y| <= K dx.

    With s = max_k |16 sin k - 2 sin 2k| (the symbol of the unscaled 4th-order
    first-derivative stencil) and |ca| = |cb| = |2i Dpq/hbar -+ gamma|, the
    operator norms are
      kinetic            c_kin  = (hbar/2M) * 64/(12 dx^2)
      friction+anomalous c_fric = K dx (|ca| + |cb|) * s/(12 dx)
      position diffusion c_dqq  = |Dqq| (2 s/(12 dx))^2
    Zeroing the cells off the grid or off the band is a projection P, so it
    adds nothing to a norm.  The kinetic term is P (i S) P with S a real
    symmetric stencil, so it is anti-hermitian and its numerical range lies
    in i[-c_kin, c_kin]; the position-diffusion term is Dqq (P D P)^2 with
    D = d1x + d1y a real antisymmetric stencil, so it is hermitian and its
    numerical range lies in [-c_dqq, c_dqq].  <v, (kin + Dqq) v> is then
    i a + b with |a| <= c_kin and |b| <= c_dqq, so their sum's numerical
    radius is at most hypot(c_kin, c_dqq); the friction + anomalous term
    adds at most its norm, and every eigenvalue lies within the numerical
    radius.
    """
    c_kin = p.hbar / (2.0 * p.M) * 64.0 / (12.0 * dx * dx)
    d1 = _D1_SYMBOL_MAX / (12.0 * dx)
    c_fric = K * dx * 2.0 * math.hypot(2.0 * d.Dpq / p.hbar, p.gamma) * d1
    c_dqq = abs(d.Dqq) * (2.0 * d1) ** 2
    return math.hypot(c_kin, c_dqq) + c_fric


def stable_dt(g: DensityGrid, p: SystemParams, d: DiffusionConstants) -> float:
    """Largest step the bound allows on the whole N x N grid, 2.5/R with R
    the stencil bound at K = N - 1 (max |x - y| = 2L), so that
    dt*|lambda| <= 2.5 for every eigenvalue lambda of the explicitly stepped
    part.  The 2.5 is the radius of a disk that holds every dt*lambda, not a
    fit to the shape of RK4's stability region: the left half of the disk
    lies inside the radius 2.61 to which that region fills the left
    half-plane (2.83 on the imaginary axis, 2.79 on the negative real one).
    The band operators also have eigenvalues with a positive real part;
    those modes grow under the stencil terms' own flow too, and the disk keeps
    dt*lambda small for them.  evolve() steps a narrower band and takes the
    larger step of plan_steps()."""
    return _LAWSON_CFL / _radius_bound(g.dx, g.N - 1, p, d)


def suggested_half_width(q2_max: float, p: SystemParams, d: DiffusionConstants,
                         N: int = 256) -> float:
    """Half-width that fits the state (L >= 8*sqrt(q2_max)) and, where room
    allows (up to 1.5x that), the L at which the spacing scale M dx^2/hbar
    equals the decoherence scale hbar^2/(Dpp L^2).  That balance maximized
    the old explicit step; the Lawson step takes decoherence exactly, so it
    no longer sets dt, but the formula is kept so existing grids (and their
    CSV rows) stay as they are."""
    L_min = 8.0 * math.sqrt(q2_max)
    if d.Dpp <= 0.0:
        return L_min
    L_bal = (p.hbar ** 3 * (N - 1) ** 2 / (4.0 * p.M * d.Dpp)) ** 0.25
    return max(L_min, min(L_bal, 1.5 * L_min))


class _Band:
    """Upper-band storage of a hermitian N x N density matrix:
    D[i, m] = rho(x_i, x_{i+m}) for 0 <= m <= K, with zeros wherever i + m
    leaves the grid.  The lower half is the mirror image
    rho(x_{i+m}, x_i) = conj D[i, m], so it is not stored.

    D lives in a zero-bordered, row-major buffer of N + 4 rows and
    W = K + 5 columns, D[i, m] at row i + 2 and column m + 2: two rows of
    the box's zero border above and below, the mirror columns m = -2, -1 on
    the left and two zero columns beyond the band edge on the right.
    x - y = -m dx depends on the column alone and the trace is column 0.
    At K = N - 1 the buffer is the full grid's zero-padded (N + 4)^2.
    """

    def __init__(self, n: int, K: int):
        self.n, self.K, self.w = n, K, K + 5
        self._i = np.arange(n)[:, None]
        self._m = np.arange(K + 1)
        rows, cols = np.nonzero(self._i + self._m < n)
        self._cells = self.index(rows, cols)
        # rho(x_i, x_{i+m}) and its mirror rho(x_{i+m}, x_i) in the N x N array
        self._upper = rows * n + rows + cols
        self._lower = (rows + cols) * n + rows

    def index(self, i, m):
        """Flat index of D[i, m] in the buffer."""
        return (i + 2) * self.w + m + 2

    def buffer(self) -> np.ndarray:
        return _aligned_zeros((self.n + 4, self.w))

    def band(self, buf: np.ndarray) -> np.ndarray:
        """D as an N x (K + 1) view of the buffer."""
        return buf[2:self.n + 2, 2:self.K + 3]

    def from_full(self, values: np.ndarray) -> np.ndarray:
        """The buffer of the hermitian part (rho + rho^dagger)/2, which is rho
        itself, bit for bit, when rho is hermitian."""
        buf = self.buffer()
        flat = values.ravel()
        buf.ravel()[self._cells] = 0.5 * (flat[self._upper] + flat[self._lower].conj())
        return buf

    def to_full(self, buf: np.ndarray) -> np.ndarray:
        values = np.zeros((self.n, self.n), dtype=complex)
        flat = buf.ravel()[self._cells]
        values.ravel()[self._lower] = flat.conj()
        values.ravel()[self._upper] = flat
        return values

    def sample(self, buf: np.ndarray, x: np.ndarray, t: float, hbar: float) -> dict:
        """Grid moments, trace and hermiticity residual read off the band.
        The mirror is exact off the diagonal, so rho - rho^dagger is
        2i Im rho(x, x) there alone."""
        m = self.moments(buf, x, t, hbar)
        band = self.band(buf)
        dx = float(x[1] - x[0])
        trace = float(np.real(band[:, 0]).sum() * dx)
        peak = float(np.abs(band).max())
        herm = 2.0 * float(np.abs(band[:, 0].imag).max()) / peak if peak > 0.0 else 0.0
        return {"t": t, "q2": m.q2, "p2": m.p2, "qp": m.qp, "trace": trace, "herm": herm}

    def moments(self, buf: np.ndarray, x: np.ndarray, t: float, hbar: float) -> MomentState:
        """<q^2> from the diagonal; <p^2>, <qp+pq> from 4th-order stencils in
        the anti-diagonal direction u = x - y at y = x (m <= 4)."""
        band = self.band(buf)
        if not np.all(np.isfinite(band)):
            raise StateError("grid contains non-finite values")
        n = self.n
        dx = float(x[1] - x[0])
        f0 = band[:, 0]
        q2 = float((x * x * np.real(f0)).sum() * dx)

        def antidiag(k: int) -> np.ndarray:
            # f_-k(i) = rho(x_{i-k}, x_{i+k}) = D[i - k, 2k]; 0 off the grid
            v = np.zeros(n, dtype=complex)
            if 2 * k <= self.K:
                v[k:] = band[:n - k, 2 * k]
            return v

        fm1, fm2 = antidiag(1), antidiag(2)
        fp1, fp2 = fm1.conj(), fm2.conj()   # f_k = conj f_-k
        du = 2.0 * dx
        dfdu = (fm2 - fp2 + 8.0 * (fp1 - fm1)) / (12.0 * du)
        d2fdu2 = (16.0 * (fp1 + fm1) - (fp2 + fm2) - 30.0 * f0) / (12.0 * du * du)

        p2 = float((-hbar * hbar) * np.real(d2fdu2.sum()) * dx)
        qp = float(np.real(-2j * hbar * (x * dfdu).sum() * dx))
        return MomentState(q2, p2, qp, t=t)


class _BandOperator(_Band):
    """The six-term master equation on the band, split for Lawson RK4 and
    tuned for repeated calls: ``rhs`` evaluates the stencil terms (kinetic,
    friction + anomalous, position diffusion), and the pointwise potential +
    decoherence factor P enters each step only through E = exp(P dt/2).

    An x-neighbour rho(x_{i+a}, y) is D[i + a, m - a] and a y-neighbour is
    D[i, m + b].  In the row-major buffer they sit a (W - 1) and b cells
    from D[i, m], so every stencil read is one contiguous run of N W cells,
    shifted by that offset from the run that starts at D[0, 0] and taken as
    an N x W array.  Column m <= K of that array is D[:, m]; its last four
    columns are pad (the two zero columns beyond the band edge, then the
    next row's mirror columns), where the arithmetic makes values that are
    never read.  Every output is zeroed there and off the grid (i + m >= N)
    on every pass, so the zero border stays zero.  The mirror columns
    m = -1, -2 of an input are refilled with conj D[i + m, -m] before each
    pass.  The state, the RK4 stage and the inner derivative of the Dqq
    term are such buffers, so no pass copies its input in.

    The border is the clamped boundary both of the box and of the band, and
    inside the band the discrete operator is the full grid's: every term
    maps a hermitian rho to a hermitian one, so the lower half it would
    compute is the mirror of the upper.  Every array operation is over
    contiguous memory and writes into a preallocated buffer: at N = 256 the
    evolution is memory bound.
    """

    def __init__(self, x: np.ndarray, p: SystemParams, d: DiffusionConstants, K: int):
        n = len(x)
        super().__init__(n, K)
        w = self.w
        dx = float(x[1] - x[0])
        col = np.arange(w)
        # x - y over the run, as a C-ordered N x W complex array like rhs's
        # operand: a broadcast row with a float-to-complex cast multiplies at
        # half speed, and astype would copy the broadcast in Fortran order
        self.xmy = np.broadcast_to(np.where(col <= K, -col * dx, 0.0), (n, w)).astype(
            complex, order="C")
        self.xpy = x[:, None] + x[np.minimum(self._i + col, n - 1)]
        # P = -i c_pot (x^2 - y^2) - c_dec (x - y)^2
        self.c_pot = p.M * p.omega0 ** 2 / (2.0 * p.hbar)
        self.c_dec = d.Dpp / p.hbar ** 2
        c1 = 1.0 / (12.0 * dx)
        c2 = 1.0 / (12.0 * dx * dx)
        self.c_kin = (1j * p.hbar / (2.0 * p.M)) * c2
        # friction -gamma*(d1x - d1y) and anomalous c*(d1x + d1y) fold into
        # xmy * (ca*d1x + cb*d1y)
        self.ca = 2j * d.Dpq / p.hbar - p.gamma
        self.cb = 2j * d.Dpq / p.hbar + p.gamma
        self.c1 = c1
        # both first derivatives of the composed Dqq stencil carry 1/(12 dx)
        self.cDqq = d.Dqq * c1 * c1

        i, j = self._i, self._i + self._m
        inside = j < n
        # the outermost ring of the box is clamped to zero after each step;
        # leakage shows one ring in, and at the band edge one column in
        def ring(k: int) -> np.ndarray:
            return self.index(*np.nonzero(inside & ((i == k) | (i == n - 1 - k) | (j == k)
                                                    | (j == n - 1 - k))))

        self._ring, self._ring_in = ring(0), ring(1)
        self._band_edge = self.index(*np.nonzero(inside & (self._m == K - 1)))
        # the cells of the run that zeroing keeps at zero: pad and off the grid
        self._dead = self.index(*np.nonzero((col > K) | (self._i + col >= n)))

        shape = (n, w)
        self._g = self.buffer()
        self._stage = self.buffer()
        self._acc = self.buffer()
        self._k = self.buffer()
        self._factor = self.buffer()
        self._b1 = _aligned_zeros(shape)
        self._b2 = _aligned_zeros(shape)
        self._t1 = _aligned_zeros(shape)
        self._t2 = _aligned_zeros(shape)
        self._factor_dt: Optional[float] = None

    def _run(self, buf: np.ndarray) -> np.ndarray:
        """The run of buf from D[0, 0]: a view of its N W cells as an N x W
        array (a buffer that is not contiguous raises ValueError)."""
        return np.ndarray((self.n, self.w), buf.dtype, buf, self.index(0, 0) * buf.itemsize)

    def _neighbours(self, buf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The x-neighbours D[i+a, m-a] and y-neighbours D[i, m+b] of the
        run, indexed by offset + 2: two stacks of five runs of buf, a (W - 1)
        and b cells apart.  Each run is a contiguous N x W array."""
        n, w, size = self.n, self.w, buf.itemsize
        first = self.index(0, 0)
        return (np.ndarray((5, n, w), buf.dtype, buf, (first - 2 * (w - 1)) * size,
                           ((w - 1) * size, w * size, size)),
                np.ndarray((5, n, w), buf.dtype, buf, (first - 2) * size,
                           (size, w * size, size)))

    def _mirror(self, buf: np.ndarray) -> None:
        """Columns m = -1, -2 of a buffer: rho(x_i, x_{i-c}) =
        conj D[i - c, c], left at 0 where i - c leaves the grid."""
        n = self.n
        for c in (1, 2):
            np.conjugate(buf[2:n + 2 - c, 2 + c], out=buf[2 + c:n + 2, 2 - c])

    def factor(self, dt: float) -> np.ndarray:
        """E = exp(P dt/2) as a buffer, rebuilt in place only when dt
        changes.  P is exactly 0 on the diagonal, so E is exactly 1 there,
        and on the pad."""
        if dt != self._factor_dt:
            E = self._run(self._factor)
            h = 0.5 * dt
            xmy = self.xmy.real
            E.real[...] = xmy * xmy * (-h * self.c_dec)
            # x^2 - y^2 = (x + y)(x - y)
            np.multiply(self.xpy, xmy, out=E.imag)
            E.imag *= -h * self.c_pot
            np.exp(E, out=E)
            self._factor_dt = dt
        return self._factor

    @staticmethod
    def _d1_pair(cx, cy, out, tmp, tmp2):
        """out = unscaled 4th-order (d/dx + d/dy) from the neighbour runs."""
        np.subtract(cx[0], cx[4], out=out)
        np.subtract(cy[0], cy[4], out=tmp)
        out += tmp
        np.subtract(cx[3], cx[1], out=tmp)
        np.subtract(cy[3], cy[1], out=tmp2)
        tmp += tmp2
        tmp *= 8.0
        out += tmp

    def rhs(self, rho: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The stencil terms of the buffer rho, written into the buffer out.
        Refills rho's mirror columns; writes only out's run."""
        b1, b2, t1, t2 = self._b1, self._b2, self._t1, self._t2
        self._mirror(rho)
        cx, cy = self._neighbours(rho)
        o = self._run(out)

        # first derivatives (unscaled by c1 until used)
        np.subtract(cx[0], cx[4], out=b1)
        np.subtract(cx[3], cx[1], out=t1)
        t1 *= 8.0
        b1 += t1
        np.subtract(cy[0], cy[4], out=b2)
        np.subtract(cy[3], cy[1], out=t1)
        t1 *= 8.0
        b2 += t1

        # kinetic: (d2x - d2y); the -30*f/12dx^2 terms cancel between the axes
        np.add(cx[1], cx[3], out=o)
        np.add(cy[1], cy[3], out=t1)
        o -= t1
        o *= 16.0
        np.add(cx[0], cx[4], out=t1)
        o -= t1
        np.add(cy[0], cy[4], out=t1)
        o += t1
        o *= self.c_kin

        # friction + anomalous: xmy * (ca*d1x + cb*d1y) * c1
        np.multiply(b1, self.ca * self.c1, out=t1)
        np.multiply(b2, self.cb * self.c1, out=t2)
        t1 += t2
        t1 *= self.xmy
        o += t1

        if self.cDqq != 0.0:
            # position diffusion (d/dx + d/dy)^2 via composition of the
            # antisymmetric first-derivative stencil: conserves the discrete
            # trace exactly.  The inner derivative is zero off the grid, as
            # in the box's border, and hermitian like rho.
            g = self._g
            np.add(b1, b2, out=self._run(g))
            g.ravel()[self._dead] = 0.0
            self._mirror(g)
            self._d1_pair(*self._neighbours(g), t1, t2, b2)
            t1 *= self.cDqq
            o += t1
        out.ravel()[self._dead] = 0.0
        return out

    def lawson_inplace(self, rho: np.ndarray, dt: float) -> None:
        """Advance the buffer rho by one Lawson RK4 step, reusing the
        operator's buffers.  Every update is over the runs from D[0, 0].

        With N = rhs, h = dt and E = exp(P h/2):
          k1 = N(u), k2 = N(E(u + h/2 k1)), k3 = N(E u + h/2 k2),
          k4 = N(E(E u + h k3)),
          u' = E(E u + h/6 (E k1 + 2 k2 + 2 k3)) + h/6 k4.
        """
        E = self._run(self.factor(dt))
        u, acc, k, stage = (self._run(b) for b in (rho, self._acc, self._k, self._stage))
        self.rhs(rho, self._acc)                 # k1
        u *= E                                   # rho holds E u from here
        acc *= E
        np.multiply(acc, 0.5 * dt, out=stage)
        stage += u
        self.rhs(self._stage, self._k)           # k2
        acc += k
        acc += k
        np.multiply(k, 0.5 * dt, out=stage)
        stage += u
        self.rhs(self._stage, self._k)           # k3
        acc += k
        acc += k
        np.multiply(k, dt, out=stage)
        stage += u
        stage *= E
        self.rhs(self._stage, self._k)           # k4
        acc *= dt / 6.0
        u += acc
        u *= E
        k *= dt / 6.0
        u += k
        # Dirichlet clamp: the outermost ring of the box is pinned to zero
        rho.ravel()[self._ring] = 0.0

    def edge_fractions(self, rho: np.ndarray) -> tuple[float, float]:
        """|rho| one ring inside the box and one column inside the band edge,
        relative to the peak.  A density matrix peaks on its diagonal
        (|rho(x, y)|^2 <= rho(x, x) rho(y, y)), so only column 0 is read for
        it, and the whole check is O(N) per call."""
        peak = float(np.abs(self.band(rho)[:, 0]).max())
        if not peak > 0.0:
            return 0.0, 0.0
        flat = rho.ravel()
        return (float(np.abs(flat[self._ring_in]).max(initial=0.0)) / peak,
                float(np.abs(flat[self._band_edge]).max(initial=0.0)) / peak)


def _warn_edge(edge: float, peak: float, message: str) -> None:
    if edge > _EDGE_FRACTION * peak:
        warnings.warn(message.format(edge / peak), BoundaryMassWarning)


def _band_width(g: DensityGrid, p: SystemParams, d: DiffusionConstants, t_end: float) -> int:
    """K for evolving g to t_end: the smallest K >= 5 with
    exp(-p2c_min (K dx)^2 / 2 hbar^2) < 1e-12, capped at N - 1.

    A Gaussian's |rho| at fixed x - y peaks at that factor of the overall
    peak, with p2c = <p^2> - (<qp+pq>/2)^2/<q^2>; p2c_min is its least value
    along the analytic moment trajectory from the grid's own moments.  The
    moment ODE's rates are at most 4 max(gamma, omega0), so 16 samples per
    1/max(gamma, omega0) give at least 4 per e-fold or radian; the count is
    capped at the step count of the full grid's bound, so sampling never
    outgrows the run, and taken in chunks of 4096 times.  K >= 5 keeps the
    band edge out of reach of the update at m = 0, which reads m <= 4 (the
    composed Dqq stencil), so the trace stays conserved as on the full grid.
    """
    n = g.N
    m0 = moments_from_grid(g, hbar=p.hbar)
    count = 2 + max(0, min(math.ceil(16.0 * t_end * max(p.gamma, p.omega0)),
                           math.ceil(t_end / stable_dt(g, p, d))))
    lows = []
    for start in range(0, count, _SAMPLE_CHUNK):
        ts = np.arange(start, min(count, start + _SAMPLE_CHUNK)) * (t_end / (count - 1))
        a = analytic_solution(m0, p, d, ts)
        with np.errstate(divide="ignore", invalid="ignore"):
            lows.append(np.min(a.p2 - (a.qp / 2.0) ** 2 / a.q2))
    p2c = float(np.min(lows))
    if not p2c > 0.0:
        return n - 1
    width = p.hbar * math.sqrt(2.0 * math.log(1.0 / _BAND_EDGE) / p2c)
    if not width < (n - 1) * g.dx:
        return n - 1
    return min(max(_MIN_BAND, math.floor(width / g.dx) + 1), n - 1)


class StepPlan(NamedTuple):
    """What evolve() takes to t_end: steps of dt on the band |x - y| <= K dx."""

    steps: int
    dt: float
    K: int


def plan_steps(g: DensityGrid, p: SystemParams, d: DiffusionConstants, t_end: float,
               dt: Optional[float] = None) -> StepPlan:
    """The band K of _band_width, and (steps, dt) to t_end: dt defaults to
    the band's stability bound 2.5/R, with R the numerical-radius bound of
    _radius_bound at K, and is adjusted down so the steps land exactly on
    t_end.  A given dt above the bound raises StabilityError."""
    K = _band_width(g, p, d, t_end)
    limit = _LAWSON_CFL / _radius_bound(g.dx, K, p, d)
    if dt is None:
        dt = limit
    elif dt > limit * (1.0 + 1e-12):
        raise StabilityError(f"dt={dt:g} exceeds the stability bound {limit:g}")
    n_steps = max(1, int(math.ceil(t_end / dt * (1.0 - 1e-12))))
    return StepPlan(n_steps, t_end / n_steps, K)


def step(g: DensityGrid, p: SystemParams, d: DiffusionConstants, dt: float) -> DensityGrid:
    """One Lawson RK4 step of the master equation; returns a new grid at t + dt."""
    return evolve(g, p, d, dt, dt)[0]


def evolve(
    g: DensityGrid,
    p: SystemParams,
    d: DiffusionConstants,
    t_end: float,
    dt: Optional[float] = None,
    sample_every: int = 50,
) -> tuple[DensityGrid, list[dict]]:
    """Step to t_end, recording grid moments / trace / hermiticity samples.

    The step plan is plan_steps(g, p, d, t_end, dt): the hermitian part of
    g is stepped on the upper band 0 <= y - x <= K dx and expanded back to
    N x N at the end, so the first sample's hermiticity residual is g's own.
    Warns BoundaryMassWarning if the initial grid holds more than 1e-10 of
    its peak beyond the band, or if after any step the box or band edge
    does.  Returns the final grid and a list of sample dicts with keys t,
    q2, p2, qp, trace, herm; the last one is stamped g.t + t_end.
    """
    n_steps, dt, K = plan_steps(g, p, d, t_end, dt)
    mag = np.abs(g.values)
    _warn_edge(max(np.triu(mag, K + 1).max(), np.tril(mag, -K - 1).max()), mag.max(),
               f"|rho| beyond the band |x - y| <= {K} dx reached {{:.1e}} of the peak")

    op = _BandOperator(g.x, p, d, K)
    rho = op.from_full(g.values)
    samples = [dict(op.sample(rho, g.x, g.t, p.hbar), herm=g.hermiticity_residual())]
    box_edge = band_edge = 0.0
    for k in range(n_steps):
        op.lawson_inplace(rho, dt)
        box, band = op.edge_fractions(rho)
        box_edge, band_edge = max(box_edge, box), max(band_edge, band)
        if k == n_steps - 1:
            samples.append(op.sample(rho, g.x, g.t + t_end, p.hbar))
        elif (k + 1) % sample_every == 0:
            samples.append(op.sample(rho, g.x, g.t + (k + 1) * dt, p.hbar))
    _warn_edge(box_edge, 1.0, "boundary |rho| reached {:.1e} of the peak; "
                              "the state no longer fits the box")
    _warn_edge(band_edge, 1.0, f"|rho| at |x - y| = {K - 1} dx reached {{:.1e}} of the peak; "
                               f"the coherence no longer fits the band K = {K}")
    return DensityGrid(g.x, op.to_full(rho), g.t + t_end), samples


def moments_from_grid(g: DensityGrid, hbar: float = 1.0) -> MomentState:
    """<q^2> from the diagonal; <p^2>, <qp+pq> from 4th-order stencils in the
    anti-diagonal direction u = x - y at y = x.  Each is the real part of a
    trace, which rho's anti-hermitian part does not reach, so they are read
    off the band of its hermitian part."""
    if not np.all(np.isfinite(g.values)):
        raise StateError("grid contains non-finite values")
    band = _Band(g.N, 4)
    return band.moments(band.from_full(g.values), g.x, g.t, hbar)


def gaussian_error(g: DensityGrid, s0: MomentState, p: SystemParams,
                   d: DiffusionConstants) -> float:
    """max |rho_grid - rho_exact| relative to the peak of |rho_exact|.

    Every term of the master equation is at most quadratic in x, y and their
    derivatives, so a Gaussian stays Gaussian: evolved from the zero-mean
    Gaussian of s0, the exact state at g.t is the Gaussian of the analytic
    moments, sampled on the grid's own axis.
    """
    m = analytic_solution(s0, p, d, g.t - s0.t)
    exact = gaussian_state(m, N=g.N, L=g.L, hbar=p.hbar).values
    return float(np.abs(g.values - exact).max() / np.abs(exact).max())
