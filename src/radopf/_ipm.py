"""Dense primal-dual interior-point solver for cone programs.

Solves the standard conic form

    minimize    c'x
    subject to  A x = b
                G x + s = h,   s in K

where K is a product of a nonnegative orthant of dimension ``l`` followed by
second-order (Lorentz) cones of sizes ``q[0], q[1], ...``.  The algorithm is a
homogeneous self-dual embedding with Nesterov-Todd scaling and a Mehrotra
predictor-corrector step, so it returns either an optimal primal-dual pair or
a certificate of primal/dual infeasibility.

Each iteration eliminates the ``z`` block of the Newton system through the NT
scaling ``W``: with ``Gt = W^{-1} G`` only the dense ``(n+p)``-square matrix
``[[Gt'Gt, A'], [A, 0]]`` is LU-factored, and every solve is refined against
the full system in the scaled coordinates ``W z``.  Second-order cones of
equal size are stacked, so the scaling and the cone algebra are whole-array
operations with no loop over cones.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
FAILED = "numerical_failure"

# step-back factor keeping iterates strictly interior
_STEP = 0.99
# static regularization tried, in order, when the plain factorization fails
_REG_LADDER = (1e-12, 1e-10, 1e-8)


class _Dims:
    """Cone layout: `l` nonnegative entries, then SOC blocks of sizes `q`.

    `groups` holds one (nb, k) index array per distinct SOC size k, so that
    ``v[idx]`` stacks the nb blocks of that size; `signs`, `jjs` and
    `jdiags` hold, per size, the diagonal of J = diag(1, -I), its outer
    product and J itself.  Over the SOC part ``v[l:]``, `sign` is the
    diagonal of J and `starts` the block offsets, for reductions over all
    blocks in one ``np.add.reduceat``.
    """

    def __init__(self, l: int, q: list[int]):
        self.l = int(l)
        self.q = [int(k) for k in q]
        self.m = self.l + sum(self.q)
        sizes = np.array(self.q, dtype=int)
        self.heads = self.l + np.cumsum(sizes) - sizes
        self.groups = [self.heads[sizes == k, None] + np.arange(k)
                       for k in np.unique(sizes)]
        self.signs = [np.where(np.arange(k) == 0, 1.0, -1.0)
                      for k in np.unique(sizes)]
        self.jjs = [np.outer(sign, sign) for sign in self.signs]
        self.jdiags = [np.diag(sign) for sign in self.signs]
        self.starts = self.heads - self.l
        self.sign = -np.ones(self.m - self.l)
        self.sign[self.starts] = 1.0
        # barrier degree: orthant counts per entry, each SOC block counts once
        self.degree = self.l + len(self.q)


def _rowdot(U, V):
    """Row-wise dot products of two stacked block arrays."""
    return np.add.reduce(U * V, axis=1)


def _tail_norms(V):
    """|v1| of every stacked block row v = (v0, v1)."""
    return np.sqrt(_rowdot(V[:, 1:], V[:, 1:]))


def _min_eig(v, dims):
    """Smallest cone 'eigenvalue'; positive iff v is strictly interior."""
    vals = [v[:dims.l]]
    for idx in dims.groups:
        V = v[idx]
        vals.append(V[:, 0] - _tail_norms(V))
    return np.concatenate(vals).min(initial=np.inf)


def _unit(dims):
    e = np.zeros(dims.m)
    e[:dims.l] = 1.0
    e[dims.heads] = 1.0
    return e


def _clip_into_cone(v, dims):
    """Smallest per-block push of v into K (exact for LP, radial for SOC)."""
    out = v.copy()
    np.maximum(out[:dims.l], 0.0, out=out[:dims.l])
    for idx in dims.groups:
        head = idx[:, 0]
        out[head] = np.maximum(v[head], _tail_norms(v[idx]))
    return out


def _max_step(V, D, dims):
    """sup of alpha >= 0 with V[i] + alpha*D[i] in K for every row i, for
    strictly interior V[i]; all rows and all cone blocks in one pass.

    v + alpha*d stays in K while 1 + alpha*mu >= 0 for every eigenvalue mu
    of d relative to v: mu = d_i/v_i on the orthant, and on a cone block the
    roots of (d - mu v)'J(d - mu v) = 0, the smaller being
    mu = (b - sqrt(b^2 - a c))/c with a = d'Jd, b = v'Jd and c = v'Jv > 0.
    """
    l, r = dims.l, len(D)
    t = -np.minimum.reduce(D[:, :l] / V[:, :l], axis=None, initial=0.0)
    Dq, Vq = D[:, l:], V[:, l:]
    P = np.concatenate((Dq * Dq, Dq * Vq, Vq * Vq))
    P *= dims.sign
    a, b, c = np.add.reduceat(P, dims.starts, axis=1).reshape(3, r, -1)
    rt = np.sqrt(np.maximum(b * b - a * c, 0.0))
    # -mu, written without cancellation for either sign of b
    t = max(t, np.maximum.reduce(np.where(b > 0, -a / (rt + b), (rt - b) / c),
                                 axis=None, initial=0.0))
    return 1.0 / t if t > 0 else np.inf


class _Scaling:
    """Nesterov-Todd scaling W with lam = W z = W^{-1} s.

    On the orthant W = diag(w).  On a cone block W = eta*H, where H is the
    hyperbolic Householder matrix of the NT point wbar:
    H = u u'/u0 - J with u = (1 + wbar0, wbar1) and J = diag(1, -I).  Its
    inverse J H J / eta is written down the same way, never computed.  Both
    are stored as one (nb, k, k) array per size group.  Computed fresh from
    (s, z) each iteration; blow-ups at the cone boundary make `finite` False.
    """

    def __init__(self, s, z, dims):
        self.dims = dims
        l = dims.l
        self.w = np.sqrt(s[:l] / z[:l])
        self.winv = 1.0 / self.w
        self.lam = np.empty(dims.m)
        self.lam[:l] = np.sqrt(s[:l] * z[:l])
        self.W, self.Winv = [], []
        total = np.add.reduce(self.w) + np.add.reduce(self.winv)
        sz = np.stack((s, z))
        for idx, sign, jj, jd in zip(dims.groups, dims.signs, dims.jjs,
                                     dims.jdiags):
            SZ = sz[:, idx]
            root = np.sqrt((SZ * SZ) @ sign)      # sqrt(v'Jv) of s and z
            Sb, Zb = SZ / root[:, :, None]
            gamma = np.sqrt((1.0 + _rowdot(Sb, Zb)) / 2.0)
            u = Sb - Zb
            u[:, 0] = Sb[:, 0] + Zb[:, 0]
            u /= (2.0 * gamma)[:, None]          # wbar
            u[:, 0] += 1.0
            eta = np.sqrt(root[0] / root[1])[:, None, None]
            H = u[:, :, None] * (u / u[:, :1])[:, None, :]
            JHJ = H * jj
            H -= jd
            JHJ -= jd
            W = eta * H
            Winv = JHJ / eta
            self.W.append(W)
            self.Winv.append(Winv)
            self.lam[idx] = (W @ SZ[1, :, :, None])[:, :, 0]
            total += np.add.reduce(W + Winv, axis=None)
        # the sum is non-finite when any entry is
        self.finite = bool(np.isfinite(total))

    def _apply(self, diag, blocks, v, out):
        if out is None:
            out = np.empty_like(v)
        V, O = (v, out) if v.ndim == 2 else (v[:, None], out[:, None])
        O[:self.dims.l] = diag[:, None] * V[:self.dims.l]
        for idx, B in zip(self.dims.groups, blocks):
            O[idx] = B @ V[idx]
        return out

    def apply(self, v, out=None):
        """W v, for a vector or the columns of an (m, k) matrix."""
        return self._apply(self.w, self.W, v, out)

    def apply_inv(self, v, out=None):
        """W^{-1} v, for a vector or the columns of an (m, k) matrix."""
        return self._apply(self.winv, self.Winv, v, out)


def _jprod(u, v, dims):
    """Jordan product u o v on the cone algebra."""
    out = u * v
    for idx in dims.groups:
        U, V = u[idx], v[idx]
        P = U[:, :1] * V + V[:, :1] * U
        P[:, 0] = _rowdot(U, V)
        out[idx] = P
    return out


def _jsolve(lam, v, dims):
    """Solve lam o u = v for u."""
    out = v / lam
    for idx in dims.groups:
        L, V = lam[idx], v[idx]
        L0 = L[:, 0]
        det = L0 ** 2 - _rowdot(L[:, 1:], L[:, 1:])
        u0 = (L0 * V[:, 0] - _rowdot(L[:, 1:], V[:, 1:])) / det
        P = (V - u0[:, None] * L) / L0[:, None]
        P[:, 0] = u0
        out[idx] = P
    return out


class _KKT:
    """LU factor of the reduced matrix [[Gt'Gt, A'], [A, 0]], Gt = W^{-1} G.

    `B` stacks ``[A; Gt]`` (p + m rows, n columns).  `solve` takes the
    right-hand side ``[r_x; r_y; W^{-1} r_z]`` of the full Newton system
    ``[[0, A', G'], [A, 0, 0], [G, 0, -W^2]]`` and returns ``[x; y; W z]``:
    the reduced solve eliminates ``W z = Gt x - W^{-1} r_z``, and two
    refinement steps run against the unregularized full system in these
    scaled coordinates, ``[[0, A', Gt'], [A, 0, 0], [Gt, 0, -I]]``, which
    needs no W.
    """

    def __init__(self, B, n, p):
        self.B, self.n, self.p = B, n, p
        self.Gt = B[p:]
        A = B[:p]
        K = np.empty((n + p, n + p))
        K[:n, :n] = self.Gt.T @ self.Gt
        K[:n, n:] = A.T
        K[n:, :n] = A
        K[n:, n:] = 0.0
        lu, piv, info = dgetrf(K)
        if info or not np.isfinite(lu).all():
            lu, piv = self._regularized(K, n)
        self.lu, self.piv = lu, piv

    @staticmethod
    def _regularized(K, n):
        """Factor K + delta*scale*diag(I, -I) up the regularization ladder."""
        shift = np.full(len(K), -(1.0 + np.abs(K).max()))
        shift[:n] *= -1.0
        for delta in _REG_LADDER:
            lu, piv, info = dgetrf(K + np.diag(delta * shift))
            if not info and np.isfinite(lu).all():
                return lu, piv
        raise FloatingPointError("KKT factorization failed")

    def _reduced(self, r):
        """Solve the full system without refinement; r may have columns."""
        n, k = self.n, self.n + self.p
        red = r[:k].copy()
        red[:n] += self.Gt.T @ r[k:]
        u = np.empty_like(r)
        u[:k] = dgetrs(self.lu, self.piv, red, overwrite_b=1)[0]
        u[k:] = self.Gt @ u[:n] - r[k:]
        return u

    def solve(self, r):
        u = self._reduced(r)
        n, k = self.n, self.n + self.p
        for _ in range(2):
            res = r - np.concatenate((self.B.T @ u[n:], self.B @ u[:n]))
            res[k:] += u[k:]
            u += self._reduced(res)
        return u


def conelp(c, G, h, dims, A=None, b=None,
           feastol=1e-8, gaptol=1e-8, maxiter=200):
    """Solve the conic LP; returns a result dict with status and certificates.

    The objective is normalized internally (costs can be orders of magnitude
    above the constraint data in $-valued problems); duals and objective
    values are scaled back on exit.
    """
    c = np.asarray(c, dtype=float)
    c_scale = max(1.0, np.max(np.abs(c), initial=0.0))
    # iterates near the cone boundary may overflow or divide by zero; the
    # solver detects non-finite values itself and stops on them
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = _conelp_core(c / c_scale, G, h, dims, A, b, feastol, gaptol,
                           maxiter)
    for key in ("pobj", "dobj", "gap"):
        if out[key] is not None:
            out[key] *= c_scale
    for key in ("y", "z"):
        if out[key] is not None and out["status"] in (OPTIMAL, FAILED):
            out[key] = out[key] * c_scale
    return out


def _norm(v):
    """Euclidean norm; numpy's own 1-d norm is sqrt(v @ v) as well."""
    return math.sqrt(v @ v)


def _conelp_core(c, G, h, dims, A=None, b=None,
                 feastol=1e-8, gaptol=1e-8, maxiter=200):
    n = c.size
    G = np.asarray(G, dtype=float).reshape(dims.m, n)
    h = np.asarray(h, dtype=float)
    if A is None:
        A = np.zeros((0, n))
        b = np.zeros(0)
    A = np.asarray(A, dtype=float).reshape(-1, n)
    b = np.asarray(b, dtype=float)
    p, m = A.shape[0], dims.m
    k = n + p
    BG = np.concatenate((A, G))          # the constraint rows [A; G]
    bh = np.concatenate((b, h))

    e = _unit(dims)
    norm_b = 1.0 + _norm(b)
    norm_h = 1.0 + _norm(h)
    norm_c = 1.0 + _norm(c)

    def result(status, **kw):
        out = dict(status=status, x=None, y=None, z=None, s=None,
                   pobj=None, dobj=None, pres=np.inf, dres=np.inf,
                   gap=np.inf, relgap=np.inf, iterations=it,
                   certificate=None)
        out.update(kw)
        return out

    it = 0
    # --- initial point: least-squares primal/dual shifted into the cone,
    # from the Newton matrix with W = I
    try:
        kkt0 = _KKT(BG, n, p)
    except FloatingPointError:
        return result(FAILED)
    # the iterate [x; y; z; s], so that a step updates each part at once
    X = np.empty(k + 2 * m)
    x, y, z, s = X[:n], X[n:k], X[k:k + m], X[k + m:]
    yz = X[n:k + m]
    sol0 = kkt0.solve(np.concatenate((np.zeros(n), bh)))
    x[:] = sol0[:n]
    s_hat = -sol0[k:]
    me = _min_eig(s_hat, dims)
    s[:] = s_hat if me > 0 else s_hat + (1.0 - me) * e

    sol0 = kkt0.solve(np.concatenate((-c, np.zeros(p + m))))
    y[:] = sol0[n:k]
    z_hat = sol0[k:]
    me = _min_eig(z_hat, dims)
    z[:] = z_hat if me > 0 else z_hat + (1.0 - me) * e
    tau, kappa = 1.0, 1.0

    # [G, h, r_z] scaled by W^{-1} in one pass each iteration, beside A
    Ghr = np.empty((m, n + 2))
    Ghr[:, :n] = G
    Ghr[:, n] = h
    B = np.zeros((p + m, n + 2))
    B[:p, :n] = A
    ht, hrzt = B[p:, n], B[p:, n + 1]

    best = None
    best_score = np.inf

    for it in range(1, maxiter + 1):
        # residuals of the self-dual embedding
        hrx = -(BG.T @ yz) - c * tau
        hryz = BG @ x - bh * tau
        hryz[p:] += s
        hry, hrz = hryz[:p], hryz[p:]
        hrt = kappa + c @ x + bh @ yz

        mu = (s @ z + tau * kappa) / (dims.degree + 1)

        # convergence metrics of the de-homogenized iterate
        xt, yzt, st = x / tau, yz / tau, s / tau
        yt, zt = yzt[:p], yzt[p:]
        Bxt = BG @ xt
        Gxt = Bxt[p:]
        # the embedding's slack drifts by ~|hrz|/tau; h - Gx is the actual
        # primal slack, adopted after clipping marginal cone violations
        # (the clip size then reappears honestly in the row residual)
        s_rep = _clip_into_cone(h - Gxt, dims)
        res_rep, res_st = _norm(Gxt + s_rep - h), _norm(Gxt + st - h)
        if res_rep < res_st:
            st = s_rep
        pres = max(_norm(Bxt[:p] - b) / norm_b, min(res_rep, res_st) / norm_h)
        dres = _norm(BG.T @ yzt + c) / norm_c
        pobj = c @ xt
        dobj = -(bh @ yzt)
        # s'z picks up residual-times-dual cross terms; the objective
        # difference is the cleaner suboptimality estimate once both
        # residuals are small, so use the smaller consistent measure
        gap = min(st @ zt, abs(pobj - dobj))
        relgap = gap / max(1.0, abs(pobj), abs(dobj))

        score = max(pres, dres, relgap)
        if score < best_score:
            best_score = score
            best = (xt, yt, zt, st, pobj, dobj, pres, dres, gap, relgap)

        if pres <= feastol and dres <= feastol and (relgap <= gaptol or gap <= gaptol * 1e-2):
            return result(OPTIMAL, x=xt, y=yt, z=zt, s=st, pobj=pobj, dobj=dobj,
                          pres=pres, dres=dres, gap=gap, relgap=relgap)

        # infeasibility certificates (rays, not scaled by tau)
        by_hz = bh @ yz
        if by_hz < -1e-12:
            yzc = yz / (-by_hz)
            if _norm(BG.T @ yzc) / norm_c <= feastol:
                yc, zc = yzc[:p], yzc[p:]
                return result(INFEASIBLE, y=yc, z=zc, pres=pres, dres=dres,
                              certificate={"kind": "primal", "y": yc, "z": zc})
        cx = c @ x
        if cx < -1e-12:
            xc, sc = x / (-cx), s / (-cx)
            Bxc = BG @ xc
            if (_norm(Bxc[:p]) / norm_b <= feastol
                    and _norm(Bxc[p:] + sc) / norm_h <= feastol):
                return result(UNBOUNDED, x=xc, s=sc, pres=pres, dres=dres,
                              certificate={"kind": "dual", "x": xc, "s": sc})

        scal = _Scaling(s, z, dims)
        if not scal.finite:
            break                       # scaling blow-up at the boundary
        lam = scal.lam
        Ghr[:, n + 1] = hrz
        scal.apply_inv(Ghr, out=B[p:])
        try:
            kkt = _KKT(B[:, :n], n, p)
        except FloatingPointError:
            break

        # Newton systems in the scaled coordinates W dz and W^{-1} ds
        q = np.concatenate((c, b, ht))          # tau row: c'dx + b'dy + h'dz
        base = np.concatenate((hrx, -hry, -hrzt))
        zs = X[k:].reshape(2, m)

        def newton_rhs(f, g):
            r = f * base
            r[k:] -= g
            return r

        def direction(f, g, bk, u):
            """Step for residuals scaled by f and complementarity targets
            (lam o g, bk), from u solving newton_rhs(f, g); returns [dx; dy],
            the rows [W dz; W^{-1} ds] and [dz; ds], dtau and dkappa."""
            dtau = (-f * hrt - bk / tau - q @ u) / denom
            u = u + dtau * v
            dk = (bk - kappa * dtau) / tau
            scaled = np.concatenate((u[k:], g - u[k:])).reshape(2, m)
            dzs = np.empty((2, m))
            scal.apply_inv(scaled[0], out=dzs[0])
            scal.apply(scaled[1], out=dzs[1])
            return u[:k], scaled, dzs, dtau, dk

        def newton(f, bs, bk):
            g = _jsolve(lam, bs, dims)
            return direction(f, g, bk, kkt.solve(newton_rhs(f, g)))

        def feasible_step(dzs, dt, dk, back=1.0):
            alpha = _max_step(zs, dzs, dims)
            if dt < 0:
                alpha = min(alpha, -tau / dt)
            if dk < 0:
                alpha = min(alpha, -kappa / dk)
            return min(1.0, back * alpha)

        # predictor, solved together with the tau direction v
        lam2 = _jprod(lam, lam, dims)
        g = _jsolve(lam, -lam2, dims)
        V = kkt.solve(np.stack((np.concatenate((-c, b, ht)),
                                newton_rhs(1.0, g)), axis=1))
        v = V[:, 0]
        denom = q @ v - kappa / tau
        _, scaled_a, dzsa, dta, dka = direction(1.0, g, -tau * kappa, V[:, 1])
        a_aff = feasible_step(dzsa, dta, dka)
        z_aff, s_aff = zs + a_aff * dzsa
        mu_aff = (s_aff @ z_aff
                  + (tau + a_aff * dta) * (kappa + a_aff * dka)) / (dims.degree + 1)
        sigma = min(1.0, max(0.0, mu_aff / mu)) ** 3

        # corrector; the second-order term is (W^{-1} ds) o (W dz)
        corr = _jprod(scaled_a[1], scaled_a[0], dims)
        bs = -lam2 - corr + sigma * mu * e
        bk = -tau * kappa - dta * dka + sigma * mu
        dxy, _, dzs, dt, dk = newton(1.0 - sigma, bs, bk)
        step = feasible_step(dzs, dt, dk, _STEP)
        if step < 1e-4:
            # blocked by the corrector near a degenerate face: retake a plain
            # centering-biased step without the second-order term
            sigma2 = max(sigma, 0.5)
            dxy2, _, dzs2, dt2, dk2 = newton(
                1.0 - sigma2, -lam2 + sigma2 * mu * e,
                -tau * kappa + sigma2 * mu)
            step2 = feasible_step(dzs2, dt2, dk2, _STEP)
            if step2 > step:
                dxy, dzs, dt, dk, step = dxy2, dzs2, dt2, dk2, step2
        if not np.isfinite(step) or step <= 1e-10:
            break

        X[:k] += step * dxy
        zs += step * dzs
        tau += step * dt
        kappa += step * dk

    xt, yt, zt, st, pobj, dobj, pres, dres, gap, relgap = best
    return result(FAILED, x=xt, y=yt, z=zt, s=st, pobj=pobj, dobj=dobj,
                  pres=pres, dres=dres, gap=gap, relgap=relgap)


def make_dims(l, q):
    return _Dims(l, q)
