"""Primal-dual interior-point solver for batches of cone programs.

Solves the standard conic form

    minimize    c'x
    subject to  A x = b
                G x + s = h,   s in K

where K is a product of a nonnegative orthant of dimension ``l`` followed by
second-order (Lorentz) cones of sizes ``q[0], q[1], ...``.  The algorithm is a
homogeneous self-dual embedding with Nesterov-Todd scaling and a Mehrotra
predictor-corrector step, so it returns either an optimal primal-dual pair or
a certificate of primal/dual infeasibility.

One call solves a batch of programs that share the cone layout and the sizes
``n`` and ``p``.  Every array carries a leading member axis and every
member keeps its own iterates, step lengths, stopping test and certificate;
a member that ends leaves the batch, so the numpy dispatch of an iteration
is paid once for all members still running.  Every member forms a
Lagrangian bound of each iterate from its box and leaves once that bound
reaches its cutoff (`conelp`).

Each iteration eliminates the ``z`` block of the Newton system through the NT
scaling ``W``: with ``Gt = W^{-1} G`` only the ``(n+p)``-square matrix
``[[Gt'Gt, A'], [A, 0]]`` of each member is factored, up one regularization
ladder where the plain factorization fails, and every solve is refined
against the full system in the scaled coordinates ``W z`` (`_Storage`).
Small programs keep that matrix dense and LU-factor it through LAPACK
(`_Dense`); from `_SPARSE_FROM` reduced rows on, ``[A; G]``, ``Gt`` and the
matrix are kept in compressed sparse form on a fixed pattern and factored by
SuperLU (`_Sparse`); each supplies only the factorization, the unrefined
solve and the product with the full matrix.  Second-order cones of equal
size are stacked, so the scaling and the cone algebra are whole-array
operations over (member, block) with no loop over cones.
"""

from __future__ import annotations

import copy
import functools

import numpy as np
# eager: every feeder relaxation factors with splu
from scipy import sparse
from scipy.linalg.lapack import dgetrf, dgetrs
from scipy.sparse.linalg import splu

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
FAILED = "numerical_failure"
CUTOFF = "cutoff"

# step-back factor keeping iterates strictly interior
_STEP = 0.99
# stopping test: residuals within FEASTOL and relative gap within GAPTOL end
# a member `optimal`; one still running after MAXITER iterations fails.
# `_conelp_core` reads them at each call.
FEASTOL = GAPTOL = 1e-8
MAXITER = 200
# static regularization tried, in order, when the plain factorization fails
_REG_LADDER = (1e-12, 1e-10, 1e-8)


class _Dims:
    """Cone layout: `l` nonnegative entries, then SOC blocks of sizes `q`.

    `groups` holds, per distinct SOC size k, where its nb blocks sit and the
    shape (nb, k) that stacks them: a slice when the blocks are consecutive,
    as compiled programs lay them out, else a flat index array.  `signs`,
    `jjs` and `jdiags` hold, per size, the diagonal of J = diag(1, -I), its
    outer product and J itself.  Over the SOC part ``v[..., l:]``, `sign` is
    the diagonal of J and `starts` the block offsets, for reductions over
    all blocks in one ``np.add.reduceat``.
    """

    def __init__(self, l: int, q: list[int]):
        self.l = int(l)
        self.q = [int(k) for k in q]
        self.m = self.l + sum(self.q)
        sizes = np.array(self.q, dtype=int)
        self.heads = self.l + np.cumsum(sizes) - sizes
        self.groups = []
        for k in np.unique(sizes).tolist():
            heads = self.heads[sizes == k]
            if np.all(np.diff(heads) == k):
                where = slice(int(heads[0]), int(heads[0]) + k * len(heads))
            else:
                where = (heads[:, None] + np.arange(k)).ravel()
            self.groups.append((where, (len(heads), k)))
        self.signs = [np.where(np.arange(k) == 0, 1.0, -1.0)
                      for _, (_, k) in self.groups]
        self.jjs = [np.outer(sign, sign) for sign in self.signs]
        self.jdiags = [np.diag(sign) for sign in self.signs]
        self.starts = self.heads - self.l
        self.sign = -np.ones(self.m - self.l)
        self.sign[self.starts] = 1.0
        # barrier degree: orthant counts per entry, each SOC block counts once
        self.degree = self.l + len(self.q)


def _blocks(v, group):
    """The blocks of one size group of v (cone entries last), stacked as
    (..., nb, k); a view when the blocks are consecutive."""
    where, shape = group
    return v[..., where].reshape(v.shape[:-1] + shape)


def _put(out, group, P):
    """Write the stacked blocks P of one size group into out."""
    out[..., group[0]] = P.reshape(P.shape[:-2] + (-1,))


def _norms(V):
    """Euclidean norms along the last axis."""
    return np.sqrt(np.vecdot(V, V))


def _tail_norms(V):
    """|v1| of every stacked block v = (v0, v1)."""
    return _norms(V[..., 1:])


def _min_eig(v, dims):
    """Smallest cone 'eigenvalue' of each vector; positive iff it is strictly
    interior."""
    vals = [v[..., :dims.l]]
    for group in dims.groups:
        V = _blocks(v, group)
        vals.append(V[..., 0] - _tail_norms(V))
    return np.minimum.reduce(np.concatenate(vals, axis=-1), axis=-1,
                             initial=np.inf)


def _unit(dims):
    e = np.zeros(dims.m)
    e[:dims.l] = 1.0
    e[dims.heads] = 1.0
    return e


def _clip_into_cone(v, dims):
    """Smallest per-block push of v into K (exact for LP, radial for SOC)."""
    out = v.copy()
    np.maximum(out[..., :dims.l], 0.0, out=out[..., :dims.l])
    for group in dims.groups:
        P = _blocks(out, group)
        P[..., 0] = np.maximum(P[..., 0], _tail_norms(P))
        _put(out, group, P)
    return out


def _max_step(V, D, dims):
    """sup of alpha >= 0 with V[..., i, :] + alpha*D[..., i, :] in K for every
    row i, for strictly interior rows; one value per leading index, all rows
    and all cone blocks in one pass.

    v + alpha*d stays in K while 1 + alpha*mu >= 0 for every eigenvalue mu
    of d relative to v: mu = d_i/v_i on the orthant, and on a cone block the
    roots of (d - mu v)'J(d - mu v) = 0, the smaller being
    mu = (b - sqrt(b^2 - a c))/c with a = d'Jd, b = v'Jd and c = v'Jv > 0.
    The step is 1/max(-mu), infinite when no eigenvalue is negative.
    """
    l, r = dims.l, D.shape[-2]
    t = -np.minimum.reduce(D[..., :l] / V[..., :l], axis=(-2, -1), initial=0.0)
    Dq, Vq = D[..., l:], V[..., l:]
    P = np.concatenate((Dq * Dq, Dq * Vq, Vq * Vq), axis=-2)
    P *= dims.sign
    abc = np.add.reduceat(P, dims.starts, axis=-1)
    a, b, c = abc[..., :r, :], abc[..., r:2 * r, :], abc[..., 2 * r:, :]
    rt = np.sqrt(np.maximum(b * b - a * c, 0.0))
    # -mu, written without cancellation for either sign of b
    t = np.fmax(t, np.maximum.reduce(
        np.where(b > 0, -a / (rt + b), (rt - b) / c), axis=(-2, -1),
        initial=0.0))
    return 1.0 / t


class _Scaling:
    """Nesterov-Todd scaling W with lam = W z = W^{-1} s, for each of the
    stacked vector pairs (s, z) (any leading axes, cone entries last).

    On the orthant W = diag(w).  On a cone block W = eta*H, where H is the
    hyperbolic Householder matrix of the NT point wbar:
    H = u u'/u0 - J with u = (1 + wbar0, wbar1) and J = diag(1, -I).  Its
    inverse J H J / eta is written down the same way, never computed.
    `ww` stacks (1/w, w) and `WW` holds, per size group, the (W^{-1}, W)
    blocks as one (..., 2, nb, k, k) array.  Computed fresh from (s, z) each
    iteration; `finite` is False for a pair whose scaling blew up at the
    cone boundary.
    """

    def __init__(self, s, z, dims):
        self.dims = dims
        l = dims.l
        lead = s.shape[:-1]
        self.ww = np.empty(lead + (2, l))
        w, winv = self.ww[..., 1, :], self.ww[..., 0, :]
        np.sqrt(s[..., :l] / z[..., :l], out=w)
        np.divide(1.0, w, out=winv)
        self.lam = np.empty_like(s)
        self.lam[..., :l] = np.sqrt(s[..., :l] * z[..., :l])
        self.WW = []
        total = np.add.reduce(self.ww, axis=(-2, -1))
        sz = np.concatenate((s[None], z[None]))
        for group, sign, jj, jd in zip(dims.groups, dims.signs, dims.jjs,
                                       dims.jdiags):
            SZ = _blocks(sz, group)
            root = np.sqrt((SZ * SZ) @ sign)      # sqrt(v'Jv) of s and z
            Sb, Zb = SZ / root[..., None]
            gamma = np.sqrt((1.0 + np.vecdot(Sb, Zb)) / 2.0)
            u = Sb + Zb * sign
            u /= (2.0 * gamma)[..., None]        # wbar
            u[..., 0] += 1.0
            eta = np.sqrt(root[0] / root[1])[..., None, None]
            H = u[..., :, None] * (u / u[..., :1])[..., None, :]
            WW = np.empty(lead + (2,) + H.shape[-3:])
            np.multiply(H, jj, out=WW[..., 0, :, :, :])
            WW[..., 0, :, :, :] -= jd
            WW[..., 0, :, :, :] /= eta
            H -= jd
            np.multiply(eta, H, out=WW[..., 1, :, :, :])
            self.WW.append(WW)
            _put(self.lam, group, np.matvec(WW[..., 1, :, :, :], SZ[1]))
            total += np.add.reduce(WW, axis=(-4, -3, -2, -1))
        # the sum is non-finite when any entry is
        self.finite = np.isfinite(total)

    def _apply(self, diag, blocks, V, O):
        """O = diag(diag) V on the orthant and B V on each cone block, for
        the columns of V (..., m, cols)."""
        l = self.dims.l
        np.multiply(diag[..., None], V[..., :l, :], out=O[..., :l, :])
        for (where, shape), B in zip(self.dims.groups, blocks):
            Vb = V[..., where, :].reshape(V.shape[:-2] + shape + V.shape[-1:])
            O[..., where, :] = (B @ Vb).reshape(Vb.shape[:-3] + (-1,)
                                                + V.shape[-1:])
        return O

    def apply_inv(self, v, out=None):
        """W^{-1} v, for vectors shaped like s or the columns of (..., m, k)."""
        if out is None:
            out = np.empty_like(v)
        V, O = (v, out) if v.ndim > self.lam.ndim else (v[..., None],
                                                        out[..., None])
        self._apply(self.ww[..., 0, :], [B[..., 0, :, :, :] for B in self.WW],
                    V, O)
        return out

    def unscale(self, V, out):
        """(W^{-1} v, W u) for the stacked pairs V = (v, u), (..., 2, m)."""
        self._apply(self.ww, self.WW, V[..., None], out[..., None])


def _jprod(u, v, dims):
    """Jordan product u o v on the cone algebra."""
    out = u * v
    for group in dims.groups:
        U, V = _blocks(u, group), _blocks(v, group)
        P = U[..., :1] * V + V[..., :1] * U
        P[..., 0] = np.vecdot(U, V)
        _put(out, group, P)
    return out


def _jsolve(lam, v, dims):
    """Solve lam o u = v for u."""
    out = v / lam
    for group in dims.groups:
        L, V = _blocks(lam, group), _blocks(v, group)
        L0 = L[..., 0]
        det = L0 ** 2 - np.vecdot(L[..., 1:], L[..., 1:])
        u0 = (L0 * V[..., 0] - np.vecdot(L[..., 1:], V[..., 1:])) / det
        P = (V - u0[..., None] * L) / L0[..., None]
        P[..., 0] = u0
        _put(out, group, P)
    return out


class _Storage:
    """The shared half of `_Dense` and `_Sparse`: factors of each member's
    reduced matrix [[Gt'Gt, A'], [A, 0]], Gt = W^{-1} G, up one
    regularization ladder, and one refined solve.

    `ok` marks the members with factors.  `solve` takes the right-hand sides
    ``[r_x; r_y; W^{-1} r_z]`` of the full Newton systems ``[[0, A', G'],
    [A, 0, 0], [G, 0, -W^2]]`` and returns ``[x; y; W z]``: the reduced
    solve eliminates ``W z = Gt x - W^{-1} r_z``, and `refine` refinement
    steps run against the unregularized full system in these scaled
    coordinates, ``[[0, A', Gt'], [A, 0, 0], [Gt, 0, -I]]``, which needs no
    W.  A member without factors solves to NaN.  A storage class supplies
    `refine`, `_lu(data)`, the factors of one member's matrix data or None,
    `_reduced(r)`, the unrefined solve, and `_full(u)`, the product of the
    full matrix less its -I block with u; `diag` locates the diagonal in
    the data.
    """

    def _factor(self, data):
        """Factor the matrix data of each member (one row each), up the
        ladder where the plain factorization fails; returns self."""
        self.factors = [self._lu(d) or self._regularized(d) for d in data]
        self.ok = np.array([lu is not None for lu in self.factors], dtype=bool)
        return self

    def _regularized(self, data):
        """Factors of K + delta*(1 + max|K|)*diag(I, -I) for the first delta
        of the ladder that gives some; None for non-finite data."""
        scale = 1.0 + np.abs(data).max()
        if not np.isfinite(scale):
            return None
        shift = np.full(len(self.diag), -scale)
        shift[:self.n] = scale
        for delta in _REG_LADDER:
            reg = data.copy()
            reg.flat[self.diag] += delta * shift
            lu = self._lu(reg)
            if lu is not None:
                return lu
        return None

    def solve(self, r):
        """Solve for right-hand sides (members, rows), or (members, count,
        rows) with several per member."""
        vector = r.ndim == 2
        if vector:
            r = r[:, None]
        k = self.n + self.p
        u = self._reduced(r)
        for _ in range(self.refine):
            res = r - self._full(u)
            res[..., k:] += u[..., k:]
            u += self._reduced(res)
        return u[:, 0] if vector else u


# Reduced order n + p from which `_Sparse` replaces `_Dense`.  Measured on
# the feeder relaxations (2-core x86_64, one BLAS thread), ms per IPM
# iteration dense (one refinement step) against sparse: feeder33 (n + p =
# 166) 1.10 / 1.57, a 39-bus feeder (196) 1.31 / 1.61, a 42-bus feeder
# (211) 1.45 / 1.65, feeder69 (346) 3.39 / 2.04, feeder120 (601) 11.9 /
# 2.67; the factor alone at 601 takes 7.7 ms by dgetrf and 0.9 ms by splu.
# Below the crossover the sparse path's fixed costs per iteration (pattern
# gathers, matrix wrappers, SuperLU's ordering) outweigh the dense work.
# The crossover lies between 211 and 346; no benchmark program has an
# order between 167 and 345, so the threshold stays where it was set.
_SPARSE_FROM = 200


class _Dense(_Storage):
    """`[A; G]` and the reduced matrices of the members as dense arrays,
    each factored by LAPACK's LU.

    `BG1` is ``[A; 0; G]`` of each member, which multiplies ``[y; tau;
    z]`` in the residuals; `Ghr` holds ``[G, h, r_z]``, scaled by
    W^{-1} in one pass into `Bhr` under A; the reduced matrices `K` keep
    their A blocks, and each factorization rewrites only the Gt'Gt block
    and views ``[A; Gt]`` of `Bhr` as `B`, Gt as `Gt`, and their transposes.
    """

    # One step leaves the relative residual of the full system where a
    # second leaves it (over the bnb-small solves, median 5.9e-16 against
    # 5.4e-16, 99th percentile 9.1e-13 against 8.6e-13), and saves one
    # `_reduced` and one `_full` call per solve.
    refine = 1

    def __init__(self, A, G, h, dims, count):
        (_, p, n), m = A.shape, dims.m
        self.n, self.p = n, p
        self.BG1 = np.concatenate((A, np.zeros((count, 1, n)), G), axis=1)
        self.Ghr = np.empty((count, m, n + 2))
        self.Ghr[:, :, :n] = G
        self.Ghr[:, :, n] = h
        self.Bhr = np.zeros((count, p + m, n + 2))
        self.Bhr[:, :p, :n] = A
        self.Bhr[:, p:, :n] = G
        self.K = np.zeros((count, n + p, n + p))
        self.K[:, :n, n:] = self.Bhr[:, :p, :n].transpose(0, 2, 1)
        self.K[:, n:, :n] = self.Bhr[:, :p, :n]
        self.diag = np.arange(n + p) * (n + p + 1)

    def __getitem__(self, rows):
        """The members in `rows`."""
        out = copy.copy(self)
        for key in ("BG1", "Ghr", "Bhr", "K"):
            setattr(out, key, getattr(self, key)[rows])
        return out

    def products(self, x, yz):
        """``[A x; 0; G x]`` and ``A'y + G'z`` of each member."""
        return np.matvec(self.BG1, x), np.vecmat(yz, self.BG1)

    def factor(self, scal=None, rz=None):
        """Factor the reduced matrices for the scaling `scal`; returns self
        and ``W^{-1} [h, r_z]`` of each member, (members, m, 2).  Without a
        scaling W = I and there are no scaled columns."""
        n, p = self.n, self.p
        hrs = None
        if scal is not None:
            self.Ghr[:, :, n + 1] = rz
            scal.apply_inv(self.Ghr, out=self.Bhr[:, p:])
            hrs = self.Bhr[:, p:, n:]
        self.B = self.Bhr[:, :, :n]
        self.BT = self.B.transpose(0, 2, 1)
        self.Gt, self.GtT = self.B[:, p:], self.BT[:, :, p:]
        np.matmul(self.GtT, self.Gt, out=self.K[:, :n, :n])
        return self._factor(self.K), hrs

    @staticmethod
    def _lu(data):
        lu, piv, info = dgetrf(data)
        return None if info or not np.isfinite(lu).all() else (lu, piv)

    def _reduced(self, r):
        n, k = self.n, self.n + self.p
        # row-major per member is column-major for LAPACK: solved in place
        red = r[..., :k].copy()
        red[..., :n] += r[..., k:] @ self.Gt
        for lu, rhs in zip(self.factors, red):
            if lu is None:
                rhs[:] = np.nan
            else:
                dgetrs(*lu, rhs.T, overwrite_b=1)
        return np.concatenate((red, red[..., :n] @ self.GtT - r[..., k:]),
                              axis=-1)

    def _full(self, u):
        n = self.n
        return np.concatenate((u[..., n:] @ self.B, u[..., :n] @ self.BT),
                              axis=-1)


def _runs(lengths):
    """Runs of the given lengths laid end to end: the run of each position,
    its offset in the run, and the start of each run."""
    starts = np.cumsum(lengths) - lengths
    run = np.repeat(np.arange(len(lengths)), lengths)
    return run, np.arange(len(run)) - starts[run], starts


def _csr(ptr, ind, shape):
    """A CSR matrix of the pattern (ptr, ind) and its transpose, in CSC
    form on the same arrays; the data is set per use by `_on`."""
    data = np.zeros(len(ind))
    return (sparse.csr_matrix((data, ind, ptr), shape=shape),
            sparse.csc_matrix((data, ind, ptr), shape=shape[::-1]))


def _on(mats, data):
    """The matrices `mats` of one pattern with their data replaced by
    `data`, sharing the pattern arrays."""
    out = tuple(copy.copy(M) for M in mats)
    for M in out:
        M.data = data
    return out


class _Sparse(_Storage):
    """`[A; G]`, `Gt` and the reduced matrices of the members in compressed
    sparse form, on one pattern fixed for the call and shared by the members
    (the union of their nonzeros), each member factored by SuperLU.

    The pattern of Gt = W^{-1} G closes G's row pattern over each cone
    block, where W^{-1} is dense; on the orthant it is G's own.  `BG` holds
    per member the data of ``[A; G]`` on that pattern, A's `na` entries
    first.  An entry of Gt sums the products of W^{-1} entries (`iw`, into
    the data `_winv` lays out) with G entries (`ig`), in segments that start
    at `terms`; an entry of the Gt'Gt block sums the products of two Gt
    entries of one row (`pa`, `pb`), in segments that start at `pairs`, and
    lands at `kpos` in the CSC data of the reduced matrices.  `Kd` holds that
    data per member with the A blocks in place, and `diag` locates its
    diagonal.  `Bpat`, `Gtpat` and `Kpat` are the pattern templates of ``[A;
    Gt]`` and ``Gt``, each with its transpose, and of the reduced matrices
    (a 1-tuple); `mats` holds ``[A; 0; G]`` and its transpose of each member
    on its data; a factorization puts ``[A; Gt]`` and ``Gt`` of each member
    on their templates as `B` and `Gt`.
    """

    # SuperLU's factors leave more behind: over the relax-sweep feeders the
    # 99th-percentile relative residual is 1.0e-7 after one step and 2.5e-10
    # after two, and with one step feeder120 at load 0.8 ends
    # `numerical_failure`.
    refine = 2

    def __init__(self, A, G, h, dims, count):
        (_, p, n), m = A.shape, dims.m
        k = n + p
        self.n, self.p, self.h = n, p, h
        # reduced in buffered chunks: a shared G, broadcast to the members,
        # is never materialized
        nz = np.any(G, axis=0)
        for where, (nb, bk) in dims.groups:
            nz[where] = nz[where].reshape(nb, bk, n).any(axis=1).repeat(bk, 0)
        row, col = np.nonzero(nz)
        width = np.count_nonzero(nz, axis=1)
        gptr = np.concatenate(([0], np.cumsum(width)))
        arow, acol = np.nonzero(np.any(A, axis=0))
        self.na = na = len(acol)
        aptr = np.searchsorted(arow, np.arange(p + 1))
        bcol = np.concatenate((acol, col))
        self.BG = np.concatenate((A[:, arow, acol], G[:, row, col]), axis=1)
        bg1 = _csr(np.concatenate((aptr, na + gptr)), bcol, (p + 1 + m, n))
        self.mats = [_on(bg1, d) for d in self.BG]
        self.Bpat = _csr(np.concatenate((aptr[:-1], na + gptr)), bcol,
                         (p + m, n))
        self.Gtpat = _csr(gptr, col, (m, n))

        # each row's block: its first row, its size, and where its row of
        # W^{-1} starts in the data of `_winv`
        first, size, wrow = np.arange(m), np.ones(m, dtype=int), np.arange(m)
        off = dims.l
        for where, (nb, bk) in dims.groups:
            rows = np.arange(m)[where].reshape(nb, bk)
            first[rows] = rows[:, :1]
            size[rows] = bk
            wrow[rows] = off + bk * np.arange(nb * bk).reshape(nb, bk)
            off += nb * bk * bk
        e, j, self.terms = _runs(size[row])
        self.iw = wrow[row[e]] + j
        self.ig = na + gptr[first[row[e]] + j] + e - gptr[row[e]]

        # CSC keys (column * k + row) of Gt'Gt, the diagonal, A and A'
        a, b, _ = _runs(width[row])
        b += gptr[row[a]]
        pkey = col[b] * k + col[a]
        akeys = (acol * k + n + arow, (n + arow) * k + acol)
        keys = np.unique(np.concatenate((pkey, np.arange(k) * (k + 1))
                                        + akeys))
        self.Kpat = (sparse.csc_matrix(
            (np.zeros(len(keys)), keys % k,
             np.searchsorted(keys, np.arange(k + 1) * k)), shape=(k, k)),)
        self.diag = np.searchsorted(keys, np.arange(k) * (k + 1))
        dest = np.searchsorted(keys, pkey)
        order = np.argsort(dest, kind="stable")
        self.pa, self.pb = a[order], b[order]
        self.kpos, self.pairs = np.unique(dest[order], return_index=True)
        self.Kd = np.zeros((count, len(keys)))
        for key in akeys:
            self.Kd[:, np.searchsorted(keys, key)] = self.BG[:, :na]

    def __getitem__(self, rows):
        """The members in `rows`, a boolean mask."""
        out = copy.copy(self)
        out.h, out.Kd, out.BG = self.h[rows], self.Kd[rows], self.BG[rows]
        out.mats = [mat for mat, keep in zip(self.mats, rows) if keep]
        return out

    def products(self, x, yz):
        """``[A x; 0; G x]`` and ``A'y + G'z`` of each member."""
        return (np.array([M @ v for (M, _), v in zip(self.mats, x)]),
                np.array([MT @ v for (_, MT), v in zip(self.mats, yz)]))

    @staticmethod
    def _winv(scal):
        """The data of W^{-1} per member: the orthant diagonal, then the
        stacked blocks of each size group, row-major."""
        return np.concatenate(
            [scal.ww[:, 0]] + [W[:, 0].reshape(len(W), -1) for W in scal.WW],
            axis=1)

    def factor(self, scal=None, rz=None):
        """Factor the reduced matrices for the scaling `scal`; returns self
        and ``W^{-1} [h, r_z]`` of each member, (members, m, 2).  Without a
        scaling W = I and there are no scaled columns."""
        na = self.na
        bd = np.empty((len(self.Kd), self.BG.shape[1]))
        bd[:, :na] = self.BG[:, :na]
        gt = bd[:, na:]
        if scal is None:
            gt[:] = self.BG[:, na:]
            hrs = None
        else:
            gt[:] = np.add.reduceat(self._winv(scal)[:, self.iw]
                                    * self.BG[:, self.ig], self.terms, axis=1)
            hrs = scal.apply_inv(np.stack((self.h, rz), axis=-1))
        self.Kd[:, self.kpos] = np.add.reduceat(
            gt[:, self.pa] * gt[:, self.pb], self.pairs, axis=1)
        self.B = [_on(self.Bpat, d) for d in bd]
        self.Gt = [_on(self.Gtpat, d[na:]) for d in bd]
        return self._factor(self.Kd), hrs

    def _lu(self, data):
        if not np.isfinite(data).all():
            return None
        try:
            lu = splu(*_on(self.Kpat, data))
        except RuntimeError:
            return None
        return lu if np.isfinite(lu.U.data).all() else None

    def _reduced(self, r):
        n, k = self.n, self.n + self.p
        out = np.empty_like(r)
        for i, (lu, (Gt, GtT)) in enumerate(zip(self.factors, self.Gt)):
            if lu is None:
                out[i] = np.nan
                continue
            v = r[i].T
            red = v[:k].copy()
            red[:n] += GtT @ v[k:]
            x = lu.solve(red)
            out[i] = np.concatenate((x, Gt @ x[:n] - v[k:])).T
        return out

    def _full(self, u):
        n = self.n
        out = np.empty_like(u)
        for i, (B, BT) in enumerate(self.B):
            v = u[i].T
            out[i] = np.concatenate((BT @ v[n:], B @ v[:n])).T
        return out


def conelp(c, G, h, dims, A, b, cutoff, box):
    """Solve a batch of conic LPs to `FEASTOL` and `GAPTOL`; returns one
    result dict per member: its ``status``, ``iterations``, ``x`` (the
    optimum or an unbounded member's ray; None for every other status),
    ``certificate`` (the ray of an infeasible or unbounded member, else
    None) and ``bound``.

    Row i of `c` (members, n) belongs to member i.  Each of `G`, `h`, `A`
    and `b` is, on its own, one array for every member or the members'
    arrays stacked: `G` (m, n) or (members, m, n), `A` (p, n) or (members,
    p, n), `h` and `b` one row or one row per member.  The objective of
    each member is normalized internally (costs can be orders of magnitude
    above the constraint data in $-valued problems); ``bound`` is scaled
    back on exit.

    `cutoff` holds one value per member (+inf for none), and `box` is a
    pair (lo, hi) of arrays shaped like `c` whose rows hold some optimal
    point of each member.  With ``r = c + A'y + G'z``, every iterate with
    z in K gives the Lagrangian bound
    ``L = sum_i min(r_i lo_i, r_i hi_i) - b'y - h'z`` on the optimum, since
    ``c'x = r'x - b'y - h'z + s'z`` at a feasible x (Neumaier and
    Shcherbina, Math. Prog. 2004); an infinite side of the box on which
    some r_i has its minimum makes L -inf.  Every member reports in
    ``bound`` the largest L over its iterates, whatever its status, and
    ends `CUTOFF` once that L reaches its cutoff, before any other test of
    that iterate; a certified-infeasible member reports +inf.
    """
    c = np.asarray(c, dtype=float).reshape(-1, np.shape(c)[-1])
    c_scale = np.maximum.reduce(np.abs(c), axis=1, initial=1.0)
    cutoff = np.asarray(cutoff, dtype=float) / c_scale
    # iterates near the cone boundary may overflow or divide by zero; the
    # solver detects non-finite values itself and stops on them
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        outs = _conelp_core(c / c_scale[:, None], G, h, dims, A, b, cutoff,
                            box)
    for out, scale in zip(outs, c_scale.tolist()):
        out["bound"] *= scale
    return outs


def _result(status, iterations, **kw):
    out = dict(status=status, x=None, iterations=iterations,
               certificate=None, bound=-np.inf)
    out.update(kw)
    return out


class _Members:
    """Per-member arrays of the members still running, rows in step."""

    def __init__(self, **arrays):
        self.__dict__.update(arrays)

    def keep(self, rows):
        for key, val in vars(self).items():
            setattr(self, key, val[rows])


def _conelp_core(c, G, h, dims, A, b, cutoff, box):
    count, n = c.shape
    m = dims.m
    feastol, gaptol = FEASTOL, GAPTOL
    # one layout for every call: data shared by the members is broadcast to
    # the member axis as a read-only view, with no copy
    G, A, h, b = (np.broadcast_to(np.asarray(v, dtype=float),
                                  (count,) + np.shape(v)[-nd:])
                  for v, nd in ((G, 2), (A, 2), (h, 1), (b, 1)))
    p = A.shape[1]
    k = n + p
    # the iterate of each member is [x; y; tau; z; kappa; s], so that a step
    # updates every part at once and [tau; z] and [kappa; s] are the rows of
    # the complementary pair, tau and kappa counting as orthant entries
    z0, s0 = k + 1, k + m + 2
    dims1 = make_dims(dims.l + 1, dims.q)
    # [c; b; 0; h], aligned with [x; y; tau; z]
    cbh = np.concatenate((c, b, np.zeros((count, 1)), h), axis=1)
    e = _unit(dims)
    out = [None] * count
    it = 0
    lin = (_Sparse if k >= _SPARSE_FROM else _Dense)(A, G, h, dims, count)

    # --- initial point: least-squares primal/dual shifted into the cone,
    # from the Newton matrix with W = I
    kkt0, _ = lin.factor()
    X = np.ones((count, s0 + m))
    sol0 = kkt0.solve(np.concatenate((np.zeros((count, n)), b, h), axis=1))
    X[:, :n] = sol0[:, :n]
    s_hat = -sol0[:, k:]
    me = _min_eig(s_hat, dims)[:, None]
    X[:, s0:] = np.where(me > 0, s_hat, s_hat + (1.0 - me) * e)
    sol0 = kkt0.solve(np.concatenate((-c, np.zeros((count, p + m))), axis=1))
    X[:, n:k] = sol0[:, n:k]
    z_hat = sol0[:, k:]
    me = _min_eig(z_hat, dims)[:, None]
    X[:, z0:z0 + m] = np.where(me > 0, z_hat, z_hat + (1.0 - me) * e)
    norms = 1.0 + np.sqrt(np.array([np.vecdot(v, v) for v in (b, h, c)]).T)
    act = _Members(
        ids=np.arange(count), X=X, cbh=cbh, lin=lin,
        # [c; -b; 0; -h]: [A'y + G'z; A x; 0; G x] + cbh_ tau is the
        # residual with r_x negated
        cbh_=np.concatenate((c, -cbh[:, n:]), axis=1),
        norms=norms, cert=(feastol * norms[:, 2]) ** 2,
        # the largest Lagrangian bound so far
        best=np.full(count, -np.inf), cut=cutoff, lo=box[0], hi=box[1])
    if not kkt0.ok.all():
        for i in np.flatnonzero(~kkt0.ok):
            out[i] = _result(FAILED, it)
        act.keep(kkt0.ok)
        if not len(act.ids):
            return out

    def fail(rows):
        """End each member in `rows` `numerical_failure`, with no point and
        its largest bound."""
        for i, bound in zip(act.ids[rows].tolist(), act.best[rows].tolist()):
            out[i] = _result(FAILED, it, bound=bound)

    for it in range(1, MAXITER + 1):
        X, cbh = act.X, act.cbh
        x, yz, s = X[:, :n], X[:, n:s0 - 1], X[:, s0:]
        tau, kappa, T = X[:, k], X[:, s0 - 1], X[:, k:z0]
        ZS = X[:, k:].reshape(-1, 2, m + 1)
        # residuals of the self-dual embedding, r_x negated:
        # [A'y + G'z + c tau; A x - b tau; 0; G x + s - h tau], and r_tau
        BGx, BGyz = act.lin.products(x, yz)
        hr = np.concatenate((BGyz, BGx), axis=1)
        hr += act.cbh_ * T
        hr[:, z0:] += s
        cx, by_hz = np.vecdot(cbh[:, :n], x), np.vecdot(cbh[:, n:], yz)
        hrt = kappa + cx + by_hz
        mu = np.vecdot(ZS[:, 0], ZS[:, 1]) / (dims.degree + 1)

        # convergence metrics of the de-homogenized iterates
        Xt = X / T
        xt, zt, st = Xt[:, :n], Xt[:, z0:z0 + m], Xt[:, s0:]
        # the embedding's slack drifts by ~|hrz|/tau; h - Gx is the actual
        # primal slack, adopted after clipping marginal cone violations
        # (the clip size then reappears honestly in the row residual)
        hG = cbh[:, z0:] - BGx[:, p + 1:] / T
        s_rep = _clip_into_cone(hG, dims)
        res_rep, res_st = _norms(s_rep - hG), _norms(st - hG)
        np.copyto(st, s_rep, where=(res_rep < res_st)[:, None])
        pobj, dobj = cx / tau, -by_hz / tau
        nb_, nh_, nc_ = act.norms.T
        pres = np.maximum(_norms(hr[:, n:k]) / (tau * nb_),
                          np.minimum(res_rep, res_st) / nh_)
        dres = _norms(hr[:, :n]) / (tau * nc_)
        # s'z picks up residual-times-dual cross terms; the objective
        # difference is the cleaner suboptimality estimate once both
        # residuals are small, so use the smaller consistent measure
        gap = np.minimum(np.vecdot(st, zt), np.abs(pobj - dobj))
        relgap = gap / np.maximum(np.maximum(np.abs(pobj), np.abs(dobj)), 1.0)

        # the Lagrangian bound of each iterate (see `conelp`): a member
        # whose bound reaches its cutoff ends, before any other test
        r = hr[:, :n]
        np.fmax(act.best, (np.vecdot(r, np.where(r > 0, act.lo, act.hi))
                           - by_hz) / tau, out=act.best)
        done = act.best >= act.cut
        for j in np.flatnonzero(done):
            out[act.ids[j]] = _result(CUTOFF, it)
        rows = ~done & (np.maximum(pres, dres) <= feastol)
        if np.count_nonzero(rows):
            rows &= (relgap <= gaptol) | (gap <= gaptol * 1e-2)
            for j in np.flatnonzero(rows):
                out[act.ids[j]] = _result(OPTIMAL, it, x=xt[j])
            done |= rows
        # infeasibility certificates (rays, not scaled by tau): A'y + G'z
        # and [A x; G x + s] vanish relative to -b'y - h'z and -c'x
        rows = np.vecdot(BGyz, BGyz) <= act.cert * by_hz * by_hz
        if np.count_nonzero(rows):
            rows &= (by_hz < -1e-12) & ~done
            act.best[rows] = np.inf
            for j in np.flatnonzero(rows):
                yzc = yz[j] / -by_hz[j]
                yc, zc = yzc[:p], yzc[p + 1:]
                out[act.ids[j]] = _result(
                    INFEASIBLE, it,
                    certificate={"kind": "primal", "y": yc, "z": zc})
            done |= rows
        if np.count_nonzero(cx < -1e-12):
            BGx[:, p + 1:] += s
            rows = (~done & (cx < -1e-12)
                    & (_norms(BGx[:, :p]) / nb_ <= feastol * -cx)
                    & (_norms(BGx[:, p + 1:]) / nh_ <= feastol * -cx))
            for j in np.flatnonzero(rows):
                xc, sc = x[j] / -cx[j], s[j] / -cx[j]
                out[act.ids[j]] = _result(
                    UNBOUNDED, it, x=xc,
                    certificate={"kind": "dual", "x": xc, "s": sc})
            done |= rows
        # every member that ends reports its largest bound
        for j in np.flatnonzero(done):
            out[act.ids[j]]["bound"] = float(act.best[j])

        # NT scaling and KKT factor; a scaling blow-up at the boundary or a
        # failed factorization fails the member
        resid = (hr, hrt, mu)
        while True:
            if np.count_nonzero(done):
                act.keep(~done)
                if not len(act.ids):
                    return out
                resid = tuple(a[~done] for a in resid)
            ZS = act.X[:, k:].reshape(-1, 2, m + 1)
            scal = _Scaling(ZS[:, 1, 1:], ZS[:, 0, 1:], dims)
            done = ~scal.finite
            if not np.count_nonzero(done):
                kkt, hrs = act.lin.factor(scal, resid[0][:, z0:])
                done = ~kkt.ok
                if not np.count_nonzero(done):
                    break
            fail(done)
        hr, hrt, mu = resid
        X, cbh = act.X, act.cbh
        tau, kappa = X[:, k], X[:, s0 - 1]
        lam = scal.lam

        # Newton systems in the scaled coordinates W dz and W^{-1} ds; the
        # tau row reads c'dx + b'dy + h'dz, with h scaled like dz
        q = np.concatenate((cbh[:, :k], hrs[..., 0]), axis=1)
        base = -np.concatenate((hr[:, :k], hrs[..., 1]), axis=1)

        def direction(f, g, bk, u):
            """Step [dx; dy; dtau; dz; dkappa; ds] for residuals scaled by f
            and complementarity targets (lam o g, bk), from u solving the
            Newton system for them; also returns [W dz; W^{-1} ds]."""
            D = np.empty_like(X)
            dtau = D[:, k]
            np.divide(-f * hrt - bk / tau - np.vecdot(q, u), denom, out=dtau)
            u += dtau[:, None] * v
            D[:, s0 - 1] = (bk - kappa * dtau) / tau
            D[:, :k] = u[:, :k]
            WS = np.concatenate((u[:, k:], g - u[:, k:]),
                                axis=1).reshape(-1, 2, m)
            scal.unscale(WS, D[:, k:].reshape(-1, 2, m + 1)[:, :, 1:])
            return D, WS

        def newton(f, bs, bk):
            g = _jsolve(lam, bs, dims)
            r = base * f[:, None]
            r[:, k:] -= g
            return direction(f, g, bk, kkt.solve(r))[0]

        def feasible_step(D, back=1.0):
            return np.fmin(1.0, back * _max_step(
                ZS, D[:, k:].reshape(-1, 2, m + 1), dims1))

        # predictor, solved together with the tau direction v; its
        # complementarity target lam o g = -lam o lam has g = -lam
        lam2 = _jprod(lam, lam, dims)
        R = np.empty((len(X), 2, k + m))
        np.negative(q, out=R[:, 0])
        R[:, 0, n:] *= -1.0
        R[:, 1] = base
        R[:, 1, k:] += lam
        V = kkt.solve(R)
        v = V[:, 0]
        denom = np.vecdot(q, v) - kappa / tau
        tk = tau * kappa
        Da, WS = direction(1.0, -lam, -tk, V[:, 1])
        a_aff = feasible_step(Da)
        ZSa = ZS + a_aff[:, None, None] * Da[:, k:].reshape(-1, 2, m + 1)
        mu_aff = np.vecdot(ZSa[:, 0], ZSa[:, 1]) / (dims.degree + 1)
        sigma = np.fmin(1.0, np.fmax(0.0, mu_aff / mu)) ** 3

        # corrector; the second-order term is (W^{-1} ds) o (W dz)
        corr = _jprod(WS[:, 1], WS[:, 0], dims)
        smu = sigma * mu
        D = newton(1.0 - sigma, smu[:, None] * e - lam2 - corr,
                   smu - tk - Da[:, k] * Da[:, s0 - 1])
        step = feasible_step(D, _STEP)
        blocked = step < 1e-4
        if np.count_nonzero(blocked):
            # blocked by the corrector near a degenerate face: retake a plain
            # centering-biased step without the second-order term
            sigma2 = np.maximum(sigma, 0.5)
            smu2 = sigma2 * mu
            D2 = newton(1.0 - sigma2, smu2[:, None] * e - lam2, smu2 - tk)
            step2 = feasible_step(D2, _STEP)
            take = blocked & (step2 > step)
            D[take] = D2[take]
            step = np.where(take, step2, step)

        X += step[:, None] * D
        done = ~(step > 1e-10)
        if np.count_nonzero(done):
            fail(done)
            act.keep(~done)
            if not len(act.ids):
                return out

    fail(np.ones(len(act.ids), dtype=bool))
    return out


def make_dims(l, q):
    return _dims(int(l), tuple(int(k) for k in q))


@functools.lru_cache(maxsize=256)
def _dims(l, q):
    return _Dims(l, list(q))
