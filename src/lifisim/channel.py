"""Optical DC channel gains: line-of-sight and diffuse reflections.

A generalized-Lambertian source of order k illuminates a photodiode of
area A through the gain

    h = (k + 1) / (2 pi d^2) * A * cos^k(phi) * cos(psi)

for radiance angle phi at the source and incidence angle psi at the
detector, zero outside the detector field of view or behind either
face. The diffuse part bounces over a mesh of wall, floor and ceiling
elements that absorb with their full hemisphere and re-emit as order-1
Lambertian sources; summing every reflection order amounts to the
matrix equation

    h_nlos = r^T G_rho (I - E G_rho)^(-1) t

with E the element-to-element transfer matrix, G_rho the reflectivity
diagonal, t the source-to-element and r the element-to-detector gains
(Schulze, IEEE Trans. Commun. 2016). E is built from one geometry
evaluation per pair of faces, which gives both of the pair's blocks
(E is reciprocal, E_ji A_i = E_ij A_j); elements of one flat face see
none of each other. A dense LU factorization of the reflection system
is computed once per mesh and the gains come from the adjoint system
(I - E G_rho)^T w = G_rho r, whose right-hand side has one column per
detector: h_nlos = w^T t. The detectors of a whole block of poses share
one solve. No explicit inverse is formed.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .blockage import blockage_mask


class RadiosityError(RuntimeError):
    """Raised when the reflection series does not converge."""


def lambertian_order(semiangle_deg):
    """Lambertian emission order k = -1 / log2(cos(semiangle)) of a
    source with half-power semiangle semiangle_deg in (0, 90)."""
    if not 0 < semiangle_deg < 90:
        raise ValueError("semiangle must lie in (0, 90) degrees")
    return -1.0 / np.log2(np.cos(np.deg2rad(semiangle_deg)))


#: Receiver x transmitter pairs los_gain_matrix, and the transfer matrix
#: build, evaluate at once. A larger call fills its output this many
#: pairs' worth of receivers at a time, which bounds its temporaries
#: near 20 MiB; every gain is the same.
LOS_PAIRS = 1 << 18


def los_gain_matrix(tx_pos, tx_normal, rx_pos, rx_normal, order, area,
                    fov_deg):
    """LOS gains between every transmitter-receiver pair.

    Args:
        tx_pos, tx_normal: (n_tx, 3) source positions and unit normals.
        rx_pos, rx_normal: (n_rx, 3) detector positions and unit normals.
        order: Lambertian order of the sources.
        area: detector area, m^2 (scalar or (n_rx,)).
        fov_deg: detector field of view (scalar or (n_rx,)).

    Returns:
        (n_rx, n_tx) array of nonnegative gains; zero where the
        incidence angle exceeds the FOV or either cosine is negative.
        Coincident positions yield zero gain.
    """
    tx_pos, tx_normal, rx_pos, rx_normal = np.atleast_2d(
        tx_pos, tx_normal, rx_pos, rx_normal)
    cos_fov = np.cos(np.deg2rad(np.asarray(fov_deg, dtype=float)))
    area = np.asarray(area, dtype=float)
    step = max(1, LOS_PAIRS // max(1, len(tx_pos)))
    out = np.empty((len(rx_pos), len(tx_pos)))
    for i in range(0, len(rx_pos), step):
        rows = slice(i, i + step)
        out[rows] = _los_gain(
            *_los_geometry(tx_pos, tx_normal, rx_pos[rows], rx_normal[rows]),
            order, area[rows, None] if area.ndim == 1 else area,
            cos_fov[rows, None] if cos_fov.ndim == 1 else cos_fov)
    return out


def _los_geometry(tx_pos, tx_normal, rx_pos, rx_normal):
    """(d2, safe_d2, cos_phi, cos_psi) of every (n_rx, n_tx) pair.

    Swapping the roles of the two sets gives the same d2, and cos_phi
    and cos_psi exchanged, bit for bit: each sum only changes sign.
    """
    diff = np.empty((len(rx_pos), len(tx_pos), 3))      # rx - tx
    for k in range(3):          # a component at a time: faster, same bits
        np.subtract(rx_pos[:, k, None], tx_pos[:, k], out=diff[..., k])
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    safe_d2 = np.where(d2 > 0.0, d2, 1.0)     # masked out of the result
    inv_d = 1.0 / np.sqrt(safe_d2)
    cos_phi = np.einsum("jk,ijk->ij", tx_normal, diff) * inv_d
    cos_psi = -np.einsum("ik,ijk->ij", rx_normal, diff) * inv_d
    return d2, safe_d2, cos_phi, cos_psi


def _los_gain(d2, safe_d2, cos_phi, cos_psi, order, area, cos_fov):
    """Gains from the pair arrays of _los_geometry; area and cos_fov
    broadcast against them, so a per-receiver value is a column."""
    visible = (cos_phi > 0) & (cos_psi > 0) & (cos_psi >= cos_fov) & (d2 > 0)
    cos_phi = np.clip(cos_phi, 0.0, 1.0)
    cos_psi = np.clip(cos_psi, 0.0, 1.0)
    gain = (order + 1) / (2 * np.pi * safe_d2) * area * cos_phi ** order * cos_psi
    return np.where(visible, gain, 0.0)


@dataclass(frozen=True)
class SurfaceMesh:
    """Flat tiling of the room boundary into reflecting elements."""

    centers: np.ndarray       # (n, 3)
    normals: np.ndarray       # (n, 3), unit, pointing into the room
    areas: np.ndarray         # (n,)
    rho: np.ndarray           # (n,) reflectivities

    @property
    def n_elements(self):
        return self.centers.shape[0]


def build_environment_mesh(sc):
    """Tile floor, ceiling and the four walls of the scenario's room
    with a uniform grid.

    Reads sc.room_width, sc.room_depth and sc.room_height, the
    reflectivities sc.rho_walls, sc.rho_floor and sc.rho_ceiling, and
    sc.mesh_resolution. Each face is split into round(dim / resolution)
    cells per axis (at least one), so cell areas sum to the exact
    boundary area even when the resolution does not divide the face.
    """
    resolution = sc.mesh_resolution
    if resolution <= 0:
        raise ValueError("mesh_resolution must be positive")
    w, d, h = sc.room_width, sc.room_depth, sc.room_height

    faces = [
        # (origin, axis_u, axis_v, dims (len_u, len_v), normal, rho)
        ((0, 0, 0), (1, 0, 0), (0, 1, 0), (w, d), (0, 0, 1), sc.rho_floor),
        ((0, 0, h), (1, 0, 0), (0, 1, 0), (w, d), (0, 0, -1), sc.rho_ceiling),
        ((0, 0, 0), (0, 1, 0), (0, 0, 1), (d, h), (1, 0, 0), sc.rho_walls),
        ((w, 0, 0), (0, 1, 0), (0, 0, 1), (d, h), (-1, 0, 0), sc.rho_walls),
        ((0, 0, 0), (1, 0, 0), (0, 0, 1), (w, h), (0, 1, 0), sc.rho_walls),
        ((0, d, 0), (1, 0, 0), (0, 0, 1), (w, h), (0, -1, 0), sc.rho_walls),
    ]

    centers, normals, areas, rho = [], [], [], []
    for origin, au, av, (lu, lv), normal, r in faces:
        nu = max(1, round(lu / resolution))
        nv = max(1, round(lv / resolution))
        du, dv = lu / nu, lv / nv
        us = du / 2 + du * np.arange(nu)
        vs = dv / 2 + dv * np.arange(nv)
        gu, gv = np.meshgrid(us, vs, indexing="ij")
        pts = (np.asarray(origin, dtype=float)
               + gu.ravel()[:, None] * np.asarray(au, dtype=float)
               + gv.ravel()[:, None] * np.asarray(av, dtype=float))
        centers.append(pts)
        normals.append(np.tile(np.asarray(normal, dtype=float), (pts.shape[0], 1)))
        areas.append(np.full(pts.shape[0], du * dv))
        rho.append(np.full(pts.shape[0], r))

    return SurfaceMesh(
        centers=np.concatenate(centers),
        normals=np.concatenate(normals),
        areas=np.concatenate(areas),
        rho=np.concatenate(rho),
    )


# Surface elements absorb over the full hemisphere and re-emit as
# order-1 Lambertian sources.
ELEMENT_ORDER = 1.0
ELEMENT_FOV_DEG = 90.0


def _transfer_matrix(mesh):
    """E: the mesh's (n, n) element-to-element LOS gains, Fortran order.

    Bit for bit los_gain_matrix of the mesh onto itself with a zero
    diagonal, from under half its pair evaluations. Within a run of
    consecutive elements with equal normals cos psi = -cos phi exactly,
    so no pair is visible and the block stays zero. For each pair of
    runs f < g one geometry evaluation, of at most LOS_PAIRS pairs at a
    time, gives E[f, g] and, with the roles and areas swapped, E[g, f]
    (E_ji = E_ij A_j / A_i).
    """
    c, nrm, a, n = mesh.centers, mesh.normals, mesh.areas, mesh.n_elements
    cos_fov = np.cos(np.deg2rad(ELEMENT_FOV_DEG))
    e = np.zeros((n, n), order="F")
    cuts = [0, *np.flatnonzero((nrm[1:] != nrm[:-1]).any(axis=1)) + 1, n]
    runs = [slice(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
    for f, run in enumerate(runs):
        for cols in runs[f + 1:]:
            step = max(1, LOS_PAIRS // (cols.stop - cols.start))
            for i in range(run.start, run.stop, step):
                rows = slice(i, min(i + step, run.stop))
                geo = _los_geometry(c[cols], nrm[cols], c[rows], nrm[rows])
                e[rows, cols] = _los_gain(*geo, ELEMENT_ORDER, a[rows, None],
                                          cos_fov)
                # the roles swapped: d2 as it is, cos phi and cos psi swapped
                e[cols, rows] = _los_gain(*geo[:2], geo[3], geo[2],
                                          ELEMENT_ORDER, a[cols], cos_fov).T
    return e


class RadiositySolver:
    """Infinite-reflection solver bound to one mesh.

    Builds the element-to-element transfer matrix from face-pair blocks
    (_transfer_matrix) and factorizes (I - E G_rho) once; the gains of
    any block of transmitter/receiver poses then cost one pair of
    triangular solves of the transposed system, with one right-hand
    side per receiver of every pose.
    spectral_radius is the power-iteration estimate of the spectral
    radius of E G_rho, below 1 for a mesh the solver accepts.
    """

    def __init__(self, mesh):
        self.mesh = mesh
        # One n x n array holds E, then E G_rho, then I - E G_rho and at
        # last its LU factors: Fortran order lets LAPACK factor in place.
        eg = _transfer_matrix(mesh)
        eg *= mesh.rho[None, :]
        self.spectral_radius = self._check_convergence(eg)
        system = np.subtract(0.0, eg, out=eg)     # 0 - x keeps zeros +0
        np.fill_diagonal(system, 1.0)
        self._lu = lu_factor(system, overwrite_a=True)

    @staticmethod
    def _check_convergence(eg):
        """Power iteration estimate (100 steps) of the spectral radius of
        E G_rho.

        Returns the estimate; raises RadiosityError at 1 or above.
        """
        rng = np.random.default_rng(0)
        v = rng.uniform(0.5, 1.0, size=eg.shape[0])
        lam = 0.0
        for _ in range(100):
            w = eg @ v
            norm = np.linalg.norm(w)
            if norm == 0.0:
                return 0.0          # (E G_rho)^m v0 = 0, v0 > 0: nilpotent
            lam = norm / np.linalg.norm(v)
            v = w / norm
        if lam >= 1.0:
            raise RadiosityError(
                f"reflection series diverges (spectral radius ~ {lam:.3f})")
        return lam

    def solve(self, t, r=None):
        """Forward solve, or with r the diffuse gains of a block of poses.

        Without r: x with (I - E G_rho) x = t; t may hold several columns.

        With r: the adjoint system (I - E G_rho)^T w = G_rho r^T is solved
        once, one right-hand side per detector of every pose, and pose k's
        gains are w_k^T t_k, which equals
        r_k G_rho (I - E G_rho)^(-1) t_k.

        Args:
            t: (n_elements, m) right-hand sides; with r, a sequence of B
                (n_elements, n_tx) LOS gain matrices from each pose's
                transmitters into the mesh (elements as detectors of
                their own area).
            r: (B * n_rx, n_elements) LOS gains from each element (as an
                order-1 emitter) to each detector, pose k's detectors in
                rows k * n_rx to (k + 1) * n_rx.

        Returns:
            x, or the (B, n_rx, n_tx) stack of diffuse gain matrices.
        """
        if r is None:
            return lu_solve(self._lu, t)
        w = lu_solve(self._lu, self.mesh.rho[:, None] * r.T, trans=1,
                     check_finite=False)
        n_rx = w.shape[1] // len(t)
        return np.stack([w[:, k * n_rx:(k + 1) * n_rx].T @ tk
                         for k, tk in enumerate(t)])


def mesh_gains(tx_pos, tx_normal, tx_order, mesh):
    """(n_elements, n_tx) LOS gains from each transmitter into the mesh.

    Elements act as detectors of their own area over the full
    hemisphere.
    """
    return los_gain_matrix(tx_pos, tx_normal, mesh.centers, mesh.normals,
                           tx_order, mesh.areas, ELEMENT_FOV_DEG)


def nlos_gain(tx_pos, tx_normal, tx_order, rx_pos, rx_normal, rx_area, rx_fov_deg,
              solver, blockers=()):
    """Diffuse gain matrix between transmitters and receivers.

    Blockage cuts the transmitter-to-element and element-to-receiver
    segments; shadowing between mesh elements is not modeled. The
    one-pose reference form: harness.ChannelBuilder computes the same
    gains for a block of poses, with the transmitter-to-mesh part built
    once per scenario.
    """
    mesh = solver.mesh
    t = mesh_gains(tx_pos, tx_normal, tx_order, mesh)
    r = los_gain_matrix(mesh.centers, mesh.normals, rx_pos, rx_normal,
                        ELEMENT_ORDER, rx_area, rx_fov_deg)
    if blockers:
        t = np.where(blockage_mask(tx_pos, mesh.centers, blockers,
                                   where=t > 0), 0.0, t)
        r = np.where(blockage_mask(mesh.centers, rx_pos, blockers,
                                   where=r > 0), 0.0, r)
    return solver.solve([t], r)[0]
