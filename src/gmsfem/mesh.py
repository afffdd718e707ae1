"""Structured fine and coarse grids on the unit square.

The fine grid splits every square cell along the bottom-left to top-right
diagonal, giving a deterministic P1 triangulation.  The coarse grid is a
partition into rectangular blocks of fine cells; node neighborhoods and
overlapping subdomains are all axis-aligned rectangles of fine cells, so
every index set is computed from box arithmetic and is bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def _box_nodes(nx: int, ix0: int, ix1: int, iy0: int, iy1: int) -> np.ndarray:
    """Fine-node ids of the closed node box [ix0,ix1] x [iy0,iy1]."""
    return (np.arange(iy0, iy1 + 1)[:, None] * (nx + 1) + np.arange(ix0, ix1 + 1)).ravel()


@dataclass
class FineMesh:
    """P1 triangulation of [0,1]^2 from an nx-by-ny grid of squares."""

    nx: int
    ny: int
    node_coords: np.ndarray  # ((nx+1)(ny+1), 2)
    triangles: np.ndarray    # (2*nx*ny, 3), cell c owns triangles 2c, 2c+1
    boundary_nodes: np.ndarray
    # fem's triangle geometry and CSR pattern per cell-box shape, built on first use
    cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n_nodes(self) -> int:
        return (self.nx + 1) * (self.ny + 1)

    @property
    def n_cells(self) -> int:
        return self.nx * self.ny

    def _check_box(self, cx0: int, cx1: int, cy0: int, cy1: int) -> None:
        """Reject an empty box and one whose ids would wrap into the next row."""
        if not (0 <= cx0 < cx1 <= self.nx and 0 <= cy0 < cy1 <= self.ny):
            raise ValueError(f"cell box {(cx0, cx1, cy0, cy1)} is empty or leaves "
                             f"the {self.nx}x{self.ny} grid of fine cells")

    def cells_in_box(self, cx0: int, cx1: int, cy0: int, cy1: int) -> np.ndarray:
        """Fine-cell ids of the half-open box [cx0,cx1) x [cy0,cy1)."""
        self._check_box(cx0, cx1, cy0, cy1)
        return (np.arange(cy0, cy1)[:, None] * self.nx + np.arange(cx0, cx1)).ravel()

    def nodes_in_cell_box(self, cx0: int, cx1: int, cy0: int, cy1: int) -> np.ndarray:
        """All nodes of the cells in the half-open cell box (a closed node box)."""
        self._check_box(cx0, cx1, cy0, cy1)
        return _box_nodes(self.nx, cx0, cx1, cy0, cy1)

    def interior_nodes_of_cell_box(self, cx0, cx1, cy0, cy1) -> np.ndarray:
        """Nodes of the cell box with zero trace on its boundary.

        Box edges lying on the domain boundary still count as boundary of
        the box, so these nodes always avoid the corresponding trace.
        """
        if cx1 - cx0 < 2 or cy1 - cy0 < 2:
            return np.empty(0, dtype=np.int64)
        return _box_nodes(self.nx, cx0 + 1, cx1 - 1, cy0 + 1, cy1 - 1)

    def free_nodes_of_cell_box(self, cx0, cx1, cy0, cy1) -> np.ndarray:
        """Nodes all of whose adjacent cells lie inside the cell box.

        A P1 function supported in the closed box may be nonzero exactly at
        these nodes.  Box edges on the domain boundary do not constrain.
        """
        ix0 = cx0 + 1 if cx0 > 0 else 0
        ix1 = cx1 - 1 if cx1 < self.nx else self.nx
        iy0 = cy0 + 1 if cy0 > 0 else 0
        iy1 = cy1 - 1 if cy1 < self.ny else self.ny
        if ix1 < ix0 or iy1 < iy0:
            return np.empty(0, dtype=np.int64)
        return _box_nodes(self.nx, ix0, ix1, iy0, iy1)

    def box_position(self, cell_box: tuple, nodes: np.ndarray) -> np.ndarray:
        """Index of each node in nodes_in_cell_box(*cell_box), -1 outside it."""
        cx0, cx1, cy0, cy1 = cell_box
        i = nodes % (self.nx + 1)
        j = nodes // (self.nx + 1)
        inside = (i >= cx0) & (i <= cx1) & (j >= cy0) & (j <= cy1)
        return np.where(inside, (j - cy0) * (cx1 - cx0 + 1) + (i - cx0), -1)


def build_fine_mesh(nx: int, ny: int) -> FineMesh:
    """Triangulate [0,1]^2 with nx*ny squares, two triangles each."""
    if nx < 1 or ny < 1:
        raise ValueError(f"cell counts must be >= 1, got ({nx}, {ny})")
    xs = np.linspace(0.0, 1.0, nx + 1)
    ys = np.linspace(0.0, 1.0, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    coords = np.column_stack([X.ravel(), Y.ravel()])

    ci, cj = np.meshgrid(np.arange(nx), np.arange(ny), indexing="xy")
    ci = ci.ravel()
    cj = cj.ravel()
    a = cj * (nx + 1) + ci          # bottom-left
    b = a + 1                       # bottom-right
    c = b + (nx + 1)                # top-right
    d = a + (nx + 1)                # top-left
    # diagonal a-c: lower triangle (a,b,c), upper triangle (a,c,d), both CCW
    tris = np.empty((2 * nx * ny, 3), dtype=np.int64)
    tris[0::2] = np.column_stack([a, b, c])
    tris[1::2] = np.column_stack([a, c, d])

    jj, ii = np.divmod(np.arange((nx + 1) * (ny + 1)), nx + 1)
    bnd = np.flatnonzero((ii == 0) | (ii == nx) | (jj == 0) | (jj == ny))
    return FineMesh(nx=nx, ny=ny, node_coords=coords, triangles=tris, boundary_nodes=bnd)


@dataclass
class LocalRegion:
    """A box of fine cells with its node sets, the unit of local assembly.

    Every coarse neighborhood omega_i is one, named by its cell box;
    from_cell_box is the only constructor.
    """

    cell_box: tuple      # (cx0, cx1, cy0, cy1) fine-cell half-open box
    cells: np.ndarray
    nodes: np.ndarray    # the closed node box, ascending
    boundary_nodes: np.ndarray  # nodes on the box boundary

    @classmethod
    def from_cell_box(cls, mesh: FineMesh, box: tuple):
        cx0, cx1, cy0, cy1 = box
        nodes = mesh.nodes_in_cell_box(*box)
        i, j = nodes % (mesh.nx + 1), nodes // (mesh.nx + 1)
        on = (i == cx0) | (i == cx1) | (j == cy0) | (j == cy1)
        return cls(cell_box=box, cells=mesh.cells_in_box(*box), nodes=nodes,
                   boundary_nodes=nodes[on])

    @classmethod
    def from_neighborhood(cls, nb):
        """nb itself: a neighborhood already is a region."""
        return nb

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def local_index(self, mesh: FineMesh, nodes: np.ndarray) -> np.ndarray:
        out = mesh.box_position(self.cell_box, np.asarray(nodes))
        if np.any(out < 0):
            raise ValueError("nodes outside the region")
        return out


@dataclass
class CoarseMesh:
    """Coarse partition of a FineMesh into Nx*Ny rectangular blocks."""

    fine: FineMesh
    Nx: int
    Ny: int
    mx: int  # fine cells per block in x
    my: int
    neighborhoods: list

    @property
    def N_v(self) -> int:
        return (self.Nx + 1) * (self.Ny + 1)

    @property
    def n_blocks(self) -> int:
        return self.Nx * self.Ny

    def coarse_node_id(self, I, J):
        return J * (self.Nx + 1) + I

    def coarse_node_ij(self, i: int):
        return i % (self.Nx + 1), i // (self.Nx + 1)

    def block_node_box(self, K: int) -> tuple:
        """Box (ix0, ix1, iy0, iy1) of coarse cell K (row-major): the closed
        node box of its fine nodes and the half-open cell box of its cells."""
        bi, bj = K % self.Nx, K // self.Nx
        return (bi * self.mx, (bi + 1) * self.mx, bj * self.my, (bj + 1) * self.my)

    def nodes_meeting(self, cell_box: tuple) -> list:
        """Coarse nodes, ascending, whose neighborhood shares a fine node
        with the closed node box of cell_box."""
        cx0, cx1, cy0, cy1 = cell_box
        # omega_I spans fine node columns max(I-1, 0)*mx .. min(I+1, Nx)*mx
        xs = range(max(-(-cx0 // self.mx) - 1, 0), min(cx1 // self.mx + 1, self.Nx) + 1)
        ys = range(max(-(-cy0 // self.my) - 1, 0), min(cy1 // self.my + 1, self.Ny) + 1)
        return [self.coarse_node_id(I, J) for J in ys for I in xs]


def _neighborhood_box(cm: CoarseMesh, I: int, J: int) -> tuple:
    cx0 = max(I - 1, 0) * cm.mx
    cx1 = min(I + 1, cm.Nx) * cm.mx
    cy0 = max(J - 1, 0) * cm.my
    cy1 = min(J + 1, cm.Ny) * cm.my
    return cx0, cx1, cy0, cy1


def build_coarse_mesh(fine: FineMesh, Nx: int, Ny: int) -> CoarseMesh:
    """Partition the fine grid into Nx*Ny blocks and build node neighborhoods."""
    if Nx < 1 or Ny < 1:
        raise ValueError(f"coarse cell counts must be >= 1, got ({Nx}, {Ny})")
    if fine.nx % Nx != 0 or fine.ny % Ny != 0:
        raise ValueError(
            f"coarse grid {Nx}x{Ny} does not divide fine grid {fine.nx}x{fine.ny}"
        )
    mx, my = fine.nx // Nx, fine.ny // Ny
    cm = CoarseMesh(fine=fine, Nx=Nx, Ny=Ny, mx=mx, my=my, neighborhoods=[])
    nbhs = []
    for i in range(cm.N_v):
        I, J = cm.coarse_node_ij(i)
        box = _neighborhood_box(cm, I, J)
        nbhs.append(LocalRegion.from_cell_box(fine, box))
    cm.neighborhoods = nbhs
    return cm


@dataclass
class OverlapDecomposition:
    """Coarse blocks padded by delta fine-cell layers, clipped at the domain."""

    interior_nodes: list    # nodes with zero trace on the padded box boundary


def build_overlap(coarse: CoarseMesh, delta_layers: int = 1) -> OverlapDecomposition:
    """Enlarge every non-overlapping block by delta_layers fine-cell rings."""
    if delta_layers < 1:
        raise ValueError(f"delta_layers must be >= 1, got {delta_layers}")
    fine = coarse.fine
    interiors = []
    for K in range(coarse.n_blocks):
        cx0, cx1, cy0, cy1 = coarse.block_node_box(K)
        box = (
            max(cx0 - delta_layers, 0), min(cx1 + delta_layers, fine.nx),
            max(cy0 - delta_layers, 0), min(cy1 + delta_layers, fine.ny),
        )
        interiors.append(fine.interior_nodes_of_cell_box(*box))
    return OverlapDecomposition(interior_nodes=interiors)
