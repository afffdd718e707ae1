"""Grid construction and box-arithmetic index sets."""

import numpy as np
import pytest

from gmsfem.mesh import (LocalRegion, build_coarse_mesh, build_fine_mesh,
                         build_overlap)


def test_fine_mesh_counts_and_coords():
    m = build_fine_mesh(4, 3)
    assert m.n_nodes == 5 * 4
    assert m.n_cells == 12
    assert m.triangles.shape == (24, 3)
    assert np.allclose(m.node_coords[0], [0.0, 0.0])
    assert np.allclose(m.node_coords[-1], [1.0, 1.0])
    # cell (i, j) is j * nx + i; its bottom-left node is j * (nx + 1) + i
    assert m.triangles[2 * (2 * 4 + 3), 0] == 2 * 5 + 3


def test_triangle_areas_cover_unit_square():
    m = build_fine_mesh(5, 7)
    p = m.node_coords[m.triangles]
    x, y = p[:, :, 0], p[:, :, 1]
    area = 0.5 * ((x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0])
                  - (x[:, 2] - x[:, 0]) * (y[:, 1] - y[:, 0]))
    assert np.all(area > 0)  # consistent orientation
    assert area.sum() == pytest.approx(1.0, abs=1e-14)


def test_fine_mesh_rejects_bad_sizes():
    with pytest.raises(ValueError):
        build_fine_mesh(0, 4)


def test_boundary_nodes():
    m = build_fine_mesh(3, 3)
    assert len(m.boundary_nodes) == 4 * 3  # perimeter of a 4x4 node grid
    xy = m.node_coords[m.boundary_nodes]
    on_edge = (np.isclose(xy, 0.0) | np.isclose(xy, 1.0)).any(axis=1)
    assert on_edge.all()


def test_box_index_sets():
    m = build_fine_mesh(6, 6)
    cells = m.cells_in_box(1, 4, 2, 5)
    assert len(cells) == 9
    nodes = m.nodes_in_cell_box(1, 4, 2, 5)
    assert len(nodes) == 16
    interior = m.interior_nodes_of_cell_box(1, 4, 2, 5)
    assert len(interior) == 4
    # interior nodes are never on the box edge
    ii, jj = interior % 7, interior // 7
    assert ii.min() >= 2 and ii.max() <= 3
    assert jj.min() >= 3 and jj.max() <= 4


def test_free_nodes_of_cell_box_domain_boundary_exception():
    m = build_fine_mesh(6, 6)
    # box touching the domain boundary: edge nodes there stay free
    fn = m.free_nodes_of_cell_box(0, 3, 0, 3)
    ii, jj = fn % 7, fn // 7
    assert ii.min() == 0 and jj.min() == 0
    assert ii.max() == 2 and jj.max() == 2
    # fully interior box: all edges constrain
    fn2 = m.free_nodes_of_cell_box(1, 4, 1, 4)
    assert np.array_equal(fn2, m.interior_nodes_of_cell_box(1, 4, 1, 4))


def test_coarse_mesh_structure():
    fine = build_fine_mesh(12, 12)
    cm = build_coarse_mesh(fine, 4, 4)
    assert (cm.mx, cm.my) == (3, 3)
    assert cm.N_v == 25
    assert cm.n_blocks == 16
    assert len(cm.neighborhoods) == 25
    assert len(cm.interior_coarse_nodes) == 9
    # coarse node fine ids sit on the block corners
    i = cm.coarse_node_id(2, 3)
    assert cm.coarse_node_fine_ids[i] == 9 * (fine.nx + 1) + 6
    assert cm.coarse_node_ij(i) == (2, 3)


def test_coarse_mesh_divisibility():
    fine = build_fine_mesh(10, 10)
    with pytest.raises(ValueError):
        build_coarse_mesh(fine, 3, 3)


def test_neighborhood_boxes_clip_at_domain():
    fine = build_fine_mesh(12, 12)
    cm = build_coarse_mesh(fine, 4, 4)
    corner = cm.neighborhoods[cm.coarse_node_id(0, 0)]
    assert corner.cell_box == (0, 3, 0, 3)
    interior = cm.neighborhoods[cm.coarse_node_id(2, 2)]
    assert interior.cell_box == (3, 9, 3, 9)
    assert len(interior.nodes) == 49
    bnd = interior.boundary_nodes
    assert np.all(np.isin(bnd, interior.nodes))
    assert len(bnd) == 24


def test_box_boundary_nodes():
    fine = build_fine_mesh(8, 8)
    bnd = LocalRegion.from_cell_box(fine, (2, 5, 2, 5)).boundary_nodes
    assert len(bnd) == 12
    ii, jj = bnd % 9, bnd // 9
    on = (ii == 2) | (ii == 5) | (jj == 2) | (jj == 5)
    assert on.all()


def test_region_rejects_empty_and_outside_boxes():
    fine = build_fine_mesh(10, 10)
    # (8, 12) would wrap cells 10 and 11 into the next row; (3, 3) has no cell
    for box in [(8, 12, 0, 2), (3, 3, 0, 2), (0, 2, 5, 4), (-1, 2, 0, 2)]:
        for build in [lambda b: LocalRegion.from_cell_box(fine, b),
                      lambda b: fine.cells_in_box(*b),
                      lambda b: fine.nodes_in_cell_box(*b)]:
            with pytest.raises(ValueError, match="empty or leaves the 10x10 grid"):
                build(box)
    region = LocalRegion.from_cell_box(fine, (8, 10, 0, 2), label=7)
    assert region.label == 7
    assert np.array_equal(region.cells, [8, 9, 18, 19])


def test_neighborhoods_are_regions_labelled_by_coarse_node():
    fine = build_fine_mesh(12, 12)
    cm = build_coarse_mesh(fine, 4, 4)
    for i, nb in enumerate(cm.neighborhoods):
        assert isinstance(nb, LocalRegion) and nb.label == i
        assert LocalRegion.from_neighborhood(nb) is nb


def test_overlap_decomposition():
    fine = build_fine_mesh(12, 12)
    cm = build_coarse_mesh(fine, 3, 3)
    ov = build_overlap(cm, delta_layers=1)
    assert len(ov.interior_nodes) == 9
    # box 0 is clipped at the domain corner
    assert np.array_equal(ov.interior_nodes[0],
                          fine.interior_nodes_of_cell_box(0, 5, 0, 5))
    # the subdomain interiors cover every free fine node
    cover = np.zeros(fine.n_nodes, dtype=int)
    for nodes in ov.interior_nodes:
        cover[nodes] += 1
    free = np.setdiff1d(np.arange(fine.n_nodes), fine.boundary_nodes)
    assert cover[free].min() >= 1
    with pytest.raises(ValueError):
        build_overlap(cm, delta_layers=0)
