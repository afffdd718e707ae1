"""Coefficient fields, affine families, and the field file format."""

import numpy as np
import pytest

from gmsfem.coeff import (AffineCoefficient, CoefficientField, ParameterPoint,
                          anisotropic_from_scalar, cell_box_from_coords,
                          evaluate, generate_inclusions_channels, read_field,
                          write_field)
from gmsfem.mesh import build_fine_mesh


def test_positivity_enforced():
    with pytest.raises(ValueError):
        CoefficientField(np.array([1.0, 0.0, 2.0]))
    with pytest.raises(ValueError):
        CoefficientField(np.array([[1.0, -1.0]]))


def test_scalar_and_tensor_access():
    f = CoefficientField(np.array([1.0, 4.0]))
    assert not f.is_tensor
    assert f.contrast == 4.0
    assert np.array_equal(f.k11(), f.k22())
    t = CoefficientField(np.array([[2.0, 3.0], [5.0, 7.0]]))
    assert t.is_tensor
    assert np.array_equal(t.k11(), [2.0, 5.0])
    assert np.array_equal(t.k22(), [3.0, 7.0])


def test_parameter_point_box_check():
    box = np.array([[0.0, 1.0], [0.0, 1.0]])
    ParameterPoint(mu=[0.5, 1.0], box=box)
    with pytest.raises(ValueError):
        ParameterPoint(mu=[0.5, 1.5], box=box)
    with pytest.raises(ValueError):
        ParameterPoint(mu=[0.5], box=box)


def test_affine_evaluate_matches_manual_sum():
    rng = np.random.default_rng(7)
    f1 = CoefficientField(rng.uniform(1.0, 2.0, 10))
    f2 = CoefficientField(rng.uniform(1.0, 2.0, 10))
    aff = AffineCoefficient(fields=[f1, f2], box=np.array([[0.0, 1.0]] * 2))
    mu = aff.parameter([0.3, 0.7])
    got = evaluate(aff, mu)
    want = 0.3 * f1.values + 0.7 * f2.values
    assert np.allclose(got.values, want, rtol=0, atol=1e-15)


def test_affine_evaluate_rejects_nonpositive():
    f = CoefficientField(np.ones(4))
    aff = AffineCoefficient(fields=[f, f], box=np.array([[0.0, 1.0], [-2.0, 1.0]]))
    with pytest.raises(ValueError):
        evaluate(aff, aff.parameter([1.0, -2.0]))


def test_affine_shape_mismatch():
    with pytest.raises(ValueError):
        AffineCoefficient(
            fields=[CoefficientField(np.ones(4)), CoefficientField(np.ones(5))],
            box=np.array([[0.0, 1.0]] * 2))
    with pytest.raises(ValueError):
        AffineCoefficient(fields=[CoefficientField(np.ones(4))],
                          box=np.array([[0.0, 1.0]] * 2))


def test_generate_inclusions_channels():
    fine = build_fine_mesh(10, 10)
    f = generate_inclusions_channels(fine, [(0, 10, 4, 5), (2, 4, 7, 9)], 1e3)
    # cell (i, j) is j * nx + i
    assert f.values[4 * fine.nx + 0] == 1e3
    assert f.values[8 * fine.nx + 3] == 1e3
    assert f.values[0] == 1.0
    assert (f.values == 1e3).sum() == 10 + 4
    with pytest.raises(ValueError):
        generate_inclusions_channels(fine, [(0, 1, 0, 1)], 0.5)
    with pytest.raises(ValueError):
        generate_inclusions_channels(fine, [(0, 11, 0, 1)], 10.0)


def test_anisotropic_from_scalar():
    f = CoefficientField(np.array([3.0, 5.0]))
    t = anisotropic_from_scalar(f)
    assert t.is_tensor
    assert np.array_equal(t.k11(), [3.0, 5.0])
    assert np.array_equal(t.k22(), [1.0, 1.0])
    with pytest.raises(ValueError):
        anisotropic_from_scalar(t)


def test_cell_box_from_coords():
    fine = build_fine_mesh(20, 20)
    assert cell_box_from_coords(fine, 0.4, 0.6, 0.1, 0.35) == (8, 12, 2, 7)


def test_field_io_roundtrip(tmp_path):
    fine = build_fine_mesh(4, 4)
    rng = np.random.default_rng(3)
    for vals in (rng.uniform(1, 2, 16), rng.uniform(1, 2, (16, 2))):
        f = CoefficientField(vals)
        p = tmp_path / "field.txt"
        write_field(p, f, fine)
        nx, ny, back = read_field(p)
        assert (nx, ny) == (4, 4)
        assert np.array_equal(back.values, f.values)


def test_field_io_errors(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("4 4 diagonal\n")
    with pytest.raises(ValueError):
        read_field(p)
    p.write_text("2 2 scalar\n1.0\n1.0\n1.0\n")
    with pytest.raises(ValueError):
        read_field(p)
