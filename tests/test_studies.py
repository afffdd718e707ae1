"""Study driver plumbing: hashing, ordered mapping, CSV output."""

import numpy as np
import pytest

from gmsfem import studies
from gmsfem.studies import (config_hash, detect_mode_counts, parallel_map,
                            run_convergence_study, run_eigendecay_study,
                            write_csv, _fmt)
from gmsfem.fields import channels_and_inclusions
from gmsfem.mesh import build_coarse_mesh, build_fine_mesh


def test_config_hash_stable_and_order_free():
    a = config_hash({"x": 1, "y": [2, 3]})
    b = config_hash({"y": [2, 3], "x": 1})
    assert a == b and len(a) == 12
    assert config_hash({"x": 2}) != a


def test_parallel_map_preserves_order():
    items = list(range(40))
    fn = lambda x: x * x
    assert parallel_map(fn, items, workers=1) == parallel_map(fn, items, workers=8)
    assert parallel_map(fn, items, workers=4) == [x * x for x in items]


def test_fmt_and_write_csv(tmp_path):
    assert _fmt(1.5) == "1.5000000000e+00"
    assert _fmt(7) == "7"
    p = tmp_path / "t.csv"
    write_csv(p, ["a", "b"], [[1, _fmt(2.0)], [3, "x"]])
    import csv
    with open(p, newline="") as fh:
        got = list(csv.reader(fh))
    assert got == [["a", "b"], ["1", "2.0000000000e+00"], ["3", "x"]]


def test_detect_mode_counts_small():
    fine = build_fine_mesh(20, 20)
    coarse = build_coarse_mesh(fine, 4, 4)
    counts = detect_mode_counts(coarse, lambda e: channels_and_inclusions(fine, e))
    assert set(counts) == set(range(coarse.N_v))
    assert min(counts.values()) >= 1
    assert max(counts.values()) < 30


def test_detect_mode_counts_keeps_one_column_per_node(monkeypatch):
    # only the spectra are read: a DETECT_PAIRS prefix of each, so a node
    # keeps the few columns of count DETECT_PAIRS - 1, not its whole space
    fine = build_fine_mesh(20, 20)
    coarse = build_coarse_mesh(fine, 4, 4)
    built = []
    original = studies.offline_spaces

    def recording(*args, **kwargs):
        spaces = original(*args, **kwargs)
        built.extend(spaces.values())
        return spaces

    monkeypatch.setattr(studies, "offline_spaces", recording)
    detect_mode_counts(coarse, lambda e: channels_and_inclusions(fine, e))
    assert len(built) == 2 * coarse.N_v
    assert all(s.dim == studies.DETECT_PAIRS - 1 for s in built)
    assert all(len(s.eigenvalues) == min(studies.DETECT_PAIRS, s.region.n_nodes)
               for s in built)


def test_detect_mode_counts_solves_a_filled_prefix_again_in_full(monkeypatch):
    # with two leading eigenvalues a node with three unbounded modes fills
    # the prefix; the whole-spectrum solve must give the counts of the
    # default prefix, none capped at 2
    fine = build_fine_mesh(20, 20)
    coarse = build_coarse_mesh(fine, 4, 4)
    field_at = lambda e: channels_and_inclusions(fine, e)
    want = detect_mode_counts(coarse, field_at)
    assert max(want.values()) > 2  # a count the short prefix would cap
    whole = []
    original = studies.offline_spaces

    def recording(*args, **kwargs):
        spaces = original(*args, **kwargs)
        if kwargs.get("threshold") is not None:
            whole.extend(spaces)
        return spaces

    monkeypatch.setattr(studies, "offline_spaces", recording)
    monkeypatch.setattr(studies, "DETECT_PAIRS", 2)
    assert detect_mode_counts(coarse, field_at) == want
    assert whole  # the fallback ran


def test_convergence_rows_shape(tmp_path):
    out = tmp_path / "conv.csv"
    rows = run_convergence_study(fine_n=20, coarse_n=4, eta=1e3,
                                 base_count=2, extra_max=1, out=str(out))
    assert len(rows) == 2
    assert rows[0][1] == "+0" and rows[1][1] == "+1"
    assert int(rows[1][2]) > int(rows[0][2])  # dimension grows
    assert rows[0][6] == rows[1][6]  # shared config hash
    lines = out.read_text().strip().splitlines()
    assert lines[0].split(",")[0] == "variant"
    assert len(lines) == 3


def test_eigendecay_without_point_sources_names_the_spacing():
    with pytest.raises(ValueError, match="source_spacing 5.0 places no point source"):
        run_eigendecay_study(fine_n=20, source_spacing=5.0)
