"""Hand-checked cases for the involution-orbit kernels."""

from monmap import kernels


class TestPurePython:
    def test_orbit_ids2_first_visit_order(self):
        p = (1, 0, 3, 2)
        q = (1, 0, 3, 2)
        ids, count = kernels.orbit_ids2(p, q)
        assert ids == [0, 0, 1, 1] and count == 2

    def test_face_data_alternating_coloring(self):
        # hexagon: beta pairs (0,1)(2,3)(4,5), omega pairs (1,2)(3,4)(5,0)
        beta = (1, 0, 3, 2, 5, 4)
        omega = (5, 2, 1, 4, 3, 0)
        ids, cols, count = kernels.face_data(beta, omega)
        assert count == 1
        assert cols == [0, 1, 0, 1, 0, 1]

    def test_bipartite3(self):
        # single edge: all three involutions swap 0 and 1
        swap = (1, 0)
        assert kernels.bipartite3(swap, swap, swap)
        # klein triple is not bipartite
        beta = (1, 0, 3, 2, 5, 4)
        omega = (5, 2, 1, 4, 3, 0)
        eps = (4, 3, 5, 1, 0, 2)
        assert not kernels.bipartite3(beta, omega, eps)

    def test_empty_inputs(self):
        assert kernels.orbit_ids2((), ()) == ([], 0)
        assert kernels.orbit_ids3((), (), ()) == ([], 0)
        assert kernels.face_data((), ()) == ([], [], 0)
        assert kernels.bipartite3((), (), ())
