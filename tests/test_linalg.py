import numpy as np
import pytest

from sbqs.errors import CapacityError, NonHermitianError
from sbqs.hamiltonian import IsingParams, decompose_ising_local
from sbqs.linalg import (
    RegisterLayout,
    _components,
    check_density_matrix,
    embed_operator,
    frobenius_norm,
    hermitian_eig,
    kron,
    operator_norm,
    qubit_layout,
)

from oracles import random_hermitian, random_unitary

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)
ZERO = np.diag([1.0, 0.0]).astype(complex)


class TestLayout:
    def test_basics(self):
        layout = RegisterLayout((("c", 2), ("S", 4)))
        assert layout.dim == 8
        assert layout.labels == ("c", "S")
        assert layout.index("S") == 1

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            RegisterLayout((("a", 2), ("a", 2)))

    def test_unknown_label(self):
        with pytest.raises(KeyError, match="unknown"):
            qubit_layout(2).index("q7")


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(I2, I2), np.eye(4))

    def test_x_on_first_qubit(self):
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 2] = expected[2, 0] = expected[1, 3] = expected[3, 1] = 1
        assert np.array_equal(kron(X, I2), expected)

    def test_rank_one_projector(self):
        # oracle: explicit outer product of |0> ⊗ |+>
        v = np.kron(np.array([1.0, 0.0]), np.array([1.0, 1.0]) / np.sqrt(2))
        expected = np.outer(v, v.conj())
        got = kron(ZERO, PLUS)
        assert np.allclose(got, expected, atol=1e-15)
        assert np.linalg.matrix_rank(got) == 1

    def test_capacity(self):
        with pytest.raises(CapacityError):
            kron(np.eye(64), np.eye(128))

    def test_associativity_random(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a, b, c = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3))
            assert np.allclose(kron(kron(a, b), c), kron(a, kron(b, c)), atol=1e-12)


class TestEmbed:
    def test_matches_kron_on_contiguous_support(self):
        layout = qubit_layout(3)
        assert np.allclose(embed_operator(X, layout, ["q0"]), np.kron(X, np.eye(4)))
        assert np.allclose(embed_operator(X, layout, ["q2"]), np.kron(np.eye(4), X))

    def test_permuted_two_site_support(self):
        rng = np.random.default_rng(5)
        op = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        layout = qubit_layout(2)
        straight = embed_operator(op, layout, ["q0", "q1"])
        swapped = embed_operator(op, layout, ["q1", "q0"])
        swap = np.zeros((4, 4))
        swap[0, 0] = swap[3, 3] = swap[1, 2] = swap[2, 1] = 1
        assert np.allclose(straight, op)
        assert np.allclose(swapped, swap @ op @ swap, atol=1e-12)

    def test_adds_into_out_in_place(self):
        # op on (q2, q0) of three qubits: I_q1 ⊗ op with its qubits
        # reordered, added into out and returned as out
        rng = np.random.default_rng(6)
        op = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        base = rng.normal(size=(8, 8)) + 0j
        out = base.copy()
        got = embed_operator(op, qubit_layout(3), ["q2", "q0"], out)
        # op's axes are (q2, q0, q2', q0'), the identity's (q1, q1')
        want = np.einsum("ABCD,EF->BEADFC", op.reshape(2, 2, 2, 2), np.eye(2)).reshape(8, 8)
        assert got is out
        assert np.array_equal(out, base + want)
        with pytest.raises(ValueError, match="C-contiguous"):
            embed_operator(op, qubit_layout(3), ["q2", "q0"], np.zeros((8, 8), complex).T)


class TestHermitianEig:
    def test_pauli_spectra(self):
        vals_z, _ = hermitian_eig(Z)
        assert np.allclose(vals_z, [-1, 1])
        vals_x, vecs_x = hermitian_eig(X)
        assert np.allclose(vals_x, [-1, 1])
        minus = np.array([1, -1]) / np.sqrt(2)
        assert abs(abs(minus @ vecs_x[:, 0]) - 1) < 1e-12

    def test_ising_two_site_spectrum(self):
        h = -np.kron(X, X)
        vals, _ = hermitian_eig(h)
        assert np.allclose(vals, [-1, -1, 1, 1], atol=1e-12)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            h = random_hermitian(rng, 6, scale=3.0)
            vals, vecs = hermitian_eig(h)
            assert np.all(np.diff(vals) >= 0)
            recon = (vecs * vals) @ vecs.conj().T
            assert np.linalg.norm(recon - h) <= 1e-9 * np.linalg.norm(h)
            assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(6))) <= 1e-10

    def test_non_hermitian_rejected(self):
        with pytest.raises(NonHermitianError):
            hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_banded_symmetrization_is_h_minus_half_the_drift(self, monkeypatch, dtype):
        # h - h† in bands of 8 columns, the last one ragged: the matrix
        # decomposed, one block, is h - (h - h†)/2 formed whole, bit for bit
        import sbqs.linalg as linalg_mod

        monkeypatch.setattr(linalg_mod, "_BAND", 8)
        rng = np.random.default_rng(10)
        h = random_hermitian(rng, 20, scale=1.0)
        h = (h if dtype is np.complex128 else h.real) + 1e-12 * rng.normal(size=h.shape)
        vals, vecs = hermitian_eig(h)
        want_vals, want_vecs = np.linalg.eigh(h - (h - h.conj().T) / 2)
        assert np.array_equal(vals, want_vals) and np.array_equal(vecs, want_vecs)

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_an_exactly_hermitian_input_is_decomposed_with_no_copy(self, dtype):
        # the periodic n = 8 chain's W at d = 256, two parity blocks of 128,
        # and in complex W + iK, K antisymmetric on W's own entries: the traced
        # peak stays below the output, the gathered blocks and one band of
        # h - h†, so no d x d copy of h is held through eigh
        import tracemalloc

        import sbqs.linalg as linalg_mod

        w = decompose_ising_local(IsingParams(8, 1.0, 1.0, "periodic")).operator
        upper = np.triu(w, 1)
        h = w if dtype is np.float64 else w + 1j * (upper - upper.T)
        assert h.dtype == dtype and np.array_equal(h, h.conj().T)
        d = len(h)
        hermitian_eig(h)
        tracemalloc.start()
        try:
            vals, vecs = hermitian_eig(h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        gathered = 2 * (d // 2) ** 2 * h.itemsize
        band = d * min(d, linalg_mod._BAND) * h.itemsize
        assert peak < vals.nbytes + vecs.nbytes + gathered + band

    def test_an_integer_symmetric_input_gets_float_eigenvectors(self):
        h = np.array([[2, 1, 0], [1, 2, 0], [0, 0, 5]])
        vals, vecs = hermitian_eig(h)
        assert vals.dtype == vecs.dtype == np.float64
        assert np.allclose(vals, [1.0, 3.0, 5.0]) and np.allclose((vecs * vals) @ vecs.T, h)

    def test_drift_is_the_modulus_of_each_entry(self):
        # real and imaginary parts of h - h† at 0.8e-10 each: |z| = 1.13e-10
        # is past HERMITICITY_ATOL though neither part is; at 0.7e-10 each,
        # |z| = 0.99e-10 is not
        for part, rejected in ((0.8e-10, True), (0.7e-10, False)):
            h = np.array([[1.0, part * (1 + 1j)], [0.0, 2.0]])
            if rejected:
                with pytest.raises(NonHermitianError, match="by 1.131e-10"):
                    hermitian_eig(h)
            else:
                assert np.allclose(hermitian_eig(h)[0], [1.0, 2.0])

    @staticmethod
    def permuted_blocks(rng, sizes, dtype):
        """A Hermitian matrix whose rows and columns split into blocks of the
        given sizes, each a random index set and fully coupled inside, with
        eigenvalues drawn from a few values 0.5 apart, so that different
        blocks share eigenvalues.  Returns it and the blocks' index sets."""
        d = sum(sizes)
        levels = np.arange(-4, 4) * 0.5
        h = np.zeros((d, d), dtype=dtype)
        blocks = np.split(rng.permutation(d), np.cumsum(sizes)[:-1])
        for idx in blocks:
            u = random_unitary(rng, len(idx))
            u = u if np.issubdtype(dtype, np.complexfloating) else np.linalg.qr(u.real)[0]
            lam = rng.choice(levels, size=len(idx), replace=len(idx) > len(levels))
            h[np.ix_(idx, idx)] = (u * lam) @ u.conj().T
        return (h + h.conj().T) / 2, blocks

    @staticmethod
    def assert_matches_eigh(h, vals, vecs):
        """The decomposition against np.linalg.eigh: eigenvalues, residual,
        orthonormality, the spectral projector of every cluster of equal
        eigenvalues, dtype and layout."""
        ref_vals, ref_vecs = np.linalg.eigh(h)
        scale = np.max(np.abs(ref_vals))
        assert vals.dtype == ref_vals.dtype and vecs.dtype == h.dtype
        assert vecs.flags.c_contiguous
        assert np.max(np.abs(vals - ref_vals)) <= 1e-13 * scale
        assert np.linalg.norm(h @ vecs - vecs * vals, 2) <= 1e-13 * scale
        assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(len(h)))) <= 1e-13
        cuts = np.flatnonzero(np.diff(ref_vals) > 1e-8 * scale) + 1
        for cluster in np.split(np.arange(len(h)), cuts):
            got, want = vecs[:, cluster], ref_vecs[:, cluster]
            assert np.max(np.abs(got @ got.conj().T - want @ want.conj().T)) <= 1e-12

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("sizes", [(3, 5, 3, 1, 4), (8, 8, 8, 8), (1, 30, 1)])
    def test_permuted_blocks_match_eigh(self, sizes, dtype):
        rng = np.random.default_rng(sum(sizes) + len(sizes))
        for _ in range(3):
            h, blocks = self.permuted_blocks(rng, sizes, dtype)
            vals, vecs = hermitian_eig(h)
            self.assert_matches_eigh(h, vals, vecs)
            # each eigenvector lies in one block, with exact zeros outside it
            block_of = np.empty(len(h), dtype=int)
            for b, idx in enumerate(blocks):
                block_of[idx] = b
            for col in vecs.T:
                assert len(set(block_of[np.flatnonzero(col)])) == 1
            # equal eigenvalues of different blocks: the test has some
            assert np.any(np.diff(vals) < 1e-8)

    def test_diagonal_matrix_is_d_blocks_of_one(self):
        rng = np.random.default_rng(7)
        diag = rng.choice([-1.5, 0.0, 0.25, 2.0], size=40)
        h = np.diag(diag)
        vals, vecs = hermitian_eig(h)
        self.assert_matches_eigh(h, vals, vecs)
        ascending = np.argsort(diag, kind="stable")
        assert np.array_equal(vals, diag[ascending])
        assert np.array_equal(vecs, np.eye(40)[:, ascending])

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_fully_coupled_matrix_is_one_block(self, real):
        h = random_hermitian(np.random.default_rng(8), 24, scale=2.0)
        h = h.real + h.real.T if real else h
        vals, vecs = hermitian_eig(h)
        self.assert_matches_eigh(h, vals, vecs)
        # an exactly Hermitian matrix is decomposed as it is, not a rounded copy
        ref_vals, ref_vecs = np.linalg.eigh(h)
        assert np.array_equal(vals, ref_vals) and np.array_equal(vecs, ref_vecs)

    @pytest.mark.parametrize("n", [4, 5])
    def test_chain_ground_vector_stays_in_its_parity_sector(self, n):
        """fig2_right's chain conserves the parity of the Hamming weight, and
        its ground gap is small (6.2e-5 at n = 4, 5.4e-6 at n = 5): one eigh
        of the whole W leaks 5.75e-12 and 9.5e-11 of the ground vector's norm
        into the other sector.  One eigh per sector leaks nothing."""
        dec = decompose_ising_local(IsingParams(n=n, J=1.0, B=0.1, boundary="periodic"))
        vals, vecs = dec.eigensystem
        assert vals[1] - vals[0] < 1e-4
        ground = vecs[:, 0]
        parity = np.array([bin(i).count("1") % 2 for i in range(2**n)])
        sector = parity == parity[np.argmax(np.abs(ground))]
        assert np.all(ground[~sector] == 0)
        assert np.linalg.norm(ground[sector]) == pytest.approx(1.0, abs=1e-14)

    def test_components_match_a_graph_search(self):
        """Component labels against a depth-first search over the entries
        below the diagonal, on random graphs from empty to dense."""
        rng = np.random.default_rng(9)
        for density in (0.0, 0.01, 0.03, 0.1, 0.5):
            d = int(rng.integers(1, 60))
            linked = rng.random((d, d)) < density
            want = np.full(d, -1)
            for root in range(d):
                if want[root] >= 0:
                    continue
                stack = [root]
                while stack:
                    i = stack.pop()
                    if want[i] < 0:
                        want[i] = root
                        stack.extend(np.flatnonzero(linked[i, :i]))
                        stack.extend(i + 1 + np.flatnonzero(linked[i + 1:, i]))
            assert np.array_equal(_components(linked), want)

    def test_empty_matrix(self):
        vals, vecs = hermitian_eig(np.zeros((0, 0)))
        assert vals.shape == (0,) and vecs.shape == (0, 0)


class TestNorms:
    def test_pauli_values(self):
        assert operator_norm(Z) == pytest.approx(1.0)
        assert frobenius_norm(Z) == pytest.approx(np.sqrt(2))

    def test_frobenius_equals_eigenvalue_sum(self):
        h = -np.kron(X, X) - np.kron(Z, I2) - np.kron(I2, Z)
        vals, _ = hermitian_eig(h)
        assert frobenius_norm(h) == pytest.approx(np.sqrt(np.sum(vals**2)), abs=1e-10)


def test_check_density_matrix():
    check_density_matrix(np.eye(2) / 2)
    with pytest.raises(ValueError):
        check_density_matrix(np.diag([1.5, -0.5]))
    with pytest.raises(ValueError):
        check_density_matrix(np.eye(2))  # trace 2 vs recorded 1
