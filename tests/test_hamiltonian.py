import pickle

import numpy as np
import pytest

from sbqs.config import parse_model
from sbqs.hamiltonian import (
    RHO_X,
    RHO_Z,
    IsingParams,
    PauliString,
    PauliSum,
    ResourceTerm,
    build_ising,
    decompose_ising_local,
    decompose_pauli_generic,
    densify,
    shift_to_positive,
)
from sbqs.linalg import check_density_matrix, hermitian_eig

from oracles import protocol_operator, random_hermitian

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)


def ident_residual(dec, source_dense):
    """Max deviation of densify(dec) - source from a multiple of identity."""
    diff = densify(dec) - source_dense
    c = np.trace(diff).real / diff.shape[0]
    return float(np.max(np.abs(diff - c * np.eye(diff.shape[0]))))


class TestBuildIsing:
    def test_two_site_bond_only(self):
        ham = build_ising(IsingParams(2, 1.0, 0.0, "open"))
        non_zero = [t for t in ham.terms if t.coefficient != 0]
        assert [(t.letters, t.coefficient) for t in non_zero] == [("XX", -1.0)]
        vals, _ = hermitian_eig(densify(ham))
        assert np.allclose(vals, [-1, -1, 1, 1], atol=1e-12)

    def test_field_only(self):
        ham = build_ising(IsingParams(2, 0.0, 1.0, "open"))
        dense = densify(ham)
        assert np.allclose(dense, np.diag([-2, 0, 0, 2]))
        vals, _ = hermitian_eig(dense)
        assert vals[0] == pytest.approx(-2.0)

    def test_figure_configuration_term_count(self):
        ham = build_ising(IsingParams(4, 1.0, 5.0, "periodic"))
        assert len(ham.terms) == 8  # 4 bonds + 4 fields

    def test_param_validation(self):
        with pytest.raises(ValueError):
            IsingParams(1, 1.0, 1.0)
        with pytest.raises(ValueError, match="periodic"):
            IsingParams(2, 1.0, 1.0, "periodic")
        with pytest.raises(ValueError):
            IsingParams(3, 1.0, 1.0, "twisted")


class TestShiftToPositive:
    def test_pauli_z(self):
        shifted, shift = shift_to_positive(Z)
        assert shift == pytest.approx(np.sqrt(2))
        vals, _ = hermitian_eig(shifted)
        assert np.allclose(vals, [np.sqrt(2) - 1, np.sqrt(2) + 1])

    def test_zero_operator(self):
        shifted, shift = shift_to_positive(np.zeros((4, 4)))
        assert shift == 0.0
        assert np.allclose(shifted, 0.0)

    def test_already_positive_still_shifts(self):
        shifted, shift = shift_to_positive(np.diag([1.0, 2.0]).astype(complex))
        assert shift == pytest.approx(np.sqrt(5))
        assert np.allclose(shifted, np.diag([1 + np.sqrt(5), 2 + np.sqrt(5)]))

    def test_pauli_sum_moves_offset(self):
        ham = build_ising(IsingParams(2, 1.0, 1.0, "open"))
        shifted, shift = shift_to_positive(ham)
        assert shifted.identity_offset == pytest.approx(shift)
        assert np.allclose(densify(shifted), densify(ham) + shift * np.eye(4))

    def test_random_hermitian_properties(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            h = random_hermitian(rng, 8, scale=2.0)
            vals_in, vecs_in = hermitian_eig(h)
            if vals_in[1] - vals_in[0] < 1e-6:
                continue
            shifted, _ = shift_to_positive(h)
            vals_out, vecs_out = hermitian_eig(shifted)
            assert vals_out[0] >= -1e-10
            overlap = abs(np.vdot(vecs_in[:, 0], vecs_out[:, 0]))
            assert overlap == pytest.approx(1.0, abs=1e-9)


class TestGenericDecomposition:
    def test_single_z(self):
        dec = decompose_pauli_generic(PauliSum(1, (PauliString("Z", 1.0),)))
        assert dec.ell == 1
        term = dec.terms[0]
        assert term.weight == pytest.approx(2.0)
        assert dec.identity_offset == pytest.approx(-1.0)
        # densification is the arbiter of the sign convention
        assert np.allclose(densify(dec), Z, atol=1e-12)
        assert np.allclose(term.rho, (np.eye(2) + Z) / 2)

    def test_minus_x(self):
        dec = decompose_pauli_generic(PauliSum(1, (PauliString("X", -1.0),)))
        minus = np.array([1, -1]) / np.sqrt(2)
        assert dec.terms[0].weight == pytest.approx(2.0)
        assert dec.identity_offset == pytest.approx(-1.0)
        assert np.allclose(dec.terms[0].rho, np.outer(minus, minus))
        assert np.allclose(densify(dec), -X, atol=1e-12)

    def test_zero_operator(self):
        dec = decompose_pauli_generic(PauliSum(1, ()))
        assert dec.ell == 0 and dec.identity_offset == 0.0

    def test_identity_strings_fold_into_offset(self):
        dec = decompose_pauli_generic(
            PauliSum(2, (PauliString("II", 0.7), PauliString("XZ", -0.5)))
        )
        assert dec.ell == 1
        assert dec.identity_offset == pytest.approx(0.7 - 0.5)

    def test_random_reconstruction_and_positivity(self):
        rng = np.random.default_rng(22)
        letters = ["XX", "ZZ", "XZ", "ZX", "XI", "IZ", "YY", "ZI"]
        for _ in range(20):
            picks = rng.choice(len(letters), size=rng.integers(1, 5), replace=False)
            terms = tuple(
                PauliString(letters[i], float(rng.uniform(-2, 2))) for i in picks
            )
            ham = PauliSum(2, terms)
            dec = decompose_pauli_generic(ham)
            assert all(t.weight > 0 for t in dec.terms)
            for t in dec.terms:
                check_density_matrix(t.rho)
                assert t.support == (0, 1)
            assert ident_residual(dec, densify(ham)) <= 1e-10
            assert np.max(np.abs(densify(dec) - densify(ham))) <= 1e-10

    def test_an_even_number_of_y_letters_stays_real(self):
        # YY = (iXZ)(iXZ) = -XZ ⊗ XZ is real: its rho and W are float64 and
        # equal to the build from the complex Y; one Y makes them complex
        y = np.array([[0, -1j], [1j, 0]])
        dec = decompose_pauli_generic(PauliSum(2, (PauliString("YY", 1.0), PauliString("ZI", 0.5))))
        assert [t.rho.dtype for t in dec.terms] == [np.float64, np.float64]
        assert dec.operator.dtype == np.float64
        want = (np.eye(4) + np.kron(y, y)) / 4
        assert np.array_equal(dec.terms[0].rho, want)
        assert np.array_equal(dec.operator, 4 * want + np.kron(np.eye(2) + Z, np.eye(2)) / 2)
        odd = decompose_pauli_generic(PauliSum(2, (PauliString("YZ", 1.0),)))
        assert np.array_equal(odd.terms[0].rho, (np.eye(4) + np.kron(y, Z)) / 4)
        assert odd.terms[0].rho.dtype == np.complex128


class TestIsingLocalDecomposition:
    def test_periodic_three_sites(self):
        dec = decompose_ising_local(IsingParams(3, 1.0, 1.0, "periodic"))
        assert dec.ell == 9  # 3 bonds + 3 single-X + 3 single-Z
        weights = sorted(t.weight for t in dec.terms)
        assert weights == [-4, -4, -4, -2, -2, -2, 4, 4, 4]

    def test_field_only_two_sites(self):
        dec = decompose_ising_local(IsingParams(2, 0.0, 1.0, "open"))
        assert dec.ell == 2
        assert all(t.weight == -2.0 for t in dec.terms)
        assert all(np.allclose(t.rho, RHO_Z) for t in dec.terms)
        assert dec.identity_offset == pytest.approx(2.0)

    def test_bond_only_two_sites(self):
        # open-chain edge sites touch one bond, so exact reconstruction puts
        # +2J (not +4J) on their single-X terms
        dec = decompose_ising_local(IsingParams(2, 1.0, 0.0, "open"))
        by_label = {t.label: t.weight for t in dec.terms}
        assert by_label == {"xx(0,1)": -4.0, "x(0)": 2.0, "x(1)": 2.0}
        source = densify(build_ising(IsingParams(2, 1.0, 0.0, "open")))
        assert np.max(np.abs(densify(dec) - source)) <= 1e-12

    def test_random_reconstruction(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            boundary = "periodic" if (n >= 3 and rng.random() < 0.5) else "open"
            params = IsingParams(n, float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)), boundary)
            dec = decompose_ising_local(params)
            source = densify(build_ising(params))
            assert ident_residual(dec, source) <= 1e-10
            assert np.max(np.abs(densify(dec) - source)) <= 1e-10
            assert np.max(np.abs(protocol_operator(dec) + dec.identity_offset * np.eye(2**n) - source)) <= 1e-10

    def test_terms_of_a_kind_share_one_checked_state(self):
        dec = decompose_ising_local(IsingParams(4, 1.0, 0.5, "periodic"))
        kinds = {}
        for t in dec.terms:
            kinds.setdefault(t.label.split("(")[0], set()).add(id(t.rho))
        assert sorted(kinds) == ["x", "xx", "z"] and all(len(ids) == 1 for ids in kinds.values())
        # a pickled decomposition shares them too, frozen again
        copy = pickle.loads(pickle.dumps(dec))
        assert copy.terms[0].rho is copy.terms[1].rho and not copy.terms[0].rho.flags.writeable
        # a term given a state already checked and frozen shares it; any other
        # array, even equal to it or the same one made writeable, is copied
        xx = dec.terms[0].rho
        assert ResourceTerm(1.0, xx, (0, 1), "a").rho is xx
        equal = np.array(xx)
        assert ResourceTerm(1.0, equal, (0, 1), "b").rho is not equal
        thawed = ResourceTerm(1.0, equal, (0, 1), "c").rho
        thawed.setflags(write=True)
        assert ResourceTerm(1.0, thawed, (0, 1), "d").rho is not thawed

    def test_a_second_decomposition_checks_no_state(self, monkeypatch):
        # XX, X and Z are checked once per process and held, so a sweep's
        # decomposition checks none of them again and shares the first's arrays
        import sbqs.hamiltonian as hamiltonian_mod

        params = IsingParams(4, 1.0, 0.5, "open")
        first = decompose_ising_local(params)
        calls = []
        real = hamiltonian_mod.check_density_matrix
        monkeypatch.setattr(hamiltonian_mod, "check_density_matrix",
                            lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
        second = decompose_ising_local(params)
        assert calls == []
        assert all(a.rho is b.rho for a, b in zip(first.terms, second.terms, strict=True))


class TestDensify:
    def test_decomposition_reads_its_cached_operator(self, monkeypatch):
        # W = sum_i w_i rho_i is embedded once per decomposition and distinct
        # support (x(i) and z(i) share one), read-only, and densify(dec) is
        # identity_offset * I + W
        import sbqs.linalg as linalg_mod

        dec = decompose_ising_local(IsingParams(3, 1.0, 0.7, "periodic"))
        calls = []
        real = linalg_mod.embed_operator
        monkeypatch.setattr(linalg_mod, "embed_operator",
                            lambda *args: calls.append(1) or real(*args))
        dense = densify(dec)
        w = dec.operator
        assert (len({t.support for t in dec.terms}), dec.ell) == (6, 9)
        assert len(calls) == 6  # a second read embeds nothing
        assert dec.operator is w and not w.flags.writeable
        assert dense.flags.writeable and np.array_equal(dense, dec.identity_offset * np.eye(8) + w)

    def test_empty_decomposition_is_offset(self):
        from sbqs.hamiltonian import ResourceDecomposition

        dec = ResourceDecomposition(2, (), 1.5, "pauli-generic")
        assert np.allclose(densify(dec), 1.5 * np.eye(4))

    def test_diagonal_pauli_sum(self):
        ham = PauliSum(2, (PauliString("ZI", -1.0), PauliString("IZ", -1.0)))
        assert np.allclose(densify(ham), np.diag([-2, 0, 0, 2]))


def test_pauli_state_identities():
    assert np.array_equal(2 * RHO_X - np.eye(2), X)
    assert np.array_equal(2 * RHO_Z - np.eye(2), Z)


class TestParseModel:
    def test_ising(self):
        model = parse_model({"model": "ising", "n": 4, "J": 1.0, "B": 5.0, "boundary": "periodic"})
        assert model == IsingParams(4, 1.0, 5.0, "periodic")

    def test_pauli(self):
        model = parse_model({"model": "pauli", "n": 2, "terms": [{"string": "ZZ", "coeff": -1.0}]})
        assert isinstance(model, PauliSum)
        assert model.terms[0].letters == "ZZ"

    def test_rejects_unknown(self):
        with pytest.raises(ValueError, match="ising.*pauli|pauli.*ising"):
            parse_model({"model": "heisenberg"})
        with pytest.raises(ValueError, match="unknown model field"):
            parse_model({"model": "ising", "n": 2, "h": 3})
