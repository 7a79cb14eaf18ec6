"""Capacity-analysis tests: SVD normalization, basis machinery, thresholds."""

import importlib.machinery
import inspect
import itertools
import json
import math
import os
import subprocess
import sys
import warnings
import weakref

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import chdtri, eval_legendre

import qnr.tipc as tipc
from qnr import dataio
from qnr.reservoir import StateMatrix
from qnr.tipc import (BasisTerm, TipcSettings, analyze_states, capacities,
                      chi2_threshold, enumerate_bases, evaluate_bases,
                      ipc_of_target, normalize_states, orthonormalize, profile,
                      shuffle_surrogate_threshold)


def reference_enumerate(max_degree, max_input_delay, max_state_delay, rank,
                        family="monomial"):
    """Every term built from dicts, then sorted by a key rebuilt per term."""
    variables = [("u", s) for s in range(1, max_input_delay + 1)]
    variables += [("x", k, s) for s in range(1, max_state_delay + 1)
                  for k in range(rank)]
    terms = []
    for degree in range(1, max_degree + 1):
        for combo in itertools.combinations_with_replacement(range(len(variables)), degree):
            inp, sta = {}, {}
            for vi in combo:
                v = variables[vi]
                if v[0] == "u":
                    inp[v[1]] = inp.get(v[1], 0) + 1
                else:
                    sta[(v[1], v[2])] = sta.get((v[1], v[2]), 0) + 1
            terms.append(BasisTerm(
                input_exponents=tuple(sorted(inp.items())),
                state_exponents=tuple(sorted((k, s, e) for (k, s), e in sta.items())),
                family=family))

    def key(t):
        inp_vec = tuple(-dict(t.input_exponents).get(s, 0)
                        for s in range(1, max_input_delay + 1))
        sta = {(k, s): e for k, s, e in t.state_exponents}
        sta_vec = tuple(-sta.get((k, s), 0)
                        for s in range(1, max_state_delay + 1) for k in range(rank))
        return (t.degree, t.state_order, t.max_delay, inp_vec, sta_vec)

    return sorted(terms, key=key)


def reference_evaluate(terms, inputs, input_offset, xhat=None, start_row=0,
                       n_rows=None, input_range=(-1.0, 1.0)):
    """Every factor of every term evaluated afresh, in the library's order."""
    if n_rows is None:
        n_rows = xhat.shape[0] - start_row
    lo, hi = input_range
    scaled = (2.0 * inputs - (lo + hi)) / (hi - lo)
    rows = np.arange(start_row, start_row + n_rows)
    out = np.empty((n_rows, len(terms)))
    for j, term in enumerate(terms):
        col = np.ones(n_rows)
        for s, e in term.input_exponents:
            idx = input_offset + rows - s + 1
            if term.family == "legendre":
                col = col * eval_legendre(e, scaled[idx])
            else:
                col = col * inputs[idx] ** e
        for k, s, e in term.state_exponents:
            col = col * xhat[rows - s, k] ** e
        out[:, j] = col
    return out


def reference_mgs(A, drop_tol=1e-8):
    """Two-pass modified Gram-Schmidt against the constant, one column at a
    time, with a row-major Q, no blocks and no stop at full rank."""
    T, B = A.shape
    floor = drop_tol * np.sqrt(T)
    Q = np.empty((T, B + 1))
    Q[:, 0] = 1.0 / np.sqrt(T)
    k = 1
    kept, dropped = [], []
    for j in range(B):
        v = A[:, j].copy()
        for _ in range(2):
            v -= Q[:, :k] @ (Q[:, :k].T @ v)
        nv = np.linalg.norm(v)
        if nv < floor:
            dropped.append(j)
            continue
        Q[:, k] = v / nv
        kept.append(j)
        k += 1
    return Q[:, 1:k], kept, dropped


def kept_vectors(ortho, A):
    """The kept orthonormal vectors as columns, from ``project``, with
    Gram-Schmidt's signs: each has a positive product with its basis column."""
    Q = ortho.project(np.eye(ortho.n_rows)).T
    return Q * np.sign(np.sum(Q * A[:, ortho.kept], axis=0))


def chi2_quantile_oracle(r: int, q: float) -> float:
    """Quantile of chi^2(r) by quadrature of the density plus root finding;
    independent of the inverse-incomplete-gamma route used in the library."""
    half = r / 2.0

    def pdf(x):
        if x <= 0:
            return 0.0
        return math.exp((half - 1) * math.log(x) - x / 2
                        - half * math.log(2) - math.lgamma(half))

    def cdf(x):
        val, _ = quad(pdf, 0, x, limit=400, epsabs=1e-13, epsrel=1e-13)
        return val

    hi = 2 * r + 40 * math.sqrt(2 * r) + 60
    return brentq(lambda x: cdf(x) - q, 1e-12, hi, xtol=1e-12, rtol=8.9e-16)


class TestNormalizeStates:
    def test_zero_matrix_has_rank_zero(self):
        ns = normalize_states(np.zeros((50, 4)))
        assert ns.rank == 0 and ns.P.shape == (50, 0)

    def test_roundoff_scale_matrix_has_rank_zero(self, rng):
        ns = normalize_states(rng.normal(size=(2000, 4)) * 1e-12)
        assert ns.rank == 0

    def test_duplicate_columns_count_once(self, rng):
        col = rng.normal(size=(100, 1))
        ns = normalize_states(np.hstack([col, col, rng.normal(size=(100, 1))]))
        assert ns.rank == 2

    def test_generic_full_rank(self, rng):
        ns = normalize_states(rng.normal(size=(500, 4)))
        assert ns.rank == 4
        assert ns.rank <= min(500, 4)

    def test_columns_orthonormal_and_centered(self, rng):
        ns = normalize_states(rng.normal(size=(300, 5)) + 3.0)
        G = ns.P.T @ ns.P
        assert np.abs(G - np.eye(ns.rank)).max() <= 1e-8
        assert np.abs(ns.P.sum(axis=0)).max() <= 1e-8

    def test_sign_convention(self, rng):
        ns = normalize_states(rng.normal(size=(200, 3)))
        for k in range(ns.rank):
            col = ns.P[:, k]
            assert col[np.argmax(np.abs(col))] > 0

    def test_constant_matrix_is_rank_zero(self):
        ns = normalize_states(np.full((100, 3), 0.7))
        assert ns.rank == 0  # centering removes the constant trace


class TestEnumerateBases:
    def test_first_order_input_terms(self):
        terms = enumerate_bases(1, 3, 0, 0)
        assert len(terms) == 3
        assert [t.input_exponents for t in terms] == [((1, 1),), ((2, 1),), ((3, 1),)]

    def test_second_order_ordering(self):
        terms = enumerate_bases(2, 2, 0, 0)
        assert len(terms) == 5
        deg2 = [t.input_exponents for t in terms[2:]]
        assert deg2 == [((1, 2),), ((1, 1), (2, 1)), ((2, 2),)]

    def test_state_terms_after_input_terms(self):
        terms = enumerate_bases(1, 1, 1, 2)
        assert len(terms) == 3
        assert terms[0].input_exponents == ((1, 1),)
        assert terms[1].state_exponents == ((0, 1, 1),)
        assert terms[2].state_exponents == ((1, 1, 1),)

    def test_orders_and_classification(self):
        term = BasisTerm(input_exponents=((1, 2),), state_exponents=((0, 1, 1),))
        assert term.input_order == 2 and term.state_order == 1 and term.degree == 3
        assert not term.is_time_invariant

    def test_term_cap_enforced(self):
        with pytest.raises(ValueError, match="term cap"):
            enumerate_bases(3, 40, 2, 8, term_cap=100)

    @pytest.mark.parametrize("degree,L,lx,rank", [
        (1, 3, 0, 0), (2, 4, 1, 2), (3, 5, 2, 2), (3, 2, 2, 3), (4, 3, 1, 1)])
    @pytest.mark.parametrize("family", ["monomial", "legendre"])
    def test_matches_reference_order(self, degree, L, lx, rank, family):
        assert enumerate_bases(degree, L, lx, rank, family) == \
            reference_enumerate(degree, L, lx, rank, family)

    def test_repeated_enumeration_returns_new_lists_from_the_cache(self):
        tipc._enumerate_bases.cache_clear()
        first = enumerate_bases(2, 4, 1, 2, "legendre")
        first.append(first[0])       # a caller's list is its own
        again = enumerate_bases(2, 4, 1, 2, "legendre")
        assert tipc._enumerate_bases.cache_info().hits == 1
        assert again is not first
        assert again == reference_enumerate(2, 4, 1, 2, "legendre")

    def test_labels_use_figure_convention(self):
        t1 = BasisTerm(input_exponents=((1, 1),), family="legendre")
        t2 = BasisTerm(input_exponents=((3, 2),), family="legendre")
        t3 = BasisTerm(state_exponents=((1, 2, 1),))
        assert t1.label() == "P1(u[t])"
        assert t2.label() == "P2(u[t-2])"
        assert t3.label() == "x2[t-2]"


class TestEvaluateBases:
    def test_legendre_degree_one_is_identity(self, rng):
        u = rng.uniform(-1, 1, size=30)
        terms = [BasisTerm(input_exponents=((1, 1),), family="legendre")]
        out = evaluate_bases(terms, u, input_offset=5, n_rows=20)
        assert np.allclose(out[:, 0], u[5:25])

    def test_legendre_p2_at_zero(self):
        u = np.zeros(10)
        terms = [BasisTerm(input_exponents=((1, 2),), family="legendre")]
        out = evaluate_bases(terms, u, input_offset=2, n_rows=5)
        assert np.allclose(out, -0.5)

    def test_monomial_powers(self, rng):
        u = rng.uniform(0, 1, size=20)
        terms = [BasisTerm(input_exponents=((2, 3),), family="monomial")]
        out = evaluate_bases(terms, u, input_offset=4, n_rows=10,
                             input_range=(0.0, 1.0))
        assert np.allclose(out[:, 0], u[3:13] ** 3)

    def test_range_violation_rejected(self):
        terms = [BasisTerm(input_exponents=((1, 1),), family="legendre")]
        with pytest.raises(ValueError, match="declared range"):
            evaluate_bases(terms, np.array([0.0, 1.5, 0.2]), 1, n_rows=2,
                           input_range=(0.0, 1.0))

    def test_insufficient_history_rejected(self, rng):
        terms = [BasisTerm(input_exponents=((4, 1),))]
        with pytest.raises(ValueError, match="history"):
            evaluate_bases(terms, rng.uniform(size=10), input_offset=1, n_rows=5)

    def test_short_inputs_rejected_with_their_shape(self, rng):
        # analyze_states used to die on a bare IndexError
        with pytest.raises(ValueError, match=r"inputs of shape \(220,\) are too short .* "
                                             r"need 230 inputs"):
            analyze_states(rng.normal(size=(200, 2)), rng.uniform(0, 1, 220), 30,
                           TipcSettings())

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_inputs_rejected(self, rng, bad):
        # a NaN used to give a profile with c_tot = nan, and no error
        u = rng.uniform(0, 1, 230)
        u[100] = bad
        with pytest.raises(ValueError, match=r"inputs of shape \(230,\) hold NaN or Inf"):
            analyze_states(rng.normal(size=(200, 2)), u, 30, TipcSettings())

    @pytest.mark.parametrize("start_row", [0, 1])
    def test_state_delay_past_start_row_rejected(self, rng, start_row):
        # xhat[rows - 2] used to wrap to xhat's last rows
        terms = [BasisTerm(state_exponents=((0, 2, 1),))]
        with pytest.raises(ValueError, match="delay 2 exceeds start_row"):
            evaluate_bases(terms, rng.uniform(size=12), input_offset=0,
                           xhat=rng.normal(size=(12, 1)), start_row=start_row)

    def test_state_factor_alignment(self, rng):
        xhat = rng.normal(size=(12, 2))
        terms = [BasisTerm(state_exponents=((1, 2, 1),))]
        out = evaluate_bases(terms, rng.uniform(size=12), input_offset=0,
                             xhat=xhat, start_row=2)
        assert np.allclose(out[:, 0], xhat[0:10, 1])


    @pytest.mark.parametrize("n", range(1, 9))
    def test_legendre_port_matches_scipy(self, rng, n):
        x = np.concatenate([rng.uniform(-1, 1, 200_000), np.linspace(-1, 1, 20_001)])
        outer = x[np.abs(x) >= 1e-5]
        assert np.array_equal(tipc._legendre(n, outer), eval_legendre(n, outer))
        # scipy's power series about 0: the same sum from the same start
        inner = np.concatenate([rng.uniform(-1e-5, 1e-5, 20_000), [0.0, 5e-324]])
        mine, ref = tipc._legendre(n, inner), eval_legendre(n, inner)
        if n <= 6:
            assert np.array_equal(mine, ref)
        assert np.abs(mine - ref).max() <= 2e-16

    @pytest.mark.parametrize("family", ["monomial", "legendre"])
    def test_matches_per_factor_reference(self, rng, family):
        u, x, off = _echo_states(rng, 60)
        ns = normalize_states(x)
        terms = enumerate_bases(3, 6, 2, ns.rank, family)
        assert any(t.state_exponents for t in terms)
        fast = evaluate_bases(terms, u, off, xhat=ns.P, start_row=2)
        assert fast.flags.f_contiguous
        assert np.array_equal(fast, reference_evaluate(terms, u, off, xhat=ns.P,
                                                       start_row=2))

class TestOrthonormalize:
    def test_orthonormal_input_unchanged_up_to_sign(self, rng):
        Q0, _ = np.linalg.qr(rng.normal(size=(60, 4)))
        Q0 -= Q0.mean(axis=0)  # keep columns mean-free for the constant pass
        Q0, _ = np.linalg.qr(Q0)
        res = orthonormalize(Q0)
        assert res.kept == [0, 1, 2, 3]
        Q = kept_vectors(res, Q0)
        assert np.allclose(np.abs(Q.T @ Q0), np.eye(4), atol=1e-8)

    def test_duplicate_column_dropped(self, rng):
        col = rng.normal(size=(80, 1))
        res = orthonormalize(np.hstack([col, col]))
        assert res.kept == [0] and res.dropped == [1]

    def test_constant_column_dropped_via_constant_pass(self):
        res = orthonormalize(np.full((50, 1), 3.3))
        assert res.dropped == [0]

    def test_pairwise_orthogonality_on_ill_conditioned_set(self):
        T = 400
        t = np.linspace(0.01, 1, T)
        hilbertish = np.column_stack([t**k for k in range(12)])
        res = orthonormalize(hilbertish)
        Q = kept_vectors(res, hilbertish)
        G = Q.T @ Q
        assert np.abs(G - np.eye(G.shape[0])).max() <= 1e-8
        assert np.abs(np.linalg.norm(Q, axis=0) - 1).max() <= 1e-10

    def test_spans_match_qr_oracle(self, rng):
        A = rng.normal(size=(100, 8))
        res = orthonormalize(A)
        Qr, _ = np.linalg.qr(np.column_stack([np.ones(100), A]))
        # same nested spans after the constant: projectors agree
        Q = kept_vectors(res, A)
        P_mine = Q @ Q.T
        P_qr = Qr[:, 1:] @ Qr[:, 1:].T
        assert np.abs(P_mine - P_qr).max() <= 1e-8

    def test_block_boundaries_do_not_matter(self, rng, solvers, monkeypatch):
        A = rng.normal(size=(150, 20))
        A[:, 7] = A[:, 4]        # a dropped column sends it to Gram-Schmidt
        monkeypatch.setattr(tipc, "_GS_BLOCK", 3)
        a = orthonormalize(A)
        monkeypatch.setattr(tipc, "_GS_BLOCK", 64)
        b = orthonormalize(A)
        assert [s for s, _ in solvers] == ["gram_schmidt", "gram_schmidt"]
        assert a.kept == b.kept and a.dropped == b.dropped == [7]
        assert np.abs(kept_vectors(a, A) - kept_vectors(b, A)).max() <= 1e-9


    def test_wide_rank_deficient_basis_matches_reference(self, rng):
        u, x, off = _echo_states(rng, 60)
        ns = normalize_states(x)
        terms = enumerate_bases(3, 6, 2, ns.rank, "legendre")
        B = evaluate_bases(terms, u, off, xhat=ns.P, start_row=2)
        Q, kept, dropped = reference_mgs(B)
        res = orthonormalize(B)
        assert len(kept) == B.shape[0] - 1 < B.shape[1]  # saturates R^T
        # the late kept columns lose ~1e3 of their norm to the projection, so
        # any reordering of the same arithmetic moves Q by ~1e-12 here
        assert res.kept == kept and res.dropped == dropped
        assert np.abs(kept_vectors(res, B) - Q).max() <= 1e-12

    def test_tall_legendre_basis_matches_reference(self, rng):
        u = rng.uniform(-1, 1, size=2100)
        terms = enumerate_bases(3, 8, 0, 0, "legendre")
        B = evaluate_bases(terms, u, input_offset=100, n_rows=2000)
        Q, kept, dropped = reference_mgs(B)
        res = orthonormalize(B)
        assert res.kept == kept and res.dropped == dropped
        assert np.abs(kept_vectors(res, B) - Q).max() <= 1e-12

    @pytest.mark.parametrize("scale", [1.0, 1e6, 1e9])
    def test_never_more_vectors_than_rows(self, rng, scale):
        # an absolute drop floor alone let roundoff residuals of huge
        # columns through once the kept span was already all of R^T
        T = 10
        A = rng.normal(size=(T, 40)) * scale
        res = orthonormalize(A)
        assert len(res.kept) <= T - 1
        full = np.column_stack([np.full(T, 1.0 / np.sqrt(T)),
                                kept_vectors(res, A)])
        assert np.abs(full.T @ full - np.eye(full.shape[1])).max() <= 1e-12

    @pytest.mark.parametrize("factor,kept", [(0.5, [0]), (2.0, [0, 1])])
    def test_drop_floor_edge(self, rng, factor, kept):
        # the second column's component orthogonal to [constant, a] has norm
        # factor * drop_tol * sqrt(T)
        T, drop_tol = 100, tipc._DROP_TOL
        a = rng.normal(size=T)
        W, _ = np.linalg.qr(np.column_stack([np.ones(T), a, rng.normal(size=T)]))
        b = 3.0 * a + 0.7 + factor * drop_tol * np.sqrt(T) * W[:, 2]
        res = orthonormalize(np.column_stack([a, b]))
        assert res.kept == kept

    def test_zero_row_basis_rejected(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"\(0, 3\)"):
                orthonormalize(np.empty((0, 3)))


@pytest.fixture
def solvers(monkeypatch):
    """(solver, basis shape) of every factorization that orthonormalize took."""
    seen = []

    def spy_on(name):
        real = getattr(tipc, f"_{name}")

        def spy(A, *args):
            res = real(A, *args)
            if res is not None:
                seen.append((name, A.shape))
            return res

        monkeypatch.setattr(tipc, f"_{name}", spy)

    for name in ("cholesky", "householder", "gram_schmidt"):
        spy_on(name)
    return seen


def reference_capacities(P, B):
    Q, kept, dropped = reference_mgs(B)
    caps = np.zeros(B.shape[1])
    caps[kept] = np.sum((P.T @ Q) ** 2, axis=0)
    return caps, kept, dropped


class TestHouseholderSolver:
    @pytest.mark.parametrize("n_rows,n_kept,solver", [(2000, 164, "cholesky"),
                                                      (170, 164, "householder"),
                                                      (150, 149, "householder"),
                                                      (20000, 164, "cholesky")],
                             ids=["tall", "near-square", "wide", "taller"])
    def test_capacities_match_reference(self, rng, solvers, n_rows, n_kept, solver):
        u = rng.uniform(-1, 1, size=n_rows + 100)
        B = evaluate_bases(enumerate_bases(3, 8, 0, 0, "legendre"), u, 100,
                           n_rows=n_rows)
        x = np.column_stack([u[100:] ** 2 + 0.5 * u[99:-1] * u[98:-2],
                             np.sin(3.0 * u[99:-1])])
        P = normalize_states(x + 0.01 * rng.normal(size=x.shape)).P
        caps, kept, dropped = reference_capacities(P, B)
        res = orthonormalize(B)
        assert solvers == [(solver, B.shape)]
        qr = tipc._householder(B, tipc._DROP_TOL * np.sqrt(n_rows))
        assert res.kept == qr.kept == kept == list(range(n_kept))
        assert res.dropped == qr.dropped == dropped
        mine = capacities(P, res)
        assert np.abs(np.array(mine) - caps).max() <= 1e-12
        assert np.abs(np.sum(res.project(P) ** 2, axis=1)
                      - np.sum(qr.project(P) ** 2, axis=1)).max() <= 1e-12

    def test_duplicate_early_column_falls_back(self, rng, solvers):
        u, x, off = _echo_states(rng, 60)
        ns = normalize_states(x)
        terms = enumerate_bases(3, 6, 2, ns.rank, "legendre")
        B = evaluate_bases(terms, u, off, xhat=ns.P, start_row=2)
        B = np.insert(B, 5, B[:, 2], axis=1)
        P = normalize_states(ns.P[2:], abs_floor=1e-12).P
        Q, kept, dropped = reference_mgs(B)
        caps, _, _ = reference_capacities(P, B)
        res = orthonormalize(B)
        assert solvers == [("gram_schmidt", B.shape)]
        assert 5 in dropped and len(kept) == B.shape[0] - 1
        assert res.kept == kept and res.dropped == dropped
        assert np.abs(kept_vectors(res, B) - Q).max() <= 1e-12
        mine = capacities(P, res)
        assert np.abs(np.array(mine) - caps).max() <= 1e-12

    @pytest.mark.parametrize("factor,fallback,kept",
                             [(0.5, True, [0]), (1.5, True, [0, 1]),
                              (3.0, False, [0, 1])])
    def test_pivot_under_twice_the_floor_falls_back(self, rng, solvers, factor,
                                                    fallback, kept):
        # the second column's pivot is factor * drop_tol * sqrt(T)
        T, drop_tol = 100, tipc._DROP_TOL
        a = rng.normal(size=T)
        W, _ = np.linalg.qr(np.column_stack([np.ones(T), a, rng.normal(size=T)]))
        b = 3.0 * a + 0.7 + factor * drop_tol * np.sqrt(T) * W[:, 2]
        A = np.column_stack([a, b])
        res = orthonormalize(A)
        assert res.kept == kept == reference_mgs(A, drop_tol)[1]
        assert solvers == [("gram_schmidt" if fallback else "householder", A.shape)]

    def test_import_leaves_scipy_linalg_out(self):
        # scipy is imported where it is used; every qnr command imports
        # tipc, and most of them never reach scipy
        src = os.path.dirname(os.path.dirname(tipc.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, qnr, qnr.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"


    def test_capacity_commands_leave_scipy_special_out(self, tmp_path):
        # the Legendre factors and the chi2 quantile are ported from it, and
        # the solver loads scipy's BLAS/LAPACK wrappers without scipy.linalg
        src = os.path.dirname(os.path.dirname(tipc.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        tipc_cfg = {"reservoir": {"instances": 1, "masks": [1]},
                    "tipc": {"washout": 30, "analysis_len": 200, "max_degree": 2,
                             "max_input_delay": 3, "max_state_delay": 1}}
        ipc_cfg = {"input": {"low": -1.0, "high": 1.0},
                   "tipc": {"washout": 30, "analysis_len": 300, "max_degree": 2,
                            "max_input_delay": 3}}
        for name, cfg in (("tipc", tipc_cfg), ("ipc", ipc_cfg)):
            (tmp_path / f"{name}.yaml").write_text(json.dumps(cfg))
        script = (
            "import sys; from qnr import cli\n"
            "for name in ('tipc', 'ipc'):\n"
            f"    cli.main([name, '--config', {str(tmp_path)!r} + f'/{{name}}.yaml',\n"
            f"              '--out', {str(tmp_path)!r} + f'/out_{{name}}'])\n"
            "assert 'scipy.linalg' not in sys.modules\n"
            "print([m for m in sys.modules if m.startswith('scipy.special')])\n")
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip().splitlines()[-1] == "[]"
        profile_json = json.loads((tmp_path / "out_ipc" / "ipc_profile.json").read_text())
        assert profile_json["records"][0]["family"] == "legendre"
        assert (tmp_path / "out_tipc" / "profile_m0001.json").exists()

    def test_loaded_wrappers_match_scipy_linalg_loaded_after(self):
        src = os.path.dirname(os.path.dirname(tipc.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        script = (
            "import sys\nimport numpy as np\nfrom qnr import tipc\n"
            + inspect.getsource(_solver_calls) +
            "loaded = _solver_calls(*tipc._blas_lapack())\n"
            "assert 'scipy.linalg' not in sys.modules\n"
            "import scipy.linalg\n"
            "reference = _solver_calls(scipy.linalg.blas, scipy.linalg.lapack)\n"
            "print(all(a.tobytes() == b.tobytes() for a, b in zip(loaded, reference)),\n"
            "      scipy.linalg.lapack.dgeqrf is tipc._blas_lapack()[1].dgeqrf)\n")
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "True True"

    def test_loaded_wrappers_match_scipy_linalg_loaded_before(self):
        import scipy.linalg
        tipc._blas_lapack.cache_clear()
        loaded = _solver_calls(*tipc._blas_lapack())
        reference = _solver_calls(scipy.linalg.blas, scipy.linalg.lapack)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(loaded, reference))

    def test_missing_wrapper_file_names_directory_and_version(self, monkeypatch):
        import scipy
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing"])
        tipc._blas_lapack.cache_clear()
        with pytest.raises(ImportError, match=rf"no _fblas extension in .*linalg "
                                              rf"\(scipy {scipy.__version__}\)"):
            tipc._blas_lapack()


def _solver_calls(blas, lapack):
    """Outputs of the solver's seven compiled functions on one random input."""
    rng = np.random.default_rng(11)
    A = np.asfortranarray(rng.normal(size=(40, 6)))
    G = blas.dsyrk(1.0, A, trans=1)
    R, _ = lapack.dpotrf(G)
    F, tau, _, _ = lapack.dgeqrf(A, lwork=int(lapack.dgeqrf_lwork(40, 6)[0]))
    lwork = int(lapack.dormqr("L", "T", F, tau, A, -1)[1][0])
    outs = [G, R, lapack.dtrcon(R)[0], lapack.dtrtrs(R, A.T[:, :3], trans=1)[0],
            F, tau, lapack.dormqr("L", "T", F, tau, A, lwork)[0]]
    return [np.asarray(x) for x in outs]


class TestCholeskySolver:
    @pytest.mark.parametrize("factor,solver", [(0.8, "cholesky"), (1.25, "householder")])
    def test_condition_bound_edge(self, rng, solvers, factor, solver):
        # unit columns a and c a + s w, both orthogonal to the constant: the
        # equilibrated factor is diag(1, [[1, c], [0, s]]), whose 1-norm
        # condition number is (c + s)(1 + c)/s
        T = 400
        W, _ = np.linalg.qr(np.column_stack([np.ones(T), rng.normal(size=(T, 2))]))

        def cond(s):
            c = math.sqrt(1.0 - s * s)
            return (c + s) * (1.0 + c) / s

        s = brentq(lambda s: cond(s) - factor * tipc._GRAM_MAX_COND, 1e-6, 0.7)
        c = math.sqrt(1.0 - s * s)
        A = np.column_stack([W[:, 1], c * W[:, 1] + s * W[:, 2]])
        res = orthonormalize(A)
        assert solvers == [(solver, A.shape)]
        Q, kept, dropped = reference_mgs(A)
        assert res.kept == kept == [0, 1] and res.dropped == dropped == []
        assert np.abs(kept_vectors(res, A) - Q).max() <= 1e-12

    @pytest.mark.parametrize("factor,solver,kept",
                             [(0.0, "gram_schmidt", [0]),
                              (0.5, "gram_schmidt", [0]),
                              (1.5, "gram_schmidt", [0, 1]),
                              (3.0, "cholesky", [0, 1])])
    def test_pivot_under_twice_the_floor_is_refused(self, rng, solvers, factor,
                                                    solver, kept):
        # the second column is factor * drop_tol * sqrt(T) (w + a): pivot
        # factor times the floor, norm sqrt(2) times that, condition ~2.4
        T, drop_tol = 400, tipc._DROP_TOL
        W, _ = np.linalg.qr(np.column_stack([np.ones(T), rng.normal(size=(T, 2))]))
        A = np.column_stack([W[:, 1],
                             factor * drop_tol * np.sqrt(T) * (W[:, 2] + W[:, 1])])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = orthonormalize(A)
        assert solvers == [(solver, A.shape)]
        assert res.kept == kept == reference_mgs(A, drop_tol)[1]

    @pytest.mark.parametrize("rows_per_column,solver", [(7, "householder"),
                                                        (8, "cholesky")])
    def test_gram_path_needs_rows_per_column(self, rng, solvers, monkeypatch,
                                             rows_per_column, solver):
        terms = enumerate_bases(2, 5, 0, 0, "legendre")
        n_rows = rows_per_column * len(terms)
        u = rng.uniform(-1, 1, size=n_rows + 100)
        B = evaluate_bases(terms, u, 100, n_rows=n_rows)
        res = orthonormalize(B)
        assert solvers == [(solver, B.shape)]
        assert res.kept == reference_mgs(B)[1] == list(range(len(terms)))
        # the shape alone decided: the Gram factor passes its other checks
        monkeypatch.setattr(tipc, "_GRAM_MIN_ROWS_PER_COLUMN", rows_per_column)
        assert orthonormalize(B).kept == res.kept
        assert solvers[1:] == [("cholesky", B.shape)]

    def test_ill_conditioned_basis_keeps_reference_decisions(self, solvers):
        T = 400
        t = np.linspace(0.01, 1, T)
        hilbertish = np.column_stack([t**k for k in range(12)])
        res = orthonormalize(hilbertish)
        assert solvers[0][0] in ("householder", "gram_schmidt")
        _, kept, dropped = reference_mgs(hilbertish)
        assert res.kept == kept and res.dropped == dropped

    def test_row_major_basis_reads_as_transpose(self, rng, solvers):
        u = rng.uniform(-1, 1, size=1100)
        B = evaluate_bases(enumerate_bases(2, 6, 0, 0, "legendre"), u, 100,
                           n_rows=1000)
        C = np.ascontiguousarray(B)
        P = rng.normal(size=(1000, 3)) + 0.5   # the constant's row matters too
        a, b = orthonormalize(B), orthonormalize(C)
        assert [s for s, _ in solvers] == ["cholesky", "cholesky"]
        assert a._factor[1] is B and b._factor[1] is C   # the basis, not a copy
        assert a.kept == b.kept
        assert np.abs(a.project(P) - b.project(P)).max() <= 1e-12
        assert np.abs(a.project(P) - reference_mgs(B)[0].T @ P).max() <= 1e-12


class TestCapacities:
    def test_exact_reconstruction_scores_one(self, rng):
        ns = normalize_states(rng.normal(size=(300, 3)))
        ortho = orthonormalize(ns.P[:, [1]].copy())
        caps = capacities(ns.P, ortho)
        assert caps[0] == pytest.approx(1.0, abs=1e-10)

    def test_shuffled_bases_score_near_r_over_T(self, rng):
        T, r = 2000, 4
        ns = normalize_states(rng.normal(size=(T, r)))
        vals = []
        base = rng.normal(size=T)
        for _ in range(300):
            xi = base[rng.permutation(T)]
            ortho = orthonormalize(xi[:, None].copy())
            vals.append(capacities(ns.P, ortho)[0])
        assert np.mean(vals) == pytest.approx(r / T, rel=0.15)

    def test_total_capacity_bounded_by_rank(self, rng):
        ns = normalize_states(rng.normal(size=(200, 3)))
        B = rng.normal(size=(200, 40))
        caps = capacities(ns.P, orthonormalize(B))
        assert sum(caps) <= ns.rank + 1e-6

    def test_all_dropped_columns_score_zero(self, rng):
        # no column is kept, so only the factor knows how many there are
        ns = normalize_states(rng.normal(size=(50, 2)))
        caps = capacities(ns.P, orthonormalize(np.full((50, 3), 3.3)))
        assert caps.tolist() == [0.0, 0.0, 0.0]

    def test_misaligned_rows_rejected(self, rng):
        ns = normalize_states(rng.normal(size=(100, 2)))
        ortho = orthonormalize(rng.normal(size=(90, 3)))
        with pytest.raises(ValueError):
            capacities(ns.P, ortho)


class TestChi2Threshold:
    def test_median_chi2_one(self):
        # median of chi^2(1) = 0.4549...; sigma=1, T=1 exposes the raw quantile
        assert chi2_threshold(1, 1, p=0.5, sigma=1.0) == pytest.approx(
            0.4549364231195724, abs=1e-10)

    def test_chi2_two_closed_form(self):
        # for r=2 the (1-p) quantile is exactly -2 ln p
        T = 1000
        expected = -2.0 * math.log(1e-4) / T
        assert chi2_threshold(T, 2, p=1e-4, sigma=1.0) == pytest.approx(
            expected, rel=1e-12)

    def test_sigma_scales_linearly(self):
        a = chi2_threshold(500, 3, p=1e-4, sigma=1.0)
        b = chi2_threshold(500, 3, p=1e-4, sigma=2.0)
        assert b == pytest.approx(2 * a, rel=1e-12)

    @pytest.mark.parametrize("r,p", [(1, 0.5), (2, 1e-4), (4, 1e-2), (7, 1e-4)])
    def test_agrees_with_quadrature_oracle(self, r, p):
        mine = chi2_threshold(1, r, p=p, sigma=1.0)
        oracle = chi2_quantile_oracle(r, 1.0 - p)
        assert mine == pytest.approx(oracle, rel=1e-8)

    def test_rank_zero_rejected(self):
        with pytest.raises(ValueError):
            chi2_threshold(100, 0)

    @pytest.mark.parametrize("r", [-1, 0.5, 1.5, 2.25])
    def test_non_integer_or_small_rank_rejected(self, r):
        with pytest.raises(ValueError, match="integer rank >= 1"):
            chi2_threshold(100, r)

    def test_matches_chdtri(self):
        # chdtri itself errs by up to 1.8e-14 between these decades (against
        # a 40-digit root), so the grid is the decades
        for r in range(1, 65):
            for p in (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5):
                ref = float(chdtri(r, p))
                assert chi2_threshold(1, r, p=p, sigma=1.0) == pytest.approx(
                    ref, rel=2e-15, abs=0.0), (r, p)
        # towards p = 1 the quantile and chdtri each sit within 4.3e-15 of
        # the 40-digit root and differ by up to 2.9e-15; bisecting on the
        # upper tail there erred by 1.1e-13 at p = 0.999, 1.1e-7 at 1 - 1e-9
        for r in range(1, 65):
            for p in (0.9, 0.99, 0.999, 1.0 - 1e-9):
                ref = float(chdtri(r, p))
                assert chi2_threshold(1, r, p=p, sigma=1.0) == pytest.approx(
                    ref, rel=4e-15, abs=0.0), (r, p)


class TestProfile:
    def _records(self):
        tiv = BasisTerm(input_exponents=((1, 1),))
        tiv2 = BasisTerm(input_exponents=((1, 2),))
        tv = BasisTerm(input_exponents=((1, 1),), state_exponents=((0, 1, 1),))
        return tiv, tiv2, tv

    def test_truncation_and_aggregation(self):
        tiv1, tiv2, tv = self._records()
        prof = profile([tiv1, tiv2, tv], np.array([0.5, 0.001, 0.2]),
                       threshold=0.01, rank=2)
        assert prof.tiv_by_degree == {1: 0.5}
        assert prof.tv_by_degree == {1: 0.2}
        assert prof.c_tot == pytest.approx(0.7)
        assert prof.truncated[1]

    def test_classification_matches_state_order(self):
        tiv1, _, tv = self._records()
        prof = profile([tiv1, tv], np.array([0.1, 0.1]), threshold=0.0, rank=1)
        records = dataio.profile_to_dict(prof)["records"]
        assert [r["classification"] for r in records] == ["TIV", "TV"]

    def test_tv_bins_by_input_order(self):
        pure_state = BasisTerm(state_exponents=((0, 1, 2),))
        prof = profile([pure_state], np.array([0.3]), threshold=0.0, rank=1)
        assert prof.tv_by_degree == {0: 0.3}  # N_j = 0 bin

    def test_degree_totals_are_sequential_sums_in_term_order(self, rng):
        # 1,000 TIV and 1,000 TV terms of input order 2, interleaved, on
        # capacities spread over three decades; every degree-3 term is
        # truncated
        n = 1000
        tiv = [BasisTerm(input_exponents=((s, 1), (s + 1, 1))) for s in range(1, n + 1)]
        tv = [BasisTerm(input_exponents=((s, 1), (s + 1, 1)),
                        state_exponents=((0, 1, 1),)) for s in range(1, n + 1)]
        cubic = [BasisTerm(input_exponents=((s, 3),)) for s in range(1, 11)]
        terms = [t for pair in zip(tiv, tv) for t in pair] + cubic
        caps = np.concatenate([10.0 ** rng.uniform(-3.0, 0.0, 2 * n),
                               np.full(len(cubic), 1e-4)])
        threshold = 1e-2
        prof = profile(terms, caps, threshold, rank=1)
        for bins, parity in ((prof.tiv_by_degree, 0), (prof.tv_by_degree, 1)):
            mine = caps[parity:2 * n:2]
            expected = 0.0
            for c in mine.tolist():
                if c >= threshold:
                    expected += c
            assert bins[2] == expected
            # the data tell a left-to-right sum from numpy's pairwise one
            assert mine[mine >= threshold].sum() != expected
        assert prof.degrees() == [2]
        assert prof.truncated.tolist() == (caps < threshold).tolist()


def _echo_states(rng, T, a=(0.5, 0.8), b=(1.0, 0.7)):
    u = rng.uniform(-1, 1, size=T + 100)
    x = np.zeros((T + 100, 2))
    for t in range(1, T + 100):
        for k in range(2):
            x[t, k] = a[k] * x[t - 1, k] + b[k] * u[t]
    return u, x[100:], 100


def _reference_profile_bytes(path, prof):
    with open(path, "w") as fh:
        json.dump(dataio.profile_to_dict(prof), fh, indent=2)
        fh.write("\n")
    return path.read_bytes()


class TestProfileJson:
    def _check(self, prof, tmp_path):
        dataio.write_profile_json(tmp_path / "fast.json", prof)
        assert (tmp_path / "fast.json").read_bytes() == \
            _reference_profile_bytes(tmp_path / "ref.json", prof)

    def test_rank_four_chi2_profile_with_mixed_truncation(self, rng, tmp_path):
        u, x, off = _echo_states(rng, 400)
        states = np.column_stack([x, x[:, 0] ** 2, x[:, 0] * x[:, 1]])
        settings = TipcSettings(max_degree=2, max_input_delay=4, max_state_delay=1,
                                family="legendre")
        prof = analyze_states(states, u, off, settings, input_range=(-1, 1))
        assert prof.rank == 4 and prof.threshold_params["mode"] == "chi2"
        assert 0 < prof.truncated.sum() < len(prof.terms)
        assert any(t.state_exponents for t in prof.terms)
        self._check(prof, tmp_path)

    def test_surrogate_profile_with_int_param(self, rng, tmp_path):
        u, x, off = _echo_states(rng, 300)
        settings = TipcSettings(max_degree=2, max_input_delay=3, max_state_delay=1,
                                family="monomial",
                                threshold="surrogate", surrogates=2)
        prof = analyze_states(x, u, off, settings, surrogate_rng=np.random.default_rng(4),
                              input_range=(-1, 1))
        assert prof.threshold_params["n_surrogates"] == 2
        assert any("^2" in t.label() for t in prof.terms)
        self._check(prof, tmp_path)

    def test_rank_zero_profile(self, tmp_path):
        prof = profile([], np.zeros(0), float("nan"), 0)
        assert prof.degrees() == []
        self._check(prof, tmp_path)
        assert '"threshold": NaN' in (tmp_path / "fast.json").read_text()


class TestAnalyzeStates:
    def test_zero_states_give_empty_profile(self, rng, tmp_path):
        settings = TipcSettings(max_degree=1, max_input_delay=2)
        prof = analyze_states(np.zeros((500, 4)), rng.uniform(0, 1, 600), 50, settings,
                              input_range=(0, 1))
        assert prof.rank == 0 and prof.c_tot == 0.0 and prof.terms == []
        assert prof.capacity.size == prof.truncated.size == 0
        # the totals are floats: the files read 0.0, not 0
        dataio.write_profile_json(tmp_path / "p.json", prof)
        text = (tmp_path / "p.json").read_text()
        for key in ("c_tot", "c_tiv_tot", "c_tv_tot"):
            assert f'"{key}": 0.0,' in text
        assert json.loads(text)["records"] == []
        dataio.write_profile_degrees_csv(tmp_path / "d.csv", prof)
        assert (tmp_path / "d.csv").read_text() == "degree,tiv_total,tv_total\n"
        dataio.write_csv(tmp_path / "q.csv", ["rank", "c_tiv_tot", "c_tv_tot", "c_tot"],
                         [(prof.rank, prof.c_tiv_tot, prof.c_tv_tot, prof.c_tot)])
        assert (tmp_path / "q.csv").read_text().splitlines()[1] == "0,0.0,0.0,0.0"

    @pytest.mark.parametrize("n_cols,lx,rows,need", [(1, 0, 30, 31), (1, 2, 32, 31),
                                                      (4, 0, 47, 48)])
    def test_chi2_window_too_short_for_its_threshold(self, rng, n_cols, lx, rows, need):
        # sigma * chdtri(r, 1e-4) is 30.27 at rank 1 and 47.02 at rank 4: one
        # row fewer puts the threshold above 1, the largest capacity
        x = rng.normal(size=(rows, n_cols))
        u = rng.uniform(-1, 1, rows + 10)
        settings = TipcSettings(max_degree=1, max_input_delay=3, max_state_delay=lx)
        with pytest.raises(ValueError, match=rf"{rows - lx} analysed rows .* rank "
                           rf"{n_cols}: it is 1\.0\d+, .* at least {need} rows "
                           rf"\(after {lx} state-history rows\).*tipc\.analysis_len"):
            analyze_states(x, u, 10, settings, input_range=(-1, 1))
        prof = analyze_states(rng.normal(size=(rows + 1, n_cols)), u, 9, settings,
                              input_range=(-1, 1))
        assert prof.rank == n_cols and prof.threshold <= 1.0

    def test_linear_echo_completeness(self, rng):
        # states are exact linear functions of delayed inputs: the capacity
        # sum saturates the rank and every component is time-invariant
        u, x, off = _echo_states(rng, 4000)
        settings = TipcSettings(max_degree=1, max_input_delay=30,
                                max_state_delay=2, family="legendre")
        prof = analyze_states(x, u, off, settings, input_range=(-1, 1))
        assert prof.rank == 2
        untruncated = sum(prof.capacity)
        assert untruncated == pytest.approx(2.0, rel=0.01)
        assert prof.c_tv_tot == 0.0
        tv_mass = sum(c for t, c in zip(prof.terms, prof.capacity)
                      if not t.is_time_invariant)
        assert tv_mass <= 0.02 * prof.rank

    def test_identity_state_hits_delay_zero_label(self, rng):
        u = rng.uniform(-1, 1, size=600)
        x = u[100:].reshape(-1, 1).copy()
        settings = TipcSettings(max_degree=1, max_input_delay=3,
                                max_state_delay=0, family="legendre")
        prof = analyze_states(x, u, 100, settings, input_range=(-1, 1))
        top = int(np.argmax(prof.capacity))
        assert prof.terms[top].label() == "P1(u[t])"
        assert prof.capacity[top] == pytest.approx(1.0, abs=1e-8)

    def test_shuffled_inputs_kill_tiv_capacity(self, rng):
        u, x, off = _echo_states(rng, 3000)
        shuffled = u[rng.permutation(len(u))]
        settings = TipcSettings(max_degree=1, max_input_delay=10,
                                max_state_delay=0)
        prof = analyze_states(x, shuffled, off, settings, input_range=(-1, 1))
        assert prof.c_tiv_tot == 0.0  # nothing survives the threshold

    def test_chi2_threshold_calibration_with_sigma_one(self, rng):
        # with sigma = 1, the expected false-positive count is p * n_terms;
        # 3x slack absorbs the binomial spread
        T, r, n_terms = 2000, 3, 400
        ns = normalize_states(rng.normal(size=(T, r)))
        p = 0.01
        th = chi2_threshold(T, r, p=p, sigma=1.0)
        base = rng.normal(size=T)
        exceed = 0
        for _ in range(n_terms):
            xi = base[rng.permutation(T)]
            ortho = orthonormalize(xi[:, None].copy())
            c = capacities(ns.P, ortho)[0]
            exceed += c >= th
        assert exceed <= 3 * p * n_terms + 1


    def test_short_T_more_terms_than_rows(self, rng, monkeypatch):
        seen = []

        def spy(basis, *args, **kwargs):
            seen.append(orthonormalize(basis, *args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(tipc, "orthonormalize", spy)
        u, x, off = _echo_states(rng, 30)
        # p = 1e-2 keeps the rank-2 chi2 threshold (18.4 / 28) under 1
        settings = TipcSettings(max_degree=2, max_input_delay=6,
                                max_state_delay=2, family="legendre", p=1e-2)
        prof = analyze_states(x, u, off, settings, input_range=(-1, 1))
        terms = enumerate_bases(2, 6, 2, prof.rank, "legendre")
        (ortho,) = seen
        assert len(terms) > ortho.n_rows
        assert len(prof.capacity) == len(prof.truncated) == len(terms)
        assert prof.terms == terms
        assert len(ortho.kept) == ortho.n_rows - 1
        assert all(prof.capacity[j] == 0.0 for j in ortho.dropped)
        assert sum(prof.capacity) <= prof.rank + 1e-9

class TestSurrogateThreshold:
    def test_deterministic_under_seed(self, rng):
        u, x, off = _echo_states(rng, 800)
        ns = normalize_states(x)
        terms = enumerate_bases(1, 5, 0, ns.rank, "legendre")
        args = dict(inputs=u, input_offset=off, terms=terms, P=ns.P,
                    input_range=(-1.0, 1.0), n_surrogates=10, sigma=1.2)
        a = shuffle_surrogate_threshold(rng=np.random.default_rng(5), **args)
        b = shuffle_surrogate_threshold(rng=np.random.default_rng(5), **args)
        assert a == b

    def test_memoryless_toy_true_vs_surrogate(self, rng):
        # x_t = u_t^2 carries nothing at delays >= 1, so true capacities on
        # delayed-only terms look statistically like surrogate capacities
        u = rng.uniform(-1, 1, size=2300)
        x = (u[300:] ** 2).reshape(-1, 1)
        ns = normalize_states(x)
        delayed = [BasisTerm(input_exponents=((s, 1),), family="legendre")
                   for s in range(2, 12)]
        B = evaluate_bases(delayed, u, 300, n_rows=2000)
        true_caps = list(capacities(ns.P, orthonormalize(B)))
        surr_caps = []
        srng = np.random.default_rng(17)
        for _ in range(20):
            us = u[srng.permutation(len(u))]
            Bs = evaluate_bases(delayed, us, 300, n_rows=2000)
            surr_caps += list(capacities(ns.P, orthonormalize(Bs)))
        se = math.sqrt(np.var(true_caps) / len(true_caps)
                       + np.var(surr_caps) / len(surr_caps))
        assert abs(np.mean(true_caps) - np.mean(surr_caps)) <= 4 * se + 1e-6


class TestSurrogateMode:
    def test_analyze_states_with_surrogate_threshold(self, rng):
        u, x, off = _echo_states(rng, 600)
        settings = TipcSettings(max_degree=1, max_input_delay=4,
                                max_state_delay=1, family="legendre", threshold="surrogate",
                                surrogates=5, surrogate_sigma=1.2)
        prof = analyze_states(x, u, off, settings,
                              surrogate_rng=np.random.default_rng(3), input_range=(-1, 1))
        assert prof.threshold_params["mode"] == "surrogate"
        assert prof.c_tiv_tot > 0.5  # the echo structure survives thresholding

    def test_one_basis_alive_at_a_time(self, rng, monkeypatch):
        # each basis is freed once its capacities are read, before the next
        # surrogate's basis is evaluated
        alive = []
        evaluate = tipc.evaluate_bases

        def spy(*args, **kwargs):
            assert all(ref() is None for ref in alive), len(alive)
            basis = evaluate(*args, **kwargs)
            alive.append(weakref.ref(basis))
            return basis

        monkeypatch.setattr(tipc, "evaluate_bases", spy)
        u, x, off = _echo_states(rng, 600)
        settings = TipcSettings(max_degree=2, max_input_delay=4, max_state_delay=1,
                                family="legendre",
                                threshold="surrogate", surrogates=3)
        analyze_states(x, u, off, settings, surrogate_rng=np.random.default_rng(3),
                       input_range=(-1, 1))
        assert len(alive) == 4
        assert all(ref() is None for ref in alive)

    def test_surrogate_mode_requires_rng(self, rng):
        u, x, off = _echo_states(rng, 400)
        settings = TipcSettings(max_degree=1, max_input_delay=3,
                                threshold="surrogate")
        with pytest.raises(ValueError, match="rng"):
            analyze_states(x, u, off, settings, input_range=(-1, 1))


class TestIpcOfTarget:
    def test_pure_delay_task(self, rng):
        u = rng.uniform(-1, 1, size=1300)
        y = u[299:1299]  # y_t = u_{t-1}
        settings = TipcSettings(max_degree=2, max_input_delay=4,
                                family="legendre")
        prof = ipc_of_target(y, u, 300, settings, input_range=(-1, 1))
        assert prof.rank == 1
        top = int(np.argmax(prof.capacity))
        assert prof.terms[top].label() == "P1(u[t-1])"
        # earlier terms absorb O(1/T) sample correlations; the span is exact
        assert prof.capacity[top] == pytest.approx(1.0, abs=0.02)
        assert sum(prof.capacity) == pytest.approx(1.0, abs=1e-9)

    def test_squared_delay_task_is_even(self, rng):
        # u^2 = (2 P2 + P0)/3: after centering only the P2 term carries mass
        u = rng.uniform(-1, 1, size=1300)
        y = u[299:1299] ** 2
        settings = TipcSettings(max_degree=3, max_input_delay=3,
                                family="legendre")
        prof = ipc_of_target(y, u, 300, settings, input_range=(-1, 1))
        by_label = {t.label(): c for t, c in zip(prof.terms, prof.capacity)}
        assert by_label["P2(u[t-1])"] == pytest.approx(1.0, abs=0.02)
        assert sum(prof.capacity) == pytest.approx(1.0, abs=1e-9)
        odd = [c for t, c in zip(prof.terms, prof.capacity) if t.input_order % 2 == 1]
        assert max(odd) < prof.threshold

    def test_constant_target_rejected(self, rng):
        with pytest.raises(ValueError):
            ipc_of_target(np.ones(100), rng.uniform(-1, 1, 200), 50,
                          TipcSettings())
