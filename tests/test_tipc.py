"""Capacity-analysis tests: SVD normalization, basis machinery, thresholds."""

import importlib.machinery
import inspect
import itertools
import json
import math
import os
import pickle
import subprocess
import sys
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import chdtri, eval_legendre

import qnr.tipc as tipc
from qnr import _lapack, dataio
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


def gather_evaluate(terms, inputs, input_offset, xhat=None, start_row=0,
                    n_rows=None, input_range=(-1.0, 1.0)):
    """The per-delay gather that ``evaluate_bases`` replaced: each (delay,
    exponent) factor fancy-indexed from the inputs or the states, then the
    products in the library's order."""
    if n_rows is None:
        n_rows = xhat.shape[0] - start_row
    lo, hi = input_range
    scaled = (2.0 * inputs - (lo + hi)) / (hi - lo)
    rows = np.arange(start_row, start_row + n_rows)
    out = np.empty((n_rows, len(terms)), order="F")
    for j, term in enumerate(terms):
        fs = []
        for s, e in term.input_exponents:
            idx = input_offset + rows - s + 1
            fs.append(tipc._legendre(e, scaled[idx]) if term.family == "legendre"
                      else inputs[idx] ** e)
        for k, s, e in term.state_exponents:
            fs.append(xhat[rows - s, k] ** e)
        col = out[:, j]
        col[:] = fs[0]
        for f in fs[1:]:
            col *= f
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


def kept_vectors(A):
    """The kept orthonormal vectors of the basis matrix A as columns, read as
    Q^T I, with Gram-Schmidt's signs: each has a positive product with its
    basis column."""
    kept, _, QtI = tipc._project(np.eye(len(A)), A)
    Q = QtI.T
    return Q * np.sign(np.sum(Q * A[:, kept], axis=0))


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

    @pytest.mark.parametrize("start_row", [2, 3])
    @pytest.mark.parametrize("family", ["monomial", "legendre"])
    def test_factor_windows_match_the_per_delay_gather(self, rng, family, start_row):
        u = rng.uniform(-1, 1, size=140)
        # |x| < 1e-5 takes the Legendre power series
        u[::7] = rng.uniform(-1e-5, 1e-5, size=20)
        u[3] = 0.0
        xhat = rng.normal(size=(40 + start_row, 2))
        terms = enumerate_bases(4, 6, 2, 2, family)
        assert max(s for t in terms for _, s, _ in t.state_exponents) == 2
        args = (terms, u, 90)
        kwargs = dict(xhat=xhat, start_row=start_row, input_range=(-1.0, 1.0))
        assert np.array_equal(evaluate_bases(*args, **kwargs),
                              gather_evaluate(*args, **kwargs))
        lead = np.empty((40, 50), order="F")
        assert evaluate_bases(*args, **kwargs, out=lead) is lead
        assert np.array_equal(lead, gather_evaluate(terms[:50], u, 90, **kwargs))


class TestOrthonormalize:
    def test_orthonormal_input_unchanged_up_to_sign(self, rng):
        Q0, _ = np.linalg.qr(rng.normal(size=(60, 4)))
        Q0 -= Q0.mean(axis=0)  # keep columns mean-free for the constant pass
        Q0, _ = np.linalg.qr(Q0)
        res = orthonormalize(Q0)
        assert res.kept == [0, 1, 2, 3]
        Q = kept_vectors(Q0)
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
        Q = kept_vectors(hilbertish)
        G = Q.T @ Q
        assert np.abs(G - np.eye(G.shape[0])).max() <= 1e-8
        assert np.abs(np.linalg.norm(Q, axis=0) - 1).max() <= 1e-10

    def test_spans_match_qr_oracle(self, rng):
        A = rng.normal(size=(100, 8))
        res = orthonormalize(A)
        Qr, _ = np.linalg.qr(np.column_stack([np.ones(100), A]))
        # same nested spans after the constant: projectors agree
        Q = kept_vectors(A)
        P_mine = Q @ Q.T
        P_qr = Qr[:, 1:] @ Qr[:, 1:].T
        assert np.abs(P_mine - P_qr).max() <= 1e-8

    def test_block_boundaries_do_not_matter(self, rng, solvers, monkeypatch):
        A = rng.normal(size=(150, 20))
        A[:, 7] = A[:, 4]        # a dropped column sends it to Gram-Schmidt
        monkeypatch.setattr(tipc, "_GS_BLOCK", 3)
        a, qa = orthonormalize(A), kept_vectors(A)
        monkeypatch.setattr(tipc, "_GS_BLOCK", 64)
        b, qb = orthonormalize(A), kept_vectors(A)
        assert [s for s, _ in solvers] == ["gram_schmidt"] * 4
        assert a.kept == b.kept and a.dropped == b.dropped == [7]
        assert np.abs(qa - qb).max() <= 1e-9


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
        assert np.abs(kept_vectors(B) - Q).max() <= 1e-12

    def test_tall_legendre_basis_matches_reference(self, rng):
        u = rng.uniform(-1, 1, size=2100)
        terms = enumerate_bases(3, 8, 0, 0, "legendre")
        B = evaluate_bases(terms, u, input_offset=100, n_rows=2000)
        Q, kept, dropped = reference_mgs(B)
        res = orthonormalize(B)
        assert res.kept == kept and res.dropped == dropped
        assert np.abs(kept_vectors(B) - Q).max() <= 1e-12

    @pytest.mark.parametrize("scale", [1.0, 1e6, 1e9])
    def test_never_more_vectors_than_rows(self, rng, scale):
        # an absolute drop floor alone let roundoff residuals of huge
        # columns through once the kept span was already all of R^T
        T = 10
        A = rng.normal(size=(T, 40)) * scale
        res = orthonormalize(A)
        assert len(res.kept) <= T - 1
        full = np.column_stack([np.full(T, 1.0 / np.sqrt(T)),
                                kept_vectors(A)])
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
    """(solver, (T, columns factored)) of every solver that took a basis:
    "cholesky" for ``_gram_factor``, "householder" for
    ``_householder_panels`` and "gram_schmidt" for ``_gram_schmidt``."""
    seen = []

    def spy_on(name, label, took):
        real = getattr(tipc, name)

        def spy(*args):
            res = real(*args)
            if took(res):
                # (panels, T, B, ...) or (A, floor)
                seen.append((label, args[0].shape if len(args) == 2 else args[1:3]))
            return res

        monkeypatch.setattr(tipc, name, spy)

    spy_on("_gram_factor", "cholesky", lambda res: res is not None)
    spy_on("_householder_panels", "householder", lambda res: res is not None)
    spy_on("_gram_schmidt", "gram_schmidt", lambda res: True)
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
    def test_capacities_match_reference(self, rng, solvers, monkeypatch, n_rows, n_kept,
                                        solver):
        u = rng.uniform(-1, 1, size=n_rows + 100)
        B = evaluate_bases(enumerate_bases(3, 8, 0, 0, "legendre"), u, 100,
                           n_rows=n_rows)
        x = np.column_stack([u[100:] ** 2 + 0.5 * u[99:-1] * u[98:-2],
                             np.sin(3.0 * u[99:-1])])
        P = normalize_states(x + 0.01 * rng.normal(size=x.shape)).P
        caps, kept, dropped = reference_capacities(P, B)
        res = orthonormalize(B)
        assert solvers == [(solver, (n_rows, n_kept))]
        mine = capacities(P, B)
        # no basis is tall: the QR takes it
        monkeypatch.setattr(tipc, "_GRAM_MIN_ROWS_PER_COLUMN", n_rows + 1)
        qr_kept, qr_dropped, qr = tipc._project(P, B)
        assert solvers[-1] == ("householder", (n_rows, n_kept))
        assert res.kept == qr_kept == kept == list(range(n_kept))
        assert res.dropped == qr_dropped == dropped
        assert np.abs(np.array(mine) - caps).max() <= 1e-12
        assert np.abs(mine[kept] - np.sum(qr ** 2, axis=1)).max() <= 1e-12

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
        assert np.abs(kept_vectors(B) - Q).max() <= 1e-12
        mine = capacities(P, B)
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

    def test_nan_pivot_fails_the_gate(self, rng):
        A = rng.normal(size=(50, 3))
        A[7, 1] = np.nan
        # [constant | A | P], with P one column of zeros
        F = np.asfortranarray(np.column_stack([np.full(50, 1.0 / np.sqrt(50)), A,
                                               np.zeros(50)]))
        assert tipc._householder_panels([F], 50, 3, tipc._DROP_TOL * np.sqrt(50)) is None

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
            "print([m for m in sys.modules if m.startswith('scipy.special')])\n"
            "print([m for m in sys.modules if m.startswith('scipy')])\n")
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip().splitlines()[-2] == "[]"
        # nor any scipy module: the solver runs in numpy's own LAPACK
        assert out.stdout.strip().splitlines()[-1] == "[]"
        profile_json = json.loads((tmp_path / "out_ipc" / "ipc_profile.json").read_text())
        assert profile_json["records"][0]["family"] == "legendre"
        assert (tmp_path / "out_tipc" / "profile_m0001.json").exists()

    def test_loaded_wrappers_match_scipy_linalg_loaded_after(self):
        # numpy's wheels export the solver's functions: no scipy module loads
        src = os.path.dirname(os.path.dirname(tipc.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        script = (
            "import sys\nimport numpy as np\nfrom qnr import _lapack, tipc\n"
            + inspect.getsource(_solver_calls) +
            "loaded = _solver_calls(*tipc._blas_lapack())\n"
            "assert tipc._blas_lapack() == (_lapack, _lapack)\n"
            "assert not [m for m in sys.modules if m.startswith('scipy')]\n"
            "import scipy.linalg\n"
            "reference = _solver_calls(scipy.linalg.blas, scipy.linalg.lapack)\n"
            "print(len(loaded), all(a.tobytes() == b.tobytes()\n"
            "                       for a, b in zip(loaded, reference)))\n")
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "10 True"

    def test_loaded_wrappers_match_scipy_linalg_loaded_before(self):
        import scipy.linalg
        tipc._blas_lapack.cache_clear()
        assert tipc._blas_lapack() == (_lapack, _lapack)
        loaded = _solver_calls(_lapack, _lapack)
        reference = _solver_calls(scipy.linalg.blas, scipy.linalg.lapack)
        assert len(loaded) == 10
        assert all(a.tobytes() == b.tobytes() for a, b in zip(loaded, reference))

    def test_missing_wrapper_file_names_directory_and_version(self, monkeypatch):
        import scipy
        monkeypatch.setattr(_lapack, "_SUFFIX", "_missing")   # numpy's lookup fails
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing"])
        tipc._blas_lapack.cache_clear()
        with pytest.raises(ImportError, match=rf"no _fblas extension in .*linalg "
                                              rf"\(scipy {scipy.__version__}\)"):
            tipc._blas_lapack()


@pytest.fixture
def cells(monkeypatch):
    """Shape of every basis block that evaluate_bases built."""
    seen = []
    evaluate = tipc.evaluate_bases

    def spy(*args, **kwargs):
        block = evaluate(*args, **kwargs)
        seen.append(block.shape)
        return block

    monkeypatch.setattr(tipc, "evaluate_bases", spy)
    return seen


class TestSaturatedBasis:
    """A term list of at least as many terms as rows, handed to orthonormalize."""

    def _wide(self, rng):
        # states nonlinear in the inputs: the echo states' are linear, so
        # their state terms repeat input terms and the QR is refused
        u = rng.uniform(-1, 1, size=160)
        ns = normalize_states(np.tanh(rng.normal(size=(60, 2))))
        terms = enumerate_bases(3, 6, 2, ns.rank, "legendre")
        return terms, u, 100, dict(xhat=ns.P, start_row=2)

    def test_passing_qr_evaluates_only_the_leading_columns(self, rng, cells):
        terms, u, off, kw = self._wide(rng)
        B = evaluate_bases(terms, u, off, **kw)
        T = B.shape[0]
        cells.clear()
        res = orthonormalize(terms, u, off, **kw)
        assert cells == [(T, T - 1)]
        full = orthonormalize(B)
        assert res.kept == full.kept == list(range(T - 1))
        assert res.dropped == full.dropped
        P = normalize_states(kw["xhat"][2:], abs_floor=1e-12).P
        assert np.array_equal(capacities(P, terms, u, off, **kw), capacities(P, B))

    def test_refused_qr_evaluates_the_whole_basis(self, rng, cells):
        terms, u, off, kw = self._wide(rng)
        terms.insert(5, terms[2])   # a duplicated early column
        B = evaluate_bases(terms, u, off, **kw)
        T = B.shape[0]
        cells.clear()
        res = orthonormalize(terms, u, off, **kw)
        assert cells == [(T, T - 1), B.shape]
        _, kept, dropped = reference_mgs(B)
        assert 5 in dropped
        assert res.kept == kept and res.dropped == dropped

    @pytest.mark.parametrize("threshold", ["chi2", "surrogate"])
    @pytest.mark.parametrize("states", ["tanh", "echo"])
    def test_analyze_states_matches_the_full_matrix(self, rng, solvers, states,
                                                    threshold):
        u, x, off = _echo_states(rng, 30)
        if states == "tanh":
            x = np.tanh(rng.normal(size=x.shape))
        settings = TipcSettings(max_degree=2, max_input_delay=6, max_state_delay=2,
                                family="legendre", p=1e-2, threshold=threshold,
                                surrogates=3)
        prof = analyze_states(x, u, off, settings, np.random.default_rng(8),
                              input_range=(-1, 1))
        ns = normalize_states(x)
        terms = enumerate_bases(2, 6, 2, ns.rank, "legendre")
        B = evaluate_bases(terms, u, off, xhat=ns.P, start_row=2)
        assert B.shape[1] > B.shape[0]
        P = normalize_states(ns.P[2:], abs_floor=1e-12).P
        solvers.clear()
        assert np.array_equal(prof.capacity, capacities(P, B))
        # the QR takes the leading T - 1 columns of the tanh states' basis,
        # Gram-Schmidt the whole of the echo states'
        T = B.shape[0]
        assert solvers == [("householder", (T, T - 1)) if states == "tanh"
                           else ("gram_schmidt", B.shape)]
        if threshold == "surrogate":
            th = shuffle_surrogate_threshold(u, off, terms, P, np.random.default_rng(8),
                                             xhat=ns.P, start_row=2,
                                             input_range=(-1, 1), n_surrogates=3)
            assert prof.threshold == th

    @pytest.mark.parametrize("problem,message", [
        ("history", "not enough input history"),
        ("short", r"too short"),
        ("nan", r"hold NaN or Inf in the window \[2, 30\)"),
        ("state-delay", "delay 1 exceeds start_row 0"),
    ], ids=["history", "short", "nan", "state-delay"])
    def test_late_terms_are_still_checked(self, rng, cells, problem, message):
        # 27 input terms on 20 rows: only the first 19 are evaluated, but the
        # checks cover the term appended after them
        u, off, T = rng.uniform(-1, 1, size=40), 10, 20
        terms = enumerate_bases(2, 6, 0, 0, "legendre")
        kw = dict(n_rows=T, input_range=(-1.0, 1.0))
        late = BasisTerm(input_exponents=((9, 1),), family="legendre")
        if problem == "history":
            late = BasisTerm(input_exponents=((12, 1),), family="legendre")
        elif problem == "short":
            u = u[:off + T - 1]
        elif problem == "nan":
            u[2] = np.nan   # read by the delay-9 term only
            assert len(orthonormalize(terms, u, off, **kw).kept) == T - 1
        else:
            late = BasisTerm(state_exponents=((0, 1, 1),))
            kw = dict(xhat=rng.normal(size=(T, 1)), input_range=(-1.0, 1.0))
        cells.clear()
        with pytest.raises(ValueError, match=message):
            orthonormalize(terms + [late], u, off, **kw)
        assert cells == []


def _solver_calls(blas, lapack):
    """Outputs of the solver's six compiled functions on one random input: a
    Gram factor, and a Householder QR of two row panels, the second folded
    into the first one's triangle as ``_householder_panels`` does."""
    rng = np.random.default_rng(11)
    A = np.asfortranarray(rng.normal(size=(40, 6)))
    G = blas.dsyrk(1.0, A, trans=1)
    R, _ = lapack.dpotrf(G + np.triu(G, 1).T)   # the lower triangle is cleared
    lwork = lapack.dgeqrf(A, lwork=-1)[2][0]
    F, tau, _, _ = lapack.dgeqrf(A, lwork=int(lwork))
    panel = np.asfortranarray(rng.normal(size=(30, 6)))
    R2, V, Tk, _ = lapack.dtpqrt(0, 4, np.triu(F[:6]), panel)
    outs = [G, R, lapack.dtrcon(R)[0], lapack.dtrtrs(R, A.T[:, :3], trans=1)[0], lwork,
            F, tau, R2, V, Tk]
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
        assert np.abs(kept_vectors(A) - Q).max() <= 1e-12

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

    def test_row_major_basis_reads_as_transpose(self, rng, solvers, monkeypatch):
        u = rng.uniform(-1, 1, size=1100)
        B = evaluate_bases(enumerate_bases(2, 6, 0, 0, "legendre"), u, 100,
                           n_rows=1000)
        C = np.ascontiguousarray(B)
        P = rng.normal(size=(1000, 3)) + 0.5   # the constant's row matters too
        blocks = []
        gram_factor = tipc._gram_factor

        def spy(panels, *args):
            panels = list(panels)
            blocks.extend(panels)
            return gram_factor(panels, *args)

        monkeypatch.setattr(tipc, "_gram_factor", spy)
        a_kept, _, a = tipc._project(P, B)
        b_kept, _, b = tipc._project(P, C)
        assert [s for s, _ in solvers] == ["cholesky", "cholesky"]
        assert len(blocks) == 2
        # one column-major [constant | basis | P] panel, whatever the basis's order
        assert all(block.flags.f_contiguous for block in blocks)
        assert blocks[0].tobytes(order="A") == blocks[1].tobytes(order="A")
        assert a_kept == b_kept
        assert np.abs(a - b).max() <= 1e-12
        assert a.tobytes() == b.tobytes()
        assert np.abs(a - reference_mgs(B)[0].T @ P).max() <= 1e-12


@pytest.fixture
def gate(monkeypatch):
    """Whether each Gram/Cholesky gate passed, in call order."""
    passed = []
    gram_factor = tipc._gram_factor

    def spy(*args, **kwargs):
        QtP = gram_factor(*args, **kwargs)
        passed.append(QtP is not None)
        return QtP

    monkeypatch.setattr(tipc, "_gram_factor", spy)
    return passed


class TestStreamedGram:
    """A tall term list handed to capacities: its Gram is accumulated over row
    panels, and the basis is never evaluated whole unless both the Gram gate
    and the QR gate refuse it."""

    def _tall(self, rng, T, family="legendre", start_row=0, rank=0):
        # tanh of noise as states, so that state terms do not repeat input terms
        u = rng.uniform(-1, 1, size=T + start_row + 10)
        kw = dict(n_rows=T, start_row=start_row, input_range=(-1.0, 1.0))
        if rank:
            kw["xhat"] = normalize_states(np.tanh(rng.normal(size=(T + start_row, rank)))).P
        terms = enumerate_bases(2, 4, start_row, rank, family)
        # non-zero column means: the constant's row of F^T P is read too
        P = rng.normal(size=(T, 3)) + np.array([0.5, -1.0, 2.0])
        return terms, u, 10, kw, P

    @pytest.mark.parametrize("family", ["legendre", "monomial"])
    @pytest.mark.parametrize("start_row,rank", [(0, 0), (2, 2)], ids=["inputs", "states"])
    @pytest.mark.parametrize("T", [1000, tipc._PANEL_ROWS, tipc._PANEL_ROWS + 1,
                                   2 * tipc._PANEL_ROWS - 1],
                             ids=["below", "one", "one-plus-1", "two-minus-1"])
    def test_matches_the_full_matrix(self, rng, gate, T, start_row, rank, family):
        terms, u, off, kw, P = self._tall(rng, T, family, start_row, rank)
        # the first panel reads state history as far back as start_row allows
        assert max((s for t in terms for _, s, _ in t.state_exponents), default=0) \
            == start_row
        assert len(terms) * tipc._GRAM_MIN_ROWS_PER_COLUMN <= T
        caps = capacities(P, terms, u, off, **kw)
        assert gate == [True]
        A = evaluate_bases(terms, u, off, **kw)
        full = orthonormalize(A)
        assert full.kept == list(range(len(terms))) and full.dropped == []
        assert np.abs(caps - capacities(P, A)).max() <= 1e-12

    def test_panels_never_exceed_panel_rows(self, rng, gate, cells):
        T = 2 * tipc._PANEL_ROWS + 100
        terms, u, off, kw, P = self._tall(rng, T, start_row=2, rank=2)
        capacities(P, terms, u, off, **kw)
        assert gate == [True]
        assert [rows for rows, _ in cells] == [tipc._PANEL_ROWS, tipc._PANEL_ROWS, 100]
        assert all(B == len(terms) for _, B in cells)

    def test_refused_basis_frees_its_panel_and_is_evaluated_whole(self, rng, gate,
                                                                   monkeypatch):
        T = tipc._PANEL_ROWS + 500
        terms, u, off, kw, P = self._tall(rng, T, start_row=2, rank=2)
        terms.insert(5, terms[2])   # a duplicated column
        B = evaluate_bases(terms, u, off, **kw)
        buffers = []
        evaluate = tipc.evaluate_bases

        def spy(*args, **kwargs):
            block = evaluate(*args, **kwargs)
            if len(block) == T:   # the whole basis comes after the panels are gone
                assert all(ref() is None for _, ref in buffers)
            buffers.append((len(block), weakref.ref(block if block.base is None
                                                    else block.base)))
            return block

        monkeypatch.setattr(tipc, "evaluate_bases", spy)
        caps = capacities(P, terms, u, off, **kw)
        assert gate == [False]
        # the Gram pass, the streamed QR, then Gram-Schmidt on the whole basis
        assert [rows for rows, _ in buffers] == [tipc._PANEL_ROWS, 500,
                                                 tipc._PANEL_ROWS, 500, T]
        ref_caps, kept, dropped = reference_capacities(P, B)
        assert 5 in dropped and kept == [j for j in range(len(terms)) if j != 5]
        assert np.abs(caps - ref_caps).max() <= 1e-12
        assert caps[5] == 0.0

    def test_errors_are_those_of_one_evaluation(self, rng, cells):
        T = tipc._PANEL_ROWS + 500
        terms, u, off, kw, P = self._tall(rng, T)
        u[off + T - 1] = np.nan   # read by the last panel only
        with pytest.raises(ValueError, match=rf"window \[7, {off + T}\) that {T} state"):
            capacities(P, terms, u, off, **kw)
        assert cells == []

    def test_misaligned_states_are_refused(self, rng):
        terms, u, off, kw, P = self._tall(rng, 1000)
        with pytest.raises(ValueError, match="misaligned"):
            capacities(P[1:], terms, u, off, **kw)

    def test_tracemalloc_peak_stays_under_half_the_basis(self, rng):
        # criterion-8 settings: 20,000 x 164 Legendre terms, 25.0 MiB whole
        u = rng.uniform(-1, 1, size=20200)
        y = u[200:] ** 2 + 0.3 * u[199:-1]
        settings = TipcSettings(max_degree=3, max_input_delay=8, family="legendre")
        assert len(enumerate_bases(3, 8, 0, 1, "legendre")) == 164
        ipc_of_target(y, u, 200, settings, input_range=(-1, 1))   # loads LAPACK
        tracemalloc.start()
        try:
            ipc_of_target(y, u, 200, settings, input_range=(-1, 1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 20000 * 164 * 8


class TestStreamedHouseholder:
    """An unsaturated term list that the Gram path does not take, handed to
    capacities: one Householder QR over row panels, the basis never whole."""

    def _basis(self, rng, kind, T):
        if kind == "gram-refused":
            # monomials of inputs on [0, 1]: tall, but their Gram fails the
            # condition bound
            u = rng.uniform(0, 1, size=T + 10)
            kw = dict(n_rows=T, input_range=(0.0, 1.0))
            terms = enumerate_bases(3, 3, 0, 0, "monomial")
        else:
            u = rng.uniform(-1, 1, size=T + 12)
            xhat = normalize_states(np.tanh(rng.normal(size=(T + 2, 2)))).P
            kw = dict(xhat=xhat, start_row=2, n_rows=T, input_range=(-1.0, 1.0))
            terms = enumerate_bases(2, 5, 2, 2, "legendre")
        # one column for the monomials, as in a per-qubit analysis: a (T, 1)
        # slice of it is both C- and F-contiguous, which numpy would not copy
        cols = 1 if kind == "gram-refused" else 3
        P = rng.normal(size=(T, cols)) + np.array([0.5, -1.0, 2.0])[:cols]
        return terms, u, 10, kw, P

    @pytest.mark.parametrize("kind", ["gram-refused", "not-tall"])
    @pytest.mark.parametrize("panel,T", [(160, 160), (160, 161), (160, 319), (40, 319)],
                             ids=["one", "one-plus-1", "two-minus-1", "wider-than-panel"])
    def test_matches_the_full_matrix(self, rng, monkeypatch, gate, cells, solvers,
                                     kind, panel, T):
        monkeypatch.setattr(tipc, "_PANEL_ROWS", panel)
        terms, u, off, kw, P = self._basis(rng, kind, T)
        B = len(terms)
        assert tipc._is_tall(T, B) == (kind == "gram-refused")
        if panel == 40 and kind == "not-tall":
            assert 1 + B > panel   # the first panel has fewer rows than columns
        before = P.copy()
        caps = capacities(P, terms, u, off, **kw)
        assert P.tobytes() == before.tobytes()   # the panels hold copies of P
        assert gate == ([False] if kind == "gram-refused" else [])
        assert solvers == [("householder", (T, B))]
        assert all(rows <= panel for rows, _ in cells)
        assert sum(rows for rows, _ in cells) == T * len(gate) + T
        A = evaluate_bases(terms, u, off, **kw)
        full = orthonormalize(A)
        assert full.kept == list(range(B)) and full.dropped == []
        assert np.abs(caps - capacities(P, A)).max() <= 1e-12
        assert np.all(caps > 0.0)

    def test_one_panel_is_solved_as_the_whole_matrix(self, rng, monkeypatch, solvers,
                                                     cells):
        # an unsaturated basis within one panel, and a saturated one (more
        # terms than rows), which is one panel whatever its rows
        narrow = self._basis(rng, "not-tall", 319) + (tipc._PANEL_ROWS,)
        wide = (enumerate_bases(2, 10, 0, 0, "legendre"), rng.uniform(-1, 1, size=70), 10,
                dict(n_rows=60), normalize_states(np.tanh(rng.normal(size=(60, 4)))).P, 40)
        for terms, u, off, kw, P, panel in (narrow, wide):
            monkeypatch.setattr(tipc, "_PANEL_ROWS", panel)
            T = len(P)
            m = min(len(terms), T - 1)
            solvers.clear()
            cells.clear()
            caps = capacities(P, terms, u, off, **kw)
            assert cells == [(T, m)] and solvers == [("householder", (T, m))]
            assert caps.tobytes() == \
                capacities(P, evaluate_bases(terms, u, off, **kw)).tobytes()
            assert solvers[1:] == [("householder", (T, m))]

    def test_refused_qr_falls_back_to_gram_schmidt(self, rng, monkeypatch, cells,
                                                   solvers):
        monkeypatch.setattr(tipc, "_PANEL_ROWS", 40)
        terms, u, off, kw, P = self._basis(rng, "not-tall", 319)
        terms.insert(5, terms[2])   # a duplicated column
        B = evaluate_bases(terms, u, off, **kw)
        cells.clear()
        before = P.copy()
        caps = capacities(P, terms, u, off, **kw)
        assert P.tobytes() == before.tobytes()
        # eight panels for the QR, then the whole basis for Gram-Schmidt
        assert [rows for rows, _ in cells] == [40] * 7 + [39, 319]
        assert solvers == [("gram_schmidt", B.shape)]
        ref_caps, kept, dropped = reference_capacities(P, B)
        assert dropped == [5]
        assert np.abs(caps - ref_caps).max() <= 1e-12
        assert caps[5] == 0.0

    @pytest.mark.parametrize("T", [300, 100], ids=["gram-refused", "not-tall"])
    def test_evaluation_states_of_rank_zero(self, rng, monkeypatch, gate, T):
        # states that vary only in their history rows leave the evaluation P
        # without columns: the panels are [constant | A] alone
        X = np.zeros((T + 2, 2))
        X[0, 0], X[1, 1] = 1.0, 0.5
        u = rng.uniform(-1, 1, size=T + 12)
        settings = TipcSettings(max_degree=2, max_input_delay=3, max_state_delay=2,
                                family="legendre")
        one = analyze_states(X, u, 10, settings, input_range=(-1, 1))
        monkeypatch.setattr(tipc, "_PANEL_ROWS", 40)
        gate.clear()
        panels = analyze_states(X, u, 10, settings, input_range=(-1, 1))
        assert gate == ([False] if T == 300 else [])
        assert panels.rank == 2 and len(panels.terms) == 35
        assert not panels.capacity.any()
        assert dataio.profile_to_dict(panels) == dataio.profile_to_dict(one)

    def test_tracemalloc_peak_of_a_refused_basis_stays_under_half_of_it(self, rng, gate):
        # 20,000 x 164 monomials of inputs on [0, 1] (25.0 MiB whole), whose
        # Gram fails the condition bound
        u = rng.uniform(0, 1, size=20200)
        y = u[200:] ** 2 + 0.3 * u[199:-1]
        settings = TipcSettings(max_degree=3, max_input_delay=8, family="monomial")
        assert len(enumerate_bases(3, 8, 0, 1, "monomial")) == 164
        ipc_of_target(y[:500], u[:700], 200, settings, input_range=(0, 1))  # loads LAPACK
        gate.clear()
        tracemalloc.start()
        try:
            prof = ipc_of_target(y, u, 200, settings, input_range=(0, 1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert gate == [False]
        assert prof.capacity.min() > 0.0   # the QR kept every column
        assert peak < 0.5 * 20000 * 164 * 8


class TestCapacityLedger:
    """Capacities against the rank r of the normalized states: they sum to r
    where the basis spans the states, and to at most r otherwise, on every
    solver path (Dambre et al. 2012)."""

    def _case(self, rng, T, in_span):
        # states of Legendre factors of the inputs that the basis holds
        u = rng.uniform(-1, 1, size=T + 10)
        p1 = u[10:]
        x = np.column_stack([p1 + 0.5 * (1.5 * u[9:-1] ** 2 - 0.5),
                             u[8:-2] * u[7:-3] - 0.7 * u[9:-1],
                             p1 * u[9:-1]])
        if not in_span:
            x = x + 0.3 * rng.normal(size=x.shape)
        ns = normalize_states(x)
        terms = enumerate_bases(2, 4, 0, 0, "legendre")
        return terms, u, 10, dict(n_rows=T), ns.P, ns.rank

    @pytest.mark.parametrize("in_span", [True, False], ids=["spanned", "tall"])
    @pytest.mark.parametrize("path", ["cholesky", "streamed-gram", "one-panel-qr",
                                      "streamed-qr", "gram-schmidt"])
    def test_capacities_sum_to_the_rank(self, rng, monkeypatch, gate, solvers, cells,
                                        path, in_span):
        T = 400 if path in ("cholesky", "streamed-gram") else 100
        terms, u, off, kw, P, r = self._case(rng, T, in_span)
        assert r == 3 and len(terms) == 14
        if path == "streamed-qr":
            monkeypatch.setattr(tipc, "_PANEL_ROWS", 32)
        if path == "gram-schmidt":
            terms.insert(3, terms[1])   # a duplicated column
        if path == "cholesky":
            caps = capacities(P, evaluate_bases(terms, u, off, **kw))
            assert solvers == [("cholesky", (T, len(terms)))]
        else:
            caps = capacities(P, terms, u, off, **kw)
            assert gate == ([True] if path == "streamed-gram" else [])
            assert solvers == [({"streamed-gram": "cholesky",
                                 "gram-schmidt": "gram_schmidt"}.get(path, "householder"),
                                (T, len(terms)))]
            assert len(cells) == {"streamed-qr": 4, "gram-schmidt": 2}.get(path, 1)
        if in_span:
            assert abs(caps.sum() - r) <= 1e-12
        else:
            assert 0.5 < caps.sum() <= r + 1e-12

    @pytest.mark.parametrize("duplicate", [False, True], ids=["qr", "gram-schmidt"])
    def test_saturated_basis_sums_to_the_rank(self, rng, solvers, duplicate):
        # more terms than rows: the kept vectors span R^T, whatever the states
        u = rng.uniform(-1, 1, size=70)
        P = normalize_states(np.tanh(rng.normal(size=(60, 4)))).P
        terms = enumerate_bases(2, 10, 0, 0, "legendre")
        if duplicate:
            terms.insert(3, terms[1])
        assert len(terms) >= 60
        caps = capacities(P, terms, u, 10, n_rows=60)
        assert [s for s, _ in solvers] == (["gram_schmidt"] if duplicate else ["householder"])
        assert abs(caps.sum() - P.shape[1]) <= 1e-12


class TestLapackBindings:
    """The solver's functions bound to numpy's own OpenBLAS (``qnr._lapack``),
    and scipy's wrappers where numpy's library lacks them."""

    @pytest.mark.parametrize("basis", ["gram", "streamed-qr", "streamed-qr-rank-0",
                                       "saturated", "gram-schmidt"])
    def test_scipy_fallback_gives_the_same_capacities(self, rng, monkeypatch, solvers,
                                                      tmp_path, basis):
        # the fallback of a numpy whose library lacks the bound symbols
        panel = tipc._PANEL_ROWS
        if basis == "gram":
            terms, u, off, kw, P, _ = TestCapacityLedger()._case(rng, 400, False)
        elif basis.startswith("streamed-qr"):
            # a tall basis that the Gram gate refuses, over two panels; at
            # rank 0 the panels are [constant | A] alone
            panel = 160
            terms, u, off, kw, P = TestStreamedHouseholder()._basis(rng, "gram-refused",
                                                                    319)
            if basis == "streamed-qr-rank-0":
                P = P[:, :0]
        else:
            terms, u, off, kw = TestSaturatedBasis()._wide(rng)
            if basis == "gram-schmidt":
                terms.insert(5, terms[2])   # a duplicated early column
            P = normalize_states(kw["xhat"][2:], abs_floor=1e-12).P
        monkeypatch.setattr(tipc, "_PANEL_ROWS", panel)
        capacities(P, terms, u, off, **kw)
        solver = {"gram": "cholesky", "gram-schmidt": "gram_schmidt"}.get(basis,
                                                                          "householder")
        assert [s for s, _ in solvers] == [solver]
        # one BLAS thread: with two, the two OpenBLAS builds' threaded kernels
        # differ in the last bits of dtpqrt's block reflectors
        (tmp_path / "case.pkl").write_bytes(pickle.dumps((terms, u, off, kw, P, panel)))
        script = (
            "import pickle, sys\nfrom qnr import _lapack, tipc\n"
            "with open(sys.argv[1], 'rb') as fh:\n"
            "    terms, u, off, kw, P, tipc._PANEL_ROWS = pickle.load(fh)\n"
            "mine = tipc.capacities(P, terms, u, off, **kw)\n"
            "_lapack._SUFFIX = '_missing'\n"
            "tipc._blas_lapack.cache_clear()\n"
            "print(tipc._blas_lapack()[1].__name__,\n"
            "      mine.tobytes() == tipc.capacities(P, terms, u, off, **kw).tobytes())\n")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.path.dirname(os.path.dirname(tipc.__file__)))
        out = subprocess.run([sys.executable, "-c", script, str(tmp_path / "case.pkl")],
                             env=env, capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["scipy.linalg._flapack", "True"]

    def test_solver_paths_call_exactly_the_bound_functions(self, rng, monkeypatch,
                                                           solvers):
        # the Gram, streamed QR, saturated QR and Gram-Schmidt paths together
        # call every function that _lapack binds, and no other
        blas, lapack = tipc._blas_lapack()
        called = set()

        class Spy:
            def __init__(self, module):
                self._module = module

            def __getattr__(self, name):
                called.add(name)
                return getattr(self._module, name)

        monkeypatch.setattr(tipc, "_blas_lapack", lambda: (Spy(blas), Spy(lapack)))
        terms, u, off, kw, P, _ = TestCapacityLedger()._case(rng, 400, False)
        capacities(P, terms, u, off, **kw)
        monkeypatch.setattr(tipc, "_PANEL_ROWS", 160)
        terms, u, off, kw, P = TestStreamedHouseholder()._basis(rng, "gram-refused", 319)
        capacities(P, terms, u, off, **kw)
        terms, u, off, kw = TestSaturatedBasis()._wide(rng)
        P = normalize_states(kw["xhat"][2:], abs_floor=1e-12).P
        capacities(P, terms, u, off, **kw)
        terms.insert(5, terms[2])   # a duplicated early column
        capacities(P, terms, u, off, **kw)
        assert [s for s, _ in solvers] == ["cholesky", "householder", "householder",
                                           "gram_schmidt"]
        assert called == {name.split("_")[1] for name in _lapack._SIGNATURES}

    @pytest.mark.parametrize("name", ["dsyrk", "dpotrf", "dtrcon", "dtrtrs", "dgeqrf",
                                      "dtpqrt"])
    def test_bad_arrays_and_illegal_arguments_raise(self, rng, name):
        # float32, a row-major factor where the call reads one, a mismatched
        # shape, and an argument that LAPACK refuses (info < 0): each raises
        # ValueError, before the call or after it, in this process
        assert _lapack.load()
        blas = lapack = _lapack
        F = np.asfortranarray(rng.normal(size=(8, 3)))
        G = blas.dsyrk(1.0, F, trans=1) + 8.0 * np.eye(3, order="F")
        R, _ = lapack.dpotrf(G)
        tau = lapack.dgeqrf(F)[1]
        panel = np.asfortranarray(rng.normal(size=(5, 3)))
        C = np.asfortranarray(rng.normal(size=(8, 2)))
        f32, rows = (lambda x: x.astype(np.float32)), np.ascontiguousarray
        # CBLAS reports no info; every argument of dpotrf, dtrcon and dtrtrs
        # comes from the arrays, so their illegal one is forced through the
        # shared call
        cases = {
            "dsyrk": [("float32", lambda: blas.dsyrk(1.0, f32(F))),
                      ("order", lambda: blas.dsyrk(1.0, rows(F), trans=1)),
                      ("shape", lambda: blas.dsyrk(1.0, F, trans=1, c=np.zeros((8, 8))))],
            "dpotrf": [("float32", lambda: lapack.dpotrf(f32(G))),
                       ("shape", lambda: lapack.dpotrf(F)),
                       ("illegal", lambda: _lapack._lapack("dpotrf", "X", 3, G.copy(), 3))],
            "dtrcon": [("float32", lambda: lapack.dtrcon(f32(R))),
                       ("order", lambda: lapack.dtrcon(rows(R.T))),
                       ("shape", lambda: lapack.dtrcon(F)),
                       ("illegal", lambda: _lapack._lapack("dtrcon", "X", "U", "N", 3, R, 3,
                                                           np.zeros(1), np.empty(9),
                                                           np.empty(3, dtype=np.int64)))],
            "dtrtrs": [("float32", lambda: lapack.dtrtrs(R, f32(C[:3]))),
                       ("order", lambda: lapack.dtrtrs(rows(R.T), C[:3])),
                       ("shape", lambda: lapack.dtrtrs(R, C)),
                       ("illegal", lambda: _lapack._lapack("dtrtrs", "U", "X", "N", 3, 2, R,
                                                           3, C[:3].copy(order="F"), 3))],
            "dgeqrf": [("float32", lambda: lapack.dgeqrf(f32(F))),
                       ("shape", lambda: lapack.dgeqrf(tau)),
                       ("illegal", lambda: lapack.dgeqrf(F, lwork=0))],
            "dtpqrt": [("float32", lambda: lapack.dtpqrt(0, 2, f32(R), panel)),
                       ("shape", lambda: lapack.dtpqrt(0, 2, R, F.T)),
                       ("illegal", lambda: lapack.dtpqrt(0, 0, R, panel))],
        }
        messages = {"float32": "must be float64", "order": "column-major",
                    "shape": "must have", "illegal": "illegal value"}
        for kind, call in cases[name]:
            with pytest.raises(ValueError, match=messages[kind]):
                call()
        # a row-major array the call writes is copied, as scipy's wrappers do
        if name == "dpotrf":
            assert lapack.dpotrf(rows(G))[0].tobytes() == lapack.dpotrf(G)[0].tobytes()


class TestCapacities:
    def test_exact_reconstruction_scores_one(self, rng):
        ns = normalize_states(rng.normal(size=(300, 3)))
        caps = capacities(ns.P, ns.P[:, [1]].copy())
        assert caps[0] == pytest.approx(1.0, abs=1e-10)

    def test_shuffled_bases_score_near_r_over_T(self, rng):
        T, r = 2000, 4
        ns = normalize_states(rng.normal(size=(T, r)))
        vals = []
        base = rng.normal(size=T)
        for _ in range(300):
            xi = base[rng.permutation(T)]
            vals.append(capacities(ns.P, xi[:, None].copy())[0])
        assert np.mean(vals) == pytest.approx(r / T, rel=0.15)

    def test_total_capacity_bounded_by_rank(self, rng):
        ns = normalize_states(rng.normal(size=(200, 3)))
        B = rng.normal(size=(200, 40))
        caps = capacities(ns.P, B)
        assert sum(caps) <= ns.rank + 1e-6

    def test_all_dropped_columns_score_zero(self, rng):
        # no column is kept, so only the decisions know how many there are
        ns = normalize_states(rng.normal(size=(50, 2)))
        caps = capacities(ns.P, np.full((50, 3), 3.3))
        assert caps.tolist() == [0.0, 0.0, 0.0]

    def test_misaligned_rows_rejected(self, rng):
        ns = normalize_states(rng.normal(size=(100, 2)))
        basis = rng.normal(size=(90, 3))
        with pytest.raises(ValueError):
            capacities(ns.P, basis)


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

    def test_nan_capacity_is_written_as_json_does(self, rng, tmp_path):
        # json.dumps writes NaN for each capacity once any is not finite
        terms = enumerate_bases(2, 3, 0, 0, "legendre")
        caps = rng.uniform(0, 0.1, size=len(terms))
        caps[[1, 4]] = [np.nan, 0.0]
        prof = profile(terms, caps, 0.05, 1, {"mode": "chi2", "p": 1e-4, "sigma": 2.0})
        self._check(prof, tmp_path)
        assert '"capacity": NaN' in (tmp_path / "fast.json").read_text()

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
            c = capacities(ns.P, xi[:, None].copy())[0]
            exceed += c >= th
        assert exceed <= 3 * p * n_terms + 1


    def test_short_T_more_terms_than_rows(self, rng, monkeypatch):
        seen = []
        project = tipc._project

        def spy(P, basis, *args, **kwargs):
            seen.append((len(P), project(P, basis, *args, **kwargs)))
            return seen[-1][1]

        monkeypatch.setattr(tipc, "_project", spy)
        u, x, off = _echo_states(rng, 30)
        # p = 1e-2 keeps the rank-2 chi2 threshold (18.4 / 28) under 1
        settings = TipcSettings(max_degree=2, max_input_delay=6,
                                max_state_delay=2, family="legendre", p=1e-2)
        prof = analyze_states(x, u, off, settings, input_range=(-1, 1))
        terms = enumerate_bases(2, 6, 2, prof.rank, "legendre")
        ((T, (kept, dropped, _)),) = seen
        assert len(terms) > T
        assert len(prof.capacity) == len(prof.truncated) == len(terms)
        assert prof.terms == terms
        assert len(kept) == T - 1
        assert all(prof.capacity[j] == 0.0 for j in dropped)
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
        true_caps = list(capacities(ns.P, B))
        surr_caps = []
        srng = np.random.default_rng(17)
        for _ in range(20):
            us = u[srng.permutation(len(u))]
            Bs = evaluate_bases(delayed, us, 300, n_rows=2000)
            surr_caps += list(capacities(ns.P, Bs))
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
        refused = []
        gram_factor = tipc._gram_factor

        def gate(*args, **kwargs):
            QtP = gram_factor(*args, **kwargs)
            refused.append(QtP is None)
            return QtP

        monkeypatch.setattr(tipc, "_gram_factor", gate)
        u, x, off = _echo_states(rng, 600)
        settings = TipcSettings(max_degree=2, max_input_delay=4, max_state_delay=1,
                                family="legendre",
                                threshold="surrogate", surrogates=3)
        analyze_states(x, u, off, settings, surrogate_rng=np.random.default_rng(3),
                       input_range=(-1, 1))
        # each analysis evaluates its one panel, and a basis that the Gram
        # gate refuses is evaluated once more, whole
        assert len(refused) == 4
        assert len(alive) == 4 + sum(refused)
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
