import hashlib
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frontier_adapt import LinearProgram, solve_lp
from frontier_adapt import lp as lp_module
from frontier_adapt.errors import NumericalBreakdown
from frontier_adapt.lp import INFEASIBLE, OPTIMAL, UNBOUNDED

from _oracles import clear_phase1_memo, random_bounded_lp, vertex_enum_min


def test_single_variable_envelope():
    lp = LinearProgram([1.0], [[1.0], [1.0]], [1.0, 2.0])
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    assert sol.variables[0] == pytest.approx(2.0, abs=1e-12)
    assert sol.objective_value == pytest.approx(2.0, abs=1e-12)


def test_symmetric_cone_apex():
    lp = LinearProgram([2.0, 0.0], [[1.0, -1.0], [1.0, 1.0]], [0.0, 0.0])
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    assert sol.objective_value == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(sol.variables, [0.0, 0.0], atol=1e-12)


def test_free_variable_negative_optimum():
    lp = LinearProgram([1.0], [[1.0]], [-5.0])
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    assert sol.variables[0] == pytest.approx(-5.0, abs=1e-12)


def test_unbounded():
    # maximize b0 in disguise: no row limits b0 from above
    lp = LinearProgram([-1.0], [[1.0]], [0.0])
    sol = solve_lp(lp)
    assert sol.status == UNBOUNDED
    assert np.isnan(sol.objective_value)


def test_infeasible():
    lp = LinearProgram([1.0], [[1.0], [-1.0]], [1.0, 0.0])  # b0 >= 1 and b0 <= 0
    sol = solve_lp(lp)
    assert sol.status == INFEASIBLE


def test_infeasible_two_vars():
    lp = LinearProgram(
        [0.0, 1.0],
        [[1.0, 1.0], [-1.0, -1.0]],
        [2.0, -1.0],  # b0+b1 >= 2 and b0+b1 <= 1
    )
    assert solve_lp(lp).status == INFEASIBLE


@pytest.mark.parametrize("objective", [[1.0], [0.0, -2.0]])
def test_no_constraints_nonzero_objective_is_unbounded(objective):
    lp = LinearProgram(objective, np.zeros((0, len(objective))), [])
    sol = solve_lp(lp)
    assert sol.status == UNBOUNDED
    assert np.all(np.isnan(sol.variables)) and sol.variables.size == len(objective)
    assert np.isnan(sol.objective_value)


@pytest.mark.parametrize("nv", [1, 2])
def test_no_constraints_zero_objective_is_optimal_at_zero(nv):
    sol = solve_lp(LinearProgram(np.zeros(nv), np.zeros((0, nv)), []))
    assert sol.status == OPTIMAL
    assert sol.variables.tolist() == [0.0] * nv
    assert sol.objective_value == 0.0


def test_determinism_bitwise():
    rng = np.random.default_rng(7)
    lp = random_bounded_lp(rng)
    a = solve_lp(lp)
    b = solve_lp(lp)
    assert a.status == b.status == OPTIMAL
    assert a.iterations == b.iterations
    assert a.objective_value == b.objective_value
    assert np.array_equal(a.variables, b.variables)


def test_duplicate_constraints_degenerate():
    lp = LinearProgram(
        [1.0, 1.0],
        [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
        [1.0, 1.0, 2.0, 3.0],
    )
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    assert sol.objective_value == pytest.approx(3.0, abs=1e-9)


def test_oracle_agreement_sample():
    rng = np.random.default_rng(42)
    for _ in range(100):
        lp = random_bounded_lp(rng)
        sol = solve_lp(lp)
        assert sol.status == OPTIMAL
        oracle = vertex_enum_min(lp)
        assert oracle is not None
        assert sol.objective_value == pytest.approx(oracle, abs=1e-9, rel=1e-9)


def test_returned_point_feasible():
    rng = np.random.default_rng(3)
    for _ in range(100):
        lp = random_bounded_lp(rng)
        sol = solve_lp(lp)
        slack = lp.constraint_matrix @ sol.variables - lp.constraint_rhs
        scale = np.maximum(
            1.0, np.abs(lp.constraint_matrix) @ np.abs(sol.variables) + np.abs(lp.constraint_rhs)
        )
        assert np.all(slack >= -1e-9 * scale)


def test_no_improving_coordinate_perturbation():
    # local optimality certificate: nudging any single coordinate while
    # staying feasible cannot beat the reported objective
    rng = np.random.default_rng(11)
    for _ in range(50):
        lp = random_bounded_lp(rng)
        sol = solve_lp(lp)
        for j in range(lp.n_variables):
            for delta in (1e-6, -1e-6):
                b = sol.variables.copy()
                b[j] += delta
                if np.all(lp.constraint_matrix @ b - lp.constraint_rhs >= -1e-12):
                    assert lp.objective @ b >= sol.objective_value - 1e-9


def test_shape_validation():
    with pytest.raises(ValueError):
        LinearProgram([1.0, 2.0], [[1.0]], [0.0])
    with pytest.raises(ValueError):
        LinearProgram([np.nan], [[1.0]], [0.0])
    with pytest.raises(ValueError):
        LinearProgram([1.0], [[np.inf]], [0.0])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_oracle_agreement_property(seed):
    rng = np.random.default_rng(seed)
    lp = random_bounded_lp(rng)
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    oracle = vertex_enum_min(lp)
    assert oracle is not None
    assert abs(sol.objective_value - oracle) <= 1e-9 * max(1.0, abs(oracle))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), shift=st.floats(-5, 5))
def test_rhs_shift_along_row_combination(seed, shift):
    # shifting r by A @ d translates the feasible set by d, so the optimum
    # moves by exactly c @ d
    rng = np.random.default_rng(seed)
    lp = random_bounded_lp(rng)
    d = np.full(lp.n_variables, shift)
    shifted = LinearProgram(
        lp.objective, lp.constraint_matrix, lp.constraint_rhs + lp.constraint_matrix @ d
    )
    a = solve_lp(lp)
    b = solve_lp(shifted)
    assert b.objective_value == pytest.approx(
        a.objective_value + float(lp.objective @ d), rel=1e-8, abs=1e-8
    )


def test_degenerate_phase_one_artificial_left_basic(monkeypatch):
    # the 14th draw of this generator (4 constraints, 3 variables): phase 1
    # of its dual ends with an artificial still basic at zero level; the
    # solver must pivot it out instead of declaring the instance
    # unbounded/infeasible
    rng = np.random.default_rng(0)
    for _ in range(14):
        lp = random_bounded_lp(rng)
    A, c, r = lp.constraint_matrix, lp.objective, lp.constraint_rhs
    m = A.shape[0]
    T, basis, tol = lp_module._dual_tableau(A, c)
    assert lp_module._run_simplex(T, basis, T.shape[1] - 1, tol)[0] == OPTIMAL
    assert (basis >= m).any()
    # the stacked phase 1 drives it out too: two responses, each solved as
    # solve_lp solves it alone, vertex and pivots bit for bit
    driven = []
    drive_out = lp_module._drive_out

    def recording(T, basis, m):
        driven.append(drive_out(T, basis, m))
        return driven[-1]

    rhs = np.stack([r, r - np.arange(1.0, m + 1)])
    monkeypatch.setattr(lp_module, "_drive_out", recording)
    b, iterations, solved = lp_module.solve_lp_batch(
        np.repeat(A[None], 2, axis=0), rhs, np.repeat(c[None], 2, axis=0))
    assert driven == [1, 1] and solved.all()
    monkeypatch.setattr(lp_module, "_drive_out", drive_out)
    for p in range(2):
        clear_phase1_memo()
        alone = LinearProgram(c, A, rhs[p])
        sol = solve_lp(alone)
        assert sol.status == OPTIMAL
        assert sol.objective_value == pytest.approx(vertex_enum_min(alone), abs=1e-12)
        assert b[p].tobytes() == sol.variables.tobytes() and iterations[p] == sol.iterations


# Beale's cycling example (min c.x, Ax = b, x >= 0) as a solve_lp instance:
# the solver's dual tableau is A' lam = c, so the example's columns become
# rows.  This row order makes Dantzig pricing stall past _STALL_LIMIT.
_BEALE = np.array(
    [
        [1.0, 0.0, 0.0, 0.25, -8.0, -1.0, 9.0, 0.0],
        [0.0, 1.0, 0.0, 0.5, -12.0, -0.5, 3.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 1.0],
        [0.0, 0.0, 0.0, -0.75, 20.0, -0.5, 6.0, 0.0],
    ]
)
_BEALE_ROWS = [5, 6, 2, 3, 0, 1, 4]


def _beale_lp():
    rows = _BEALE[:3, :7].T[_BEALE_ROWS]
    return LinearProgram(_BEALE[:3, 7], rows, -_BEALE[3, :7][_BEALE_ROWS])


def _envelope_lp(t, y, degree):
    """The LP fit_local builds: shifted responses above a power basis in t."""
    powers = np.vander(t, degree + 1, increasing=True)
    return LinearProgram(powers.sum(axis=0), powers, y - y.max())


def _golden_lps():
    """Seeded envelope LPs for degree 0..4 and m = d+2..2000, plus
    duplicated rows, near-tied ratios and the stalling Beale instance."""
    rng = np.random.default_rng(20261018)
    lps = []
    for degree in range(5):
        for m in (degree + 2, degree + 3, 17, 160, 2000):
            t = np.linspace(-1.0, 1.0, m)
            trend = np.polynomial.polynomial.polyval(t, rng.normal(size=degree + 1))
            y = trend - rng.exponential(size=m) ** 2
            lps.append(_envelope_lp(t, y, degree))
            # every third row repeated: duplicate constraints tie exactly
            dup = np.repeat(np.arange(m), np.where(np.arange(m) % 3 == 0, 2, 1))
            lps.append(_envelope_lp(t[dup], y[dup], degree))
            # responses on a polynomial up to 1e-13: ratios tie within the band
            y_tied = trend - 1e-13 * rng.random(m) * (rng.random(m) < 0.5)
            lps.append(_envelope_lp(t, y_tied, degree))
    lps.append(_beale_lp())
    return lps


def _digest(solutions):
    h = hashlib.sha256()
    for sol in solutions:
        h.update(np.asarray(sol.variables, dtype=float).tobytes())
        h.update(np.float64(sol.objective_value).tobytes())
        h.update(sol.status.encode())
        h.update(int(sol.iterations).to_bytes(8, "little"))
    return h.hexdigest()


# Pins every bit of every vertex, objective, status and pivot count on the
# golden set.  A pure speed change to the solver must leave it unchanged; a
# different BLAS may round the solver's dot products differently.
GOLDEN_DIGEST = "c509c74f252eb579d6975ef194137181fc962fa142003e78ebd19979de6f4584"


def test_golden_solve_lp_digest():
    assert _digest([solve_lp(lp) for lp in _golden_lps()]) == GOLDEN_DIGEST


def _count_phase1(monkeypatch):
    """Record every phase-1 run that the memo did not answer."""
    runs = []
    phase1 = lp_module._phase1

    def counted(A, c):
        runs.append(A.shape)
        return phase1(A, c)

    monkeypatch.setattr(lp_module, "_phase1", counted)
    return runs


def _solution_bytes(sol):
    return (np.asarray(sol.variables).tobytes(), np.float64(sol.objective_value).tobytes(),
            sol.status, sol.iterations)


def test_golden_digest_cold_and_warm(monkeypatch):
    # each golden LP solved with an empty memo, then twice from its stored
    # phase 1: the same bits and the same pivot counts every time
    runs = _count_phase1(monkeypatch)
    cold, warm, again = [], [], []
    for lp in _golden_lps():
        clear_phase1_memo()
        cold.append(solve_lp(lp))
        warm.append(solve_lp(lp))
        again.append(solve_lp(lp))
    assert len(runs) == len(cold)
    expected = [_solution_bytes(s) for s in cold]
    assert [_solution_bytes(s) for s in warm] == expected
    assert [_solution_bytes(s) for s in again] == expected
    assert _digest(cold) == _digest(warm) == GOLDEN_DIGEST


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), flip=st.booleans())
def test_warm_phase1_matches_cold_solve(seed, flip):
    # same A and c, new r: the stored phase 1 gives a cold solve's bits,
    # including the stored dual-infeasible verdict of unbounded LPs (flip)
    rng = np.random.default_rng(seed)
    if rng.random() < 0.5:
        base = random_bounded_lp(rng)
        A, c = base.constraint_matrix, base.objective
    else:
        degree = int(rng.integers(0, 5))
        m = int(rng.integers(degree + 2, 200))
        A = np.vander(np.sort(rng.uniform(-1.0, 1.0, m)), degree + 1, increasing=True)
        c = A.sum(axis=0)
    if flip:
        c = -c
    first = LinearProgram(c, A, rng.normal(size=A.shape[0]))
    second = LinearProgram(c, A, rng.normal(size=A.shape[0]) - rng.exponential(size=A.shape[0]))

    def solve_or_error(lp):
        try:
            return _solution_bytes(solve_lp(lp))
        except NumericalBreakdown as exc:
            return str(exc)

    clear_phase1_memo()
    cold = solve_or_error(second)
    clear_phase1_memo()
    solve_or_error(first)
    assert solve_or_error(second) == cold


def test_phase1_memo_stays_within_its_cap(monkeypatch):
    # the slot holds the last window's phase 1: a repeat runs phase 1 once,
    # another window in between runs it again, and every solve has the bits
    # of a cold one
    rng = np.random.default_rng(5)
    windows = []
    for _ in range(2):
        t = np.sort(rng.uniform(-1.0, 1.0, 1500))
        windows.append(_envelope_lp(t, -rng.exponential(size=t.size), 3))
    cold = []
    for lp in windows:
        clear_phase1_memo()
        cold.append(_solution_bytes(solve_lp(lp)))
    runs = _count_phase1(monkeypatch)
    for order, phase1_runs in (((0, 0), 1), ((0, 1, 0), 3)):
        clear_phase1_memo()
        runs.clear()
        assert [_solution_bytes(solve_lp(windows[i])) for i in order] == [cold[i] for i in order]
        assert len(runs) == phase1_runs
    key, (T, basis, _) = lp_module._phase1_slot
    assert key[0] == windows[0].constraint_matrix.shape
    assert 0 < len(key[1]) + len(key[2]) + T.nbytes + basis.nbytes <= lp_module.PHASE1_MEMO_BYTES
    assert lp_module.PHASE1_MEMO_BYTES <= 1 << 19


def test_oversized_tableau_bypasses_phase1_memo(monkeypatch):
    clear_phase1_memo()
    solve_lp(_golden_lps()[0])
    before = lp_module._phase1_slot
    runs = _count_phase1(monkeypatch)
    t = np.linspace(-1.0, 1.0, 20000)
    big = _envelope_lp(t, -np.abs(np.sin(40.0 * t)), 2)
    first, second = solve_lp(big), solve_lp(big)
    assert lp_module._phase1_slot is before
    assert len(runs) == 2
    assert _solution_bytes(first) == _solution_bytes(second)


def test_threads_share_the_phase1_memo_without_a_lock():
    # 4 threads solve LPs of two golden windows in turn, then each window's
    # LPs over and over (12 and 14 share A and c, as do 27 and 29): every
    # solve has the bits of a single-threaded cold solve, whichever window
    # the slot holds when a thread reads it
    lps = [_golden_lps()[i] for i in (12, 27, 14, 29)]
    cold = []
    for lp in lps:
        clear_phase1_memo()
        cold.append(_solution_bytes(solve_lp(lp)))
    order = [0, 1, 2, 3] * 30 + [0, 2] * 20 + [1, 3] * 20
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads switch inside phase 1, not between solves
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            for _ in range(10):
                clear_phase1_memo()
                got = list(pool.map(lambda i: _solution_bytes(solve_lp(lps[i])), order, timeout=60))
                assert got == [cold[i] for i in order]
    finally:
        sys.setswitchinterval(interval)


def test_golden_set_trips_bland_switch(monkeypatch):
    beale = _beale_lp()
    clear_phase1_memo()
    sol = solve_lp(beale)
    assert sol.status == OPTIMAL and sol.iterations > lp_module._STALL_LIMIT
    # without the switch to Bland's rule Dantzig pricing cycles to the limit,
    # whether phase 1 comes from the memo or runs afresh
    monkeypatch.setattr(lp_module, "_STALL_LIMIT", 10**9)
    runs = _count_phase1(monkeypatch)
    with pytest.raises(NumericalBreakdown, match="pivot limit"):
        solve_lp(beale)
    assert runs == []
    clear_phase1_memo()
    with pytest.raises(NumericalBreakdown, match="pivot limit"):
        solve_lp(beale)
    assert len(runs) == 1


def test_run_simplex_all_pivots_below_tol_breaks_down():
    T = np.array([[1e-13, 1.0], [-1.0, 2.0], [-1.0, 0.0]])
    with pytest.raises(NumericalBreakdown, match="below"):
        lp_module._run_simplex(T, np.array([1, 2]), 1, 1e-9)


def test_run_simplex_unbounded_column():
    T = np.array([[-1.0, 1.0], [0.0, 2.0], [-1.0, 0.0]])
    assert lp_module._run_simplex(T, np.array([1, 2]), 1, 1e-9) == (UNBOUNDED, 0)


def test_run_simplex_nan_rhs_breaks_down():
    T = np.array([[1.0, np.nan], [2.0, 4.0], [-1.0, 0.0]])
    with pytest.raises(NumericalBreakdown, match="ratio test"):
        lp_module._run_simplex(T, np.array([1, 2]), 1, 1e-9)


def test_run_simplex_nan_pivot_entry_never_leaves():
    T = np.array([[np.nan, 1.0], [2.0, 4.0], [-1.0, 0.0]])
    basis = np.array([1, 2])
    assert lp_module._run_simplex(T, basis, 1, 1e-9) == (OPTIMAL, 1)
    assert basis.tolist() == [1, 0]


def test_run_simplex_nan_reduced_cost_breaks_down():
    # argmin picks the NaN column, whose entries would pivot NaN through T
    T = np.array([[1.0, 1.0, 1.0], [np.nan, -1.0, 0.0]])
    with pytest.raises(NumericalBreakdown, match="NaN reduced cost"):
        lp_module._run_simplex(T, np.array([2]), 2, 1e-9)


def _stack(lps):
    return (np.array([lp.constraint_matrix for lp in lps]),
            np.array([lp.constraint_rhs for lp in lps]),
            np.array([lp.objective for lp in lps]))


def test_golden_envelope_lps_through_the_batch_kernel():
    # every envelope LP of the golden set (all but Beale's), alone and stacked
    # with the others of its shape: solve_lp's vertex and pivot count, bit for bit
    lps = _golden_lps()[:-1]
    by_shape = {}
    for lp in lps:
        by_shape.setdefault(lp.constraint_matrix.shape, []).append(lp)
    for group in [[lp] for lp in lps] + list(by_shape.values()):
        b, iterations, solved = lp_module.solve_lp_batch(*_stack(group))
        assert solved.all()
        for lp, vertex, pivots in zip(group, b, iterations):
            sol = solve_lp(lp)
            assert vertex.tobytes() == sol.variables.tobytes()
            assert pivots == sol.iterations
    assert max(len(group) for group in by_shape.values()) >= 2


def _responses(rng, lp, count):
    """count shifted response vectors for the LP's A and c, its own first."""
    r = lp.constraint_rhs - rng.exponential(size=(count, lp.n_constraints)) * rng.uniform(0.0, 3.0, (count, 1))
    r[0] = lp.constraint_rhs
    return r - r.max(axis=1, keepdims=True)


def test_shared_problems_through_the_batch_kernel(monkeypatch):
    # each golden envelope LP's A and c with 20 response vectors: one A and c
    # for the stack gives what the stacked copies and solve_lp give, bit for
    # bit, and phase 1 runs once, through solve_lp's memo
    rng = np.random.default_rng(20261020)
    runs = _count_phase1(monkeypatch)
    for lp in _golden_lps()[:-1]:
        A, c = lp.constraint_matrix, lp.objective
        r = _responses(rng, lp, 20)
        clear_phase1_memo()
        runs.clear()
        shared = lp_module.solve_lp_batch(A, r, c)
        assert len(runs) == 1
        stacked = lp_module.solve_lp_batch(np.array([A] * 20), r, np.array([c] * 20))
        for got, want in zip(shared, stacked):
            assert got.tobytes() == want.tobytes()
        b, iterations, solved = shared
        assert solved[0] and solved.sum() >= 15
        for p in np.flatnonzero(solved):
            sol = solve_lp(LinearProgram(c, A, r[p]))
            assert b[p].tobytes() == sol.variables.tobytes()
            assert iterations[p] == sol.iterations
        assert len(runs) == 1


def _verdict(lp):
    try:
        return _solution_bytes(solve_lp(lp))
    except NumericalBreakdown as exc:
        return str(exc)


def test_shared_phase_one_that_fails_leaves_every_problem_to_solve_lp(monkeypatch):
    # a shared A and c whose phase 1 finds the dual infeasible (an unbounded
    # LP), or raises at the pivot cap: no problem is solved, and solve_lp
    # gives each one the status or exception it gives on its own
    rng = np.random.default_rng(3)
    unbounded = LinearProgram([-1.0], [[1.0], [1.0]], [0.0, 1.0])
    envelope = _golden_lps()[12]
    for lp, factor in ((unbounded, lp_module._MAX_PIVOT_FACTOR), (envelope, 0)):
        monkeypatch.setattr(lp_module, "_MAX_PIVOT_FACTOR", factor)
        r = _responses(rng, lp, 20)
        problems = [LinearProgram(lp.objective, lp.constraint_matrix, rp) for rp in r]
        clear_phase1_memo()
        before = [_verdict(p) for p in problems]
        clear_phase1_memo()
        b, _, solved = lp_module.solve_lp_batch(lp.constraint_matrix, r, lp.objective)
        assert not solved.any() and np.isnan(b).all()
        assert [_verdict(p) for p in problems] == before
    assert before[0] == "simplex pivot limit exceeded"


def test_batch_kernel_leaves_the_rest_to_solve_lp():
    # Beale's instance needs Bland's rule; the dual of an infeasible LP is
    # unbounded and that of an unbounded one infeasible: none is solved, and
    # a solvable problem in the same stack is
    b, _, solved = lp_module.solve_lp_batch(*_stack([_beale_lp()]))
    assert not solved[0] and np.isnan(b).all()
    lps = [LinearProgram([1.0], [[1.0], [-1.0]], [1.0, 0.0]),
           LinearProgram([-1.0], [[1.0], [1.0]], [0.0, 1.0]),
           LinearProgram([1.0], [[1.0], [1.0]], [1.0, 2.0])]
    assert [solve_lp(lp).status for lp in lps] == [INFEASIBLE, UNBOUNDED, OPTIMAL]
    b, iterations, solved = lp_module.solve_lp_batch(*_stack(lps))
    assert solved.tolist() == [False, False, True]
    assert np.isnan(b[:2]).all()
    assert b[2].tobytes() == solve_lp(lps[2]).variables.tobytes()
    assert iterations[2] == solve_lp(lps[2]).iterations


def test_stacked_phase2_pricing_rounds_as_per_tableau():
    # the batch prices phase 2 with one stacked matmul; it must round as the
    # per-tableau vector-matrix product of _solve_via_dual
    rng = np.random.default_rng(7)
    for nv in range(1, 9):
        for width in (4, 17, 42, 158, 311, 1606):
            T = rng.normal(size=(30, nv + 1, width)) * 10.0 ** rng.integers(-6, 6, (30, 1, 1))
            cb = rng.normal(size=(30, nv))
            stacked = np.matmul(cb[:, None], T[:, :nv])[:, 0]
            per_tableau = np.array([cb[p] @ T[p, :nv] for p in range(30)])
            assert stacked.tobytes() == per_tableau.tobytes()


def _stacked_problems(rng, P, m, nv, order):
    """P problems of one shape: A as an envelope basis of random windows in
    the given memory order, c with negative and zero entries, r <= 0."""
    t = rng.uniform(-1.0, 1.0, size=(P, m)) * 10.0 ** rng.integers(-3, 1, (P, 1))
    A = np.stack([np.vander(tp, nv, increasing=True) for tp in t])
    if order == "F":
        A = A.transpose(0, 2, 1).copy().transpose(0, 2, 1)
    c = A.sum(axis=1) * rng.choice([-1.0, 0.0, 1.0], size=(P, nv))
    return A, -rng.exponential(size=(P, m)), c


@pytest.mark.parametrize("order", ["C", "F"])
def test_dual_tableau_and_pricing_of_a_stack_are_the_single_builds(order):
    # the stacked tableau, basis, phase-1 stop, phase-2 row and stop equal
    # the single builds slice by slice, bit for bit
    rng = np.random.default_rng(5)
    for nv in range(1, 11):
        for m in (nv + 1, 17, 160, 1601):
            A, r, c = _stacked_problems(rng, 6, m, nv, order)
            T, basis, tol = lp_module._dual_tableau(A, c)
            assert T.shape == (6, nv + 1, m + nv + 1) and basis.shape == (6, nv)
            basis[:, 0] = rng.integers(0, m, size=6)  # a basis past phase 1
            stop = lp_module._price_phase2(T, basis, r)
            for p in range(6):
                Tp, bp, tp = lp_module._dual_tableau(A[p], c[p])
                assert bp.tolist() == list(range(m, m + nv)) and tp == tol[p]
                bp[0] = basis[p, 0]
                assert lp_module._price_phase2(Tp, bp, r[p]) == stop[p]
                assert Tp.tobytes() == T[p].tobytes(), (order, nv, m, p)


def test_stacked_certificate_decides_as_per_problem():
    # the batch's values c . b are _certify's dot products bit for bit, and
    # the stacked shortcut gives each problem its single answer
    rng = np.random.default_rng(9)
    for nv in range(1, 11):
        c = rng.normal(size=(40, nv)) * 10.0 ** rng.integers(-8, 8, (40, 1))
        b = rng.normal(size=(40, nv)) * 10.0 ** rng.integers(-8, 8, (40, 1))
        stacked = np.matmul(c[:, None], b[:, :, None])[:, 0, 0]
        assert stacked.tolist() == [float(cp @ bp) for cp, bp in zip(c, b)]
        for order in ("C", "F"):
            A, _, _ = _stacked_problems(rng, 8, 300, nv, order)
            x = rng.normal(size=(8, nv))
            base = np.matmul(A, x[..., None])[..., 0]
            r = base - rng.exponential(size=(8, 300))
            # one row's slack at, inside and outside the shortcut's margin
            r[:, 7] = base[:, 7] + [-1e-6, 0.0, 5e-10, 1e-9 - 2e-12, 1e-9 - 1e-12, 1e-9, 2e-9, 1.0]
            clear = lp_module._clearly_feasible(A, r, x)
            assert clear.tolist() == [bool(lp_module._clearly_feasible(A[p], r[p], x[p]))
                                      for p in range(8)]
            assert clear.any() and not clear.all()


def test_batch_size_keeps_the_tableaux_under_the_cap():
    for m, nv in ((2, 1), (39, 3), (307, 3), (1600, 5), (200000, 3)):
        p = lp_module.batch_size(m, nv)
        assert p >= 1
        assert p == 1 or p * 8 * (nv + 1) * (m + nv + 1) <= lp_module.BATCH_TABLEAU_BYTES


def _whole_tableau_pivot(T, basis, row, col):
    """_pivot's update on the whole tableau at once."""
    T[row] /= T[row, col]
    colvals = T[:, col].copy()
    colvals[row] = 0.0
    T -= colvals[:, None] * T[row]
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


def _assert_pivots_match(T, steps):
    """Pivot a copy of T blocked and one whole, step by step: same bits."""
    blocked, whole = T.copy(), T.copy()
    basis, expected_basis = np.zeros(T.shape[0], dtype=int), np.zeros(T.shape[0], dtype=int)
    with np.errstate(all="ignore"):
        for row, col in steps:
            lp_module._pivot(blocked, basis, row, col)
            _whole_tableau_pivot(whole, expected_basis, row, col)
            assert blocked.tobytes() == whole.tobytes(), (T.shape, row, col)
            assert basis.tolist() == expected_basis.tolist()


@pytest.mark.parametrize("nrows", [2, 4, 11])
def test_blocked_pivot_equals_the_whole_tableau_update(monkeypatch, nrows):
    # blocks of 64 columns: widths below one block, exactly one, one block
    # plus a column, and several uneven blocks; signed zeros, magnitudes
    # from 1e-8 to 1e8 and an infinity in a pivot row included
    monkeypatch.setattr(lp_module, "PIVOT_BLOCK_BYTES", 8 * nrows * 64)
    rng = np.random.default_rng(nrows)
    for width in (7, 64, 65, 129, 1000):
        T = rng.normal(size=(nrows, width)) * 10.0 ** rng.integers(-8, 9, size=(nrows, width))
        T[rng.random(T.shape) < 0.1] = -0.0
        T[rng.random(T.shape) < 0.1] = 0.0
        steps = [(i % nrows, int(rng.integers(width))) for i in range(6)]
        for row, col in steps:
            T[row, col] = rng.uniform(0.5, 2.0)  # a pivot the earlier steps may move
        _assert_pivots_match(T, steps)
        T[1, -1] = np.inf
        _assert_pivots_match(T, [(1, 0)])


def test_blocked_pivot_at_the_default_block_size():
    # a tableau of three default blocks and one just under a block
    rng = np.random.default_rng(3)
    for width in (3 * lp_module.PIVOT_BLOCK_BYTES // 32 + 5, lp_module.PIVOT_BLOCK_BYTES // 32):
        T = rng.normal(size=(4, width))
        _assert_pivots_match(T, [(0, 5), (3, width - 2), (1, width // 2)])


def _reference_feasibility(A, r, b):
    """_certify's feasibility test on the products of a C-ordered A."""
    A = np.ascontiguousarray(A)
    slack = A @ b - r
    rowscale = np.maximum(1.0, np.abs(A) @ np.abs(b) + np.abs(r))
    return (slack / rowscale).min() >= -lp_module.FEASIBILITY_TOL


def test_certificate_decides_on_the_c_ordered_products():
    # Fortran-ordered envelope matrices above the shortcut size, vertices
    # whose worst relative slack sits at the tolerance, inside and outside
    # the shortcut's margin, and a row scale near the largest float
    rng = np.random.default_rng(11)
    for m in (700, 5000):
        t = np.linspace(-1.0, 1.0, m)
        A = np.vander(t, 4, increasing=True).T.copy().T
        assert A.flags.f_contiguous and A.size >= lp_module._CERTIFY_SHORTCUT_SIZE
        b = rng.normal(size=4)
        c = A.sum(axis=0)
        base = A @ b
        for scale in (1.0, 1e3, 1e12, 1e299):
            for gap in (0.0, 1e-13, 1e-12, 2e-12, 5e-10, 1e-9, 1.0000001e-9, 2e-9):
                r = base * scale - rng.exponential(size=m) * scale
                i = int(rng.integers(m))
                r[i] = base[i] * scale + gap * (abs(base[i]) * scale + abs(r[i]) + 1.0)
                bs = b * scale
                value = float(c @ bs)
                try:
                    lp_module._certify(A, r, c, bs, value)
                    passed = True
                except NumericalBreakdown as exc:
                    assert "infeasible" in str(exc)
                    passed = False
                assert passed == _reference_feasibility(A, r, bs), (m, scale, gap)
