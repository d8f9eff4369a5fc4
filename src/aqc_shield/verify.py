"""Release-gate property suite: every structural invariant as a named check.

Each check returns a nonnegative margin when it passes (distance to its
tolerance) and raises or returns a negative margin when it fails.  The
suite prints one line per check and reports the total runtime against the
desk-scale budget.  Checks call through module namespaces on purpose, so a
fault injected into e.g. the group-average operator is caught here.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import codes, engine, linalg, metrics, model, pauli, protocols
from .config import ExperimentConfig
from . import runner

RUNTIME_BUDGET_SECONDS = 300.0


@dataclass
class CheckResult:
    name: str
    passed: bool
    margin: float
    detail: str = ""


def _rand_pauli(rng, n):
    letters = "".join(rng.choice(list("IXYZ")) for _ in range(n))
    phase = [1, 1j, -1, -1j][rng.integers(0, 4)]
    return pauli.PauliString(phase, letters)


def check_pauli_dense_consistency() -> float:
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(40):
        n = int(rng.integers(1, 5))
        a, b = _rand_pauli(rng, n), _rand_pauli(rng, n)
        dev = np.max(np.abs(
            pauli.to_dense(pauli.pauli_mul(a, b))
            - pauli.to_dense(a) @ pauli.to_dense(b)
        ))
        worst = max(worst, float(dev))
    return 1e-12 - worst


def check_pauli_commute_agreement() -> float:
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(1, 5))
        a, b = _rand_pauli(rng, n), _rand_pauli(rng, n)
        da, db = pauli.to_dense(a), pauli.to_dense(b)
        comm = linalg.op_norm(da @ db - db @ da)
        if pauli.commutes(a, b) != (comm < 1e-12):
            return -1.0
    return 1.0


def check_expm_logm_roundtrip() -> float:
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(10):
        d = int(rng.integers(2, 9))
        h = model._random_hermitian(rng, d)
        norm = linalg.op_norm(h)
        h *= (math.pi - 0.1) * rng.uniform(0.1, 1.0) / norm
        rec = linalg.logm_unitary(linalg.expm_hermitian(h, 1.0))
        worst = max(worst, float(np.max(np.abs(rec - h))))
    return 1e-10 - worst


def check_expm_eigen_reference() -> float:
    # sqrt(||A^2||_1) for A = t h, the norm the kernel picks its degree
    # from, at 0, on both sides of every Taylor degree switch and at >= 100,
    # where the kernel scales and squares; pulse generators over their width
    # t = w have ||A||_2 = pi.  The reference exponentiates the eigenvalues.
    rng = np.random.default_rng(43)
    norms = [0.0, 100.0, 300.0]
    for _, theta_m in linalg.TAYLOR_THETA:
        norms += [theta_m * (1 - 1e-6), theta_m * (1 + 1e-6)]
    w = 0.05
    worst = 0.0
    for d in (1, 2, 4, 16, 64):
        cases = []
        for norm in norms:
            h = model._random_hermitian(rng, d)
            cases.append((h * (norm / engine._hermitian_norm_bound(h)), 1.0))
        if d > 1:
            letters = "".join(rng.choice(list("IXYZ")) for _ in range(d.bit_length() - 1))
            cases.append((protocols.pulse_generator(pauli.PauliString(-1, letters), w), w))
        for h, t in cases:
            u = linalg.expm_hermitian(h, t)
            evals, vecs = np.linalg.eigh(h)
            ref = (vecs * np.exp(-1j * t * evals)) @ vecs.conj().T
            worst = max(worst, float(np.max(np.abs(u - ref))),
                        float(np.max(np.abs(u.conj().T @ u - np.eye(d)))))
    return 1e-12 - worst


def check_magnus86_orders() -> float:
    # The engine's 8(6) pair on H(t) = P + f(t) Q against the logarithm of a
    # tol = 1e-15 propagator clipped to 16 substeps, for sin(3t) and the
    # cubic schedule over T = 2; P and Q have largest column sum 3.  Every
    # step is centred on t = 0.4, so the local error constants stay put as
    # dt shrinks four-fold from 0.4 to 0.1: the Omega6 error must fall by
    # >= 2^13 and the Omega8 error by >= 2^17 (2^6.5 and 2^8.5 per halving),
    # and at dt = 0.1 err must lie within [0.9, 2] times the true error of
    # the propagated step exp(Omega6).
    rng = np.random.default_rng(0)
    fs = (lambda t: math.sin(3 * t),
          lambda t: model.schedule_eval("polynomial-smooth", t / 2.0)[0])
    mid, slack = 0.4, math.inf
    for d in (2, 8):
        p, q = (3 * h / float(np.abs(h).sum(axis=0).max())
                for h in (model._random_hermitian(rng, d), model._random_hermitian(rng, d)))
        stack = engine._commutator_stack(p, q)
        for f in fs:
            e6, e8 = [], []
            for dt in (0.4, 0.1):
                t0 = mid - dt / 2
                shifted = engine.AffineGenerator((p,), q, lambda t, f=f, t0=t0: f(t0 + t))
                substeps = tuple(dt * k / 16 for k in range(1, 16))
                u_ref, _ = engine.propagate_with_stats(
                    shifted, dt, engine.IntegratorConfig(tol=1e-15), substeps)
                h_ref = linalg.logm_unitary(u_ref)
                omega6, tail = engine._magnus86_trial(stack, f, t0, dt)
                e6.append(linalg.op_norm(1j * omega6 - h_ref))
                e8.append(linalg.op_norm(1j * (omega6 + tail) - h_ref))
            err = engine._hermitian_norm_bound(tail)
            ratio = err / linalg.op_norm(linalg.expm_hermitian(1j * omega6, 1.0) - u_ref)
            slack = min(slack, math.log2(e6[0] / e6[1]) - 13.0,
                        math.log2(e8[0] / e8[1]) - 17.0, ratio - 0.9, 2.0 - ratio)
    return slack


def check_commutator_norm_inequality() -> float:
    rng = np.random.default_rng(17)
    worst = -np.inf
    for _ in range(20):
        d = int(rng.integers(2, 9))
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        lhs = linalg.trace_norm(a @ b - b @ a)
        rhs = 2 * linalg.op_norm(a) * linalg.trace_norm(b)
        worst = max(worst, lhs - rhs)
    return -worst


def check_group_average_idempotent() -> float:
    rng = np.random.default_rng(19)
    g = codes.universal_group(4)
    a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    once = codes.group_average(g, a)
    twice = codes.group_average(g, once)
    return 1e-12 - float(np.max(np.abs(twice - once)))


def check_group_average_commutes() -> float:
    rng = np.random.default_rng(23)
    g = codes.universal_group(4)
    a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    avg = codes.group_average(g, a)
    worst = 0.0
    for el in g.elements:
        d = pauli.to_dense(el)
        worst = max(worst, linalg.op_norm(avg @ d - d @ avg))
    return 1e-12 - worst


def check_universal_annihilation() -> float:
    worst = 0.0
    for n in (2, 4):
        g = codes.universal_group(n)
        for seed in range(10):
            bath = model.linear_decoherence(n, 1, 1.0, seed=seed)
            avg = codes.group_average(g, bath.h_sb)
            worst = max(worst, linalg.op_norm(avg))
    return 1e-12 - worst


def check_noninterference() -> float:
    built = runner.build_model(_quick_config())
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(20):
        h = built.spec.interpolate(float(rng.uniform(0, 1)))
        for el in built.schedule.group.elements:
            d = pauli.to_dense(el)
            worst = max(worst, linalg.op_norm(h @ d - d @ h))
    return 1e-12 - worst


def check_logical_algebra() -> float:
    _, logical = codes.code_from_universal_group(4)
    worst = 0.0
    for i, xb in enumerate(logical.xbars):
        for j, zb in enumerate(logical.zbars):
            dx, dz = pauli.to_dense(xb), pauli.to_dense(zb)
            if i == j:
                worst = max(worst, linalg.op_norm(dx @ dz + dz @ dx))
            else:
                worst = max(worst, linalg.op_norm(dx @ dz - dz @ dx))
    return 1e-12 - worst


def check_codeword_golden() -> float:
    code, _ = codes.code_from_universal_group(4)
    expected = {
        "00": ("0000", "1111"),
        "10": ("0011", "1100"),
        "01": ("0101", "1010"),
        "11": ("1001", "0110"),
    }
    worst = 0.0
    for label, vec in zip(code.labels, code.codewords):
        target = np.zeros(16, dtype=complex)
        for bits in expected[label]:
            target[int(bits, 2)] = 1 / np.sqrt(2)
        fidelity = abs(np.vdot(target, vec)) ** 2
        worst = max(worst, abs(1.0 - fidelity))
    return 1e-12 - worst


def check_penalty_spectrum() -> float:
    g = codes.universal_group(4)
    code, _ = codes.code_from_universal_group(4)
    ep = 0.7
    h_p = codes.penalty_hamiltonian(g, ep)
    worst = 0.0
    psi = code.codewords[0]
    worst = max(worst, float(np.max(np.abs(h_p @ psi - (-3 * ep) * psi))))
    for site in range(4):
        for letter in "XYZ":
            err = pauli.PauliString.single(4, site, letter)
            erred = pauli.apply_pauli(err, psi)
            expected, _ = codes.erred_state_energy(g, err)
            worst = max(worst, float(np.max(np.abs(h_p @ erred - expected * ep * erred))))
    return 1e-12 - worst


def check_syndrome_sectors() -> float:
    code, _ = codes.code_from_universal_group(4)
    sectors = codes.syndrome_sectors(code)
    total = sum(s.projector for s in sectors)
    worst = float(np.max(np.abs(total - np.eye(16))))
    for i, a in enumerate(sectors):
        for b in sectors[i + 1:]:
            worst = max(worst, float(np.max(np.abs(a.projector @ b.projector))))
        worst = max(worst, abs(float(np.trace(a.projector).real) - 4.0))
    return 1e-12 - worst


def check_schedule_derivatives() -> float:
    h = 1e-5
    worst = 0.0
    for kind in model.SCHEDULE_KINDS:
        for s in np.linspace(0.05, 0.95, 19):
            f_minus = model.schedule_eval(kind, s - h)[0]
            f_plus = model.schedule_eval(kind, s + h)[0]
            fp = model.schedule_eval(kind, s)[1]
            worst = max(worst, abs(fp - (f_plus - f_minus) / (2 * h)))
    return 1e-6 - worst


def check_beta_inequality() -> float:
    cfg = ExperimentConfig()
    cfg.protocol.tau = 0.1
    cfg.protocol.cycles = 1
    m = cfg.model
    built = runner.build_model(cfg)
    bath = model.linear_decoherence(m.n, m.n_b, m.j, m.seed, beta_b=m.beta_b)
    beta = model.beta_system_bath(built.spec, bath.h_b)
    beta_s = max(
        linalg.op_norm(built.spec.interpolate(s)) for s in np.linspace(0, 1, 21)
    )
    beta_b = linalg.op_norm(bath.h_b)
    return beta_s + beta_b + 1e-12 - beta


def check_min_gap_two_level() -> float:
    spec = model.AdiabaticSpec(
        n=1,
        h0_terms=[(1.0, pauli.PauliString.from_letters("X"))],
        h1_terms=[(1.0, pauli.PauliString.from_letters("Z"))],
        schedule=model.Schedule("linear"),
        total_time=1.0,
    )
    report = model.min_gap(spec, grid_points=51)
    return 1e-6 - abs(report.gap - math.sqrt(2)) - abs(report.s_star - 0.5)


def check_cycle_identity() -> float:
    worst = 0.0
    for n in (2, 4):
        schedule = protocols.pdd_schedule(codes.universal_group(n), 0.1, 0.0, 1)
        prod = np.eye(1 << n, dtype=complex)
        for p in schedule.pulses:
            prod = pauli.to_dense(p) @ prod
        overlap = abs(np.trace(prod)) / (1 << n)
        worst = max(worst, abs(1.0 - overlap))
    return 1e-12 - worst


def check_pulse_exactness() -> float:
    schedule = protocols.pdd_schedule(codes.universal_group(4), 0.1, 0.02, 1)
    worst = 0.0
    for p in schedule.pulses:
        gen = protocols.pulse_generator(p, schedule.w)
        u = linalg.expm_hermitian(gen, schedule.w)
        worst = max(worst, float(np.max(np.abs(u - pauli.to_dense(p)))))
    return 1e-12 - worst


def check_scaled_parameters() -> float:
    rule = protocols.ScalingRule(zeta=1.0, epsilon1=1.5, epsilon2=0.5)
    tau, w, total, l_pulses = protocols.scaled_parameters(rule, 2, group_order=4)
    worst = abs(tau - 2 ** -2.5) + abs(w - 2 ** -4.0) + abs(total - 2.0)
    if l_pulses % 4 != 0:
        worst += 1.0
    return 1e-12 - worst


def check_control_periodicity() -> float:
    # H_C(t) as the integrator propagates it: the piece of the uncoupled
    # generator selected at t, minus the free piece 0.  The pieces selected
    # at t and t + T_c must be equal, and the window piece of slot k must
    # add exactly slot k's pulse generator.
    cfg = _quick_config()
    cfg.protocol.w = 0.05
    built = runner.build_model(cfg)
    schedule = built.schedule
    bath = model.linear_decoherence(cfg.model.n, 1, 0.1, seed=31)
    gen = engine.protected_hamiltonian(built.spec, bath, schedule, include_coupling=False)
    rng = np.random.default_rng(31)
    worst = 0.0
    t_c = schedule.cycle_time
    for _ in range(50):
        t = float(rng.uniform(0, schedule.total_time - t_c))
        h1, h2 = (gen.pieces[gen.piece_at(x)] for x in (t, t + t_c))
        worst = max(worst, float(np.max(np.abs(h1 - h2))))
    for k, p in enumerate(schedule.pulses):
        window = gen.pieces[gen.piece_at(k * schedule.slot_time + schedule.tau + schedule.w / 2)]
        h_c = window - gen.pieces[0]
        worst = max(worst, float(np.max(np.abs(h_c - protocols.pulse_generator(p, schedule.w)))))
    return 1e-9 - worst


def _quick_config(j: float = 0.1) -> ExperimentConfig:
    cfg = ExperimentConfig()
    cfg.model.j = j
    cfg.model.seed = 5
    cfg.protocol.tau = 0.25
    cfg.protocol.total_time = 4.0
    cfg.run.tolerance = 1e-9
    return cfg


def check_j_zero_twin() -> float:
    cfg = _quick_config(j=0.0)
    result = runner.execute_experiment(cfg)
    return 1e-15 - result.report.d_d


def check_uncoupled_matches_closed() -> float:
    cfg = _quick_config(j=0.0)
    cfg.run.tolerance = 1e-11
    result = runner.execute_experiment(cfg)
    rho_s = result.uncoupled.rho_s_final
    psi = result.closed.psi_final
    dist = metrics.trace_distance(rho_s, np.outer(psi, psi.conj()))
    return 1e-9 - dist


def check_magnus_ratio() -> float:
    group = codes.global_x_group(2)
    bath = model.linear_decoherence(2, 1, 0.5, seed=3)
    bath_zero = replace(bath, h_b=np.zeros_like(bath.h_b), beta_b=0.0)
    target = codes.group_average(group, bath.h_sb)
    errors = []
    for tau in (0.2, 0.1, 0.05):
        schedule = protocols.pdd_schedule(group, tau, 0.0, 1)
        spec = model.AdiabaticSpec(
            n=2, h0_terms=[], h1_terms=[], total_time=schedule.total_time,
        )
        h = engine.protected_hamiltonian(spec, bath_zero, schedule)
        u_total, _ = engine.propagate_with_stats(h, schedule.total_time,
                                                 kicks=engine.schedule_kicks(schedule, 2))
        u_frame = engine.frame_unitary(spec, bath_zero, schedule)
        h_eff, _ = engine.effective_hamiltonian(
            linalg.dagger(u_frame) @ u_total, schedule.total_time)
        errors.append(linalg.op_norm(h_eff - target))
    # first order in tau: each halving divides the error by ~2, within [1.5, 3]
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    return min(min(r - 1.5, 3.0 - r) for r in ratios)


def check_budget_values() -> float:
    b = metrics.phi_budget(
        j_coupling=0.1, total_time=10.0, w=0.0, tau=0.01,
        k_pulses=4, l_pulses=400, beta=1.0,
    )
    worst = abs(b.term1 - 0.01)
    worst += abs(b.term3 - (math.expm1(0.08) / 0.08 - 1.0))
    if b.term2 != 0.0:  # w = 0 leaves no pulse-width term at all
        return -1.0
    return 1e-12 - worst


def check_prediction_values() -> float:
    rule = protocols.ScalingRule(zeta=1.0, epsilon1=1.5, epsilon2=0.5)
    t1, t2, t3, total = metrics.dd_error_prediction(rule, 4)
    return 1e-12 - abs(t1 - 0.125) - abs(t2 - 0.5) - abs(t3 - 0.5) - abs(total - 1.125)


def check_partial_trace_monotone() -> float:
    rng = np.random.default_rng(37)
    worst = -np.inf
    for _ in range(10):
        rho = _random_state(rng, 8)
        sigma = _random_state(rng, 8)
        full = metrics.trace_distance(rho, sigma)
        reduced = metrics.trace_distance(
            linalg.partial_trace(rho, (2, 4), (0,)),
            linalg.partial_trace(sigma, (2, 4), (0,)),
        )
        worst = max(worst, reduced - full)
    return 1e-12 - worst


def _random_state(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho)


def _small_reports(reports: dict | None) -> list[metrics.ErrorReport]:
    """Reports of the J = 0.05 and 0.2 experiments, kept in ``reports``."""
    reports = {} if reports is None else reports
    for j in (0.05, 0.2):
        if j not in reports:
            reports[j] = runner.execute_experiment(_quick_config(j=j)).report
    return list(reports.values())


def check_bound_chain_small(reports: dict | None = None) -> float:
    # The monotonicity, triangle, and summed-error bounds are theorems and
    # must hold on every run.  The printed phi-distance constant is not a
    # theorem; tests/test_acceptance.py::test_criterion_5_phi_distance_as_printed
    # asserts the sharp form and reports the printed one.
    worst = np.inf
    for report in _small_reports(reports):
        for name in ("monotonic", "triangle", "eq3"):
            worst = min(worst, report.slacks[name])
    return float(worst)


def check_phi_distance_outer(reports: dict | None = None) -> float:
    # d_D <= Phi for Phi <= 1: the provable form of the phi-distance chain.
    worst = np.inf
    for report in _small_reports(reports):
        if report.phi <= 1.0:
            worst = min(worst, report.phi + 1e-9 - report.d_d)
    return float(worst)


# The checks that take the ``reports`` dict of the small experiments.
SHARES_REPORTS = (check_bound_chain_small, check_phi_distance_outer)

ALL_CHECKS = [
    ("pauli.dense_mul_consistency", check_pauli_dense_consistency),
    ("pauli.commute_dense_agreement", check_pauli_commute_agreement),
    ("pauli.expm_logm_roundtrip", check_expm_logm_roundtrip),
    ("linalg.expm_eigen_reference", check_expm_eigen_reference),
    ("engine.magnus86_orders", check_magnus86_orders),
    ("pauli.commutator_norm_inequality", check_commutator_norm_inequality),
    ("codes.group_average_idempotent", check_group_average_idempotent),
    ("codes.group_average_commutes", check_group_average_commutes),
    ("codes.universal_annihilation", check_universal_annihilation),
    ("codes.noninterference_encoded", check_noninterference),
    ("codes.logical_algebra", check_logical_algebra),
    ("codes.codeword_golden_n4", check_codeword_golden),
    ("codes.penalty_spectrum_oracle", check_penalty_spectrum),
    ("codes.syndrome_sectors", check_syndrome_sectors),
    ("model.schedule_derivatives", check_schedule_derivatives),
    ("model.beta_inequality", check_beta_inequality),
    ("model.min_gap_two_level", check_min_gap_two_level),
    ("protocols.cycle_identity", check_cycle_identity),
    ("protocols.pulse_exactness", check_pulse_exactness),
    ("protocols.scaled_parameters_values", check_scaled_parameters),
    ("protocols.control_periodicity", check_control_periodicity),
    ("engine.j_zero_twin", check_j_zero_twin),
    ("engine.uncoupled_matches_closed", check_uncoupled_matches_closed),
    ("engine.group_average_ratio", check_magnus_ratio),
    ("metrics.budget_values", check_budget_values),
    ("metrics.prediction_values", check_prediction_values),
    ("metrics.partial_trace_monotone", check_partial_trace_monotone),
    ("runner.bound_chain_small", check_bound_chain_small),
    ("runner.phi_distance_outer", check_phi_distance_outer),
]


def verify(print_fn=print) -> int:
    """Run every named check; print pass/fail with margins; return failure count."""
    start = time.monotonic()
    failures = 0
    reports: dict = {}  # per call, so a fault injected between calls reaches both
    for name, check in ALL_CHECKS:
        try:
            margin = float(check(reports) if check in SHARES_REPORTS else check())
            result = CheckResult(name, margin >= 0.0, margin)
        except Exception as exc:
            result = CheckResult(name, False, float("-inf"), f"{type(exc).__name__}: {exc}")
        if not result.passed:
            failures += 1
        status = "PASS" if result.passed else "FAIL"
        detail = f" [{result.detail}]" if result.detail else ""
        print_fn(f"{status} {result.name} (margin={result.margin:.3e}){detail}")
    elapsed = time.monotonic() - start
    within_budget = elapsed < RUNTIME_BUDGET_SECONDS
    if not within_budget:
        failures += 1
    status = "PASS" if within_budget else "FAIL"
    print_fn(f"{status} runtime.desk_scale_budget (elapsed={elapsed:.1f}s, budget={RUNTIME_BUDGET_SECONDS:.0f}s)")
    print_fn(f"{len(ALL_CHECKS) + 1 - failures}/{len(ALL_CHECKS) + 1} checks passed")
    return failures
