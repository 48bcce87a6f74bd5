import dataclasses

import numpy as np
import pytest

from suscav.cli import resolve_config
from suscav.constants import G_STD
from suscav.errors import ConfigError, NumericalError
from suscav.spectra import FrequencyGrid, cumulative_rms, make_log_grid
from suscav.scenario import Scenario, assemble_budget, load_scenario
from suscav.suspension import (
    LinearModel,
    SpringElement,
    Stage,
    SuspensionChain,
    build_model,
    eigenmodes,
    mirror_force_susceptibility,
    tf_suspoint_to_differential,
    tf_suspoint_to_mirror,
    write_mode_table,
)

from oracles import mirror_admittance, simple_chain_model, single_oscillator

# analytic pendulum frequencies, (1/2pi)*sqrt(g/l)
F_SINGLE_19CM = 1.1434144305348943
F_FINAL_2CM = 3.5242399633930503
# equal double pendulum, sqrt((2 +/- sqrt(2)) g/l)/2pi for l = 0.19
F_DOUBLE = (0.8751315177857356, 2.112754379098474)


def main_stage(mass=0.8, damping=0.0, phi=1e-4, kv=500.0):
    return Stage(mass=mass, wire_length=0.19, vertical_stiffness=kv,
                 viscous_damping_to_parent=damping, loss_angle=phi)


def mirror_stage(phi=1e-4):
    return Stage(mass=0.01, wire_length=0.02, loss_angle=phi)


def default_chain(eps=0.01, damping=2.0, phi=1e-4):
    stages = (
        main_stage(phi=phi, kv=450.0),
        main_stage(phi=phi, kv=600.0),
        main_stage(damping=damping, phi=phi, kv=800.0),
    )
    return SuspensionChain(stages=stages, final_stage=mirror_stage(phi=phi),
                           stiffness_mismatch=eps)


class TestValidation:
    def test_stage_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            Stage(mass=0.0, wire_length=0.19)
        with pytest.raises(ConfigError):
            Stage(mass=1.0, wire_length=-0.1)

    def test_vertical_needs_blade_stiffness(self):
        chain = SuspensionChain(
            stages=(main_stage(kv=0.0), main_stage(), main_stage()),
            final_stage=mirror_stage(),
        )
        with pytest.raises(ConfigError):
            build_model(chain, "vertical")

    def test_unknown_axis(self):
        with pytest.raises(ConfigError):
            build_model(default_chain(), "diagonal")

    @pytest.mark.parametrize("links", [
        [(-1, 0), (0, 1), (0, 2), (1, 2)],   # coordinate 2 has two parents
        [(-1, 0), (2, 1), (1, 2)],           # loop 1 <-> 2, parent above child
        [(-1, 0), (0, 1)],                   # coordinate 2 hangs from nothing
        [(-1, 0), (0, 1), (1, 1)],           # spring from a coordinate to itself
    ])
    def test_linear_model_requires_tree(self, links):
        springs = [SpringElement(parent=p, child=c, stiffness=1.0) for p, c in links]
        with pytest.raises(ConfigError):
            LinearModel(masses=[1.0, 1.0, 1.0], springs=springs,
                        coord_names=("a", "b", "c"), axis="horizontal")


class TestBuild:
    def test_stage_names_and_their_defaults(self):
        chain = default_chain()
        named = dataclasses.replace(chain.stages[0], name="top")
        chain = dataclasses.replace(chain, stages=(named, *chain.stages[1:]))
        assert build_model(chain, "horizontal").coord_names == (
            "top", "stage_2", "stage_3", "mirror_a", "mirror_b")
        assert build_model(chain, "vertical").coord_names == ("top", "stage_2", "stage_3")

    def test_named_final_stage_gives_a_and_b(self):
        chain = default_chain()
        mirror = dataclasses.replace(chain.final_stage, name="test_mass")
        chain = dataclasses.replace(chain, final_stage=mirror)
        names = build_model(chain, "horizontal").coord_names
        assert names[-2:] == ("test_mass_a", "test_mass_b")

    def test_simple_vertical_chain_springs_are_blade_stiffnesses(self):
        stages = [main_stage(kv=450.0, damping=1.5, phi=2e-4), main_stage(kv=600.0)]
        model = simple_chain_model(stages, "vertical")
        assert model.axis == "vertical"
        assert model.springs == (
            SpringElement(parent=-1, child=0, stiffness=450.0, damping=1.5, loss_angle=2e-4),
            SpringElement(parent=0, child=1, stiffness=600.0, damping=0.0, loss_angle=1e-4),
        )

    def test_one_vertical_stage_is_an_oscillator(self, grid_band):
        """One blade stage carrying both mirrors: the closed form
        kappa/(kappa - M omega^2), kappa = k(1 + i phi) + i omega c."""
        stage = main_stage(damping=2.0, phi=1e-3, kv=500.0)
        chain = SuspensionChain(stages=(stage,), final_stage=mirror_stage())
        omega = grid_band.angular
        kappa = 500.0 * (1.0 + 1e-3j) + 1j * omega * 2.0
        mass = 0.8 + 0.01 + 0.01
        np.testing.assert_allclose(
            tf_suspoint_to_mirror(build_model(chain, "vertical"), grid_band),
            kappa / (kappa - mass * omega ** 2), rtol=1e-12, atol=0.0)


class TestEigenmodes:
    def test_single_stage_pendulum(self):
        model = simple_chain_model([Stage(mass=1.0, wire_length=0.19)])
        modes = eigenmodes(model)
        assert modes[0].frequency_hz == pytest.approx(F_SINGLE_19CM, rel=1e-9)

    def test_double_pendulum_closed_form(self):
        model = simple_chain_model([
            Stage(mass=1.0, wire_length=0.19), Stage(mass=1.0, wire_length=0.19)
        ])
        freqs = [m.frequency_hz for m in eigenmodes(model)]
        assert freqs == pytest.approx(list(F_DOUBLE), rel=1e-9)

    def test_final_stage_alone(self):
        model = simple_chain_model([Stage(mass=0.01, wire_length=0.02)])
        assert eigenmodes(model)[0].frequency_hz == pytest.approx(F_FINAL_2CM, rel=1e-9)

    def test_mass_scaling_leaves_horizontal_modes(self):
        chain = default_chain()
        scaled = SuspensionChain(
            stages=tuple(dataclasses.replace(s, mass=3.0 * s.mass) for s in chain.stages),
            final_stage=dataclasses.replace(chain.final_stage, mass=3.0 * chain.final_stage.mass),
            stiffness_mismatch=chain.stiffness_mismatch,
        )
        f1 = [m.frequency_hz for m in eigenmodes(build_model(chain, "horizontal"))]
        f2 = [m.frequency_hz for m in eigenmodes(build_model(scaled, "horizontal"))]
        assert f1 == pytest.approx(f2, rel=1e-12)

    def test_default_chain_below_10_hz(self):
        for axis in ("horizontal", "vertical"):
            modes = eigenmodes(build_model(default_chain(), axis))
            assert all(m.frequency_hz < 10.0 for m in modes)

    def test_subnormal_mass_is_a_numerical_error(self):
        # the mass-normalised stiffness overflows, which once gave NaN modes
        chain = default_chain()
        light = dataclasses.replace(chain, stages=(
            dataclasses.replace(chain.stages[0], mass=5e-324), *chain.stages[1:]))
        with np.errstate(all="ignore"), pytest.raises(NumericalError, match="non-finite modes"):
            eigenmodes(build_model(light, "horizontal"))

    def test_lossless_q_absent(self):
        model = simple_chain_model([Stage(mass=1.0, wire_length=0.19)])
        assert eigenmodes(model)[0].q is None

    def test_matrices_symmetric_and_stable(self):
        model = build_model(default_chain(), "horizontal")
        assert np.array_equal(model.k_matrix, model.k_matrix.T)
        assert np.array_equal(model.c_matrix, model.c_matrix.T)
        w = 1.0 / np.sqrt(model.masses)
        lam = np.linalg.eigvalsh(w[:, None] * model.k_matrix * w[None, :])
        assert np.all(lam > -1e-12 * lam.max())

    def test_eddy_damping_placement(self):
        # dashpot couples only upper-intermediate (1) and penultimate (2)
        c = build_model(default_chain(), "horizontal").c_matrix
        mask = np.zeros_like(c, dtype=bool)
        mask[1:3, 1:3] = True
        assert np.all(c[~mask] == 0.0)
        assert c[1, 2] != 0.0

    def test_q_decreases_with_damping(self):
        previous = None
        for damping in (1.0, 2.0, 4.0):
            modes = eigenmodes(build_model(default_chain(damping=damping), "horizontal"))
            qs = np.array([m.q for m in modes])
            assert np.all(np.isfinite(qs))
            if previous is not None:
                assert np.all(qs < previous)
            previous = qs

    def test_mode_table_export(self, tmp_path):
        modes = eigenmodes(build_model(default_chain(), "horizontal"))
        path = tmp_path / "modes.csv"
        write_mode_table(path, modes)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "frequency_hz,q,dominant_stage"
        assert len(lines) == len(modes) + 1


class TestMirrorTransferFunction:
    def test_dc_limit_unity(self):
        grid = FrequencyGrid(np.array([1e-3]))
        h = tf_suspoint_to_mirror(build_model(default_chain(), "horizontal"), grid)
        assert abs(h[0]) == pytest.approx(1.0, abs=1e-4)

    def test_high_frequency_rolloff_minus8(self):
        # four cascaded stages, damping off: f**-8 envelope
        chain = default_chain(damping=0.0, phi=0.0)
        grid = make_log_grid(30.0, 100.0, 200)
        h = tf_suspoint_to_mirror(build_model(chain, "horizontal"), grid)
        slope = np.polyfit(np.log10(grid.values), np.log10(np.abs(h)), 1)[0]
        assert slope == pytest.approx(-8.0, abs=0.2)

    def test_resonance_local_maximum(self):
        chain = default_chain(damping=0.0, phi=1e-6)
        model = build_model(chain, "horizontal")
        f0 = eigenmodes(model)[0].frequency_hz
        grid = FrequencyGrid(f0 * np.linspace(0.97, 1.03, 101))
        mag = np.abs(tf_suspoint_to_mirror(model, grid))
        peak = int(np.argmax(mag))
        assert 0 < peak < len(grid) - 1

    def test_singularity_names_frequency(self):
        # lossless oscillator evaluated exactly on its resonance
        f0 = 2.0
        stiffness = 1.0 * (2.0 * np.pi * f0) ** 2
        model = single_oscillator(1.0, stiffness)
        grid = FrequencyGrid(np.array([1.0, f0, 3.0]))
        with pytest.raises(NumericalError) as err:
            tf_suspoint_to_mirror(model, grid)
        assert err.value.frequency_hz == f0

    def test_zero_mirror_pivot_names_frequency(self):
        # lossless, symmetric chain at the float where k - m*omega^2 == 0 for
        # both mirrors: every response must raise, none may return NaN
        chain = default_chain(eps=0.0, damping=0.0, phi=0.0)
        model = build_model(chain, "horizontal")
        k = model.springs[model.mirror_a].stiffness
        m = model.masses[model.mirror_a]
        f = np.sqrt(k / m) / (2.0 * np.pi)
        for _ in range(100):
            pivot = k - m * (2.0 * np.pi * f) ** 2
            if pivot == 0.0:
                break
            f = np.nextafter(f, np.inf if pivot > 0.0 else -np.inf)
        assert pivot == 0.0
        grid = FrequencyGrid(np.array([1.0, f, 10.0]))
        responses = (
            lambda: tf_suspoint_to_mirror(model, grid),
            lambda: tf_suspoint_to_differential(model, grid),
            lambda: mirror_force_susceptibility(model, grid),
        )
        for response in responses:
            with pytest.raises(NumericalError) as err:
                response()
            assert err.value.frequency_hz == f

    @pytest.mark.parametrize("fmax", [1e120, 1e308])
    def test_overflowing_response_names_first_bad_frequency(self, fmax):
        # far above every mode the dynamic stiffness overflows: each response
        # raises at its first non-finite frequency and is finite below it
        model = build_model(default_chain(), "horizontal")
        grid = make_log_grid(0.1, fmax, 100)
        for response in (tf_suspoint_to_mirror, tf_suspoint_to_differential,
                         mirror_force_susceptibility):
            with np.errstate(all="ignore"), pytest.raises(NumericalError) as err:
                response(model, grid)
            first = int(np.searchsorted(grid.values, err.value.frequency_hz))
            assert grid.values[first] == err.value.frequency_hz and first > 0
            with np.errstate(all="ignore"):
                below = response(model, FrequencyGrid(grid.values[:first]))
            assert np.all(np.isfinite(below))

    def test_force_susceptibility_free_mass_limit(self):
        model = build_model(default_chain(), "horizontal")
        grid = FrequencyGrid(np.array([1000.0]))
        chi = mirror_force_susceptibility(model, grid)
        free = 1.0 / (0.01 * (2.0 * np.pi * 1000.0) ** 2)
        assert abs(chi[0]) == pytest.approx(free, rel=1e-2)


class TestDifferentialTransferFunction:
    def test_zero_mismatch_identically_zero(self, grid_band):
        model = build_model(default_chain(eps=0.0), "horizontal")
        h = tf_suspoint_to_differential(model, grid_band)
        assert np.all(h == 0.0)

    def test_needs_the_two_mirror_model(self, grid_band):
        with pytest.raises(ConfigError, match="mirror 'b'"):
            tf_suspoint_to_differential(build_model(default_chain(), "vertical"), grid_band)

    def test_linear_in_mismatch_below_resonance(self):
        grid = make_log_grid(0.1, 0.5, 40)
        h1 = tf_suspoint_to_differential(build_model(default_chain(eps=1e-3), "horizontal"), grid)
        h2 = tf_suspoint_to_differential(build_model(default_chain(eps=2e-3), "horizontal"), grid)
        assert np.allclose(np.abs(h2) / np.abs(h1), 2.0, rtol=1e-2)

    def test_f_squared_slope_below_first_resonance(self):
        # first resonance sits at 0.74 Hz; measure well below it
        grid = make_log_grid(0.1, 0.25, 30)
        h = tf_suspoint_to_differential(build_model(default_chain(), "horizontal"), grid)
        slope = np.polyfit(np.log10(grid.values), np.log10(np.abs(h)), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.2)


class TestSeismicToCavity:
    """Ground motion reaching the cavity: the budget's seismic column, and
    the differential transfer function that carries its horizontal part."""

    def test_zero_ground_zero_output(self, config_factory):
        cfg = config_factory()
        cfg["isolation"]["ground"] = {"level_m_rthz": 0.0}
        out = assemble_budget(Scenario.from_dict(cfg)).components["seismic"]
        assert np.all(out.asd == 0.0)

    def test_symmetric_chain_zero_output(self, config_factory):
        # equal final stages and no vertical coupling: nothing reaches the cavity
        cfg = config_factory()
        cfg["suspension"].update(stiffness_mismatch=0.0, vertical_coupling=0.0)
        out = assemble_budget(Scenario.from_dict(cfg)).components["seismic"]
        assert np.all(out.asd == 0.0)

    def test_rms_dominated_by_low_frequency_resonances(self, grid_band):
        h = tf_suspoint_to_differential(build_model(default_chain(), "horizontal"), grid_band)
        rms = cumulative_rms(grid_band, np.abs(h) * 1e-7, "rms")
        i10 = np.searchsorted(grid_band.values, 10.0)
        assert rms[i10] < 0.01 * rms[0]


class TestStiffnessConvention:
    def test_top_wire_carries_total_weight(self):
        chain = default_chain()
        model = build_model(chain, "horizontal")
        total = 3 * 0.8 + 2 * 0.01
        assert model.springs[0].stiffness == pytest.approx(
            G_STD * total / 0.19, rel=1e-12
        )

    def test_mismatch_splits_final_stiffness(self):
        model = build_model(default_chain(eps=0.01), "horizontal")
        ka = model.springs[3].stiffness
        kb = model.springs[4].stiffness
        kbar = G_STD * 0.01 / 0.02
        assert ka == pytest.approx(kbar * 1.005, rel=1e-12)
        assert kb == pytest.approx(kbar * 0.995, rel=1e-12)
        assert (ka - kb) / kbar == pytest.approx(0.01, rel=1e-12)


def _dense_oracle(model, omega, force_at=None):
    """Response of every coordinate from a 40-digit dense solve.

    Solves (-omega^2 M + i omega C + K) x = b exactly for the float inputs:
    b is a unit force on `force_at`, or the suspension point moving with unit
    amplitude when `force_at` is None.  Entries stay mpmath numbers, so
    differences of them are formed before rounding to float.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        w = mpmath.mpf(float(omega))
        n = model.ndof
        dyn = mpmath.matrix(n, n)
        rhs = mpmath.matrix(n, 1)
        for i, m in enumerate(model.masses):
            dyn[i, i] = -mpmath.mpf(float(m)) * w ** 2
        for s in model.springs:
            kap = (mpmath.mpf(s.stiffness) * mpmath.mpc(1, s.loss_angle)
                   + mpmath.mpc(0, 1) * w * mpmath.mpf(s.damping))
            dyn[s.child, s.child] += kap
            if s.parent >= 0:
                dyn[s.parent, s.parent] += kap
                dyn[s.parent, s.child] -= kap
                dyn[s.child, s.parent] -= kap
            elif force_at is None:
                rhs[s.child] += kap
        if force_at is not None:
            rhs[force_at] = 1
        x = mpmath.lu_solve(dyn, rhs)
        return [x[i] for i in range(n)]


class TestMpmathOracle:
    """All responses against an exact solve, including where they are hardest.

    The grid adds every mode, every anti-resonance of the mirror's driving
    point (modes with the mirror clamped), and every local minimum of
    Re(Y), where the dissipative part is smallest relative to |Y|.
    """

    @pytest.mark.parametrize("config", ["paper_default", "cryo_projection"])
    @pytest.mark.parametrize("axis", ["horizontal", "vertical"])
    def test_responses_match_dense_oracle(self, config, axis):
        chain = load_scenario(resolve_config(config)).chain
        model = build_model(chain, axis)
        idx = model.mirror_a
        clamped = [i for i in range(model.ndof) if i != idx]
        w = 1.0 / np.sqrt(model.masses[clamped])
        lam = np.linalg.eigvalsh(
            w[:, None] * model.k_matrix[np.ix_(clamped, clamped)] * w[None, :]
        )
        fine = make_log_grid(0.5, 5.0, 4000)
        re_y = np.real(mirror_admittance(model, fine))
        dips = (re_y[1:-1] < re_y[:-2]) & (re_y[1:-1] < re_y[2:])
        freqs = np.unique(np.concatenate([
            np.geomspace(0.1, 1e4, 30),
            [mode.frequency_hz for mode in eigenmodes(model)],
            np.sqrt(lam) / (2.0 * np.pi),
            fine.values[1:-1][dips],
        ]))
        grid = FrequencyGrid(freqs)

        tf = tf_suspoint_to_mirror(model, grid)
        chi = mirror_force_susceptibility(model, grid)
        re_y = np.real(mirror_admittance(model, grid))
        diff = tf_suspoint_to_differential(model, grid) if axis == "horizontal" else None
        for i, omega in enumerate(grid.angular):
            x_sus = _dense_oracle(model, omega)
            x_force = _dense_oracle(model, omega, force_at=idx)
            exact_re_y = float((1j * omega * x_force[idx]).real)
            assert tf[i] == pytest.approx(complex(x_sus[idx]), rel=1e-12, abs=0.0)
            assert chi[i] == pytest.approx(complex(x_force[idx]), rel=1e-12, abs=0.0)
            assert re_y[i] == pytest.approx(exact_re_y, rel=1e-10, abs=0.0)
            if diff is not None:
                exact = complex(x_sus[model.mirror_a] - x_sus[model.mirror_b])
                assert diff[i] == pytest.approx(exact, rel=1e-12, abs=0.0)


class TestWorkingSet:
    """Each response holds O(path) arrays, not every node's.

    Peak traced allocation of one call, in units of one complex array on
    the grid, the returned response included.  A solver that keeps every
    node's impedance, kappa and pivot needs 12 to 19.5 units here.
    """

    N_POINTS = 200_000    # above numpy's in-place threshold of 16,384 complex points

    @pytest.mark.parametrize("response, axis, bound", [
        (tf_suspoint_to_differential, "horizontal", 10.0),
        (mirror_force_susceptibility, "horizontal", 8.0),
        (tf_suspoint_to_mirror, "vertical", 8.0),
        (tf_suspoint_to_mirror, "horizontal", 9.0),
    ])
    def test_peak_allocation_bounded(self, response, axis, bound):
        import tracemalloc

        model = build_model(default_chain(), axis)
        grid = make_log_grid(0.1, 1e4, self.N_POINTS)
        tracemalloc.start()
        try:
            response(model, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (16 * self.N_POINTS) <= bound
