"""Analytic models that the tests check the package against: an unbranched
chain, a one-dof oscillator and the FDT admittance of its mirror."""

from suscav.suspension import (
    HORIZONTAL,
    LinearModel,
    SpringElement,
    _chain,
    mirror_force_susceptibility,
)


def simple_chain_model(stages, axis=HORIZONTAL):
    """Unbranched chain of `stages`, top first, the last one the mirror."""
    masses, springs, names = _chain(list(stages), axis)
    return LinearModel(masses=masses, springs=springs, coord_names=tuple(names),
                       axis=axis, mirror_a=len(masses) - 1)


def single_oscillator(mass, stiffness, viscous_damping=0.0, loss_angle=0.0):
    """One-dof oscillator with explicit stiffness."""
    spring = SpringElement(
        parent=-1, child=0, stiffness=stiffness,
        damping=viscous_damping, loss_angle=loss_angle,
    )
    return LinearModel(
        masses=[mass], springs=(spring,), coord_names=("mass",),
        axis=HORIZONTAL, mirror_a=0,
    )


def mirror_admittance(model, grid):
    """Y(omega) = i*omega * x/F at mirror a [m/(N s)]; a lossless model has
    Re(Y) = 0 everywhere."""
    return 1j * grid.angular * mirror_force_susceptibility(model, grid)
