"""Linear longitudinal dynamics of the multi-stage mirror suspension.

The chain is described by one coordinate per stage.  The two mirrors
hang from a common penultimate mass, which is the single branch point of
the topology; the cavity senses only their differential motion, so the
suspension-point coupling is proportional to the stiffness mismatch of
the two final stages and falls as f^2 towards DC.

Horizontal stiffnesses are gravitational: each wire's pendulum stiffness
is the weight it supports divided by its length.  Vertical stiffnesses
come from the blade springs and are configured directly.  Structural
damping enters as a complex stiffness k*(1 + i*phi) at evaluation time;
viscous (eddy-current) damping enters through a real damping matrix.

Every response comes from one solver, `_tree_solve`.  The springs form a
tree (one spring above each coordinate, hung from ground or a lower
index; `LinearModel` enforces this), so the dynamic stiffness
-omega^2 M + i omega C + K is eliminated node by node over length-n_f
arrays, O(n_f * n) memory, rooted at the driven node: ground for the
suspension-point transfer functions, the mirror for the force
susceptibility.  A pivot that is exactly zero at some frequency raises
NumericalError naming that frequency; no response returns NaN.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constants import G_STD
from .errors import ConfigError, GridError, NumericalError, UnitError
from .spectra import UNIT_DISPLACEMENT, Spectrum, write_csv

HORIZONTAL = "horizontal"
VERTICAL = "vertical"


@dataclass(frozen=True)
class Stage:
    """One suspension stage (mass plus its upper attachment)."""

    mass: float                       # [kg]
    wire_length: float                # [m]
    vertical_stiffness: float = 0.0   # blade spring [N/m]
    viscous_damping_to_parent: float = 0.0  # dashpot to the stage above [N s/m]
    loss_angle: float = 0.0           # structural loss of the attachment
    name: str = ""

    def __post_init__(self):
        if self.mass <= 0.0 or self.wire_length <= 0.0:
            raise ConfigError("stage mass and wire length must be positive")
        if (
            self.vertical_stiffness < 0.0
            or self.viscous_damping_to_parent < 0.0
            or self.loss_angle < 0.0
        ):
            raise ConfigError("stiffness, damping and loss angle must be >= 0")


@dataclass(frozen=True)
class SuspensionChain:
    """Main chain (top to penultimate) plus the two mirror stages.

    `stiffness_mismatch` is the relative difference of the two final-stage
    pendulum stiffnesses: they are scaled by (1 +/- eps/2).  It is the one
    free parameter of the differential coupling.
    """

    stages: tuple                       # Stage, top -> penultimate
    final_stages: tuple                 # (Stage, Stage), the two mirrors
    stiffness_mismatch: float = 0.01
    vertical_coupling: float = 1e-3     # vertical-to-cavity-axis projection

    def __post_init__(self):
        stages = tuple(self.stages)
        finals = tuple(self.final_stages)
        if len(stages) < 1:
            raise ConfigError("need at least one main-chain stage")
        if len(finals) != 2:
            raise ConfigError("exactly two mirror stages hang from the penultimate mass")
        if self.stiffness_mismatch < 0.0:
            raise ConfigError("stiffness mismatch must be >= 0")
        if self.vertical_coupling < 0.0:
            raise ConfigError("vertical coupling must be >= 0")
        object.__setattr__(self, "stages", stages)
        object.__setattr__(self, "final_stages", finals)

    @property
    def mirror_mass(self):
        return self.final_stages[0].mass


@dataclass(frozen=True)
class SpringElement:
    """Spring/dashpot between `parent` and `child` coordinates (-1 = ground)."""

    parent: int
    child: int
    stiffness: float
    damping: float = 0.0
    loss_angle: float = 0.0


@dataclass(frozen=True, eq=False)
class LinearModel:
    """Assembled M, C, K system with its element list and output maps."""

    masses: np.ndarray
    springs: tuple
    coord_names: tuple
    axis: str
    mirror_a: int | None = None
    mirror_b: int | None = None

    def __post_init__(self):
        arr = np.array(self.masses, dtype=float)
        if np.any(arr <= 0.0):
            raise ConfigError("all masses must be positive")
        springs = tuple(self.springs)
        # the solver eliminates a tree: one spring above each coordinate,
        # hung from ground (-1) or from a lower-numbered coordinate
        if sorted(s.child for s in springs) != list(range(arr.size)) or any(
            not -1 <= s.parent < s.child for s in springs
        ):
            raise ConfigError(
                "springs must form a tree: each coordinate the child of exactly "
                "one spring whose parent index is below the child's"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "masses", arr)
        object.__setattr__(self, "springs", springs)

    @property
    def ndof(self):
        return self.masses.size

    @property
    def m_matrix(self):
        return np.diag(self.masses)

    def _assemble(self, weight):
        mat = np.zeros((self.ndof, self.ndof))
        for s in self.springs:
            w = weight(s)
            mat[s.child, s.child] += w
            if s.parent >= 0:
                mat[s.parent, s.parent] += w
                mat[s.parent, s.child] -= w
                mat[s.child, s.parent] -= w
        return mat

    @property
    def k_matrix(self):
        return self._assemble(lambda s: s.stiffness)

    @property
    def c_matrix(self):
        return self._assemble(lambda s: s.damping)


def _stage_name(stage, default):
    return stage.name or default


def build_model(chain, axis):
    """Assemble the linear model for one axis.

    horizontal: pendulum stiffness = supported weight / wire length, with
    the two mirror stages branching off the last main coordinate.
    vertical: blade-spring stiffnesses on exactly three stages (the mirror
    masses ride on the last vertical coordinate).
    """
    if axis == HORIZONTAL:
        stages = list(chain.stages)
        fa, fb = chain.final_stages
        n_main = len(stages)
        masses = [s.mass for s in stages] + [fa.mass, fb.mass]
        names = [
            _stage_name(s, f"stage_{i + 1}") for i, s in enumerate(stages)
        ] + [_stage_name(fa, "mirror_a"), _stage_name(fb, "mirror_b")]
        if names[n_main] == names[n_main + 1]:
            names[n_main] += "_a"
            names[n_main + 1] += "_b"

        springs = []
        hanging = sum(masses)
        for i, s in enumerate(stages):
            springs.append(SpringElement(
                parent=i - 1,
                child=i,
                stiffness=G_STD * hanging / s.wire_length,
                damping=s.viscous_damping_to_parent,
                loss_angle=s.loss_angle,
            ))
            hanging -= s.mass
        eps = chain.stiffness_mismatch
        for j, (stage, split) in enumerate(((fa, 1.0 + eps / 2.0), (fb, 1.0 - eps / 2.0))):
            springs.append(SpringElement(
                parent=n_main - 1,
                child=n_main + j,
                stiffness=G_STD * stage.mass / stage.wire_length * split,
                damping=stage.viscous_damping_to_parent,
                loss_angle=stage.loss_angle,
            ))
        return LinearModel(
            masses=masses,
            springs=springs,
            coord_names=tuple(names),
            axis=axis,
            mirror_a=n_main,
            mirror_b=n_main + 1,
        )

    if axis == VERTICAL:
        stages = list(chain.stages)
        if len(stages) != 3:
            raise ConfigError("the vertical chain has exactly three blade stages")
        masses = [s.mass for s in stages]
        # mirrors ride the penultimate mass along the vertical axis
        masses[-1] += sum(s.mass for s in chain.final_stages)
        springs = []
        for i, s in enumerate(stages):
            if s.vertical_stiffness <= 0.0:
                raise ConfigError("each vertical stage needs a blade stiffness")
            springs.append(SpringElement(
                parent=i - 1,
                child=i,
                stiffness=s.vertical_stiffness,
                damping=s.viscous_damping_to_parent,
                loss_angle=s.loss_angle,
            ))
        names = [_stage_name(s, f"stage_{i + 1}") for i, s in enumerate(stages)]
        return LinearModel(
            masses=masses,
            springs=springs,
            coord_names=tuple(names),
            axis=axis,
            mirror_a=len(stages) - 1,
            mirror_b=None,
        )

    raise ConfigError(f"unknown axis {axis!r}")


def simple_chain_model(stages, axis=HORIZONTAL):
    """Unbranched chain, mainly for analytic cross-checks."""
    stages = list(stages)
    masses = [s.mass for s in stages]
    springs = []
    hanging = sum(masses)
    for i, s in enumerate(stages):
        if axis == HORIZONTAL:
            k = G_STD * hanging / s.wire_length
        else:
            k = s.vertical_stiffness
        springs.append(SpringElement(
            parent=i - 1, child=i, stiffness=k,
            damping=s.viscous_damping_to_parent, loss_angle=s.loss_angle,
        ))
        hanging -= s.mass
    names = [_stage_name(s, f"stage_{i + 1}") for i, s in enumerate(stages)]
    return LinearModel(
        masses=masses, springs=springs, coord_names=tuple(names),
        axis=axis, mirror_a=len(stages) - 1, mirror_b=None,
    )


def single_oscillator(mass, stiffness, viscous_damping=0.0, loss_angle=0.0):
    """One-dof oscillator with explicit stiffness; oracle for thermal noise."""
    spring = SpringElement(
        parent=-1, child=0, stiffness=stiffness,
        damping=viscous_damping, loss_angle=loss_angle,
    )
    return LinearModel(
        masses=[mass], springs=(spring,), coord_names=("mass",),
        axis=HORIZONTAL, mirror_a=0, mirror_b=None,
    )


@dataclass(frozen=True)
class Mode:
    frequency_hz: float
    q: float | None          # None when the mode is lossless
    shape: np.ndarray = field(repr=False)
    dominant_coord: str = ""


def eigenmodes(model):
    """Undamped modes of (M, K) with Q estimated from C and loss angles.

    Q combines viscous and structural dissipation as 1/Q = 1/Qv + 1/Qs,
    evaluated on the undamped mode shapes (light damping assumption).
    """
    w = 1.0 / np.sqrt(model.masses)
    a = w[:, None] * model.k_matrix * w[None, :]
    a = 0.5 * (a + a.T)
    try:
        lam, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigen-solver failed: {exc}") from exc

    c_mat = model.c_matrix
    modes = []
    for i in range(model.ndof):
        lam_i = max(lam[i], 0.0)
        omega = np.sqrt(lam_i)
        shape = w * vecs[:, i]          # mass-normalised physical shape
        inv_q = 0.0
        if omega > 0.0:
            c_modal = shape @ c_mat @ shape
            inv_q += c_modal / omega
            k_phi = 0.0
            for s in model.springs:
                dv = shape[s.child] - (shape[s.parent] if s.parent >= 0 else 0.0)
                k_phi += s.loss_angle * s.stiffness * dv * dv
            inv_q += k_phi / (omega * omega)
        q = (1.0 / inv_q) if inv_q > 0.0 else None
        dom = model.coord_names[int(np.argmax(np.abs(shape)))]
        modes.append(Mode(
            frequency_hz=float(omega / (2.0 * np.pi)),
            q=q,
            shape=shape,
            dominant_coord=dom,
        ))
    modes.sort(key=lambda m: m.frequency_hz)
    return modes


def _nonzero_pivot(d, grid):
    zero = np.flatnonzero(d == 0.0)
    if zero.size:
        raise NumericalError(
            "zero pivot in the dynamic stiffness",
            frequency_hz=float(grid.values[zero[0]]),
        )
    return d


def _tree_solve(model, grid, force_at=None):
    """Solve (-omega^2 M + i omega C + K) x = b on the suspension tree.

    The drive is a unit displacement of the suspension point (ground) when
    `force_at` is None, else a unit force on coordinate `force_at`.  The
    tree is rooted at the driven node and eliminated leaf-to-root: a node's
    impedance Z (its mass plus the branches folded into it) joins the next
    node towards the root through its spring kappa as kappa*Z/(kappa + Z).
    Back-substitution only multiplies gains, x = kappa*x_next/(kappa + Z),
    and a forced root moves by 1/Z_root, so no sum can cancel the small
    dissipative part of a response.

    Returns dicts keyed by coordinate: the response x, the impedance kappa
    of the spring above each coordinate, and the pivot kappa + Z of every
    eliminated (non-root) coordinate.
    """
    omega = grid.angular
    # spring c hangs coordinate c from its parent, so the spring joining
    # two neighbouring nodes is the one of the larger index (ground is -1)
    kap = {
        s.child: s.stiffness * (1.0 + 1j * s.loss_angle) + 1j * omega * s.damping
        for s in model.springs
    }
    z = {v: -m * omega ** 2 for v, m in enumerate(model.masses)}
    neighbours = {v: [] for v in range(-1, model.ndof)}
    for s in model.springs:
        neighbours[s.parent].append(s.child)
        neighbours[s.child].append(s.parent)
        if s.parent == -1 and force_at is not None:
            z[s.child] = z[s.child] + kap[s.child]   # spring to the fixed ground

    root = -1 if force_at is None else force_at
    towards = {root: None}      # node -> next node towards the root
    order = [root]
    for v in order:
        for w in neighbours[v]:
            if w != -1 and w not in towards:
                towards[w] = v
                order.append(w)

    d = {}
    for v in reversed(order[1:]):
        q = towards[v]
        k = kap[max(v, q)]
        d[v] = _nonzero_pivot(k + z[v], grid)
        if q >= 0:
            z[q] = z[q] + k * z[v] / d[v]

    if force_at is None:
        x = {-1: 1.0}
    else:
        x = {root: 1.0 / _nonzero_pivot(z[root], grid)}
    for v in order[1:]:
        q = towards[v]
        x[v] = kap[max(v, q)] * x[q] / d[v]
    return x, kap, d


def _mirror_index(model, mirror):
    idx = model.mirror_a if mirror == "a" else model.mirror_b
    if idx is None:
        raise ConfigError(f"model has no mirror {mirror!r}")
    return idx


def tf_suspoint_to_mirror(model, grid, mirror="a"):
    """Suspension-point displacement to one mirror's displacement."""
    idx = _mirror_index(model, mirror)
    x, _, _ = _tree_solve(model, grid)
    return x[idx]


def tf_suspoint_to_differential(chain, grid):
    """Suspension-point displacement to differential cavity displacement.

    Computed as (g_a - g_b) * x_penultimate, with the leaf gains
    g = kappa / d and their difference expanded analytically, so equal
    final stages give an exactly zero transfer function instead of a
    rounding residue.
    """
    model = build_model(chain, HORIZONTAL)
    x, kap, d = _tree_solve(model, grid)
    a, b = model.mirror_a, model.mirror_b   # both hang from coordinate a - 1
    ma, mb = model.masses[a], model.masses[b]
    diff_gain = grid.angular ** 2 * (ma * kap[b] - mb * kap[a]) / (d[a] * d[b])
    return diff_gain * x[a - 1]


def mirror_force_susceptibility(model, grid, mirror="a"):
    """Displacement per force applied at the mirror coordinate [m/N]."""
    idx = _mirror_index(model, mirror)
    x, _, _ = _tree_solve(model, grid, force_at=idx)
    return x[idx]


def seismic_to_cavity(chain, ground, platform_tf, grid):
    """Ground ASD through platform and differential suspension TFs [m/rtHz]."""
    if ground.unit != UNIT_DISPLACEMENT:
        raise UnitError(f"ground spectrum must be {UNIT_DISPLACEMENT!r}")
    if not ground.grid.same_as(grid):
        raise GridError("ground spectrum grid does not match the analysis grid")
    platform_tf = np.asarray(platform_tf)
    if platform_tf.shape != grid.values.shape:
        raise GridError("platform transfer function does not match the grid")
    h = tf_suspoint_to_differential(chain, grid)
    return Spectrum(grid, np.abs(platform_tf * h) * ground.asd, UNIT_DISPLACEMENT)


def write_mode_table(path, modes):
    """CSV sidecar: frequency_hz, q, dominant_stage (q = inf when lossless)."""
    write_csv(path, ["frequency_hz", "q", "dominant_stage"], [
        [m.frequency_hz for m in modes],
        [np.inf if m.q is None else m.q for m in modes],
        [m.dominant_coord for m in modes],
    ])
