"""Additive irregular Deligne-Simpson decision kit.

Decides non-emptiness of moduli of stable meromorphic connections on
the trivial rank-n bundle over the projective line with one unramified
irregular singularity at infinity and simple poles elsewhere, by
synthesizing a quiver with dimension vector and parameters from the
singularity data and running the root-system criterion.  A numeric
kernel realizes and verifies instances: triangular coordinates on the
truncated coadjoint orbits, conversion between quiver representations
and explicit connections, and formal reduction to normal form.
"""

from .scalars import GaussianRational, parse_exact, rationalize
from .jets import ConnectionJet, JetMatrix, PrincipalPart, coadjoint, gauge, jet_exp, jet_inv, jet_mul, pairing
from .quiver import DoubledRep, Quiver, delta, is_stable, make_quiver, moment_map, symplectic_form, to_dot
from .roots import CartanData, Verdict, cb_solvable, is_positive_root, summand_candidates
from .orbits import OrbitSpec, greedy_marking, jordan_from_matrix, leg_dimensions, make_orbit_spec, minimal_marking, orbit_membership, realize_leg
from .irregular import IrregularType, QPPair, core_quiver, factorize, level_filtration, make_irregular_type, orbit_to_qp, qp_to_orbit, qp_to_rep, rep_to_qp
from .reduction import bv_chain, bv_split, normalize
from .assembly import (
    ConnectionData,
    DSVerdict,
    FinitePole,
    GlobalQuiver,
    ProblemInstance,
    build_global_quiver,
    connection_to_rep,
    decide_ds,
    instance_from_json,
    instance_to_json,
    is_stable_connection,
    realize_numeric,
    rep_to_connection,
    verify_instance,
)

__version__ = "0.1.0"
