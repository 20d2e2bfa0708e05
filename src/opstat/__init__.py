"""opstat: exact statistics, encodings and bijections on ordered set
partitions, with an exact p,q-polynomial layer and exhaustive
equidistribution checks at small sizes."""

from .core import (
    OrderedSetPartition,
    PartitionType,
    Permutation,
    WordStats,
    decompose_doubleton,
    doubleton_partition,
    from_d_code,
    from_lehmer,
    recombine_doubleton,
    word_stats,
)
from .families import (
    DeskScaleError,
    beta,
    beta_inv,
    fubini,
    ordered_set_partitions,
    path_diagrams,
    permutations,
    rearrangements,
    set_partitions,
    sigma_partitions,
    stirling2,
    words,
)
from .motzkin import MotzkinDiagram, lambda_map, motzkin_decode, motzkin_encode, motzkin_g
from .paths import (
    LatticePath,
    PathDiagram,
    gamma_sigma,
    g_map,
    phi,
    phi_inv,
    psi,
    psi_inv,
    theta_map,
    upsilon,
    varphi,
    xi_map,
)
from .qpoly import (
    LaurentPolynomial,
    TruncatedSeries,
    carlitz_aq,
    distribution,
    gauss_binomial,
    pochhammer,
    pq_factorial,
    pq_int,
    q_factorial,
    q_int,
    s_hat_pq,
    stirling_pq,
    stirling_q,
    stirling_tilde,
    verify_q_frobenius,
    verify_zezh,
)
from .statistics import (
    aggregate_profile,
    binv,
    bdes_set,
    bmaj,
    block_relation,
    composite,
    coord_stats,
    coordinate_table,
    stat,
    stat_restricted,
)
from .verify import VerificationReport, verify

__version__ = "0.1.0"
