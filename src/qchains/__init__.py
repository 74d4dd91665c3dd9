"""qchains: exact-arithmetic partition measures, absorbing Markov chains on
partition diagrams, and a q-series engine that verifies the identities those
chains prove.

Series have integer coefficients, and their products use one
Kronecker-substitution big-integer multiply; see the series kernels in
qchains.qalgebra.
"""

from qchains.qalgebra import (
    Interval,
    QSeries,
    jacobi_product,
    poch_inf,
    poch_table,
    q_binomial_check,
    theta_sum,
)
from qchains.partitions import (
    MeasureParams,
    Partition,
    enumerate_partitions,
    gl_order,
    mass_v1,
    mass_v2,
)
from qchains.glchain import (
    ChainSample,
    chain_mass,
    diag_rows,
    first_col_law,
    kernel,
    kernel_rows,
    kr_closed,
    sample_stream,
)
from qchains.identities import (
    AGSpec,
    BaileyPair,
    absorption_limit_series,
    ag_product,
    ag_sum,
    bailey_check,
    bailey_pair_from_alpha,
    bailey_step,
    unit_bailey_pair,
)
from qchains.fristedt import (
    FristedtParams,
    f_chain_mass,
    f_diag_rows,
    f_kernel,
    f_kernel_rows,
    f_kr_closed,
    f_sample_stream,
    row_law_limit,
    weight_normalizer,
)
from qchains.quiver import (
    ConvergenceError,
    PartitionTuple,
    Quiver,
    QuiverParams,
    load_quiver,
    normalizer,
    pairing,
    quiver_chain_mass,
    quiver_first_cols,
    quiver_kernel,
    quiver_sample,
    tuple_weight,
)

__version__ = "0.1.0"
