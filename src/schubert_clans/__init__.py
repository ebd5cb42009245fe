"""
Schubert structure constants for Levi-stable Richardson varieties, computed
two independent ways: a combinatorial clan rule and a polynomial oracle.

The fast path (:mod:`.richardson` + :mod:`.weak_order`) expands products
S_x . S_y where w0 x is a descending shuffle and y an ascending shuffle at
some block size p, by driving a (p,q)-clan through the weak order.  The
slow path (:mod:`.oracle`) expands any product by exact Schubert-polynomial
arithmetic and exists to check the fast one.
"""

from .clans import (
    Clan,
    avoids_1212,
    clan_length,
    dense_clan,
    enumerate_clans,
    format_clan,
    gamma_cross,
    gamma_minus,
    gamma_plus,
    is_sign_only,
    orbit_dimension,
    parse_clan,
)
from .guards import GuardError
from .oracle import (
    clear_schubert_cache,
    oracle_product,
    restrict_to_degree,
    schubert_cache_size,
)
from .permutations import (
    Perm,
    code,
    code_to_perm,
    compose,
    enumerate_by_length,
    format_perm,
    identity,
    inverse,
    is_ascending_shuffle,
    is_descending_shuffle,
    length,
    longest,
    parse_perm,
    reduced_word,
)
from .richardson import (
    IncomparableError,
    ShufflePatternError,
    clan_of_pair,
    pair_of_clan,
    shuffles_comparable,
    special_product,
    structure_constant,
)
from .weak_order import (
    RootType,
    WeakOrderGraph,
    act,
    act_simple,
    act_word,
    brion_class,
    classify_root,
    clear_w_set_table,
    w_set,
    w_set_table_size,
    weak_order_graph,
)

__version__ = "0.1.0"
