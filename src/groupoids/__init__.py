"""Finite groupoids given by partial multiplication tables.

Construction, validation, and analysis of small groupoids: elementary
models (pair, null, group, quasipermutation groupoids), combinators
(disjoint union, direct product, fibered sum, pullback), subgroupoid
lattices, morphisms with kernels and images, group- and vector-space-
structured variants, and a JSON document format with a CLI.
"""

from .core import (
    FiniteGroupoid,
    GroupTable,
    SizeLimitError,
    ValidationReport,
    Violation,
    is_isomorphic,
    isotropy_conjugation,
    restricted,
    validate,
    with_base_labels,
)
from .constructions import (
    cyclic_group,
    direct_product,
    disjoint_union,
    from_group,
    group_table_of,
    induced_groupoid,
    induced_triples,
    klein_four_group,
    left_translation_groupoid,
    null_groupoid,
    pair_groupoid,
    pair_groupoid_over,
    pair_index,
    whitney_sum,
)
from .quasiperm import (
    GroupoidCounts,
    Quasipermutation,
    alternating_groupoid,
    check_quasiperm_payloads,
    count_formulas,
    qp_compose,
    signature,
    symmetric_groupoid,
)
from .subgroupoids import (
    SubgroupoidHandle,
    SubsetClassification,
    classify_subset,
    enumerate_subgroupoids,
    generated_subgroupoid,
    isotropy_subgroupoid,
    null_subgroupoid,
    subgroupoid_handle,
)
from .morphisms import (
    CorrespondenceReport,
    GroupoidMorphism,
    anchor_morphism,
    cayley_embed,
    compose_morphisms,
    correspondence_check,
    identity_morphism,
    image,
    induced_canonical_morphism,
    is_isomorphism,
    is_strong,
    kernel,
    preimage,
    validate_morphism,
)
from .structured import (
    GroupGroupoid,
    VectorSpaceGroupoid,
    gf_vector_group,
    group_as_group_groupoid,
    pair_group_groupoid,
    pair_vector_space_groupoid,
    validate_group_groupoid,
    validate_group_groupoid_as_morphisms,
    validate_group_groupoid_morphism,
    validate_vector_space_groupoid,
    validate_vector_space_groupoid_via_morphisms,
)
from .io import (
    ParseError,
    ParsedDocument,
    canonical_dumps,
    canonicalize_document,
    document_for,
    group_groupoid_document,
    load_groupoid,
    load_morphism,
    parse_groupoid_document,
    parse_morphism_document,
    plain_document,
    quasiperm_document,
    vsg_document,
)

__version__ = "0.1.0"
