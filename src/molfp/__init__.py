"""molfp: self-contained molecular fingerprint engine.

SMILES parsing and canonical writing, basic sanitization, SMARTS-subset
substructure matching, six fingerprint families, dense/CSR batch output
with parallel chunked execution, and similarity search.
"""

from .chem import (
    Atom,
    Bond,
    BondOrder,
    Molecule,
    MoleculeDraft,
    RingInfo,
    initial_atom_invariant,
    perceive_rings,
    sanitize,
)
from .engine import (
    BatchOptions,
    BatchReport,
    BenchmarkRow,
    Fingerprinter,
    Pipeline,
    SmilesParser,
    Union,
    benchmark,
    pipeline,
    transform_batch,
    union,
)
from .errors import (
    AromaticityError,
    ChargeOverflowError,
    CompositionError,
    ConfigError,
    FoldError,
    FormatError,
    KeySetError,
    MolfpError,
    ParseError,
    RecordError,
    RingClosureOverflowError,
    ShapeError,
    SmartsSyntaxError,
    SmilesSyntaxError,
    UnbalancedParenError,
    UnclosedRingError,
    UnsupportedPrimitiveError,
    ValenceError,
)
from .fingerprints import (
    FingerprintConfig,
    FingerprintVector,
    atom_pair,
    compute,
    descriptors,
    ecfp,
    fcfp,
    fold,
    path_fingerprint,
    substructure_fingerprint,
    topological_torsion,
)
from .matrix import (
    CsrMatrix,
    DenseMatrix,
    deserialize,
    from_rows,
    memory_footprint,
    serialize,
    to_csr,
    to_dense,
)
from .similarity import SimilarityHit, bulk_top_k, dice, tanimoto
from .smarts import (
    MatchSet,
    SmartsPattern,
    count_unique,
    default_key_set_path,
    has_match,
    load_key_set,
    match,
    parse_smarts,
)
from .smiles import canonical_ranks, from_smiles, parse_smiles, write_canonical_smiles


__version__ = "0.1.0"
