"""Exception hierarchy shared by the whole package."""


class WdrdError(Exception):
    """Base class for all domain errors raised by this package."""


class LoopArcError(WdrdError, ValueError):
    """An arc (v, v) was supplied; loops are forbidden."""


class VertexOutOfRangeError(WdrdError, IndexError):
    """A vertex index outside 0..n-1 was supplied."""


class DuplicateArcError(WdrdError, ValueError):
    """The same arc was supplied more than once."""


class NotStronglyConnectedError(WdrdError, ValueError):
    """Operation requires a strongly connected digraph."""


class NotConnectedError(WdrdError, ValueError):
    """Operation requires a connected graph."""


class NoCircuitError(WdrdError, ValueError):
    """The digraph contains no circuit, so girth is undefined."""


class NotSymmetricError(WdrdError, ValueError):
    """Operation requires a symmetric digraph (an undirected graph)."""


class EqualVerticesError(WdrdError, ValueError):
    """Two distinct vertices were required."""


class BadParametersError(WdrdError, ValueError):
    """Generator parameters outside their admissible range."""


class UnknownClassError(WdrdError, KeyError):
    """A relation-class label not present in the scheme."""


class NotCommonNeighbourError(WdrdError, ValueError):
    """The probe vertex is not a common neighbour of the given pair."""


class BadDistanceError(WdrdError, ValueError):
    """The vertex pair is not at an admissible underlying distance."""


class UnderlyingNotDistanceRegularError(WdrdError, ValueError):
    """The underlying graph is not distance-regular, so a_1/c_2 are undefined."""


class NotType22Error(WdrdError, ValueError):
    """The pair does not lie in the (2,2) two-way distance class."""


class BadMuSizeError(WdrdError, ValueError):
    """The pair does not have exactly four common neighbours."""


class MuCaseMatchError(WdrdError, ValueError):
    """The common-neighbour pattern matched no case template, or several."""


class NotAdjacentError(WdrdError, ValueError):
    """The two subsets are not adjacent in the Johnson sense."""


class AlphaNotInXError(WdrdError, ValueError):
    """Swap error: alpha is not contained in x."""


class BetaIntersectsXError(WdrdError, ValueError):
    """Swap error: beta meets x."""


class SizeMismatchError(WdrdError, ValueError):
    """Swap error: alpha and beta have different sizes."""


class DiameterTooSmallError(WdrdError, ValueError):
    """Operation requires a graph of diameter at least two."""


class BadPartitionError(WdrdError, ValueError):
    """A relation partition's label matrix is not n x n, or holds a label
    that names none of its classes."""


class TensorRangeError(WdrdError, ValueError):
    """An intersection-tensor entry lies outside 0..n, or the tensor is too
    large for exact float64 products."""


class TooManyEdgesError(WdrdError, ValueError):
    """Edge count exceeds the configured enumeration cap."""


class BadJobsError(WdrdError, ValueError):
    """The requested worker count is below one."""


class AccountingError(WdrdError, RuntimeError):
    """Examined plus skipped leaves do not add up to the 3^|E| candidates."""


class ReverificationError(WdrdError, RuntimeError):
    """A kernel survivor failed the independent re-verification."""


class TooLargeError(WdrdError, ValueError):
    """Vertex count exceeds the exact-canonicalization cap."""


class CanonicalizationError(WdrdError, RuntimeError):
    """The canonical search did not yield a permutation of the vertices."""


class DgfError(WdrdError, ValueError):
    """Malformed DGF input."""
