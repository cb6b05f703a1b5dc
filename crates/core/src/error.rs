use std::error::Error;
use std::fmt;

use lockbind_hls::HlsError;
use lockbind_locking::LockError;
use lockbind_matching::MatchingError;

/// Errors produced by the binding algorithms and design methodology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// An underlying HLS-substrate error (invalid binding, schedule, ...).
    Hls(HlsError),
    /// An assignment-problem failure (more concurrent ops than FUs, ...).
    Matching(MatchingError),
    /// A netlist-locking failure while realizing modules.
    Lock(LockError),
    /// The locking spec references an FU outside the allocation.
    UnknownFu {
        /// Display form of the offending FU.
        fu: String,
    },
    /// The same FU appears twice in a locking spec.
    DuplicateFu {
        /// Display form of the offending FU.
        fu: String,
    },
    /// A locked-minterm candidate's packed width exceeds the input space of
    /// the FU it would lock (`raw >= 2^(2*width)`), so it could never occur
    /// on that FU's inputs.
    MintermWidthMismatch {
        /// Raw packed value of the offending minterm.
        minterm: u64,
        /// Operand width (bits) of the target FU / DFG.
        width: u32,
    },
    /// A co-design call asked for more locked inputs per FU than there are
    /// candidates.
    NotEnoughCandidates {
        /// Candidates available.
        candidates: usize,
        /// Locked inputs requested per FU.
        requested: usize,
    },
    /// An exact search's space exceeds its guard: the optimal co-design's
    /// combination orderings, or the exhaustive binder's per-cycle
    /// assignments.
    SearchSpaceTooLarge {
        /// Number of configurations in the search space.
        configurations: u128,
        /// The guard limit on that number.
        limit: u128,
    },
    /// The methodology could not reach the requested application-error
    /// target with any admissible configuration.
    ErrorTargetUnreachable {
        /// Best achievable expected application errors.
        best: u64,
        /// Requested target.
        target: u64,
    },
    /// A cancellable search observed its cancel token mid-enumeration
    /// (deadline or explicit cancel) and unwound without an answer.
    Interrupted {
        /// Which enumeration was interrupted.
        stage: &'static str,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Hls(e) => write!(f, "hls error: {e}"),
            CoreError::Matching(e) => write!(f, "matching error: {e}"),
            CoreError::Lock(e) => write!(f, "locking error: {e}"),
            CoreError::UnknownFu { fu } => write!(f, "locking spec references unallocated {fu}"),
            CoreError::DuplicateFu { fu } => write!(f, "locking spec lists {fu} twice"),
            CoreError::MintermWidthMismatch { minterm, width } => write!(
                f,
                "locked-minterm candidate {minterm:#x} does not fit the {width}-bit FU input space (needs < 2^{})",
                2 * width
            ),
            CoreError::NotEnoughCandidates {
                candidates,
                requested,
            } => write!(
                f,
                "cannot choose {requested} locked inputs from {candidates} candidates"
            ),
            CoreError::SearchSpaceTooLarge {
                configurations,
                limit,
            } => write!(
                f,
                "search space of {configurations} configurations exceeds the limit of {limit} \
                 (for co-design, use CoDesignProblem::heuristic)"
            ),
            CoreError::ErrorTargetUnreachable { best, target } => write!(
                f,
                "application-error target {target} unreachable (best achievable {best})"
            ),
            CoreError::Interrupted { stage } => {
                write!(f, "interrupted during {stage} (cancel token fired)")
            }
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Hls(e) => Some(e),
            CoreError::Matching(e) => Some(e),
            CoreError::Lock(e) => Some(e),
            _ => None,
        }
    }
}

impl From<HlsError> for CoreError {
    fn from(e: HlsError) -> Self {
        CoreError::Hls(e)
    }
}

impl From<MatchingError> for CoreError {
    fn from(e: MatchingError) -> Self {
        CoreError::Matching(e)
    }
}

impl From<LockError> for CoreError {
    fn from(e: LockError) -> Self {
        CoreError::Lock(e)
    }
}
