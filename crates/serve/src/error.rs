//! Typed serving errors. Every degraded outcome the service can produce is
//! an explicit variant — callers (and the HTTP layer) never see a panic or
//! an unbounded wait.

use inbox_kg::{ItemId, UserId};

/// Errors returned by [`Service`](crate::Service) operations, and the
/// shed outcome of the HTTP front-end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The HTTP accept queue is full; the connection was shed with `503`
    /// at once instead of queueing behind an unbounded backlog.
    Overloaded,
    /// The user id is outside the trained universe.
    UnknownUser(UserId),
    /// The item id is outside the trained universe.
    UnknownItem(ItemId),
    /// The service is shutting down and no longer accepts requests.
    Closed,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded => write!(f, "service overloaded: admission queue full"),
            ServeError::UnknownUser(u) => write!(f, "unknown user {}", u.0),
            ServeError::UnknownItem(i) => write!(f, "unknown item {}", i.0),
            ServeError::Closed => write!(f, "service is shut down"),
        }
    }
}

impl std::error::Error for ServeError {}
