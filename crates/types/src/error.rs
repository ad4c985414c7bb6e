//! Structured errors for the whole workspace.
//!
//! Every fallible layer of the experiment engine — config validation, cell
//! execution, the simulator watchdog, checkpoint I/O — reports a [`PpfError`]:
//! a machine-readable [`PpfErrorKind`] plus a human message and a chain of
//! context frames (innermost first) added as the error propagates outward.
//! Errors serialize through the in-repo JSON layer so grid runners and the
//! `figures` checkpoint appendix can persist and reload them losslessly.

use crate::json_unit_enum;
use std::fmt;

/// The failure taxonomy of the experiment engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PpfErrorKind {
    /// A [`SystemConfig`](crate::SystemConfig) violates a structural
    /// constraint (geometry, zero widths, incompatible options).
    ConfigInvalid,
    /// The prefetch-funnel conservation invariant failed: a proposed
    /// candidate is unaccounted for by the downstream stage counters.
    FunnelViolation,
    /// A grid cell panicked; the payload message is preserved.
    CellPanic,
    /// A run exceeded its cycle ceiling (instruction budget × worst-case
    /// CPI) without retiring its instruction target.
    WatchdogTimeout,
    /// The core stopped retiring instructions entirely for longer than the
    /// watchdog's stall window — a wedged pipeline, caught before it hangs
    /// the worker pool.
    ForwardProgressStall,
    /// A checkpoint file exists but cannot be parsed back into a report.
    CheckpointCorrupt,
    /// An instruction stream cannot be represented in the compact binary
    /// trace format (e.g. a PC beyond the record's 34-bit range).
    TraceEncoding,
    /// An operating-system I/O failure (checkpoint directory, report dump).
    Io,
}

impl PpfErrorKind {
    /// Stable kebab-case label (used in rendered messages and logs).
    pub fn label(self) -> &'static str {
        match self {
            PpfErrorKind::ConfigInvalid => "config-invalid",
            PpfErrorKind::FunnelViolation => "funnel-violation",
            PpfErrorKind::CellPanic => "cell-panic",
            PpfErrorKind::WatchdogTimeout => "watchdog-timeout",
            PpfErrorKind::ForwardProgressStall => "forward-progress-stall",
            PpfErrorKind::CheckpointCorrupt => "checkpoint-corrupt",
            PpfErrorKind::TraceEncoding => "trace-encoding",
            PpfErrorKind::Io => "io",
        }
    }
}

json_unit_enum!(PpfErrorKind {
    ConfigInvalid,
    FunnelViolation,
    CellPanic,
    WatchdogTimeout,
    ForwardProgressStall,
    CheckpointCorrupt,
    TraceEncoding,
    Io,
});

/// A structured error: taxonomy kind, root-cause message, and a context
/// chain describing where the failure surfaced (innermost frame first).
#[derive(Debug, Clone, PartialEq)]
pub struct PpfError {
    /// Failure class.
    pub kind: PpfErrorKind,
    /// Root-cause description.
    pub message: String,
    /// Context frames, innermost first ("cell PA/mcf seed 42", ...).
    pub context: Vec<String>,
}

impl PpfError {
    /// A new error with an empty context chain.
    pub fn new(kind: PpfErrorKind, message: impl Into<String>) -> Self {
        PpfError {
            kind,
            message: message.into(),
            context: Vec::new(),
        }
    }

    /// Convenience constructor for [`PpfErrorKind::ConfigInvalid`].
    pub fn config_invalid(message: impl Into<String>) -> Self {
        Self::new(PpfErrorKind::ConfigInvalid, message)
    }

    /// Convenience constructor for [`PpfErrorKind::FunnelViolation`].
    pub fn funnel_violation(message: impl Into<String>) -> Self {
        Self::new(PpfErrorKind::FunnelViolation, message)
    }

    /// Convenience constructor for [`PpfErrorKind::CellPanic`].
    pub fn cell_panic(message: impl Into<String>) -> Self {
        Self::new(PpfErrorKind::CellPanic, message)
    }

    /// Convenience constructor for [`PpfErrorKind::WatchdogTimeout`].
    pub fn watchdog_timeout(message: impl Into<String>) -> Self {
        Self::new(PpfErrorKind::WatchdogTimeout, message)
    }

    /// Convenience constructor for [`PpfErrorKind::ForwardProgressStall`].
    pub fn forward_progress_stall(message: impl Into<String>) -> Self {
        Self::new(PpfErrorKind::ForwardProgressStall, message)
    }

    /// Convenience constructor for [`PpfErrorKind::CheckpointCorrupt`].
    pub fn checkpoint_corrupt(message: impl Into<String>) -> Self {
        Self::new(PpfErrorKind::CheckpointCorrupt, message)
    }

    /// Convenience constructor for [`PpfErrorKind::TraceEncoding`].
    pub fn trace_encoding(message: impl Into<String>) -> Self {
        Self::new(PpfErrorKind::TraceEncoding, message)
    }

    /// Convenience constructor for [`PpfErrorKind::Io`].
    pub fn io(message: impl Into<String>) -> Self {
        Self::new(PpfErrorKind::Io, message)
    }

    /// Append a context frame (outer layers call this as the error
    /// propagates, so the chain reads innermost → outermost).
    pub fn context(mut self, frame: impl Into<String>) -> Self {
        self.context.push(frame.into());
        self
    }

    /// The failure class.
    pub fn kind(&self) -> PpfErrorKind {
        self.kind
    }
}

impl fmt::Display for PpfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind.label(), self.message)?;
        for frame in &self.context {
            write!(f, "; in {frame}")?;
        }
        Ok(())
    }
}

impl std::error::Error for PpfError {}

impl From<std::io::Error> for PpfError {
    fn from(e: std::io::Error) -> Self {
        PpfError::io(e.to_string())
    }
}

crate::json_struct!(PpfError {
    kind,
    message,
    context,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{FromJson, ToJson};

    #[test]
    fn display_includes_kind_message_and_context() {
        let e = PpfError::watchdog_timeout("no retirement for 1000 cycles")
            .context("cell PA/mcf seed 42")
            .context("experiment fig4");
        let s = e.to_string();
        assert!(s.starts_with("watchdog-timeout: no retirement"), "{s}");
        assert!(s.contains("in cell PA/mcf seed 42"), "{s}");
        assert!(s.contains("in experiment fig4"), "{s}");
    }

    #[test]
    fn kind_labels_are_kebab_case() {
        assert_eq!(PpfErrorKind::ConfigInvalid.label(), "config-invalid");
        assert_eq!(PpfErrorKind::CellPanic.label(), "cell-panic");
        assert_eq!(
            PpfErrorKind::ForwardProgressStall.label(),
            "forward-progress-stall"
        );
        assert_eq!(
            PpfErrorKind::CheckpointCorrupt.label(),
            "checkpoint-corrupt"
        );
        assert_eq!(PpfErrorKind::TraceEncoding.label(), "trace-encoding");
    }

    #[test]
    fn json_round_trip() {
        let e = PpfError::cell_panic("injected fault")
            .context("cell no-filter/gzip seed 7")
            .context("grid fig1");
        let back = PpfError::from_json_str(&e.to_json_string()).unwrap();
        assert_eq!(back, e);
        // Pretty output parses to the same error.
        let back2 = PpfError::from_json_str(&e.to_json_pretty()).unwrap();
        assert_eq!(back2, e);
    }

    #[test]
    fn io_errors_convert() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: PpfError = io.into();
        assert_eq!(e.kind(), PpfErrorKind::Io);
        assert!(e.message.contains("gone"));
    }

    #[test]
    fn error_trait_object_compatible() {
        let e: Box<dyn std::error::Error> = Box::new(PpfError::io("disk on fire"));
        assert!(e.to_string().contains("disk on fire"));
    }
}
