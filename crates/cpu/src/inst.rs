//! The dynamic instruction stream the core consumes.
//!
//! Workload models (in `ppf-workloads`) generate an endless sequence of
//! [`Inst`]s. The format is deliberately minimal — a PC, an operation, and
//! an optional backward data dependency — because the paper's experiments
//! are entirely about the memory reference stream; compute instructions
//! exist to pace the pipeline realistically.

use ppf_types::{Addr, Pc};

/// One dynamic instruction's operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Integer ALU op.
    IntAlu,
    /// Floating-point op.
    FpAlu,
    /// Load from `addr`.
    Load {
        /// Byte address referenced.
        addr: Addr,
    },
    /// Store to `addr` (write-allocate).
    Store {
        /// Byte address referenced.
        addr: Addr,
    },
    /// Compiler-inserted software prefetch of `addr` (non-blocking; routed
    /// from the LSQ to the pollution filter, Figure 3).
    SoftPrefetch {
        /// Byte address to prefetch.
        addr: Addr,
    },
    /// Conditional branch with its resolved outcome.
    Branch {
        /// Actually taken?
        taken: bool,
        /// Actual target when taken.
        target: Pc,
    },
}

impl Op {
    /// Does this op occupy an LSQ entry?
    #[inline]
    pub fn is_mem(&self) -> bool {
        matches!(
            self,
            Op::Load { .. } | Op::Store { .. } | Op::SoftPrefetch { .. }
        )
    }

    /// The referenced byte address, if any.
    #[inline]
    pub fn addr(&self) -> Option<Addr> {
        match self {
            Op::Load { addr } | Op::Store { addr } | Op::SoftPrefetch { addr } => Some(*addr),
            _ => None,
        }
    }
}

/// One dynamic instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Inst {
    /// Program counter.
    pub pc: Pc,
    /// Operation.
    pub op: Op,
    /// Backward data dependency: this instruction reads the result of the
    /// instruction `dep` positions earlier in program order (0 = no
    /// dependency). Dependencies on loads create load-use stalls.
    pub dep: u8,
}

impl Inst {
    /// An independent instruction.
    pub fn new(pc: Pc, op: Op) -> Self {
        Inst { pc, op, dep: 0 }
    }

    /// An instruction depending on the `dep`-back producer.
    pub fn with_dep(pc: Pc, op: Op, dep: u8) -> Self {
        Inst { pc, op, dep }
    }
}

/// An endless dynamic instruction source.
///
/// `Send` so a simulator, which owns its stream, can be built on one
/// thread and run on another.
pub trait InstStream: Send {
    /// Produce the next instruction in program order. Streams are infinite:
    /// the simulator decides how many instructions to run.
    fn next_inst(&mut self) -> Inst;

    /// A boxed deep copy of this stream at its current position, or `None`
    /// when the stream is not duplicable (the default — closures, fault
    /// and adversary wrappers). Streams that opt in make their simulator
    /// copyable with `Simulator::try_snapshot`.
    fn clone_box(&self) -> Option<Box<dyn InstStream>> {
        None
    }
}

/// Blanket impl so closures can serve as streams in tests.
impl<F: FnMut() -> Inst + Send> InstStream for F {
    fn next_inst(&mut self) -> Inst {
        self()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_classification() {
        assert!(Op::Load { addr: 0 }.is_mem());
        assert!(Op::Store { addr: 0 }.is_mem());
        assert!(Op::SoftPrefetch { addr: 0 }.is_mem());
        assert!(!Op::IntAlu.is_mem());
        assert!(!Op::FpAlu.is_mem());
        assert!(!Op::Branch {
            taken: false,
            target: 0
        }
        .is_mem());
    }

    #[test]
    fn addr_extraction() {
        assert_eq!(Op::Load { addr: 42 }.addr(), Some(42));
        assert_eq!(Op::Store { addr: 7 }.addr(), Some(7));
        assert_eq!(Op::IntAlu.addr(), None);
    }

    #[test]
    fn closure_stream() {
        let mut n = 0u64;
        let mut s = move || {
            n += 4;
            Inst::new(n, Op::IntAlu)
        };
        assert_eq!(InstStream::next_inst(&mut s).pc, 4);
        assert_eq!(InstStream::next_inst(&mut s).pc, 8);
    }
}
