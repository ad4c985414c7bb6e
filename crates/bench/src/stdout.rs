//! Stdout for the `figures` and `bench` binaries.
//!
//! A reader that goes away early (`figures all | head`) closes the pipe,
//! and the next write fails with `BrokenPipe`. From then on [`Stdout`]
//! drops every write, so the run still finishes, writes its `--json`,
//! `--checkpoint` and `--telemetry` files and exits with its own status.
//! Any other write error ends the run through [`run`]: it is reported on
//! stderr and the process exits 1.

use std::io::{self, Write};
use std::process::ExitCode;

/// Process stdout that goes quiet once its reader has closed the pipe.
#[derive(Default)]
pub struct Stdout {
    closed: bool,
}

impl Stdout {
    /// `result` of a write to the real stdout, with a closed pipe turned
    /// into success (`quiet`) that silences every later write.
    fn absorb_closed<T>(&mut self, result: io::Result<T>, quiet: T) -> io::Result<T> {
        match result {
            Err(e) if e.kind() == io::ErrorKind::BrokenPipe => {
                self.closed = true;
                Ok(quiet)
            }
            result => result,
        }
    }
}

impl Write for Stdout {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.closed {
            return Ok(buf.len());
        }
        let result = io::stdout().write(buf);
        self.absorb_closed(result, buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.closed {
            return Ok(());
        }
        let result = io::stdout().flush();
        self.absorb_closed(result, ())
    }
}

/// Run a binary's body against a [`Stdout`]. A stdout error other than a
/// closed pipe is reported on stderr under `name`, and the exit code is 1.
pub fn run(name: &str, body: impl FnOnce(&mut Stdout) -> io::Result<ExitCode>) -> ExitCode {
    body(&mut Stdout::default()).unwrap_or_else(|e| {
        eprintln!("{name}: writing stdout: {e}");
        ExitCode::FAILURE
    })
}
