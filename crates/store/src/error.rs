//! [`StoreError`]: every persistence failure, with the context a user needs
//! to act on it — which file, at which byte offset.

use std::error::Error;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// What went wrong, independent of where.
#[derive(Debug)]
#[non_exhaustive]
pub enum StoreErrorKind {
    /// The underlying file operation failed.
    Io(io::Error),
    /// The bytes do not decode as an `lfi-store` file or payload.
    Corrupt {
        /// What the decoder was reading when it gave up.
        message: String,
    },
    /// The file carries the right magic but a format version this build
    /// does not understand.
    UnsupportedVersion {
        /// The version the file claims.
        found: u16,
    },
}

/// A persistence error, carrying the path and byte offset of the failing
/// load or save.  Load paths never panic on truncated or
/// hostile input — every such condition surfaces as a `StoreError`.
#[derive(Debug)]
pub struct StoreError {
    /// The file involved, when the operation had one.
    pub path: Option<PathBuf>,
    /// Byte offset of the failure within the file, when known.
    pub offset: Option<u64>,
    /// The underlying failure.
    pub kind: StoreErrorKind,
}

impl StoreError {
    /// An IO failure with no location context yet.
    pub fn io(error: io::Error) -> Self {
        Self { path: None, offset: None, kind: StoreErrorKind::Io(error) }
    }

    /// A corruption failure at a byte offset.
    pub fn corrupt(offset: u64, message: impl Into<String>) -> Self {
        Self { path: None, offset: Some(offset), kind: StoreErrorKind::Corrupt { message: message.into() } }
    }

    /// A version-mismatch failure.
    pub fn unsupported_version(found: u16) -> Self {
        Self { path: None, offset: None, kind: StoreErrorKind::UnsupportedVersion { found } }
    }

    /// Attaches the file path (kept if already set).
    pub fn with_path(mut self, path: impl AsRef<Path>) -> Self {
        if self.path.is_none() {
            self.path = Some(path.as_ref().to_path_buf());
        }
        self
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            StoreErrorKind::Io(error) => write!(f, "store io error: {error}")?,
            StoreErrorKind::Corrupt { message } => write!(f, "corrupt store data: {message}")?,
            StoreErrorKind::UnsupportedVersion { found } => {
                write!(f, "unsupported store format version {found}")?;
            }
        }
        if let Some(offset) = self.offset {
            write!(f, " [offset: {offset}]")?;
        }
        if let Some(path) = &self.path {
            write!(f, " [path: {}]", path.display())?;
        }
        Ok(())
    }
}

impl Error for StoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match &self.kind {
            StoreErrorKind::Io(error) => Some(error),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(error: io::Error) -> Self {
        StoreError::io(error)
    }
}
