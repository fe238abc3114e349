//! Basic-tree files: a recorded workload cached on disk.
//!
//! A tree file is a magic word, a format version and the tree's serde
//! encoding — the same encoding an announce frame carries it in, ~35
//! bytes/node — so outside bytes reach a [`BasicTree`] through one
//! decoder (length-clamped, trailing bytes refused) and then
//! [`BasicTree::validate`].

use crate::basic_tree::BasicTree;
use serde::{DecodeError, Deserialize, Serialize};
use std::fs;
use std::io;
use std::path::Path;

const MAGIC: u32 = 0x4654_4242; // "FTBB"
/// v2: the body is the serde encoding (v1 was a hand-packed node table).
const VERSION: u16 = 2;

/// Errors from reading or writing a tree file.
#[derive(Debug)]
pub enum CodecError {
    /// File/stream I/O failure.
    Io(io::Error),
    /// Structural problem in the encoded data.
    Malformed(String),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Io(e) => write!(f, "io error: {e}"),
            CodecError::Malformed(m) => write!(f, "malformed data: {m}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<io::Error> for CodecError {
    fn from(e: io::Error) -> Self {
        CodecError::Io(e)
    }
}

/// Write a basic tree to a file.
pub fn write_tree_file(tree: &BasicTree, path: &Path) -> Result<(), CodecError> {
    let mut out = Vec::new();
    (MAGIC, VERSION).ser(&mut out);
    tree.ser(&mut out);
    fs::write(path, out)?;
    Ok(())
}

/// Read a basic tree from a file, refusing anything that is not a
/// current-version file holding exactly one valid tree.
pub fn read_tree_file(path: &Path) -> Result<BasicTree, CodecError> {
    let data = fs::read(path)?;
    let mut r = &data[..];
    let bad = |e: DecodeError| CodecError::Malformed(e.to_string());
    if u32::de(&mut r).map_err(bad)? != MAGIC {
        return Err(CodecError::Malformed("bad magic".into()));
    }
    let version = u16::de(&mut r).map_err(bad)?;
    if version != VERSION {
        return Err(CodecError::Malformed(format!(
            "unsupported version {version}"
        )));
    }
    let tree: BasicTree = serde::decode(r).map_err(bad)?;
    tree.validate().map_err(CodecError::Malformed)?;
    Ok(tree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basic_tree::fig1_example;
    use crate::code::Code;
    use crate::generator::{random_basic_tree, TreeConfig};
    use std::path::PathBuf;

    /// A scratch path no other test (they run in parallel) shares.
    fn scratch(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ftbb-io-test-{}-{name}", std::process::id()))
    }

    /// The bytes `write_tree_file` produces for `tree`.
    fn file_bytes(tree: &BasicTree, name: &str) -> Vec<u8> {
        let path = scratch(name);
        write_tree_file(tree, &path).unwrap();
        let bytes = fs::read(&path).unwrap();
        fs::remove_file(&path).ok();
        bytes
    }

    /// `read_tree_file` over `bytes`.
    fn read_bytes(bytes: &[u8], name: &str) -> Result<BasicTree, CodecError> {
        let path = scratch(name);
        fs::write(&path, bytes).unwrap();
        let read = read_tree_file(&path);
        fs::remove_file(&path).ok();
        read
    }

    #[test]
    fn tree_round_trip() {
        let t = fig1_example();
        let bytes = file_bytes(&t, "fig1-rt");
        assert_eq!(read_bytes(&bytes, "fig1-rt").unwrap(), t);
    }

    #[test]
    fn random_tree_round_trip() {
        let t = random_basic_tree(&TreeConfig {
            target_nodes: 501,
            ..Default::default()
        });
        let bytes = file_bytes(&t, "random-rt");
        assert_eq!(read_bytes(&bytes, "random-rt").unwrap(), t);
    }

    #[test]
    fn file_round_trip() {
        let t = fig1_example();
        let path = scratch("fig1.ftbb");
        write_tree_file(&t, &path).unwrap();
        let back = read_tree_file(&path).unwrap();
        assert_eq!(t, back);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = file_bytes(&fig1_example(), "magic");
        bytes[0] ^= 0xFF;
        assert!(matches!(
            read_bytes(&bytes, "magic"),
            Err(CodecError::Malformed(_))
        ));
    }

    #[test]
    fn rejects_truncation() {
        let bytes = file_bytes(&fig1_example(), "cut");
        for cut in [0, 4, 9, bytes.len() / 2, bytes.len() - 1] {
            assert!(read_bytes(&bytes[..cut], "cut").is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn rejects_trailing_bytes() {
        let mut bytes = file_bytes(&fig1_example(), "tail");
        bytes.push(0);
        assert!(read_bytes(&bytes, "tail").is_err());
    }

    #[test]
    fn codes_round_trip() {
        let t = fig1_example();
        let codes: Vec<Code> = (0..t.len() as u32).map(|i| t.code_of(i)).collect();
        let back: Vec<Code> = serde::decode(&serde::encode(&codes)).unwrap();
        assert_eq!(codes, back);
    }
}
