//! Reproducer files: persisted, shrunk failure cases.
//!
//! A reproducer is a small, line-oriented text file (stable under
//! version control, human-diffable) holding the model name, the seed
//! and oracle that found the failure, and the minimized instruction
//! words. The corpus directory is replayed before any fresh fuzzing —
//! once a divergence is fixed, its reproducer becomes a permanent
//! regression test.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// File extension for reproducer files.
pub const EXTENSION: &str = "repro";

/// A typed failure while loading a corpus directory. Every variant is a
/// hard error: a corpus that cannot be trusted byte-for-byte must stop
/// the run rather than silently shrink the regression suite.
#[derive(Debug)]
pub enum CorpusError {
    /// A `.repro` entry exists but could not be read.
    Unreadable {
        /// The offending path.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// A file was read but does not parse as a reproducer.
    Malformed {
        /// The offending path.
        path: PathBuf,
        /// The first parse diagnostic.
        detail: String,
    },
    /// The file's content hash does not match the hash embedded in its
    /// name — the file was edited, truncated, or mis-renamed.
    HashMismatch {
        /// The offending path.
        path: PathBuf,
        /// Hash parsed from the file name.
        expected: u64,
        /// Hash recomputed from the file's words.
        actual: u64,
    },
}

impl std::fmt::Display for CorpusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CorpusError::Unreadable { path, source } => {
                write!(f, "corpus file unreadable: {}: {source}", path.display())
            }
            CorpusError::Malformed { path, detail } => {
                write!(f, "corpus file malformed: {}: {detail}", path.display())
            }
            CorpusError::HashMismatch { path, expected, actual } => write!(
                f,
                "corpus content hash mismatch: {}: file name says {expected:016x}, \
                 contents hash to {actual:016x}",
                path.display()
            ),
        }
    }
}

impl std::error::Error for CorpusError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CorpusError::Unreadable { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// A persisted failure case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reproducer {
    /// Model name the program was synthesized for (`tinyrisc`, …).
    pub model: String,
    /// Seed of the fuzzing run that found it.
    pub seed: u64,
    /// Label of the oracle that fired ([`crate::OracleKind::label`]).
    pub oracle: String,
    /// The minimized program prefix.
    pub words: Vec<u128>,
}

impl Reproducer {
    /// Serializes to the reproducer file format.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# lisa-conform reproducer");
        let _ = writeln!(out, "model = {}", self.model);
        let _ = writeln!(out, "seed = {}", self.seed);
        let _ = writeln!(out, "oracle = {}", self.oracle);
        for word in &self.words {
            let _ = writeln!(out, "word = {word:#x}");
        }
        out
    }

    /// Parses the reproducer file format.
    ///
    /// # Errors
    ///
    /// A description of the first malformed line.
    pub fn parse(text: &str) -> Result<Reproducer, String> {
        let mut model = None;
        let mut seed = None;
        let mut oracle = None;
        let mut words = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .map(|(k, v)| (k.trim(), v.trim()))
                .ok_or_else(|| format!("line {}: expected `key = value`", lineno + 1))?;
            match key {
                "model" => model = Some(value.to_owned()),
                "seed" => {
                    seed = Some(
                        value
                            .parse::<u64>()
                            .map_err(|e| format!("line {}: bad seed: {e}", lineno + 1))?,
                    );
                }
                "oracle" => oracle = Some(value.to_owned()),
                "word" => {
                    let digits = value.strip_prefix("0x").ok_or_else(|| {
                        format!("line {}: word must be hexadecimal (0x…)", lineno + 1)
                    })?;
                    words.push(
                        u128::from_str_radix(digits, 16)
                            .map_err(|e| format!("line {}: bad word: {e}", lineno + 1))?,
                    );
                }
                other => return Err(format!("line {}: unknown key `{other}`", lineno + 1)),
            }
        }
        Ok(Reproducer {
            model: model.ok_or("missing `model` line")?,
            seed: seed.ok_or("missing `seed` line")?,
            oracle: oracle.unwrap_or_else(|| "unknown".to_owned()),
            words,
        })
    }

    /// The canonical file name: `<model>-<16-hex-digit content hash>.repro`.
    #[must_use]
    pub fn file_name(&self) -> String {
        format!("{}-{:016x}.{EXTENSION}", self.model, self.content_hash())
    }

    /// FNV-1a over the words, so identical failures dedupe on disk.
    #[must_use]
    pub fn content_hash(&self) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for word in &self.words {
            for byte in word.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        hash
    }

    /// Writes the reproducer into `dir` (created if missing); returns
    /// the file path.
    ///
    /// # Errors
    ///
    /// Filesystem errors.
    pub fn save(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(self.file_name());
        std::fs::write(&path, self.to_text())?;
        Ok(path)
    }
}

/// Loads every `.repro` file in `dir`, sorted by file name for a
/// deterministic replay order; a missing directory is an empty corpus.
/// Every file must read, parse, and — when its name carries the
/// canonical `-<16 hex digits>` content hash suffix — hash to exactly
/// that value. Hand-named files without a hash suffix are loaded but
/// not hash-checked. The first violation is returned as a typed
/// [`CorpusError`]; callers are expected to treat it as fatal.
///
/// # Errors
///
/// The first [`CorpusError`] encountered, in file-name order.
pub fn load_dir_verified(dir: &Path) -> Result<Vec<(PathBuf, Reproducer)>, CorpusError> {
    let mut entries = Vec::new();
    let read = match std::fs::read_dir(dir) {
        Ok(read) => read,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(entries),
        Err(e) => return Err(CorpusError::Unreadable { path: dir.to_path_buf(), source: e }),
    };
    let mut paths: Vec<PathBuf> = read
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == EXTENSION))
        .collect();
    paths.sort();
    for path in paths {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| CorpusError::Unreadable { path: path.clone(), source: e })?;
        let rep = Reproducer::parse(&text)
            .map_err(|detail| CorpusError::Malformed { path: path.clone(), detail })?;
        if let Some(expected) = named_hash(&path) {
            let actual = rep.content_hash();
            if actual != expected {
                return Err(CorpusError::HashMismatch { path, expected, actual });
            }
        }
        entries.push((path, rep));
    }
    Ok(entries)
}

/// The content hash embedded in a canonical reproducer file name, if
/// the stem ends with `-<16 hex digits>`.
fn named_hash(path: &Path) -> Option<u64> {
    let stem = path.file_stem()?.to_str()?;
    let (_, digits) = stem.rsplit_once('-')?;
    if digits.len() != 16 {
        return None;
    }
    u64::from_str_radix(digits, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Reproducer {
        Reproducer {
            model: "tinyrisc".into(),
            seed: 7,
            oracle: "lockstep".into(),
            words: vec![0xf000, 0x1a2b, 0],
        }
    }

    #[test]
    fn round_trips_through_text() {
        let rep = sample();
        let parsed = Reproducer::parse(&rep.to_text()).unwrap();
        assert_eq!(parsed, rep);
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(Reproducer::parse("").unwrap_err().contains("missing `model`"));
        assert!(Reproducer::parse("model = m\nword = 12").unwrap_err().contains("hexadecimal"));
        assert!(Reproducer::parse("model = m\nbogus = 1").unwrap_err().contains("unknown key"));
        assert!(Reproducer::parse("model = m\nseed = x").unwrap_err().contains("bad seed"));
    }

    #[test]
    fn file_name_is_stable_and_content_addressed() {
        let a = sample();
        let mut b = sample();
        assert_eq!(a.file_name(), b.file_name());
        b.words.push(1);
        assert_ne!(a.file_name(), b.file_name());
        assert!(a.file_name().starts_with("tinyrisc-"));
        assert!(a.file_name().ends_with(".repro"));
    }

    #[test]
    fn save_and_load_dir_round_trip() {
        let dir = std::env::temp_dir().join(format!("lisa-conform-corpus-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let rep = sample();
        let path = rep.save(&dir).unwrap();
        assert!(path.exists());
        let loaded = load_dir_verified(&dir).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].1, rep);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_corpus_directory_is_empty() {
        let dir = Path::new("/nonexistent/lisa-conform-corpus");
        assert!(load_dir_verified(dir).unwrap().is_empty());
    }

    #[test]
    fn verified_load_accepts_canonical_files() {
        let dir = std::env::temp_dir().join(format!("lisa-corpus-ok-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        sample().save(&dir).unwrap();
        // A hand-named file without a hash suffix is loaded unchecked.
        std::fs::write(dir.join("handmade.repro"), sample().to_text()).unwrap();
        let loaded = load_dir_verified(&dir).unwrap();
        assert_eq!(loaded.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn verified_load_rejects_hash_mismatch() {
        let dir = std::env::temp_dir().join(format!("lisa-corpus-bad-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let rep = sample();
        let path = rep.save(&dir).unwrap();
        // Corrupt the words without renaming the file.
        let mut tampered = rep.clone();
        tampered.words.push(0xbad);
        std::fs::write(&path, tampered.to_text()).unwrap();
        let err = load_dir_verified(&dir).unwrap_err();
        assert!(matches!(err, CorpusError::HashMismatch { .. }), "got {err}");
        assert!(err.to_string().contains("content hash mismatch"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn verified_load_rejects_unreadable_entries() {
        let dir = std::env::temp_dir().join(format!("lisa-corpus-unread-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // A directory with the .repro extension cannot be read as a file
        // (works even when running as root, unlike permission bits).
        std::fs::create_dir_all(dir.join("trap.repro")).unwrap();
        let err = load_dir_verified(&dir).unwrap_err();
        assert!(matches!(err, CorpusError::Unreadable { .. }), "got {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn verified_load_rejects_malformed_files() {
        let dir = std::env::temp_dir().join(format!("lisa-corpus-mal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("nonsense.repro"), "model only, no seed\n").unwrap();
        let err = load_dir_verified(&dir).unwrap_err();
        assert!(matches!(err, CorpusError::Malformed { .. }), "got {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
