//! Persistence for trained policies.
//!
//! The deployment flow the paper describes — train on-device, then load
//! the table into the hardware engine — needs the trained table to
//! survive a process boundary. The format is a small, versioned,
//! checksummed binary container (no external serialisation crates):
//!
//! ```text
//! offset  size  field
//! 0       8     magic  "RLPMQTBL"
//! 8       2     format version (LE, currently 1)
//! 10      4     num_states  (LE)
//! 14      4     num_actions (LE)
//! 18      8     FNV-1a 64 of the payload
//! 26      8·S·A payload: mean action-value table, f64 LE, row-major
//! ```
//!
//! The payload is the *mean* action-value table (`(A+B)/2` for a double
//! estimator), so a restore into either a single- or double-estimator
//! agent reproduces the greedy policy exactly and keeps value magnitudes
//! compatible with further training.

use std::error::Error;
use std::fmt;

use crate::{QTable, RlGovernor};

/// Container magic.
const MAGIC: &[u8; 8] = b"RLPMQTBL";
/// Current format version.
const VERSION: u16 = 1;
const HEADER_LEN: usize = 8 + 2 + 4 + 4 + 8;

/// Errors raised while loading a saved policy.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PersistError {
    /// The buffer does not start with the container magic.
    BadMagic,
    /// The container version is newer than this library understands.
    UnsupportedVersion(u16),
    /// The buffer ends before the declared payload does.
    Truncated {
        /// Bytes expected.
        expected: usize,
        /// Bytes present.
        actual: usize,
    },
    /// The payload checksum does not match.
    Corrupt,
    /// The saved table's shape does not match the policy's configuration.
    DimensionMismatch {
        /// Shape in the container (states, actions).
        saved: (usize, usize),
        /// Shape the policy expects.
        expected: (usize, usize),
    },
    /// The payload contains a non-finite value.
    NonFinite,
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::BadMagic => write!(f, "not a saved policy (bad magic)"),
            PersistError::UnsupportedVersion(v) => {
                write!(f, "unsupported policy format version {v}")
            }
            PersistError::Truncated { expected, actual } => {
                write!(
                    f,
                    "saved policy truncated: expected {expected} bytes, got {actual}"
                )
            }
            PersistError::Corrupt => write!(f, "saved policy failed its checksum"),
            PersistError::DimensionMismatch { saved, expected } => write!(
                f,
                "saved table is {}x{} but the policy expects {}x{}",
                saved.0, saved.1, expected.0, expected.1
            ),
            PersistError::NonFinite => write!(f, "saved policy contains non-finite values"),
        }
    }
}

impl Error for PersistError {}

/// FNV-1a 64-bit hash ([`simkit::Fnv1a64`]) of one byte slice — the
/// checksum primitive of this container, also used by
/// `experiments::cache` for its entry envelopes and by the sweep journal.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    simkit::Fnv1a64::hash(bytes)
}

/// Serialises a policy's mean action-value table.
pub fn save_policy(policy: &RlGovernor) -> Vec<u8> {
    let merged = policy.agent().merged_table();
    let scale = if policy.agent().is_double() { 0.5 } else { 1.0 };
    let mut payload = Vec::with_capacity(merged.values().len() * 8);
    for &v in merged.values() {
        payload.extend_from_slice(&(v * scale).to_le_bytes());
    }
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(merged.num_states() as u32).to_le_bytes());
    out.extend_from_slice(&(merged.num_actions() as u32).to_le_bytes());
    out.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Parses a container into a [`QTable`] (shape-agnostic half of
/// [`load_policy`]).
///
/// # Errors
///
/// Any [`PersistError`] except `DimensionMismatch`.
pub fn parse_table(bytes: &[u8]) -> Result<QTable, PersistError> {
    if bytes.get(..MAGIC.len()) != Some(MAGIC.as_slice()) {
        return Err(PersistError::BadMagic);
    }
    let truncated = |expected| PersistError::Truncated {
        expected,
        actual: bytes.len(),
    };
    let version = u16::from_le_bytes(read_array(bytes, 8).ok_or(truncated(HEADER_LEN))?);
    if version != VERSION {
        return Err(PersistError::UnsupportedVersion(version));
    }
    let states = u32::from_le_bytes(read_array(bytes, 10).ok_or(truncated(HEADER_LEN))?) as usize;
    let actions = u32::from_le_bytes(read_array(bytes, 14).ok_or(truncated(HEADER_LEN))?) as usize;
    let checksum = u64::from_le_bytes(read_array(bytes, 18).ok_or(truncated(HEADER_LEN))?);
    let expected = HEADER_LEN + states * actions * 8;
    if bytes.len() != expected {
        return Err(truncated(expected));
    }
    let payload = bytes.get(HEADER_LEN..).unwrap_or(&[]);
    if fnv1a64(payload) != checksum {
        return Err(PersistError::Corrupt);
    }
    let mut values = Vec::with_capacity(states.saturating_mul(actions));
    let mut offset = 0;
    while let Some(word) = read_array::<8>(payload, offset) {
        let v = f64::from_le_bytes(word);
        if !v.is_finite() {
            return Err(PersistError::NonFinite);
        }
        values.push(v);
        offset += 8;
    }
    let mut table = QTable::new(states, actions, 0.0);
    table.load(&values);
    Ok(table)
}

/// Reads a fixed-size little-endian field at `offset`, or `None` if the
/// buffer ends first. Keeps header parsing free of panicking slices.
fn read_array<const N: usize>(bytes: &[u8], offset: usize) -> Option<[u8; N]> {
    bytes
        .get(offset..offset.checked_add(N)?)
        .and_then(|s| s.try_into().ok())
}

/// Restores a saved table into `policy` (both estimators in double mode).
///
/// # Errors
///
/// Any [`PersistError`]; the policy is untouched on error.
pub fn load_policy(policy: &mut RlGovernor, bytes: &[u8]) -> Result<(), PersistError> {
    let table = parse_table(bytes)?;
    let expected = (
        policy.agent().table().num_states(),
        policy.agent().table().num_actions(),
    );
    let saved = (table.num_states(), table.num_actions());
    if saved != expected {
        return Err(PersistError::DimensionMismatch { saved, expected });
    }
    policy.agent_mut().load_merged(table.values());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Algorithm, RlConfig};
    use soc::SocConfig;

    fn trained_policy() -> RlGovernor {
        let cfg = RlConfig::for_soc(&SocConfig::symmetric_quad().unwrap());
        let mut policy = RlGovernor::new(cfg, 3);
        // Stamp a recognisable pattern through updates.
        let (states, actions) = (policy.config().num_states(), policy.config().num_actions());
        for i in 0..2_000usize {
            let s = i % states;
            let a = i % actions;
            policy
                .agent_mut()
                .update(s, a, (i % 11) as f64 / 3.0 - 1.5, (s + 1) % states);
        }
        policy
    }

    #[test]
    fn save_load_round_trip_preserves_the_greedy_policy() {
        let policy = trained_policy();
        let bytes = save_policy(&policy);

        let cfg = RlConfig::for_soc(&SocConfig::symmetric_quad().unwrap());
        let mut restored = RlGovernor::new(cfg, 99);
        load_policy(&mut restored, &bytes).expect("round trip");
        for s in 0..policy.config().num_states() {
            assert_eq!(
                policy.agent().greedy_action(s),
                restored.agent().greedy_action(s),
                "greedy action diverges in state {s}"
            );
        }
    }

    #[test]
    fn restore_works_across_algorithms() {
        let policy = trained_policy();
        let bytes = save_policy(&policy);
        let single_cfg = RlConfig {
            algorithm: Algorithm::QLearning,
            ..RlConfig::for_soc(&SocConfig::symmetric_quad().unwrap())
        };
        let mut single = RlGovernor::new(single_cfg, 1);
        load_policy(&mut single, &bytes).expect("double -> single restore");
        for s in (0..policy.config().num_states()).step_by(7) {
            assert_eq!(
                policy.agent().greedy_action(s),
                single.agent().greedy_action(s)
            );
        }
    }

    #[test]
    fn header_errors_are_detected() {
        let policy = trained_policy();
        let good = save_policy(&policy);

        assert_eq!(
            parse_table(b"nonsense").unwrap_err(),
            PersistError::BadMagic
        );

        let mut wrong_version = good.clone();
        wrong_version[8] = 99;
        assert_eq!(
            parse_table(&wrong_version).unwrap_err(),
            PersistError::UnsupportedVersion(99)
        );

        let truncated = &good[..good.len() - 5];
        assert!(matches!(
            parse_table(truncated).unwrap_err(),
            PersistError::Truncated { .. }
        ));

        let mut corrupt = good.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0xFF;
        // Flipping a payload byte breaks the checksum (or produces a
        // non-finite float caught by the same path).
        assert!(matches!(
            parse_table(&corrupt).unwrap_err(),
            PersistError::Corrupt | PersistError::NonFinite
        ));
    }

    #[test]
    fn dimension_mismatch_is_detected_and_policy_untouched() {
        let policy = trained_policy();
        let bytes = save_policy(&policy);
        let other_cfg = RlConfig::for_soc(&SocConfig::odroid_xu3_like().unwrap());
        let mut other = RlGovernor::new(other_cfg, 1);
        let before: Vec<f64> = other.agent().table().values().to_vec();
        let err = load_policy(&mut other, &bytes).unwrap_err();
        assert!(matches!(err, PersistError::DimensionMismatch { .. }));
        assert_eq!(other.agent().table().values(), &before[..]);
    }

    #[test]
    fn error_display_is_informative() {
        let e = PersistError::DimensionMismatch {
            saved: (10, 5),
            expected: (20, 25),
        };
        let msg = e.to_string();
        assert!(msg.contains("10x5") && msg.contains("20x25"));
    }
}
