//! Compact `PodConfig` codec for worker command lines.
//!
//! The heap layout is a pure function of the config (paper §4), so the
//! coordinator ships its exact config to every worker process as one
//! argument; [`cxl_pod::Pod::open_shared`] then derives identical
//! offsets with no further coordination.

use cxl_pod::PodConfig;

/// One key per `PodConfig` field, in declaration order.
const KEYS: [&str; 8] = ["mt", "ss", "ls", "hc", "hr", "hd", "hz", "mb"];

/// Renders `config` as `key=value` pairs (`mt=64,ss=2048,...`).
pub fn format_config(c: &PodConfig) -> String {
    let values = [
        c.max_threads as u64,
        c.small_max_slabs as u64,
        c.large_max_slabs as u64,
        c.huge_capacity,
        c.huge_regions as u64,
        c.huge_descs_per_thread as u64,
        c.hazards_per_thread as u64,
        c.max_segment_bytes,
    ];
    let pairs: Vec<String> = KEYS.iter().zip(values).map(|(key, value)| format!("{key}={value}")).collect();
    pairs.join(",")
}

/// Parses [`format_config`] output. Every key must appear exactly once:
/// a worker that filled a missing field with a guess would derive a
/// different layout from the coordinator's.
///
/// # Errors
///
/// A description of the malformed, duplicate or missing field.
pub fn parse_config(s: &str) -> Result<PodConfig, String> {
    let mut values = [None; KEYS.len()];
    for pair in s.split(',') {
        let (key, value) = pair.split_once('=').ok_or_else(|| format!("bad pair {pair:?}"))?;
        let slot = KEYS
            .iter()
            .position(|k| *k == key)
            .ok_or_else(|| format!("unknown config key {key:?}"))?;
        let num: u64 = value.parse().map_err(|_| format!("bad value in {pair:?}"))?;
        if values[slot].replace(num).is_some() {
            return Err(format!("duplicate config key {key:?}"));
        }
    }
    let get = |slot: usize| values[slot].ok_or_else(|| format!("config is missing {}", KEYS[slot]));
    let get32 = |slot: usize| {
        u32::try_from(get(slot)?).map_err(|_| format!("{} overflows u32", KEYS[slot]))
    };
    Ok(PodConfig {
        max_threads: get32(0)?,
        small_max_slabs: get32(1)?,
        large_max_slabs: get32(2)?,
        huge_capacity: get(3)?,
        huge_regions: get32(4)?,
        huge_descs_per_thread: get32(5)?,
        hazards_per_thread: get32(6)?,
        max_segment_bytes: get(7)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_every_field() {
        for config in [PodConfig::default(), PodConfig::small_for_tests()] {
            assert_eq!(parse_config(&format_config(&config)), Ok(config));
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_config("").is_err());
        assert!(parse_config("mt").is_err());
        assert!(parse_config("mt=x").is_err());
        assert!(parse_config("zz=1").is_err());
    }

    #[test]
    fn rejects_truncated_and_duplicated_configs() {
        let full = format_config(&PodConfig::small_for_tests());
        assert!(parse_config("mt=64").is_err(), "every key is mandatory");
        for (cut, _) in full.match_indices(',') {
            assert!(parse_config(&full[..cut]).is_err(), "{}", &full[..cut]);
        }
        assert!(parse_config(&format!("{full},mt=16")).is_err(), "duplicate key");
        let wide = full.replace("ss=64,", "ss=4294967296,");
        assert_eq!(parse_config(&wide), Err("ss overflows u32".to_string()));
    }
}
