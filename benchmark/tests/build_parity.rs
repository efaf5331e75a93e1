//! The benchmark must measure the code users get: its `[profile.release]`
//! equals the root workspace's, key for key.

use std::collections::BTreeMap;

/// The `key = value` pairs of `[profile.release]` in a manifest.
fn release_profile(manifest: &str) -> BTreeMap<String, String> {
    let text = std::fs::read_to_string(manifest).unwrap_or_else(|e| panic!("{manifest}: {e}"));
    text.lines()
        .skip_while(|l| l.trim() != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .filter_map(|l| {
            let l = l.split('#').next().unwrap_or("").trim();
            let (k, v) = l.split_once('=')?;
            Some((k.trim().to_string(), v.trim().to_string()))
        })
        .collect()
}

#[test]
fn release_profile_equals_the_root_workspace() {
    let here = env!("CARGO_MANIFEST_DIR");
    let ours = release_profile(&format!("{here}/Cargo.toml"));
    let root = release_profile(&format!("{here}/../Cargo.toml"));
    assert!(!root.is_empty(), "root manifest has no [profile.release]");
    assert_eq!(ours, root);
}
