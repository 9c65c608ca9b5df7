//! The benchmark must measure the code users ship: its release profile has
//! to stay equal to the repository root's, and it must stay a package of its
//! own with path dependencies only (so it builds with `--offline`).

use std::collections::BTreeMap;

fn read(relative: &str) -> String {
    let path = format!("{}/{relative}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// The `key = value` pairs of one `[section]` of a manifest, comments and
/// blank lines dropped. Enough TOML for the tables compared here.
fn section(manifest: &str, name: &str) -> BTreeMap<String, String> {
    let mut inside = false;
    let mut pairs = BTreeMap::new();
    for line in manifest.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            inside = line == format!("[{name}]");
        } else if inside {
            if let Some((key, value)) = line.split_once('=') {
                pairs.insert(key.trim().to_string(), value.trim().to_string());
            }
        }
    }
    pairs
}

#[test]
fn release_profile_is_the_repository_roots() {
    let root = section(&read("../Cargo.toml"), "profile.release");
    let own = section(&read("Cargo.toml"), "profile.release");
    assert!(!root.is_empty(), "the root manifest has a release profile");
    assert_eq!(
        own, root,
        "benchmark/Cargo.toml [profile.release] drifted from the root's"
    );
}

#[test]
fn the_benchmark_is_its_own_workspace_with_path_dependencies_only() {
    let manifest = read("Cargo.toml");
    assert!(
        manifest.lines().any(|l| l.trim() == "[workspace]"),
        "an empty [workspace] table keeps the package out of the root workspace"
    );
    assert!(section(&manifest, "workspace").is_empty());
    for (name, value) in section(&manifest, "dependencies") {
        assert!(
            value.contains("path = \"..") && !value.contains("version"),
            "dependency {name} = {value} must be a path into the repository"
        );
    }
    let root = read("../Cargo.toml");
    assert!(
        !root.contains("\"benchmark\""),
        "the root workspace must not list the benchmark as a member"
    );
}
