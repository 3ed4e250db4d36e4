//! The provenance block of every result: host parallelism, CPU model,
//! compiler, git revision and build profile.

use crate::report::Provenance;
use std::path::Path;
use std::process::Command;

/// Reads the provenance of this process, run from the checkout's root.
pub fn collect() -> Provenance {
    Provenance {
        host_parallelism: rta_obs::host_info().available_parallelism as u64,
        cpu_model: cpu_model().unwrap_or_else(|| "unknown".into()),
        rustc: rustc_version().unwrap_or_else(|| "unknown".into()),
        git_rev: git_rev(Path::new(".git")).unwrap_or_else(|| "unknown".into()),
        profile: if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
        .into(),
    }
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

fn rustc_version() -> Option<String> {
    // `output` waits for the child, so no process outlives the call.
    let out = Command::new("rustc").arg("-V").output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Resolves `HEAD` by reading the git directory directly — a detached
/// hash, a loose ref, or a packed ref. Reading files (rather than running
/// `git`) never searches directories above the checkout.
fn git_rev(git_dir: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git_dir.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = std::fs::read_to_string(git_dir.join(reference)) {
        return Some(hash.trim().to_string());
    }
    let packed = std::fs::read_to_string(git_dir.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (hash, name) = l.split_once(' ')?;
        (name == reference).then(|| hash.to_string())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolves_loose_packed_and_detached_heads() {
        let dir =
            Path::new(env!("CARGO_MANIFEST_DIR")).join(format!(".test-git-{}", std::process::id()));
        let git = dir.join(".git");
        std::fs::create_dir_all(git.join("refs/heads")).unwrap();
        std::fs::write(git.join("HEAD"), "ref: refs/heads/main\n").unwrap();
        std::fs::write(
            git.join("packed-refs"),
            "# pack-refs with: peeled\nabc123 refs/heads/main\n",
        )
        .unwrap();
        assert_eq!(git_rev(&git).as_deref(), Some("abc123"));
        std::fs::write(git.join("refs/heads/main"), "def456\n").unwrap();
        assert_eq!(git_rev(&git).as_deref(), Some("def456"));
        std::fs::write(git.join("HEAD"), "0123abcd\n").unwrap();
        assert_eq!(git_rev(&git).as_deref(), Some("0123abcd"));
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(git_rev(&git), None);
    }
}
