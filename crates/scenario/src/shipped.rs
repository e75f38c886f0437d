//! The shipped scenario packs: the JSON files under `scenarios/` at the
//! repository root, embedded at build time.
//!
//! The *files* are the only definition — the CLI, CI smoke jobs, and
//! users load them, and this module embeds the same bytes so tests and
//! benches can look a pack up by name. The pack conformance suite
//! asserts every file parses (which validates it) and is its own
//! canonical rendering ([`Pack::to_json`]) byte for byte;
//! `FCR_REGEN_GOLDENS=1` rewrites a file into canonical form.

use crate::pack::Pack;

/// `(name, JSON text)` of one shipped pack file.
macro_rules! pack_file {
    ($name:literal) => {
        (
            $name,
            include_str!(concat!("../../../scenarios/", $name, ".json")),
        )
    };
}

/// Every shipped pack file as `(name, JSON text)`: the paper packs,
/// then the churn packs.
pub const FILES: [(&str, &str); 6] = [
    pack_file!("single_fbs"),
    pack_file!("paper_fig1"),
    pack_file!("paper_fig5"),
    pack_file!("mobility_churn"),
    pack_file!("flash_crowd"),
    pack_file!("pu_burst"),
];

/// Absolute path of the repository's `scenarios/` directory (the
/// shipped pack files live at `scenarios/<name>.json`).
pub fn scenarios_dir() -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(std::path::Path::parent)
        .expect("crates/scenario sits two levels below the repo root")
        .join("scenarios")
}

/// Every shipped pack, in [`FILES`] order.
pub fn shipped() -> Vec<Pack> {
    FILES.iter().map(|(name, text)| parse(name, text)).collect()
}

/// The shipped pack called `name`, or `None` when no file has that
/// name.
pub fn named(name: &str) -> Option<Pack> {
    FILES
        .iter()
        .find(|(file, _)| *file == name)
        .map(|(name, text)| parse(name, text))
}

fn parse(name: &str, text: &str) -> Pack {
    Pack::from_json(text).unwrap_or_else(|e| panic!("scenarios/{name}.json: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_packs_are_named_after_their_unique_files() {
        let mut names: Vec<&str> = FILES.iter().map(|(name, _)| *name).collect();
        for (pack, name) in shipped().iter().zip(&names) {
            assert_eq!(pack.name, *name, "scenarios/{name}.json names another pack");
        }
        assert_eq!(named("pu_burst").map(|p| p.name), Some("pu_burst".into()));
        assert_eq!(named("octagon"), None);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), FILES.len(), "pack names are unique");
    }

    #[test]
    fn churn_packs_schedule_real_work() {
        for pack in shipped() {
            let schedule = crate::churn::ChurnSchedule::generate(&pack);
            if pack.churn.is_some() {
                assert!(schedule.sessions > 0, "{} schedules no sessions", pack.name);
            } else {
                assert_eq!(schedule.sessions, 0);
            }
        }
    }
}
