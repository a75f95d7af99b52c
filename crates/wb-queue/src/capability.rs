//! Typed, interned capability tags.
//!
//! Worker capabilities and job requirements used to travel as
//! `BTreeSet<String>` everywhere, which made typos silent (a worker
//! advertising `"multigpu"` simply never matched `"multi-gpu"` jobs)
//! and cloned strings on every poll. [`Capability`] interns each
//! distinct tag once in a process-global table and hands out a
//! `Copy`-able id; [`CapabilitySet`] is the typed replacement for the
//! capability side of the poll seam.
//!
//! Job tags inside [`crate::JobMeta`] stay plain strings and matching
//! still compares tag names. Only the in-process representation is
//! typed.

use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::convert::Infallible;
use std::fmt;
use std::str::FromStr;
use wb_obs::sync::Mutex;

/// Process-global intern table. Capability vocabularies are tiny (a
/// handful of tags per deployment), so a linear probe under a mutex
/// beats carrying a hash map's footprint for the lifetime of the
/// process.
static TABLE: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());

/// An interned capability tag such as `cuda`, `mpi`, or `multi-gpu`.
///
/// Equality is id equality (each name is interned exactly once), and
/// ordering follows the resolved name so a sorted collection of
/// capabilities iterates in the same order the stringly
/// representation did.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Capability(u32);

impl Capability {
    /// Intern `name`, returning its id (stable for the process).
    pub fn new(name: &str) -> Capability {
        let mut t = TABLE.lock();
        if let Some(i) = t.iter().position(|&n| n == name) {
            return Capability(i as u32);
        }
        t.push(Box::leak(name.to_string().into_boxed_str()));
        Capability((t.len() - 1) as u32)
    }

    /// Look up an already-interned name without interning it. A name
    /// nobody ever interned cannot be in any `CapabilitySet`, which
    /// lets [`CapabilitySet::contains`] answer without allocating.
    pub fn lookup(name: &str) -> Option<Capability> {
        let t = TABLE.lock();
        t.iter()
            .position(|&n| n == name)
            .map(|i| Capability(i as u32))
    }

    /// The interned tag name.
    pub fn name(&self) -> &'static str {
        TABLE.lock()[self.0 as usize]
    }
}

impl Ord for Capability {
    fn cmp(&self, other: &Capability) -> Ordering {
        if self.0 == other.0 {
            Ordering::Equal
        } else {
            self.name().cmp(other.name())
        }
    }
}

impl PartialOrd for Capability {
    fn partial_cmp(&self, other: &Capability) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for Capability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl fmt::Debug for Capability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Capability({})", self.name())
    }
}

impl FromStr for Capability {
    type Err = Infallible;

    fn from_str(s: &str) -> Result<Capability, Infallible> {
        Ok(Capability::new(s))
    }
}

impl From<&str> for Capability {
    fn from(s: &str) -> Capability {
        Capability::new(s)
    }
}

impl From<String> for Capability {
    fn from(s: String) -> Capability {
        Capability::new(&s)
    }
}

/// A sorted set of [`Capability`] tags — the typed side of the poll
/// seam.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct CapabilitySet(BTreeSet<Capability>);

impl CapabilitySet {
    /// An empty set (matches only untagged jobs).
    pub fn new() -> CapabilitySet {
        CapabilitySet::default()
    }

    /// Insert a capability; returns true when it was not yet present.
    /// Takes `Capability` by value (not `impl Into`) so call sites can
    /// keep writing `set.insert("mpi".into())` with full inference.
    pub fn insert(&mut self, cap: Capability) -> bool {
        self.0.insert(cap)
    }

    /// Remove a capability by name; returns true when it was present.
    pub fn remove(&mut self, name: &str) -> bool {
        match Capability::lookup(name) {
            Some(c) => self.0.remove(&c),
            None => false,
        }
    }

    /// Membership by tag name, without interning unknown names.
    pub fn contains(&self, name: &str) -> bool {
        Capability::lookup(name).is_some_and(|c| self.0.contains(&c))
    }

    /// True when every tag name in `tags` is covered by this set —
    /// the broker's delivery predicate.
    pub fn satisfies<'a>(&self, mut tags: impl Iterator<Item = &'a String>) -> bool {
        tags.all(|t| self.contains(t))
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Iterate in name order.
    pub fn iter(&self) -> impl Iterator<Item = Capability> + '_ {
        self.0.iter().copied()
    }

    /// The stringly wire form carried by [`crate::JobMeta`] tags.
    pub fn to_wire(&self) -> BTreeSet<String> {
        self.0.iter().map(|c| c.name().to_string()).collect()
    }
}

impl fmt::Debug for CapabilitySet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set()
            .entries(self.0.iter().map(|c| c.name()))
            .finish()
    }
}

impl FromIterator<Capability> for CapabilitySet {
    fn from_iter<I: IntoIterator<Item = Capability>>(iter: I) -> CapabilitySet {
        CapabilitySet(iter.into_iter().collect())
    }
}

impl<'a> FromIterator<&'a str> for CapabilitySet {
    fn from_iter<I: IntoIterator<Item = &'a str>>(iter: I) -> CapabilitySet {
        iter.into_iter().map(Capability::new).collect()
    }
}

impl FromIterator<String> for CapabilitySet {
    fn from_iter<I: IntoIterator<Item = String>>(iter: I) -> CapabilitySet {
        iter.into_iter().map(|s| Capability::new(&s)).collect()
    }
}

impl<const N: usize> From<[&str; N]> for CapabilitySet {
    fn from(names: [&str; N]) -> CapabilitySet {
        names.iter().copied().collect()
    }
}

impl IntoIterator for &CapabilitySet {
    type Item = Capability;
    type IntoIter = std::vec::IntoIter<Capability>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter().copied().collect::<Vec<_>>().into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable_and_eq_is_by_name() {
        let a = Capability::new("cap-test-cuda");
        let b = Capability::new("cap-test-cuda");
        let c: Capability = "cap-test-mpi".into();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.name(), "cap-test-cuda");
        assert_eq!(a.to_string(), "cap-test-cuda");
        assert_eq!("cap-test-mpi".parse::<Capability>().unwrap(), c);
    }

    #[test]
    fn ordering_follows_names_not_intern_order() {
        // Intern in reverse-alphabetical order; the set must still
        // iterate alphabetically, matching BTreeSet<String>.
        let z = Capability::new("cap-ord-z");
        let a = Capability::new("cap-ord-a");
        let set: CapabilitySet = [z, a].into_iter().collect();
        let names: Vec<&str> = set.iter().map(|c| c.name()).collect();
        assert_eq!(names, ["cap-ord-a", "cap-ord-z"]);
    }

    #[test]
    fn contains_does_not_intern() {
        let set: CapabilitySet = ["cap-probe-x"].into();
        assert!(set.contains("cap-probe-x"));
        assert!(!set.contains("cap-probe-never-interned-q"));
        // The miss above must not have interned the probe name.
        assert!(Capability::lookup("cap-probe-never-interned-q").is_none());
    }

    #[test]
    fn satisfies_matches_the_old_subset_predicate() {
        let caps: CapabilitySet = ["cuda", "mpi"].into();
        let tags: BTreeSet<String> = ["mpi".to_string()].into();
        assert!(caps.satisfies(tags.iter()));
        let greedy: BTreeSet<String> = ["mpi".into(), "multi-gpu".into()].into();
        assert!(!caps.satisfies(greedy.iter()));
        assert!(CapabilitySet::new().satisfies(BTreeSet::new().iter()));
    }

    #[test]
    fn wire_form_round_trips_through_strings() {
        // The broker's JobMeta still carries string tags; a set must
        // convert to exactly the BTreeSet<String> it came from.
        let strings: BTreeSet<String> = ["cuda".to_string(), "mpi".to_string()].into();
        let caps: CapabilitySet = strings.iter().cloned().collect();
        assert_eq!(caps.to_wire(), strings);
        assert_eq!(caps.len(), 2);
        assert!(!caps.is_empty());
    }
}
