//! Interned names: an `Arc<str>` well shared by the VSG, the VSR and
//! the resolution cache.
//!
//! A home gateway sees the same few dozen service names and QNames on
//! every hop. [`Name`] stores each distinct spelling once, process-wide:
//! constructing a `Name` for a string the well has already seen costs
//! one hash lookup and an `Arc` clone — no allocation, no copy — and
//! cloning one is a reference-count bump. The well is bounded so a
//! chaos workload spraying random names degrades to plain (unshared)
//! allocation instead of growing without limit.

use parking_lot::Mutex;
use std::borrow::Borrow;
use std::collections::HashSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

/// Upper bound on distinct spellings the well retains. Beyond it, new
/// names are still valid `Name`s — they just aren't shared.
const WELL_CAPACITY: usize = 1 << 16;

fn well() -> &'static Mutex<HashSet<Arc<str>>> {
    static WELL: OnceLock<Mutex<HashSet<Arc<str>>>> = OnceLock::new();
    WELL.get_or_init(|| Mutex::new(HashSet::new()))
}

/// An interned, cheaply cloneable string: service names, operation
/// names, QNames.
///
/// Behaves like `&str` everywhere it matters — it derefs, borrows,
/// hashes and orders as its string content, so a `HashMap<Name, _>` is
/// queryable with a plain `&str` key and call sites that pass `&str`
/// keep compiling unchanged.
#[derive(Clone)]
pub struct Name(Arc<str>);

impl Name {
    /// Interns `s`, sharing storage with every other `Name` of the
    /// same spelling (until the well's capacity bound).
    pub fn new(s: &str) -> Name {
        let mut well = well().lock();
        if let Some(existing) = well.get(s) {
            return Name(existing.clone());
        }
        let arc: Arc<str> = Arc::from(s);
        if well.len() < WELL_CAPACITY {
            well.insert(arc.clone());
        }
        Name(arc)
    }

    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The shared allocation itself, for callers that keep `Arc<str>`.
    #[cfg(test)]
    fn as_arc(&self) -> &Arc<str> {
        &self.0
    }
}

impl std::ops::Deref for Name {
    type Target = str;
    fn deref(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for Name {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for Name {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl From<&str> for Name {
    fn from(s: &str) -> Name {
        Name::new(s)
    }
}

impl From<&String> for Name {
    fn from(s: &String) -> Name {
        Name::new(s)
    }
}

impl From<String> for Name {
    fn from(s: String) -> Name {
        Name::new(&s)
    }
}

impl From<&Name> for Name {
    fn from(n: &Name) -> Name {
        n.clone()
    }
}

impl From<Name> for String {
    fn from(n: Name) -> String {
        n.as_str().to_owned()
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Name) -> bool {
        // Interned names of equal content usually share the allocation.
        Arc::ptr_eq(&self.0, &other.0) || self.0 == other.0
    }
}

impl Eq for Name {}

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for Name {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<Name> for str {
    fn eq(&self, other: &Name) -> bool {
        self == other.as_str()
    }
}

impl PartialEq<Name> for &str {
    fn eq(&self, other: &Name) -> bool {
        *self == other.as_str()
    }
}

impl Hash for Name {
    // Must match `str`'s hash so `Borrow<str>` map lookups work.
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state)
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Name) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Name) -> std::cmp::Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.0, f)
    }
}

impl Default for Name {
    fn default() -> Name {
        Name::new("")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn same_spelling_shares_storage() {
        let a = Name::new("living-room-vcr");
        let b = Name::new("living-room-vcr");
        assert!(Arc::ptr_eq(a.as_arc(), b.as_arc()));
        assert_eq!(a, b);
    }

    #[test]
    fn maps_are_queryable_by_str() {
        let mut m: HashMap<Name, u32> = HashMap::new();
        m.insert(Name::new("vcr"), 1);
        assert_eq!(m.get("vcr"), Some(&1));
        assert_eq!(m.get("tv"), None);
    }

    #[test]
    fn compares_and_orders_as_str() {
        let n = Name::new("abc");
        assert_eq!(n, "abc");
        assert_eq!(n, "abc".to_owned());
        assert!("abc" == n);
        assert!(Name::new("a") < Name::new("b"));
        assert_eq!(format!("{n}"), "abc");
        assert_eq!(format!("{n:?}"), "\"abc\"");
    }

    #[test]
    fn deref_gives_str_methods() {
        let n = Name::new("ns1:record");
        assert_eq!(n.split_once(':'), Some(("ns1", "record")));
        assert_eq!(n.len(), 10);
    }
}
