//! Gate names in one arena, with an index that hashes each name once.
//!
//! Every name lives back to back in one `String`, located by a `u32` end
//! offset per gate, so a netlist of any size holds its names in three
//! allocations and drops them in three frees.  The index maps a name's
//! hash to the last gate with that hash; a per-gate chain links the earlier
//! gates of the same hash, and a lookup compares the candidates' text in
//! the arena.  Neither side allocates per name.  Names come from parsed
//! files, so they are hashed with the standard library's randomly keyed
//! hasher: no file can make them collide on purpose.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::fmt::{self, Write};
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};

use crate::gate::GateId;

/// End of a collision chain.
const NONE: u32 = u32::MAX;

/// Hands a name's hash, already a keyed hash, to the index unchanged.
#[derive(Debug, Clone, Copy, Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("the name index hashes u64 keys only")
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }
}

/// The names of a netlist's gates, in id order, and their index.
///
/// A name is first *staged*: written after the last name, where
/// [`Self::staged`] reads it, [`Self::taken`] checks it against the index,
/// and [`Self::commit`] makes it the next gate's or [`Self::discard`] drops
/// it.
#[derive(Debug, Clone, Default)]
pub(crate) struct Names {
    /// Every name back to back, in id order; a staged name follows them.
    text: String,
    /// `ends[i]` is where name `i` ends in `text` (it starts where name
    /// `i - 1` ends).
    ends: Vec<u32>,
    /// A name's hash → the last gate whose name has that hash.
    heads: HashMap<u64, u32, BuildHasherDefault<PassThrough>>,
    /// `chain[i]`: the previous gate whose name hashes like name `i`.
    chain: Vec<u32>,
    /// The keys every name of this table is hashed with.
    keys: RandomState,
}

/// Two tables are equal when they hold the same names in the same order;
/// the index follows from the names and the keys.
impl PartialEq for Names {
    fn eq(&self, other: &Self) -> bool {
        (&self.text, &self.ends) == (&other.text, &other.ends)
    }
}

impl Eq for Names {}

impl Names {
    fn committed_end(&self) -> usize {
        self.ends.last().map_or(0, |&end| end as usize)
    }

    /// The name of gate `id`.
    ///
    /// # Panics
    ///
    /// Panics if no name was committed for `id`.
    pub(crate) fn get(&self, id: GateId) -> &str {
        let i = id.index();
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.text[start..self.ends[i] as usize]
    }

    /// The gate named `name`.
    pub(crate) fn find(&self, name: &str) -> Option<GateId> {
        self.find_hashed(self.keys.hash_one(name), name)
    }

    fn find_hashed(&self, hash: u64, name: &str) -> Option<GateId> {
        let mut id = *self.heads.get(&hash)?;
        while id != NONE {
            if self.get(GateId(id)) == name {
                return Some(GateId(id));
            }
            id = self.chain[id as usize];
        }
        None
    }

    /// Writes `name` after the last name and returns its hash.  A name staged
    /// before and neither committed nor discarded is dropped first.
    pub(crate) fn stage(&mut self, name: impl fmt::Display) -> u64 {
        self.discard();
        write!(self.text, "{name}").expect("writing to a String cannot fail");
        self.keys.hash_one(self.staged())
    }

    /// The staged name.
    pub(crate) fn staged(&self) -> &str {
        &self.text[self.committed_end()..]
    }

    /// Whether a committed name equals the staged one, whose hash is `hash`.
    pub(crate) fn taken(&self, hash: u64) -> bool {
        self.find_hashed(hash, self.staged()).is_some()
    }

    /// Makes the staged name, whose hash is `hash`, the next gate's.
    pub(crate) fn commit(&mut self, hash: u64) {
        let id = self.ends.len() as u32;
        self.ends.push(self.text.len() as u32);
        self.chain.push(self.heads.insert(hash, id).unwrap_or(NONE));
    }

    /// Drops the staged name.
    pub(crate) fn discard(&mut self) {
        self.text.truncate(self.committed_end());
    }

    /// Makes room for `names` more names of `bytes` bytes in all.
    pub(crate) fn reserve(&mut self, names: usize, bytes: usize) {
        self.text.reserve(bytes);
        self.ends.reserve(names);
        self.heads.reserve(names);
        self.chain.reserve(names);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn commit(names: &mut Names, name: &str) -> bool {
        let hash = names.stage(name);
        let taken = names.taken(hash);
        names.commit(hash);
        !taken
    }

    #[test]
    fn names_round_trip_through_the_arena() {
        let mut names = Names::default();
        for name in ["a", "", "g12", "a_long_signal_name"] {
            assert!(commit(&mut names, name), "{name}");
        }
        for (i, name) in ["a", "", "g12", "a_long_signal_name"].into_iter().enumerate() {
            assert_eq!(names.get(GateId(i as u32)), name);
            assert_eq!(names.find(name), Some(GateId(i as u32)));
        }
        assert_eq!(names.find("g1"), None);
    }

    #[test]
    fn a_discarded_name_leaves_nothing_behind() {
        let mut names = Names::default();
        commit(&mut names, "a");
        let hash = names.stage(format_args!("g{}", 7));
        assert_eq!(names.staged(), "g7");
        assert!(!names.taken(hash));
        names.discard();
        assert_eq!(names.find("g7"), None);
        let hash = names.stage("a");
        assert!(names.taken(hash));
    }

    #[test]
    fn colliding_hashes_chain_to_every_name() {
        // Force every name into one chain by committing them under one hash.
        let mut names = Names::default();
        for name in ["x", "y", "z"] {
            names.stage(name);
            names.commit(0);
        }
        for (i, name) in ["x", "y", "z"].into_iter().enumerate() {
            assert_eq!(names.find_hashed(0, name), Some(GateId(i as u32)));
        }
        assert_eq!(names.find_hashed(0, "w"), None);
    }
}
