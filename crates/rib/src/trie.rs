//! A binary radix (Patricia-style) trie keyed by IPv4 prefix.
//!
//! Every RIB in the system is built on this structure: exact-match for
//! update processing, longest-prefix-match for the forwarding path of the
//! router model's cache architecture, and ordered traversal for table dumps
//! and the aggregation walk.
//!
//! The implementation is a straightforward bit trie (one level per prefix
//! bit, nodes allocated in a `Vec` arena with `u32` indices). Depth is
//! bounded at 32, so operations are O(32) without path compression; for the
//! ~40k-prefix tables of the paper's era this is comfortably fast (see the
//! `trie_ops` micro-benchmarks in `iri-bench`).

use iri_bgp::types::Prefix;

const NO_NODE: u32 = u32::MAX;

struct Node<T> {
    children: [u32; 2],
    value: Option<T>,
}

impl<T> Node<T> {
    fn new() -> Self {
        Node {
            children: [NO_NODE, NO_NODE],
            value: None,
        }
    }
}

/// A map from [`Prefix`] to `T` supporting exact and longest-prefix match.
///
/// ```
/// use iri_rib::trie::PrefixTrie;
/// use iri_bgp::types::Prefix;
///
/// let mut table: PrefixTrie<&str> = PrefixTrie::new();
/// table.insert("10.0.0.0/8".parse().unwrap(), "coarse");
/// table.insert("10.1.0.0/16".parse().unwrap(), "fine");
/// let dest: Prefix = "10.1.2.3/32".parse().unwrap();
/// let (matched, &value) = table.longest_match(dest).unwrap();
/// assert_eq!(value, "fine");
/// assert_eq!(matched.to_string(), "10.1.0.0/16");
/// ```
pub struct PrefixTrie<T> {
    nodes: Vec<Node<T>>,
    len: usize,
    /// Free list of recycled node slots (all-leaf subtrees pruned on remove).
    free: Vec<u32>,
}

impl<T> Default for PrefixTrie<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> PrefixTrie<T> {
    /// An empty trie.
    #[must_use]
    pub fn new() -> Self {
        PrefixTrie {
            nodes: vec![Node::new()],
            len: 0,
            free: Vec::new(),
        }
    }

    /// Number of stored prefixes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no prefixes are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn alloc(&mut self) -> u32 {
        if let Some(i) = self.free.pop() {
            self.nodes[i as usize] = Node::new();
            i
        } else {
            self.nodes.push(Node::new());
            (self.nodes.len() - 1) as u32
        }
    }

    /// Inserts `value` at `prefix`, returning the previous value if any.
    pub fn insert(&mut self, prefix: Prefix, value: T) -> Option<T> {
        let mut idx = 0u32;
        for i in 0..prefix.len() {
            let bit = usize::from(prefix.bit(i));
            let child = self.nodes[idx as usize].children[bit];
            idx = if child == NO_NODE {
                let new = self.alloc();
                self.nodes[idx as usize].children[bit] = new;
                new
            } else {
                child
            };
        }
        let old = self.nodes[idx as usize].value.replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Removes and returns the value at exactly `prefix`.
    pub fn remove(&mut self, prefix: Prefix) -> Option<T> {
        // Walk down recording the path (at most 32 steps, on the stack) so
        // empty leaves can be pruned.
        let mut path = [(0u32, 0usize); 32];
        let mut idx = 0u32;
        for i in 0..prefix.len() {
            let bit = usize::from(prefix.bit(i));
            let child = self.nodes[idx as usize].children[bit];
            if child == NO_NODE {
                return None;
            }
            path[usize::from(i)] = (idx, bit);
            idx = child;
        }
        let removed = self.nodes[idx as usize].value.take()?;
        self.len -= 1;
        // Prune childless, valueless nodes bottom-up.
        let mut cur = idx;
        for &(parent, bit) in path[..usize::from(prefix.len())].iter().rev() {
            let node = &self.nodes[cur as usize];
            if node.value.is_some() || node.children != [NO_NODE, NO_NODE] {
                break;
            }
            self.nodes[parent as usize].children[bit] = NO_NODE;
            self.free.push(cur);
            cur = parent;
        }
        Some(removed)
    }

    fn find(&self, prefix: Prefix) -> Option<u32> {
        let mut idx = 0u32;
        for i in 0..prefix.len() {
            let bit = usize::from(prefix.bit(i));
            let child = self.nodes[idx as usize].children[bit];
            if child == NO_NODE {
                return None;
            }
            idx = child;
        }
        Some(idx)
    }

    /// Exact-match lookup.
    #[must_use]
    pub fn get(&self, prefix: Prefix) -> Option<&T> {
        self.find(prefix)
            .and_then(|i| self.nodes[i as usize].value.as_ref())
    }

    /// Exact-match mutable lookup.
    pub fn get_mut(&mut self, prefix: Prefix) -> Option<&mut T> {
        self.find(prefix)
            .and_then(|i| self.nodes[i as usize].value.as_mut())
    }

    /// Returns the entry for `prefix`, inserting `default()` if vacant.
    pub fn get_or_insert_with(&mut self, prefix: Prefix, default: impl FnOnce() -> T) -> &mut T {
        if self.get(prefix).is_none() {
            self.insert(prefix, default());
        }
        self.get_mut(prefix).expect("just inserted")
    }

    /// Whether `prefix` is stored.
    #[must_use]
    pub fn contains(&self, prefix: Prefix) -> bool {
        self.get(prefix).is_some()
    }

    /// Longest-prefix match for a destination address expressed as a /32
    /// (or any prefix): the most specific stored prefix covering it.
    ///
    /// This is the lookup a router's forwarding cache performs per packet.
    #[must_use]
    pub fn longest_match(&self, dest: Prefix) -> Option<(Prefix, &T)> {
        let mut idx = 0u32;
        let mut best: Option<(Prefix, &T)> = None;
        if let Some(v) = self.nodes[0].value.as_ref() {
            best = Some((Prefix::DEFAULT, v));
        }
        for i in 0..dest.len() {
            let bit = usize::from(dest.bit(i));
            let child = self.nodes[idx as usize].children[bit];
            if child == NO_NODE {
                break;
            }
            idx = child;
            if let Some(v) = self.nodes[idx as usize].value.as_ref() {
                best = Some((Prefix::from_raw(dest.bits(), i + 1), v));
            }
        }
        best
    }

    /// Iterates all `(prefix, value)` pairs in lexicographic (numeric
    /// network, then length) trie order.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter {
            trie: self,
            stack: vec![(0u32, 0u32, 0u8, 0u8)],
        }
    }

    /// All stored prefixes covered by `covering` (including itself).
    /// Drives the aggregation walk: "an autonomous system will maintain a
    /// path to an aggregate supernet prefix as long as a path to one or more
    /// of the component prefixes is available".
    pub fn covered_by(&self, covering: Prefix) -> Vec<(Prefix, &T)> {
        let Some(start) = self.find(covering) else {
            // The covering prefix itself has no node; descend manually.
            return self.iter().filter(|(p, _)| covering.contains(*p)).collect();
        };
        let mut out = Vec::new();
        let mut stack = vec![(start, covering.bits(), covering.len())];
        while let Some((idx, bits, len)) = stack.pop() {
            let node = &self.nodes[idx as usize];
            if let Some(v) = node.value.as_ref() {
                out.push((Prefix::from_raw(bits, len), v));
            }
            for bit in [1usize, 0] {
                let child = node.children[bit];
                if child != NO_NODE {
                    let nbits = if bit == 1 {
                        bits | (1u32 << (31 - len))
                    } else {
                        bits
                    };
                    stack.push((child, nbits, len + 1));
                }
            }
        }
        out.sort_by_key(|(p, _)| (p.bits(), p.len()));
        out
    }

    /// Clears all entries.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.nodes.push(Node::new());
        self.free.clear();
        self.len = 0;
    }
}

/// Depth-first iterator over `(Prefix, &T)`.
pub struct Iter<'a, T> {
    trie: &'a PrefixTrie<T>,
    /// (node index, accumulated bits, depth, next child to visit 0..=2)
    stack: Vec<(u32, u32, u8, u8)>,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = (Prefix, &'a T);

    fn next(&mut self) -> Option<Self::Item> {
        while let Some(top) = self.stack.last_mut() {
            let (idx, bits, depth, stage) = *top;
            let node = &self.trie.nodes[idx as usize];
            match stage {
                0 => {
                    top.3 = 1;
                    if let Some(v) = node.value.as_ref() {
                        return Some((Prefix::from_raw(bits, depth), v));
                    }
                }
                1 => {
                    top.3 = 2;
                    if node.children[0] != NO_NODE {
                        self.stack.push((node.children[0], bits, depth + 1, 0));
                    }
                }
                2 => {
                    top.3 = 3;
                    if node.children[1] != NO_NODE {
                        let nbits = bits | (1u32 << (31 - depth));
                        self.stack.push((node.children[1], nbits, depth + 1, 0));
                    }
                }
                _ => {
                    self.stack.pop();
                }
            }
        }
        None
    }
}

impl<T> FromIterator<(Prefix, T)> for PrefixTrie<T> {
    fn from_iter<I: IntoIterator<Item = (Prefix, T)>>(iter: I) -> Self {
        let mut t = PrefixTrie::new();
        for (p, v) in iter {
            t.insert(p, v);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn insert_get_remove() {
        let mut t = PrefixTrie::new();
        assert!(t.is_empty());
        assert_eq!(t.insert(p("10.0.0.0/8"), "a"), None);
        assert_eq!(t.insert(p("10.0.0.0/8"), "b"), Some("a"));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(p("10.0.0.0/8")), Some(&"b"));
        assert_eq!(t.remove(p("10.0.0.0/8")), Some("b"));
        assert_eq!(t.remove(p("10.0.0.0/8")), None);
        assert!(t.is_empty());
    }

    #[test]
    fn exact_match_does_not_cover() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.0.0.0/8"), 1);
        assert_eq!(t.get(p("10.0.0.0/16")), None);
        assert_eq!(t.get(p("10.0.0.0/7")), None);
    }

    #[test]
    fn longest_match_picks_most_specific() {
        let mut t = PrefixTrie::new();
        t.insert(p("0.0.0.0/0"), "default");
        t.insert(p("10.0.0.0/8"), "eight");
        t.insert(p("10.1.0.0/16"), "sixteen");
        let addr = p("10.1.2.3/32");
        assert_eq!(t.longest_match(addr).unwrap().1, &"sixteen");
        assert_eq!(t.longest_match(p("10.2.0.0/32")).unwrap().1, &"eight");
        assert_eq!(t.longest_match(p("11.0.0.0/32")).unwrap().1, &"default");
    }

    #[test]
    fn longest_match_none_without_default() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.0.0.0/8"), ());
        assert!(t.longest_match(p("11.0.0.0/32")).is_none());
    }

    #[test]
    fn default_route_storable() {
        let mut t = PrefixTrie::new();
        t.insert(Prefix::DEFAULT, 42);
        assert_eq!(t.get(Prefix::DEFAULT), Some(&42));
        assert_eq!(t.len(), 1);
        assert_eq!(t.remove(Prefix::DEFAULT), Some(42));
    }

    #[test]
    fn iteration_is_sorted_and_complete() {
        let prefixes = [
            "10.0.0.0/8",
            "9.0.0.0/8",
            "10.128.0.0/9",
            "10.0.0.0/16",
            "0.0.0.0/0",
        ];
        let mut t = PrefixTrie::new();
        for (i, s) in prefixes.iter().enumerate() {
            t.insert(p(s), i);
        }
        let got: Vec<Prefix> = t.iter().map(|(pfx, _)| pfx).collect();
        assert_eq!(got.len(), prefixes.len());
        let mut expected: Vec<Prefix> = prefixes.iter().map(|s| p(s)).collect();
        expected.sort_by_key(|q| (q.bits(), q.len()));
        // Trie order: parent before child, 0-branch before 1-branch — which
        // equals (bits, len) sort for prefixes.
        assert_eq!(got, expected);
    }

    #[test]
    fn covered_by_returns_subtree() {
        let mut t = PrefixTrie::new();
        for s in ["10.0.0.0/8", "10.0.0.0/16", "10.1.0.0/16", "11.0.0.0/8"] {
            t.insert(p(s), ());
        }
        let covered: Vec<Prefix> = t
            .covered_by(p("10.0.0.0/8"))
            .into_iter()
            .map(|(q, _)| q)
            .collect();
        assert_eq!(
            covered,
            vec![p("10.0.0.0/8"), p("10.0.0.0/16"), p("10.1.0.0/16")]
        );
        // Covering prefix that isn't itself stored.
        let covered2: Vec<Prefix> = t
            .covered_by(p("10.0.0.0/9"))
            .into_iter()
            .map(|(q, _)| q)
            .collect();
        assert_eq!(covered2, vec![p("10.0.0.0/16"), p("10.1.0.0/16")]);
    }

    #[test]
    fn remove_prunes_and_recycles_nodes() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.1.2.0/24"), ());
        let allocated = t.nodes.len();
        t.remove(p("10.1.2.0/24"));
        assert!(
            t.free.len() >= 23,
            "expected pruned chain, got {}",
            t.free.len()
        );
        t.insert(p("10.1.2.0/24"), ());
        assert_eq!(t.nodes.len(), allocated, "slots must be recycled");
    }

    #[test]
    fn remove_keeps_shared_branches() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.0.0.0/8"), 1);
        t.insert(p("10.0.0.0/16"), 2);
        t.remove(p("10.0.0.0/8"));
        assert_eq!(t.get(p("10.0.0.0/16")), Some(&2));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn get_or_insert_with() {
        let mut t: PrefixTrie<Vec<u32>> = PrefixTrie::new();
        t.get_or_insert_with(p("10.0.0.0/8"), Vec::new).push(1);
        t.get_or_insert_with(p("10.0.0.0/8"), Vec::new).push(2);
        assert_eq!(t.get(p("10.0.0.0/8")), Some(&vec![1, 2]));
    }

    #[test]
    fn clear_resets() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.0.0.0/8"), ());
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.get(p("10.0.0.0/8")), None);
        t.insert(p("10.0.0.0/8"), ());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn dense_sibling_prefixes() {
        let mut t = PrefixTrie::new();
        for i in 0u32..256 {
            t.insert(Prefix::from_raw(0xc0a8_0000 | (i << 8), 24), i);
        }
        assert_eq!(t.len(), 256);
        for i in 0u32..256 {
            let q = Prefix::from_raw(0xc0a8_0000 | (i << 8), 24);
            assert_eq!(t.get(q), Some(&i));
        }
        let all = t.covered_by(p("192.168.0.0/16"));
        assert_eq!(all.len(), 256);
    }
}
