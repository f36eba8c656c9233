//! A top-down splay tree over disjoint byte ranges.
//!
//! SAFECode's array-bounds strategy (paper §4.1, following Jones–Kelly with
//! the splay-tree refinement of the DSE/ICSE'06 paper) records every registered object in a
//! per-pool search tree and looks pointers up at check time. Splaying moves
//! recently checked objects to the root, so the common pattern — many checks
//! against the same few objects — costs near-constant amortized time. That
//! locality is a load-bearing property of the paper's performance results,
//! which is why this is a real splay tree and not a `BTreeMap`. Metapools
//! keep it as that baseline (`VmConfig::fast_path = false`); by default
//! they register objects in a sorted range index instead.
//!
//! Nodes live in an index-based arena with a free list; no recursion, no
//! `Box` chains, no unsafe code.

/// Sentinel for "no node".
const NIL: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct Node {
    /// Inclusive start address of the range.
    start: u64,
    /// Exclusive end address.
    end: u64,
    left: u32,
    right: u32,
}

/// A splay tree of disjoint, non-empty ranges `[start, end)` keyed by start.
#[derive(Clone, Debug, Default)]
pub struct SplayTree {
    nodes: Vec<Node>,
    free: Vec<u32>,
    root: u32,
    len: usize,
}

impl SplayTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        SplayTree {
            nodes: Vec::new(),
            free: Vec::new(),
            root: NIL,
            len: 0,
        }
    }

    /// Number of ranges stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the tree stores nothing.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn alloc(&mut self, start: u64, end: u64) -> u32 {
        let node = Node {
            start,
            end,
            left: NIL,
            right: NIL,
        };
        if let Some(i) = self.free.pop() {
            self.nodes[i as usize] = node;
            i
        } else {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        }
    }

    /// Top-down splay: moves the node with the greatest `start <= key` (or
    /// the smallest node if none) to the root. No-op on an empty tree.
    fn splay(&mut self, key: u64) {
        if self.root == NIL {
            return;
        }
        // Temporary header node assembled on the stack of left/right trees.
        let mut left_tail: u32 = NIL;
        let mut right_tail: u32 = NIL;
        let mut left_head: u32 = NIL;
        let mut right_head: u32 = NIL;
        let mut t = self.root;

        loop {
            let ts = self.nodes[t as usize].start;
            if key < ts {
                let mut l = self.nodes[t as usize].left;
                if l == NIL {
                    break;
                }
                if key < self.nodes[l as usize].start {
                    // Rotate right.
                    self.nodes[t as usize].left = self.nodes[l as usize].right;
                    self.nodes[l as usize].right = t;
                    t = l;
                    l = self.nodes[t as usize].left;
                    if l == NIL {
                        break;
                    }
                }
                // Link right.
                if right_tail == NIL {
                    right_head = t;
                } else {
                    self.nodes[right_tail as usize].left = t;
                }
                right_tail = t;
                t = l;
            } else if key > ts {
                let mut r = self.nodes[t as usize].right;
                if r == NIL {
                    break;
                }
                if key > self.nodes[r as usize].start {
                    // Rotate left.
                    self.nodes[t as usize].right = self.nodes[r as usize].left;
                    self.nodes[r as usize].left = t;
                    t = r;
                    r = self.nodes[t as usize].right;
                    if r == NIL {
                        break;
                    }
                }
                // Link left.
                if left_tail == NIL {
                    left_head = t;
                } else {
                    self.nodes[left_tail as usize].right = t;
                }
                left_tail = t;
                t = r;
            } else {
                break;
            }
        }

        // Reassemble.
        if left_tail == NIL {
            left_head = self.nodes[t as usize].left;
        } else {
            self.nodes[left_tail as usize].right = self.nodes[t as usize].left;
        }
        if right_tail == NIL {
            right_head = self.nodes[t as usize].right;
        } else {
            self.nodes[right_tail as usize].left = self.nodes[t as usize].right;
        }
        self.nodes[t as usize].left = left_head;
        self.nodes[t as usize].right = right_head;
        self.root = t;
    }

    /// Inserts the range `[start, start + len)`.
    ///
    /// Returns `false` (and stores nothing) if `len == 0` or the range would
    /// overlap an existing one.
    pub fn insert(&mut self, start: u64, len: u64) -> bool {
        let Some(end) = start.checked_add(len) else {
            return false;
        };
        if len == 0 {
            return false;
        }
        if self.root == NIL {
            self.root = self.alloc(start, end);
            self.len = 1;
            return true;
        }
        self.splay(start);
        let r = self.root as usize;
        let (rs, re) = (self.nodes[r].start, self.nodes[r].end);
        if rs == start {
            return false;
        }
        if rs < start {
            // Root is the predecessor; check overlap on both sides.
            if re > start {
                return false;
            }
            let succ = self.nodes[r].right;
            if succ != NIL {
                // Leftmost of the right subtree is the successor.
                let mut s = succ;
                while self.nodes[s as usize].left != NIL {
                    s = self.nodes[s as usize].left;
                }
                if self.nodes[s as usize].start < end {
                    return false;
                }
            }
            let n = self.alloc(start, end);
            self.nodes[n as usize].right = self.nodes[r].right;
            self.nodes[n as usize].left = self.root;
            self.nodes[r].right = NIL;
            self.root = n;
        } else {
            // Root is the successor (key < root.start).
            if end > rs {
                return false;
            }
            // The predecessor, if any, is the rightmost of root's left
            // subtree; splay brought the closest <= key to the root only if
            // one exists, so here no node has start <= key in the left spine
            // root path. Still check the rightmost left descendant.
            let pred = self.nodes[r].left;
            if pred != NIL {
                let mut pn = pred;
                while self.nodes[pn as usize].right != NIL {
                    pn = self.nodes[pn as usize].right;
                }
                if self.nodes[pn as usize].end > start {
                    return false;
                }
            }
            let n = self.alloc(start, end);
            self.nodes[n as usize].left = self.nodes[r].left;
            self.nodes[n as usize].right = self.root;
            self.nodes[r].left = NIL;
            self.root = n;
        }
        self.len += 1;
        true
    }

    /// Finds the range containing `addr`, splaying it (or a neighbour) to
    /// the root. Returns `(start, end)` on a hit.
    pub fn lookup(&mut self, addr: u64) -> Option<(u64, u64)> {
        if self.root == NIL {
            return None;
        }
        self.splay(addr);
        let r = self.nodes[self.root as usize];
        if r.start <= addr {
            return if addr < r.end {
                Some((r.start, r.end))
            } else {
                None
            };
        }
        // Top-down splay can finish with the *successor* at the root while
        // the predecessor — the only candidate range containing `addr` —
        // is the maximum of the left subtree. Splay it up and re-root so the
        // hot object still ends at the root.
        let l = r.left;
        if l == NIL {
            return None;
        }
        // All keys in the left subtree are < addr, so this splay brings the
        // predecessor (subtree maximum) to the subtree root with an empty
        // right child.
        self.nodes[self.root as usize].left = NIL;
        let old_root = self.root;
        self.root = l;
        self.splay(addr);
        debug_assert_eq!(self.nodes[self.root as usize].right, NIL);
        self.nodes[self.root as usize].right = old_root;
        let p = self.nodes[self.root as usize];
        if p.start <= addr && addr < p.end {
            Some((p.start, p.end))
        } else {
            None
        }
    }

    /// Removes the range starting exactly at `start`. Returns the removed
    /// `(start, end)` or `None`.
    pub fn remove(&mut self, start: u64) -> Option<(u64, u64)> {
        if self.root == NIL {
            return None;
        }
        self.splay(start);
        let r = self.root;
        let node = self.nodes[r as usize];
        if node.start != start {
            return None;
        }
        let (l, rt) = (node.left, node.right);
        self.root = if l == NIL {
            rt
        } else {
            // Splay the predecessor of `start` to the top of the left
            // subtree, then hang the right subtree off it.
            let old_root = self.root;
            self.root = l;
            self.splay(start);
            debug_assert_ne!(self.root, old_root);
            self.nodes[self.root as usize].right = rt;
            self.root
        };
        self.free.push(r);
        self.len -= 1;
        Some((node.start, node.end))
    }

    /// Removes every range, keeping capacity.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.free.clear();
        self.root = NIL;
        self.len = 0;
    }

    /// In-order iteration (ascending by start); allocates a traversal stack.
    pub fn iter_ranges(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::with_capacity(self.len);
        let mut stack = Vec::new();
        let mut cur = self.root;
        while cur != NIL || !stack.is_empty() {
            while cur != NIL {
                stack.push(cur);
                cur = self.nodes[cur as usize].left;
            }
            let n = stack.pop().unwrap();
            let node = &self.nodes[n as usize];
            out.push((node.start, node.end));
            cur = node.right;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_lookup_basic() {
        let mut t = SplayTree::new();
        assert!(t.insert(100, 50));
        assert!(t.insert(200, 10));
        assert!(t.insert(10, 5));
        assert_eq!(t.len(), 3);
        assert_eq!(t.lookup(100), Some((100, 150)));
        assert_eq!(t.lookup(149), Some((100, 150)));
        assert_eq!(t.lookup(150), None);
        assert_eq!(t.lookup(205), Some((200, 210)));
        assert_eq!(t.lookup(12), Some((10, 15)));
        assert_eq!(t.lookup(50), None);
        assert_eq!(t.lookup(5), None);
    }

    #[test]
    fn rejects_overlap_and_empty() {
        let mut t = SplayTree::new();
        assert!(t.insert(100, 50));
        assert!(!t.insert(100, 50), "duplicate start");
        assert!(!t.insert(149, 1), "tail overlap");
        assert!(!t.insert(90, 20), "head overlap");
        assert!(!t.insert(90, 200), "containing overlap");
        assert!(!t.insert(120, 4), "inner overlap");
        assert!(!t.insert(40, 0), "empty range");
        assert!(t.insert(150, 1), "adjacent after is fine");
        assert!(t.insert(99, 1), "adjacent before is fine");
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn remove_restores_space() {
        let mut t = SplayTree::new();
        assert!(t.insert(100, 50));
        assert!(t.insert(200, 50));
        assert_eq!(t.remove(100), Some((100, 150)));
        assert_eq!(t.remove(100), None);
        assert_eq!(t.lookup(120), None);
        assert_eq!(t.lookup(220), Some((200, 250)));
        assert!(t.insert(100, 50), "reinsert after remove");
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn remove_root_with_both_children() {
        let mut t = SplayTree::new();
        for s in [500u64, 300, 700, 200, 400, 600, 800] {
            assert!(t.insert(s, 10));
        }
        assert_eq!(t.remove(500), Some((500, 510)));
        assert_eq!(t.len(), 6);
        for s in [300u64, 700, 200, 400, 600, 800] {
            assert_eq!(t.lookup(s + 5), Some((s, s + 10)), "start {s}");
        }
        assert_eq!(t.lookup(505), None);
    }

    #[test]
    fn iter_ranges_is_sorted() {
        let mut t = SplayTree::new();
        let starts = [50u64, 10, 90, 30, 70, 20, 60];
        for s in starts {
            assert!(t.insert(s, 5));
        }
        let v = t.iter_ranges();
        let mut sorted: Vec<u64> = starts.to_vec();
        sorted.sort_unstable();
        assert_eq!(v.iter().map(|r| r.0).collect::<Vec<_>>(), sorted);
    }

    #[test]
    fn overflow_range_rejected() {
        let mut t = SplayTree::new();
        assert!(!t.insert(u64::MAX - 1, 5));
        assert!(t.insert(u64::MAX - 5, 5));
        assert_eq!(t.lookup(u64::MAX - 1), Some((u64::MAX - 5, u64::MAX)));
    }

    #[test]
    fn repeated_lookup_splays_to_root() {
        // Not directly observable, but exercise heavy repeated lookups to
        // catch any splay corruption.
        let mut t = SplayTree::new();
        for i in 0..1000u64 {
            assert!(t.insert(i * 16, 16));
        }
        for _ in 0..10 {
            for i in (0..1000u64).rev() {
                assert_eq!(t.lookup(i * 16 + 8), Some((i * 16, i * 16 + 16)));
            }
        }
        assert_eq!(t.len(), 1000);
    }

    #[test]
    fn lookup_hits_predecessor_behind_successor_root() {
        // Regression: a right-leaning tree where splay(key) leaves the
        // successor at the root and the containing range in the left
        // subtree.
        let mut t = SplayTree::new();
        assert!(t.insert(10, 15)); // [10, 25)
        assert!(t.insert(30, 5)); // [30, 35)
                                  // Force 30 toward the root.
        assert_eq!(t.lookup(30), Some((30, 35)));
        // Now search between the two ranges' starts but inside [10, 25).
        assert_eq!(t.lookup(20), Some((10, 25)));
        // And a miss strictly between the ranges.
        assert_eq!(t.lookup(27), None);
        // Tree is still consistent afterwards.
        assert_eq!(t.lookup(32), Some((30, 35)));
        assert_eq!(t.iter_ranges(), vec![(10, 25), (30, 35)]);
    }

    #[test]
    fn randomized_against_model() {
        // Deterministic pseudo-random workload cross-checked against a
        // Vec-based model.
        let mut t = SplayTree::new();
        let mut model: Vec<(u64, u64)> = Vec::new();
        let mut state = 0x12345678u64;
        let mut rng = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..4000 {
            let op = rng() % 3;
            let start = (rng() % 1000) * 8;
            let len = rng() % 64 + 1;
            match op {
                0 => {
                    let overlaps = model.iter().any(|&(s, e)| s < start + len && start < e);
                    let ok = t.insert(start, len);
                    assert_eq!(ok, !overlaps, "insert [{start}, {})", start + len);
                    if ok {
                        model.push((start, start + len));
                    }
                }
                1 => {
                    let addr = rng() % 8200;
                    let expected = model.iter().copied().find(|&(s, e)| s <= addr && addr < e);
                    assert_eq!(t.lookup(addr), expected, "lookup {addr}");
                }
                _ => {
                    let expected = model.iter().position(|&(s, _)| s == start);
                    let got = t.remove(start);
                    match expected {
                        Some(i) => {
                            assert_eq!(got, Some(model[i]));
                            model.swap_remove(i);
                        }
                        None => assert_eq!(got, None),
                    }
                }
            }
            assert_eq!(t.len(), model.len());
        }
    }

    #[test]
    fn clear_empties() {
        let mut t = SplayTree::new();
        t.insert(1, 1);
        t.insert(10, 1);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.lookup(1), None);
        assert!(t.insert(1, 1));
    }
}
