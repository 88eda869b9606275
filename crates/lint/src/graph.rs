//! The workspace call graph: name-wise resolution of call sites into
//! edges between `fn` items, plus deterministic BFS reachability with
//! parent pointers (for `--explain` call chains).
//!
//! Resolution is receiver-ignorant by design: a method call `x.foo(...)`
//! links to *every* non-test library `fn foo`. That over-approximates —
//! which is the correct direction for a coverage gate (a spurious edge can
//! only widen the enforced set, never silently shrink it). `Qual::foo`
//! path calls, and `self.foo` calls inside `impl Qual`, are narrowed to
//! items whose enclosing `impl`/`mod` matches `Qual` when any exist.

use crate::items::{CallKind, FileItems, FnItem};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// What role a file plays in the workspace. Only `Lib` functions are graph
/// nodes: binaries and integration tests may freely define helpers whose
/// names collide with library items, and neither ships on the recoverable
/// or digest path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FileRole {
    Lib,
    Bin,
    Test,
}

/// Classify a workspace-relative path (with `/` separators).
pub(crate) fn file_role(path: &str) -> FileRole {
    if path.contains("/tests/") || path.starts_with("tests/") {
        FileRole::Test
    } else if path.contains("/bin/")
        || path.ends_with("/main.rs")
        || path == "main.rs"
        || path.contains("/examples/")
        || path.starts_with("examples/")
    {
        FileRole::Bin
    } else {
        FileRole::Lib
    }
}

/// One graph node: a library `fn` with its home file.
#[derive(Debug, Clone)]
pub(crate) struct Node {
    pub(crate) file: String,
    pub(crate) item: FnItem,
}

/// The resolved workspace call graph over library (non-`cfg(test)`) fns.
pub(crate) struct Graph {
    pub(crate) nodes: Vec<Node>,
    /// Forward edges `caller -> callees`, deduped, ascending.
    pub(crate) edges: Vec<Vec<usize>>,
    /// Reverse edges `callee -> callers`, deduped, ascending.
    pub(crate) redges: Vec<Vec<usize>>,
    by_name: BTreeMap<String, Vec<usize>>,
}

impl Graph {
    /// Build the graph from per-file item extractions. `files` must be in
    /// deterministic (sorted-path) order; node indices follow it.
    pub(crate) fn build(files: &[(String, FileItems)]) -> Graph {
        let mut nodes = Vec::new();
        for (path, items) in files {
            if file_role(path) != FileRole::Lib {
                continue;
            }
            for f in &items.fns {
                if f.is_test {
                    continue;
                }
                nodes.push(Node {
                    file: path.clone(),
                    item: f.clone(),
                });
            }
        }
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (idx, n) in nodes.iter().enumerate() {
            by_name.entry(n.item.name.clone()).or_default().push(idx);
        }
        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
        let mut redges: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
        for caller in 0..nodes.len() {
            let mut targets = BTreeSet::new();
            for call in &nodes[caller].item.calls {
                let Some(cands) = by_name.get(&call.name) else {
                    continue;
                };
                match call.kind {
                    CallKind::Path => {
                        // Narrow to the named qual when that matches
                        // anything; otherwise keep every candidate (the
                        // qual may be a module alias we can't see, or a
                        // `self` method may come from a trait).
                        let narrowed: Vec<usize> = cands
                            .iter()
                            .copied()
                            .filter(|&t| {
                                Some(nodes[t].item.qual.as_str())
                                    == call.qual.as_deref()
                            })
                            .collect();
                        if narrowed.is_empty() {
                            targets.extend(cands.iter().copied());
                        } else {
                            targets.extend(narrowed);
                        }
                    }
                    CallKind::Method | CallKind::Free => {
                        targets.extend(cands.iter().copied());
                    }
                }
            }
            targets.remove(&caller); // Self-loops add nothing.
            for t in targets {
                edges[caller].push(t);
                redges[t].push(caller);
            }
        }
        Graph {
            nodes,
            edges,
            redges,
            by_name,
        }
    }

    /// Indices of every node named `name`.
    pub(crate) fn named(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// BFS over `edges` (or `redges` when `reverse`) from `seeds`.
    /// Returns, for each node, `Some(parent)` mapping discovered nodes to
    /// the node they were first reached from (seeds map to themselves).
    /// Deterministic: seeds are visited in ascending index order and
    /// adjacency lists are ascending.
    pub(crate) fn reach(
        &self,
        seeds: &BTreeSet<usize>,
        reverse: bool,
    ) -> Vec<Option<usize>> {
        let adj = if reverse { &self.redges } else { &self.edges };
        let mut parent: Vec<Option<usize>> = vec![None; self.nodes.len()];
        let mut q = VecDeque::new();
        for &s in seeds {
            parent[s] = Some(s);
            q.push_back(s);
        }
        while let Some(u) = q.pop_front() {
            for &v in &adj[u] {
                if parent[v].is_none() {
                    parent[v] = Some(u);
                    q.push_back(v);
                }
            }
        }
        parent
    }

    /// The seed-to-`node` call chain implied by BFS `parent` pointers,
    /// rendered one `qual::name (file:line)` hop per entry, seed first.
    pub(crate) fn chain(&self, parent: &[Option<usize>], node: usize) -> Vec<String> {
        let mut hops = Vec::new();
        let mut cur = node;
        let mut steps = 0;
        while let Some(p) = parent[cur] {
            hops.push(self.label(cur));
            if p == cur || steps > self.nodes.len() {
                break;
            }
            cur = p;
            steps += 1;
        }
        hops.reverse();
        hops
    }

    /// `qual::name (file:line)` for one node.
    pub(crate) fn label(&self, idx: usize) -> String {
        let n = &self.nodes[idx];
        let q = if n.item.qual.is_empty() {
            String::new()
        } else {
            format!("{}::", n.item.qual)
        };
        format!("{q}{} ({}:{})", n.item.name, n.file, n.item.line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::extract;
    use crate::scan::prepare;

    fn build(files: &[(&str, &str)]) -> Graph {
        let items: Vec<(String, FileItems)> = files
            .iter()
            .map(|(p, s)| (p.to_string(), extract(&prepare(s))))
            .collect();
        Graph::build(&items)
    }

    #[test]
    fn cross_file_free_calls_resolve() {
        let g = build(&[
            ("crates/a/src/lib.rs", "pub fn entry() { helper(); }\n"),
            ("crates/b/src/util.rs", "pub fn helper() {}\n"),
        ]);
        let entry = g.named("entry")[0];
        let helper = g.named("helper")[0];
        assert_eq!(g.edges[entry], vec![helper]);
        assert_eq!(g.redges[helper], vec![entry]);
    }

    #[test]
    fn qual_narrows_path_calls() {
        let g = build(&[(
            "crates/a/src/lib.rs",
            "impl Pool { pub fn new() -> Pool { Pool } }\n\
             impl Fabric { pub fn new() -> Fabric { Fabric } }\n\
             pub fn make() { Pool::new(); }\n",
        )]);
        let make = g.named("make")[0];
        assert_eq!(g.edges[make].len(), 1);
        assert_eq!(g.nodes[g.edges[make][0]].item.qual, "Pool");
    }

    #[test]
    fn self_calls_narrow_to_the_enclosing_impl() {
        let g = build(&[(
            "crates/a/src/lib.rs",
            "impl Cache { fn tick(&mut self) {} pub fn get(&mut self) { self.tick(); self.flush(); } }\n\
             impl Controller { pub fn tick(&mut self) {} }\n\
             impl Sink { pub fn flush(&mut self) {} }\n\
             trait Clock { fn now(&mut self) { self.tick(); } }\n",
        )]);
        let quals = |f: &str| -> Vec<&str> {
            let callee = |&t: &usize| g.nodes[t].item.qual.as_str();
            g.edges[g.named(f)[0]].iter().map(callee).collect()
        };
        // `tick` resolves to Cache's own; Cache has no `flush`, so that
        // call keeps every candidate. In a trait's default method `self`
        // is any implementor.
        assert_eq!(quals("get"), ["Cache", "Sink"]);
        assert_eq!(quals("now"), ["Cache", "Controller"]);
    }

    #[test]
    fn method_calls_fan_out_to_all_names() {
        let g = build(&[(
            "crates/a/src/lib.rs",
            "impl A { pub fn step(&self) {} }\n\
             impl B { pub fn step(&self) {} }\n\
             pub fn tick(x: &A) { x.step(); }\n",
        )]);
        let tick = g.named("tick")[0];
        assert_eq!(g.edges[tick].len(), 2);
    }

    #[test]
    fn test_and_bin_fns_are_not_nodes() {
        let g = build(&[
            ("crates/a/src/lib.rs", "pub fn real() {}\n"),
            ("crates/a/tests/it.rs", "fn real() {}\nfn driver() { real(); }\n"),
            ("crates/a/src/bin/tool.rs", "fn main() { real(); }\n"),
        ]);
        assert_eq!(g.nodes.len(), 1);
        assert_eq!(g.named("real").len(), 1);
        assert!(g.named("driver").is_empty());
        assert!(g.named("main").is_empty());
    }

    #[test]
    fn bfs_chain_reports_seed_first() {
        let g = build(&[(
            "crates/a/src/lib.rs",
            "pub fn seed() { mid(); }\nfn mid() { leaf(); }\nfn leaf() {}\n",
        )]);
        let seed = g.named("seed")[0];
        let leaf = g.named("leaf")[0];
        let mut seeds = BTreeSet::new();
        seeds.insert(seed);
        let parent = g.reach(&seeds, false);
        assert!(parent[leaf].is_some());
        let chain = g.chain(&parent, leaf);
        assert_eq!(chain.len(), 3);
        assert!(chain[0].starts_with("seed"));
        assert!(chain[2].starts_with("leaf"));
    }
}
