//! A clean file whose justified allows name rules that only the call graph
//! scopes: scanned as an explicit path, none of them may read as unused.

use std::collections::HashMap;

pub fn first(v: &[u32]) -> u32 {
    // lmp-lint: allow(no-panic) — callers pass a non-empty slice.
    *v.first().expect("non-empty")
}

pub fn total(m: &HashMap<u32, u32>) -> u32 {
    // lmp-lint: allow(unordered-iter) — a sum does not depend on the order.
    m.values().sum()
}

pub fn parse(s: &str) {
    // lmp-lint: allow(swallowed-error) — a bad number is simply ignored.
    let _ = s.parse::<u32>();
}
