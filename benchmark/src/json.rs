//! JSON text from the serde shim's value tree. The shim serialises types
//! *into* a `Value` but gives `Value` itself no `Serialize`, so a borrowed
//! wrapper hands the tree over as it is.

use serde::ser::{Serialize, Value};

struct Tree<'a>(&'a Value);

impl Serialize for Tree<'_> {
    fn serialize_value(&self) -> Value {
        self.0.clone()
    }
}

/// One line.
pub fn compact(v: &Value) -> String {
    serde_json::to_string(&Tree(v)).expect("a value tree serialises")
}

/// Indented, with a final newline.
pub fn pretty(v: &Value) -> String {
    serde_json::to_string_pretty(&Tree(v)).expect("a value tree serialises") + "\n"
}
