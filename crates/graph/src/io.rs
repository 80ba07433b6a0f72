//! Plain-text edge-list serialization: the interchange format for feeding
//! external graphs (e.g. social-network snapshots) into the simulators.
//!
//! Format: first line `n`, then one `u v` pair per line (whitespace
//! separated). Lines starting with `#` and blank lines are ignored.

use crate::arena::ArenaGraph;
use std::fmt::Write as _;

/// Errors arising when parsing an edge list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The header (node count) line is missing or malformed.
    BadHeader(String),
    /// An edge line could not be parsed.
    BadEdge {
        /// 1-based line number.
        line: usize,
        /// The offending line.
        content: String,
    },
    /// An endpoint is out of `0..n`.
    NodeOutOfRange {
        /// 1-based line number.
        line: usize,
        /// The offending node id.
        node: u32,
        /// Declared node count.
        n: usize,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::BadHeader(s) => write!(f, "bad header line: {s:?}"),
            ParseError::BadEdge { line, content } => {
                write!(f, "bad edge at line {line}: {content:?}")
            }
            ParseError::NodeOutOfRange { line, node, n } => {
                write!(f, "node {node} out of range 0..{n} at line {line}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

fn parse_lines(text: &str) -> Result<(usize, Vec<(u32, u32)>), ParseError> {
    let mut lines = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'));
    let (_, header) = lines
        .next()
        .ok_or_else(|| ParseError::BadHeader("<empty input>".into()))?;
    let n: usize = header
        .parse()
        .map_err(|_| ParseError::BadHeader(header.to_string()))?;
    let mut edges = Vec::new();
    for (lineno, line) in lines {
        let mut it = line.split_whitespace();
        let (a, b) = match (it.next(), it.next(), it.next()) {
            (Some(a), Some(b), None) => (a, b),
            _ => {
                return Err(ParseError::BadEdge {
                    line: lineno,
                    content: line.to_string(),
                })
            }
        };
        let parse = |s: &str| {
            s.parse::<u32>().map_err(|_| ParseError::BadEdge {
                line: lineno,
                content: line.to_string(),
            })
        };
        let (a, b) = (parse(a)?, parse(b)?);
        for v in [a, b] {
            if v as usize >= n {
                return Err(ParseError::NodeOutOfRange {
                    line: lineno,
                    node: v,
                    n,
                });
            }
        }
        edges.push((a, b));
    }
    Ok((n, edges))
}

/// Parses an undirected graph from edge-list text.
pub fn parse_undirected(text: &str) -> Result<ArenaGraph, ParseError> {
    let (n, edges) = parse_lines(text)?;
    Ok(ArenaGraph::from_edges(n, edges))
}

/// Renders an undirected graph as edge-list text (canonical edge order).
pub fn write_undirected(g: &ArenaGraph) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{}", g.n());
    for e in g.edges() {
        let _ = writeln!(out, "{} {}", e.a, e.b);
    }
    out
}

/// Convenience: canonical sorted edge tuples, useful in tests.
pub fn edge_tuples(g: &ArenaGraph) -> Vec<(u32, u32)> {
    g.edges().map(|e| (e.a.0, e.b.0)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn roundtrip_undirected() {
        let g = generators::lollipop(4, 3);
        let text = write_undirected(&g);
        let g2 = parse_undirected(&text).unwrap();
        assert!(g.same_edges(&g2));
    }

    #[test]
    fn parse_with_comments_and_blanks() {
        let text = "# a graph\n\n4\n0 1\n# middle comment\n2 3\n";
        let g = parse_undirected(text).unwrap();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 2);
    }

    #[test]
    fn parse_errors() {
        assert!(matches!(
            parse_undirected(""),
            Err(ParseError::BadHeader(_))
        ));
        assert!(matches!(
            parse_undirected("x\n"),
            Err(ParseError::BadHeader(_))
        ));
        assert!(matches!(
            parse_undirected("3\n0\n"),
            Err(ParseError::BadEdge { .. })
        ));
        assert!(matches!(
            parse_undirected("3\n0 1 2\n"),
            Err(ParseError::BadEdge { .. })
        ));
        let err = parse_undirected("3\n0 7\n").unwrap_err();
        assert!(matches!(err, ParseError::NodeOutOfRange { node: 7, .. }));
        // Errors display something readable.
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn same_edges_detects_difference() {
        let a = generators::path(4);
        let mut b = generators::path(4);
        assert!(a.same_edges(&b));
        b.add_edge(crate::node::NodeId(0), crate::node::NodeId(2));
        assert!(!a.same_edges(&b));
    }
}
