//! Plain-text road-network interchange format.
//!
//! The paper evaluates on Digital Chart of the World extracts (California,
//! Australia, North America). The DCW download site is long gone, so the
//! workspace ships a generator with matching presets — but this module keeps
//! the door open for real data: a trivially parseable line format that DCW
//! (or OSM) extracts can be converted into with a few lines of awk.
//!
//! ```text
//! # comment
//! n <x> <y>                 # node; ids are assigned 0,1,2,... in file order
//! e <u> <v>                 # straight edge between node ids u and v
//! e <u> <v> w <length>      # straight edge with stretched network length
//! e <u> <v> p <x1> <y1> <x2> <y2> ...   # polyline edge via listed vertices
//! ```
//!
//! Polyline vertex lists are the *interior* vertices; the junction
//! coordinates are prepended/appended automatically.

use crate::network::{NodeId, RoadNetwork};
use crate::{builder::BuildError, NetworkBuilder};
use rn_geom::{Point, Polyline};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

/// Errors raised while reading the text format.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A line could not be parsed; payload is `(line_number, message)`.
    Parse(usize, String),
    /// The parsed data violated a network invariant.
    Build(BuildError),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::Parse(line, msg) => write!(f, "parse error at line {line}: {msg}"),
            IoError::Build(e) => write!(f, "invalid network: {e}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

impl From<BuildError> for IoError {
    fn from(e: BuildError) -> Self {
        IoError::Build(e)
    }
}

/// Parses a network from any reader in the line format described in the
/// module docs.
pub fn read_network<R: Read>(reader: R) -> Result<RoadNetwork, IoError> {
    let mut b = NetworkBuilder::new();
    let buf = BufReader::new(reader);
    for (lineno, line) in buf.lines().enumerate() {
        let lineno = lineno + 1;
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut tok = line.split_whitespace();
        match tok.next() {
            Some("n") => {
                let x = parse_f64(tok.next(), lineno, "node x")?;
                let y = parse_f64(tok.next(), lineno, "node y")?;
                b.add_node(Point::new(x, y));
            }
            Some("e") => {
                let u = NodeId(parse_u32(tok.next(), lineno, "edge u")?);
                let v = NodeId(parse_u32(tok.next(), lineno, "edge v")?);
                match tok.next() {
                    None => {
                        b.add_straight_edge(u, v)?;
                    }
                    Some("w") => {
                        let w = parse_f64(tok.next(), lineno, "edge length")?;
                        b.add_weighted_edge(u, v, w)?;
                    }
                    Some("p") => {
                        let mut verts = vec![node_point(&b, u, lineno)?];
                        let rest: Vec<&str> = tok.collect();
                        if rest.len() % 2 != 0 {
                            return Err(IoError::Parse(
                                lineno,
                                "polyline needs an even number of coordinates".into(),
                            ));
                        }
                        for pair in rest.chunks(2) {
                            let x = parse_f64(Some(pair[0]), lineno, "polyline x")?;
                            let y = parse_f64(Some(pair[1]), lineno, "polyline y")?;
                            verts.push(Point::new(x, y));
                        }
                        verts.push(node_point(&b, v, lineno)?);
                        b.add_polyline_edge(u, v, Polyline::new(verts))?;
                    }
                    Some(other) => {
                        return Err(IoError::Parse(
                            lineno,
                            format!("unknown edge qualifier {other:?}"),
                        ));
                    }
                }
            }
            Some(other) => {
                return Err(IoError::Parse(
                    lineno,
                    format!("unknown record type {other:?}"),
                ));
            }
            None => unreachable!("blank lines are skipped"),
        }
    }
    Ok(b.build()?)
}

fn node_point(b: &NetworkBuilder, n: NodeId, lineno: usize) -> Result<Point, IoError> {
    if n.idx() >= b.node_count() {
        return Err(IoError::Parse(lineno, format!("unknown node id {}", n.0)));
    }
    Ok(b.node_point(n))
}

/// Parses a finite number: `nan`, `inf` and overflowing literals such
/// as `1e309` are parse errors, never coordinates or lengths.
fn parse_f64(tok: Option<&str>, lineno: usize, what: &str) -> Result<f64, IoError> {
    let x: f64 = tok
        .ok_or_else(|| IoError::Parse(lineno, format!("missing {what}")))?
        .parse()
        .map_err(|e| IoError::Parse(lineno, format!("bad {what}: {e}")))?;
    if x.is_finite() {
        Ok(x)
    } else {
        Err(IoError::Parse(
            lineno,
            format!("bad {what}: {x} is not finite"),
        ))
    }
}

fn parse_u32(tok: Option<&str>, lineno: usize, what: &str) -> Result<u32, IoError> {
    tok.ok_or_else(|| IoError::Parse(lineno, format!("missing {what}")))?
        .parse()
        .map_err(|e| IoError::Parse(lineno, format!("bad {what}: {e}")))
}

/// Serialises a network into the text format. Straight edges whose length
/// equals their chord are written as plain `e u v`; stretched straight edges
/// as `e u v w <len>`; polyline edges with their interior vertices.
pub fn write_network<W: Write>(g: &RoadNetwork, mut w: W) -> std::io::Result<()> {
    let mut out = String::with_capacity(64 * (g.node_count() + g.edge_count()));
    for n in g.nodes() {
        writeln!(out, "n {} {}", n.point.x, n.point.y).expect("string write");
    }
    for e in g.edges() {
        let verts = e.geometry.vertices();
        if verts.len() == 2 {
            let chord = e.geometry.chord();
            if (e.length - chord).abs() <= 1e-9 * chord.max(1.0) {
                writeln!(out, "e {} {}", e.u.0, e.v.0).expect("string write");
            } else {
                writeln!(out, "e {} {} w {}", e.u.0, e.v.0, e.length).expect("string write");
            }
        } else {
            write!(out, "e {} {} p", e.u.0, e.v.0).expect("string write");
            for p in &verts[1..verts.len() - 1] {
                write!(out, " {} {}", p.x, p.y).expect("string write");
            }
            out.push('\n');
        }
    }
    w.write_all(out.as_bytes())
}

/// Convenience: load a network from a file path.
pub fn load_network(path: &Path) -> Result<RoadNetwork, IoError> {
    read_network(std::fs::File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rn_geom::approx_eq;

    const SAMPLE: &str = "\
# tiny test network
n 0 0
n 10 0
n 10 10
e 0 1
e 1 2 w 15
e 0 2 p 0 10
";

    #[test]
    fn parses_sample() {
        let g = read_network(SAMPLE.as_bytes()).unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert!(approx_eq(g.edges()[0].length, 10.0));
        assert!(approx_eq(g.edges()[1].length, 15.0));
        // Polyline detour (0,0) -> (0,10) -> (10,10) = 20.
        assert!(approx_eq(g.edges()[2].length, 20.0));
    }

    #[test]
    fn round_trips() {
        let g = read_network(SAMPLE.as_bytes()).unwrap();
        let mut buf = Vec::new();
        write_network(&g, &mut buf).unwrap();
        let g2 = read_network(buf.as_slice()).unwrap();
        assert_eq!(g.node_count(), g2.node_count());
        assert_eq!(g.edge_count(), g2.edge_count());
        for (a, b) in g.edges().iter().zip(g2.edges()) {
            assert_eq!(a.u, b.u);
            assert_eq!(a.v, b.v);
            assert!(approx_eq(a.length, b.length));
        }
    }

    #[test]
    fn rejects_garbage_record() {
        let err = read_network("x 1 2\n".as_bytes()).unwrap_err();
        assert!(matches!(err, IoError::Parse(1, _)));
    }

    #[test]
    fn rejects_short_node_line() {
        let err = read_network("n 5\n".as_bytes()).unwrap_err();
        assert!(matches!(err, IoError::Parse(1, _)));
    }

    #[test]
    fn rejects_unknown_edge_node() {
        let err = read_network("n 0 0\ne 0 9\n".as_bytes()).unwrap_err();
        assert!(matches!(err, IoError::Build(BuildError::UnknownNode(_))));
    }

    #[test]
    fn rejects_odd_polyline_coords() {
        let src = "n 0 0\nn 1 0\ne 0 1 p 0.5\n";
        let err = read_network(src.as_bytes()).unwrap_err();
        assert!(matches!(err, IoError::Parse(3, _)));
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let g = read_network("# hi\n\nn 0 0\n  \nn 1 1\ne 0 1\n".as_bytes()).unwrap();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn rejects_non_finite_node_before_its_edge() {
        let src = "n nan 0\nn 1 0\ne 0 1\n";
        let err = read_network(src.as_bytes()).unwrap_err();
        assert!(matches!(err, IoError::Parse(1, _)));
    }

    #[test]
    fn rejects_non_finite_polyline_vertex() {
        let src = "n 0 0\nn 1 0\ne 0 1 p nan 0\n";
        let err = read_network(src.as_bytes()).unwrap_err();
        assert!(matches!(err, IoError::Parse(3, _)));
    }

    /// The format's tokens: record and qualifier keywords, small ids
    /// (which double as coordinates), and numbers, including every
    /// non-finite spelling `f64::from_str` accepts (`1e309` overflows).
    const TOKENS: [&str; 13] = [
        "n", "e", "w", "p", "0", "1", "2", "0.5", "-1", "nan", "inf", "-inf", "1e309",
    ];

    proptest::proptest! {
        // Most token lines are rejected early, so it takes many cases
        // to reach an edge between parsed nodes.
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2048))]

        /// The parser must never panic: lines of a record keyword, two
        /// numbers and up to three more tokens produce Ok or a
        /// structured error.
        #[test]
        fn parser_never_panics(lines in proptest::collection::vec(
            (0..2usize, 4..13usize, 4..13usize, proptest::collection::vec(0..13usize, 0..4)),
            1..10)) {
            let mut input = String::new();
            for (record, a, b, rest) in &lines {
                let line: Vec<&str> = [*record, *a, *b]
                    .iter()
                    .chain(rest)
                    .map(|&t| TOKENS[t])
                    .collect();
                input.push_str(&line.join(" "));
                input.push('\n');
            }
            let _ = read_network(input.as_bytes());
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Round-trip for generated straight-line chain networks.
        #[test]
        fn chain_round_trips(coords in proptest::collection::vec(
            (-100.0..100.0f64, -100.0..100.0f64), 2..20)) {
            let mut b = NetworkBuilder::new();
            let mut prev: Option<NodeId> = None;
            let mut expected_edges = 0;
            for (x, y) in &coords {
                let n = b.add_node(Point::new(*x, *y));
                if let Some(p) = prev {
                    // Skip zero-length hops (coincident consecutive points).
                    if b.node_point(p).distance(&b.node_point(n)) > 0.0 {
                        b.add_straight_edge(p, n).unwrap();
                        expected_edges += 1;
                    }
                }
                prev = Some(n);
            }
            let g = b.build().unwrap();
            let mut buf = Vec::new();
            write_network(&g, &mut buf).unwrap();
            let g2 = read_network(buf.as_slice()).unwrap();
            proptest::prop_assert_eq!(g2.node_count(), coords.len());
            proptest::prop_assert_eq!(g2.edge_count(), expected_edges);
        }
    }

    #[test]
    fn file_round_trip() {
        let g = read_network(SAMPLE.as_bytes()).unwrap();
        let dir = std::env::temp_dir().join("rn_graph_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("net.txt");
        write_network(&g, std::fs::File::create(&path).unwrap()).unwrap();
        let g2 = load_network(&path).unwrap();
        assert_eq!(g2.node_count(), 3);
        std::fs::remove_file(&path).ok();
    }
}
