//! Graph file I/O: whitespace-separated edge-list text, the format the
//! SNAP / network-repository datasets ship in and what GraphWalker
//! consumes.
//!
//! The loader streams its input into one edge vector; comment lines
//! (`#`, `%`) are skipped, matching the real datasets' headers.

use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use crate::csr::{Csr, VertexId, MAX_EDGES};

/// Parse a whitespace-separated edge list from a reader. Vertex IDs may
/// be any `u32`; the vertex count is `max id + 1` unless `num_vertices`
/// forces a larger space. More than [`MAX_EDGES`] edges is
/// `InvalidData`.
pub fn read_edge_list<R: BufRead>(reader: R, num_vertices: Option<u32>) -> io::Result<Csr> {
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    let mut max_v: u32 = 0;
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let parse = |tok: Option<&str>| -> io::Result<u32> {
            tok.ok_or_else(|| bad_line(lineno))?
                .parse::<u32>()
                .map_err(|_| bad_line(lineno))
        };
        let u = parse(it.next())?;
        let v = parse(it.next())?;
        max_v = max_v.max(u).max(v);
        check_edge_count(edges.len() as u64 + 1)?;
        edges.push((u, v));
    }
    let n = num_vertices
        .unwrap_or(max_v.saturating_add(1))
        .max(max_v.saturating_add(1));
    Ok(Csr::from_edges(n, &edges))
}

/// `InvalidData` unless `edges` fit a [`Csr`]'s `u32` offsets.
fn check_edge_count(edges: u64) -> io::Result<()> {
    if edges > MAX_EDGES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{edges} edges do not fit u32 offsets (at most {MAX_EDGES})"),
        ));
    }
    Ok(())
}

fn bad_line(lineno: usize) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("malformed edge at line {}", lineno + 1),
    )
}

/// Load an edge-list text file.
pub fn load_edge_list<P: AsRef<Path>>(path: P, num_vertices: Option<u32>) -> io::Result<Csr> {
    read_edge_list(BufReader::new(File::open(path)?), num_vertices)
}

/// Write a graph as an edge-list text file (one `src dst` pair per line).
pub fn save_edge_list<P: AsRef<Path>>(csr: &Csr, path: P) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    writeln!(
        w,
        "# {} vertices, {} edges",
        csr.num_vertices(),
        csr.num_edges()
    )?;
    for u in 0..csr.num_vertices() {
        for &v in csr.neighbors(u) {
            writeln!(w, "{u} {v}")?;
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rmat::{generate_csr, RmatParams};
    use std::io::Cursor;

    #[test]
    fn edge_list_roundtrip_via_text() {
        let g = generate_csr(RmatParams::parmat_default(), 200, 2_000, 9);
        let dir = std::env::temp_dir().join("fwgraph_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.txt");
        save_edge_list(&g, &path).unwrap();
        let g2 = load_edge_list(&path, Some(g.num_vertices())).unwrap();
        assert_eq!(g.num_vertices(), g2.num_vertices());
        assert_eq!(g.num_edges(), g2.num_edges());
        for v in 0..g.num_vertices() {
            assert_eq!(g.neighbors(v), g2.neighbors(v));
        }
    }

    #[test]
    fn text_parser_skips_comments_and_rejects_garbage() {
        let text = "# a comment\n% another\n0 1\n1 2\n\n2 0\n";
        let g = read_edge_list(Cursor::new(text), None).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);

        let bad = "0 1\nnot an edge\n";
        let err = read_edge_list(Cursor::new(bad), None).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    /// A text list of 2^32 edges is too large to feed a test, so this
    /// checks the guard `read_edge_list` applies before every edge it
    /// keeps, at the boundary.
    #[test]
    fn text_reader_refuses_edges_past_u32_offsets() {
        assert!(check_edge_count(MAX_EDGES).is_ok());
        let err = check_edge_count(MAX_EDGES + 1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("4294967296 edges"), "{err}");
    }
}
