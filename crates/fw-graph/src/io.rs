//! Graph file I/O: whitespace-separated edge-list text (the format the
//! SNAP / network-repository datasets ship in, and what GraphWalker
//! consumes) and a compact binary CSR container for fast reloads.
//!
//! Both loaders are streaming and allocate one edge vector; comment lines
//! (`#`, `%`) are skipped in text mode, matching the real datasets'
//! headers.

use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::csr::{Csr, VertexId, MAX_EDGES};

/// Magic bytes of the binary CSR container.
const MAGIC: &[u8; 8] = b"FWCSR\x01\0\0";

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

/// Make room in `v` for the next of `total` entries read from a header
/// count. Capacity at most doubles and never passes `total`, so a header
/// that claims more entries than the input holds fails at the read, not
/// at a huge allocation.
fn reserve_next<T>(v: &mut Vec<T>, total: u64) {
    if v.len() == v.capacity() {
        let step = (v.len() as u64).max(1 << 16).min(total - v.len() as u64);
        v.reserve_exact(step as usize);
    }
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

/// Serialize a CSR to the compact binary container:
/// magic, |V| (u32 LE), |E| (u64 LE), offsets (u64 LE × |V|+1),
/// edges (u32 LE × |E|).
pub fn write_csr<W: Write>(csr: &Csr, mut w: W) -> io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&csr.num_vertices().to_le_bytes())?;
    w.write_all(&csr.num_edges().to_le_bytes())?;
    for v in 0..=csr.num_vertices() {
        let off = if v == csr.num_vertices() {
            csr.num_edges()
        } else {
            csr.edge_start(v)
        };
        w.write_all(&off.to_le_bytes())?;
    }
    for &e in csr.edge_slice() {
        w.write_all(&e.to_le_bytes())?;
    }
    Ok(())
}

/// Deserialize a CSR written by [`write_csr`]. A header claiming more
/// than [`MAX_EDGES`] edges is `InvalidData`, before anything is
/// allocated.
pub fn read_csr<R: Read>(mut r: R) -> io::Result<Csr> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not a FWCSR file",
        ));
    }
    let mut b4 = [0u8; 4];
    let mut b8 = [0u8; 8];
    r.read_exact(&mut b4)?;
    let nv = u32::from_le_bytes(b4);
    r.read_exact(&mut b8)?;
    let ne = u64::from_le_bytes(b8);
    check_edge_count(ne)?;
    let corrupt = || io::Error::new(io::ErrorKind::InvalidData, "corrupt FWCSR payload");
    let mut offsets: Vec<u32> = Vec::new();
    for _ in 0..=nv {
        reserve_next(&mut offsets, nv as u64 + 1);
        r.read_exact(&mut b8)?;
        // At most `ne`, so it fits `u32`.
        let off = u64::from_le_bytes(b8);
        if off > ne {
            return Err(corrupt());
        }
        offsets.push(off as u32);
    }
    let mut edges = Vec::new();
    for _ in 0..ne {
        reserve_next(&mut edges, ne);
        r.read_exact(&mut b4)?;
        edges.push(u32::from_le_bytes(b4));
    }
    // Validate the offsets invariant before constructing.
    if offsets.first() != Some(&0)
        || offsets.last().map(|&o| o as u64) != Some(ne)
        || offsets.windows(2).any(|w| w[0] > w[1])
        || edges.iter().any(|&e| e >= nv)
    {
        return Err(corrupt());
    }
    Ok(Csr::from_parts(offsets, edges))
}

/// Save a CSR to a binary container file.
pub fn save_csr<P: AsRef<Path>>(csr: &Csr, path: P) -> io::Result<()> {
    write_csr(csr, BufWriter::new(File::create(path)?))
}

/// Load a CSR from a binary container file.
pub fn load_csr<P: AsRef<Path>>(path: P) -> io::Result<Csr> {
    read_csr(BufReader::new(File::open(path)?))
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

    #[test]
    fn binary_roundtrip_preserves_everything() {
        let g = generate_csr(RmatParams::graph500(), 500, 8_000, 4);
        let mut buf = Vec::new();
        write_csr(&g, &mut buf).unwrap();
        let g2 = read_csr(Cursor::new(&buf)).unwrap();
        assert_eq!(g.num_vertices(), g2.num_vertices());
        assert_eq!(g.num_edges(), g2.num_edges());
        for v in 0..g.num_vertices() {
            assert_eq!(g.neighbors(v), g2.neighbors(v), "vertex {v}");
        }
    }

    #[test]
    fn binary_reader_rejects_corruption() {
        let g = generate_csr(RmatParams::graph500(), 50, 500, 4);
        let mut buf = Vec::new();
        write_csr(&g, &mut buf).unwrap();
        // Wrong magic.
        let mut bad = buf.clone();
        bad[0] ^= 0xFF;
        assert!(read_csr(Cursor::new(&bad)).is_err());
        // Truncated payload.
        let short = &buf[..buf.len() - 3];
        assert!(read_csr(Cursor::new(short)).is_err());
        // Edge id out of range.
        let mut oob = buf.clone();
        let n = oob.len();
        oob[n - 4..].copy_from_slice(&10_000u32.to_le_bytes());
        assert!(read_csr(Cursor::new(&oob)).is_err());
    }

    /// FWCSR header: magic, |V|, |E|.
    fn header(nv: u32, ne: u64) -> Vec<u8> {
        let mut b = MAGIC.to_vec();
        b.extend(nv.to_le_bytes());
        b.extend(ne.to_le_bytes());
        b
    }

    #[test]
    fn binary_reader_rejects_edge_counts_past_u32_offsets() {
        // |V| = 10 and 11 zero offsets, then a claim of 2^40 edges: refused
        // as data before any allocation is sized from it.
        let mut buf = header(10, 1 << 40);
        buf.extend([0u8; 11 * 8]);
        let err = read_csr(Cursor::new(&buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        // The largest count that fits still parses the header, and a file
        // that does not hold that many edges ends in a short read.
        let mut buf = header(10, MAX_EDGES);
        buf.extend([0u8; 11 * 8]);
        let err = read_csr(Cursor::new(&buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
        // An offset past |E| is corrupt.
        let mut buf = header(1, 0);
        buf.extend(0u64.to_le_bytes());
        buf.extend(1u64.to_le_bytes());
        let err = read_csr(Cursor::new(&buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
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
