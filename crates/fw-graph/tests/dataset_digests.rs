//! The CSR of every Table IV stand-in at seed 42, pinned by digest.
//!
//! Host-side work on the RMAT generator or the CSR builder must leave
//! every graph byte-identical: every simulated result downstream is a
//! function of these bytes. One test per dataset, so they run in
//! parallel. A digest that moves marks a model change: state it and
//! re-pin the digests.

use fw_graph::{Dataset, DatasetId};

/// FNV-1a, 64-bit, continued from `h` over `bytes`.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// FNV-1a of the offsets as u64 LE (`edge_start(v)` for every v, then
/// `num_edges()`), followed by the edges as u32 LE.
fn csr_digest(id: DatasetId) -> u64 {
    let g = Dataset::generate(id, 42).csr;
    let offsets = (0..g.num_vertices())
        .map(|v| g.edge_start(v))
        .chain([g.num_edges()]);
    let h = offsets.fold(0xcbf2_9ce4_8422_2325, |h, o| fnv1a(h, &o.to_le_bytes()));
    g.edge_slice()
        .iter()
        .fold(h, |h, e| fnv1a(h, &e.to_le_bytes()))
}

fn check(id: DatasetId, want: u64) {
    let got = csr_digest(id);
    assert_eq!(got, want, "{} CSR digest moved: {got:#018x}", id.abbrev());
}

#[test]
fn tt_csr_matches_its_pinned_digest() {
    check(DatasetId::Twitter, 0xd003_a490_0456_7114);
}

#[test]
fn fs_csr_matches_its_pinned_digest() {
    check(DatasetId::Friendster, 0xb662_7a62_544b_ac1a);
}

#[test]
fn cw_csr_matches_its_pinned_digest() {
    check(DatasetId::ClueWeb, 0xbf82_2346_91ab_703d);
}

#[test]
fn r2b_csr_matches_its_pinned_digest() {
    check(DatasetId::Rmat2B, 0x1adb_39e2_5035_762e);
}

#[test]
fn r8b_csr_matches_its_pinned_digest() {
    check(DatasetId::Rmat8B, 0xe5f7_ceb4_6e99_f2c9);
}
