//! Probes that pin `DramSpec::hbm2e_16gb`'s row and bank timings.
//!
//! A long sequential stream is bus-bound, so the paper anchors barely
//! move when a row timing changes. Each probe here issues a handful of
//! single bursts whose completion cycles are set by one or two timings,
//! and pins those cycles exactly:
//!
//! | probe | bound by |
//! |---|---|
//! | `same_bank_row_misses` | `t_rcd`, `t_cl`, `t_ras`, `t_rp` |
//! | `act_burst_across_one_rank` | `t_rrd`, `t_faw` |
//! | `same_bank_read_pair` | `t_ccd_l` |
//! | `cross_bank_group_read_pair` | the data bus (`t_ccd_s` is not modelled) |
//! | `write_then_read` | `t_cwl` |
//!
//! Every probe starts on a fresh system, whose first access to a rank
//! waits out that rank's first refresh (`t_refi` + `t_rfc` = cycle 6800),
//! so all pinned cycles sit just past it.

use hbm_sim::{AccessKind, AddressMap, DecodedAddr, DramSpec, MemorySystem};

/// The byte address of column 0 of `row` in the given bank of channel
/// 0, rank 0.
fn addr(bank_group: usize, bank: usize, row: u64) -> u64 {
    let spec = DramSpec::hbm2e_16gb();
    let per_row = (spec.row_bytes / spec.access_bytes()) as u64;
    let bank_index = (bank * spec.bank_groups + bank_group) as u64;
    let burst = (row * spec.ranks as u64 * per_row * spec.banks_per_rank() as u64 + bank_index)
        * spec.channels as u64;
    let a = burst * spec.access_bytes() as u64;
    assert_eq!(
        AddressMap::new(spec).decode(a),
        DecodedAddr {
            channel: 0,
            rank: 0,
            bank_group,
            bank,
            row,
            column: 0,
        }
    );
    a
}

/// Issues every access at cycle 0 on a fresh HBM2e system and returns
/// the completion cycles.
fn run(accesses: &[(AccessKind, u64)]) -> Vec<u64> {
    let mut mem = MemorySystem::new(DramSpec::hbm2e_16gb());
    accesses
        .iter()
        .map(|&(kind, a)| mem.access(kind, a, 0))
        .collect()
}

#[test]
fn same_bank_row_misses() {
    // Row 0 opens at 6800 and reads at ACT + t_rcd + t_cl. Each later
    // row must wait t_ras after the previous ACT, precharge for t_rp,
    // then activate and read again.
    let rows = [0, 1, 2].map(|row| (AccessKind::Read, addr(0, 0, row)));
    assert_eq!(run(&rows), [6848, 6923, 6998]);
}

#[test]
fn act_burst_across_one_rank() {
    // Six banks of one rank, each opened by its own ACT: ACTs are
    // spaced t_rrd apart, and the fifth waits until t_faw after the
    // first.
    let banks = [(0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (1, 1)];
    let reads = banks.map(|(g, b)| (AccessKind::Read, addr(g, b, 0)));
    assert_eq!(run(&reads), [6848, 6854, 6860, 6866, 6872, 6878]);
}

#[test]
fn same_bank_read_pair() {
    // Two row hits on one bank: the second column command waits t_ccd_l
    // after the first.
    let a = addr(0, 0, 0);
    assert_eq!(
        run(&[(AccessKind::Read, a), (AccessKind::Read, a)]),
        [6848, 6852]
    );
}

#[test]
fn cross_bank_group_read_pair() {
    // Rows open in two bank groups, then one hit on each: the second
    // read follows the first on the data bus one burst later.
    let (a, b) = (addr(0, 0, 0), addr(1, 0, 0));
    let reads = [a, b, a, b].map(|x| (AccessKind::Read, x));
    assert_eq!(run(&reads), [6848, 6854, 6856, 6858]);
}

#[test]
fn write_then_read() {
    // A write lands t_cwl after its column command; a read of the same
    // open row follows t_ccd_l later and lands t_cl after its command.
    let a = addr(2, 3, 5);
    assert_eq!(
        run(&[(AccessKind::Write, a), (AccessKind::Read, a)]),
        [6837, 6852]
    );
}
