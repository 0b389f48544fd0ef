//! Semantic verification of collective schedules.
//!
//! A collective algorithm hands over its schedule plus the per-rank send and
//! receive buffer ids; these helpers fill the send buffers with a
//! deterministic per-rank pattern, execute the schedule (sequentially or on
//! a thread pool), and check the collective's postcondition:
//!
//! * **Allgather**: every rank's receive buffer equals the concatenation of
//!   all ranks' send buffers in rank order (MPI_Allgather semantics).
//! * **Allreduce**: every rank's receive buffer equals the elementwise sum
//!   of all ranks' contributions (MPI_Allreduce with MPI_SUM).

use mha_sched::{BufId, FrozenSchedule};

use crate::executor::{run, ExecError, Mode};
use crate::memory::BufferStore;

/// A verification failure.
#[derive(Debug)]
pub enum VerifyError {
    /// Execution itself failed.
    Exec(ExecError),
    /// A rank's output did not match the expected bytes.
    Mismatch {
        /// The failing rank (index into the handed-in buffer lists).
        rank: usize,
        /// First differing byte offset.
        offset: usize,
        /// Expected byte.
        expected: u8,
        /// Actual byte.
        actual: u8,
    },
    /// A rank's output float did not match the expected value.
    FloatMismatch {
        /// The failing rank.
        rank: usize,
        /// Element index.
        index: usize,
        /// Expected value.
        expected: f32,
        /// Actual value.
        actual: f32,
    },
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::Exec(e) => write!(f, "execution failed: {e}"),
            VerifyError::Mismatch {
                rank,
                offset,
                expected,
                actual,
            } => write!(
                f,
                "rank {rank}: byte {offset} expected {expected:#04x}, got {actual:#04x}"
            ),
            VerifyError::FloatMismatch {
                rank,
                index,
                expected,
                actual,
            } => write!(
                f,
                "rank {rank}: element {index} expected {expected}, got {actual}"
            ),
        }
    }
}

impl std::error::Error for VerifyError {}

impl From<ExecError> for VerifyError {
    fn from(e: ExecError) -> Self {
        VerifyError::Exec(e)
    }
}

/// The deterministic fill pattern for `rank`'s `len`-byte contribution.
/// Distinct across ranks and positions, so any routing mistake (wrong
/// source, wrong offset, truncation) shows up as a mismatch.
pub fn rank_pattern(rank: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| {
            let x = (rank as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(i as u64)
                .wrapping_mul(0xBF58_476D_1CE4_E5B9);
            (x >> 32) as u8
        })
        .collect()
}

/// Fills each rank's send buffer with [`rank_pattern`], executes, and checks
/// MPI_Allgather semantics: `recv[rank] == concat(pattern(0..nranks))`.
///
/// `send[r]`/`recv[r]` are the send/recv buffers of rank `r`; `msg` is the
/// per-rank contribution size in bytes.
pub fn verify_allgather(
    sch: &FrozenSchedule,
    send: &[BufId],
    recv: &[BufId],
    msg: usize,
    mode: Mode,
) -> Result<(), VerifyError> {
    assert_eq!(send.len(), recv.len(), "send/recv lists must align");
    let n = send.len();
    let store = BufferStore::new(sch);
    for (r, &buf) in send.iter().enumerate() {
        store.fill(buf, 0, &rank_pattern(r, msg));
    }
    run(sch, &store, mode)?;
    let expected: Vec<u8> = (0..n).flat_map(|r| rank_pattern(r, msg)).collect();
    for (r, &buf) in recv.iter().enumerate() {
        let got = store.read(buf, 0, n * msg);
        if let Some(off) = got.iter().zip(&expected).position(|(a, b)| a != b) {
            return Err(VerifyError::Mismatch {
                rank: r,
                offset: off,
                expected: expected[off],
                actual: got[off],
            });
        }
    }
    Ok(())
}

/// The deterministic f32 contribution of `rank`: element `i` is
/// `(rank + 1) * (i % 13 + 1)` — small integers, so float sums are exact and
/// order-independent.
pub fn rank_values_f32(rank: usize, elems: usize) -> Vec<f32> {
    (0..elems)
        .map(|i| (rank as f32 + 1.0) * ((i % 13) as f32 + 1.0))
        .collect()
}

/// Fills each rank's send buffer with [`rank_values_f32`], executes, and
/// checks MPI_Allreduce(SUM) semantics: every rank's receive buffer holds
/// the elementwise sum over all ranks.
pub fn verify_allreduce_sum_f32(
    sch: &FrozenSchedule,
    send: &[BufId],
    recv: &[BufId],
    elems: usize,
    mode: Mode,
) -> Result<(), VerifyError> {
    assert_eq!(send.len(), recv.len(), "send/recv lists must align");
    let n = send.len();
    let store = BufferStore::new(sch);
    for (r, &buf) in send.iter().enumerate() {
        let bytes: Vec<u8> = rank_values_f32(r, elems)
            .iter()
            .flat_map(|v| v.to_ne_bytes())
            .collect();
        store.fill(buf, 0, &bytes);
    }
    run(sch, &store, mode)?;
    // sum over ranks of (rank+1) = n(n+1)/2; element i scales by (i%13 + 1).
    let rank_sum = (n * (n + 1) / 2) as f32;
    for (r, &buf) in recv.iter().enumerate() {
        let got = store.read(buf, 0, elems * 4);
        for i in 0..elems {
            let v = f32::from_ne_bytes(got[i * 4..i * 4 + 4].try_into().unwrap());
            let expected = rank_sum * ((i % 13) as f32 + 1.0);
            if (v - expected).abs() > 1e-3 * expected.abs().max(1.0) {
                return Err(VerifyError::FloatMismatch {
                    rank: r,
                    index: i,
                    expected,
                    actual: v,
                });
            }
        }
    }
    Ok(())
}

/// Fills the root's buffer with [`rank_pattern`], executes, and checks
/// MPI_Bcast semantics: every rank's buffer equals the root's `msg` bytes.
///
/// `bufs[r]` is rank `r`'s broadcast buffer (the root's doubles as input).
pub fn verify_bcast(
    sch: &FrozenSchedule,
    bufs: &[BufId],
    root: usize,
    msg: usize,
    mode: Mode,
) -> Result<(), VerifyError> {
    let store = BufferStore::new(sch);
    let payload = rank_pattern(root.wrapping_add(17), msg);
    store.fill(bufs[root], 0, &payload);
    run(sch, &store, mode)?;
    for (r, &buf) in bufs.iter().enumerate() {
        let got = store.read(buf, 0, msg);
        if let Some(off) = got.iter().zip(&payload).position(|(a, b)| a != b) {
            return Err(VerifyError::Mismatch {
                rank: r,
                offset: off,
                expected: payload[off],
                actual: got[off],
            });
        }
    }
    Ok(())
}

/// Fills each rank's send buffer with [`rank_pattern`] (length
/// `nranks * msg`, block `d` destined to rank `d`), executes, and checks
/// MPI_Alltoall semantics: `recv[r]` block `s` equals block `r` of rank
/// `s`'s send buffer.
pub fn verify_alltoall(
    sch: &FrozenSchedule,
    send: &[BufId],
    recv: &[BufId],
    msg: usize,
    mode: Mode,
) -> Result<(), VerifyError> {
    assert_eq!(send.len(), recv.len(), "send/recv lists must align");
    let n = send.len();
    let store = BufferStore::new(sch);
    for (r, &buf) in send.iter().enumerate() {
        store.fill(buf, 0, &rank_pattern(r, n * msg));
    }
    run(sch, &store, mode)?;
    for (r, &buf) in recv.iter().enumerate() {
        let got = store.read(buf, 0, n * msg);
        for s in 0..n {
            let expected = &rank_pattern(s, n * msg)[r * msg..(r + 1) * msg];
            let actual = &got[s * msg..(s + 1) * msg];
            if let Some(off) = actual.iter().zip(expected).position(|(a, b)| a != b) {
                return Err(VerifyError::Mismatch {
                    rank: r,
                    offset: s * msg + off,
                    expected: expected[off],
                    actual: actual[off],
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mha_sched::{Channel, Loc, ProcGrid, RankId, ScheduleBuilder};

    /// Hand-rolled 2-rank allgather: each rank copies its own data into its
    /// recv buffer and CMA-reads the peer's.
    fn manual_allgather(msg: usize) -> (FrozenSchedule, Vec<BufId>, Vec<BufId>) {
        let grid = ProcGrid::single_node(2);
        let mut b = ScheduleBuilder::new(grid, "manual");
        let sends: Vec<_> = (0..2)
            .map(|r| b.private_buf(RankId(r), msg, format!("s{r}")))
            .collect();
        let recvs: Vec<_> = (0..2)
            .map(|r| b.private_buf(RankId(r), 2 * msg, format!("r{r}")))
            .collect();
        for r in 0..2u32 {
            let me = RankId(r);
            let peer = RankId(1 - r);
            b.copy(
                me,
                Loc::new(sends[r as usize], 0),
                Loc::new(recvs[r as usize], r as usize * msg),
                msg,
                &[],
                0,
            );
            b.transfer(
                peer,
                me,
                Loc::new(sends[1 - r as usize], 0),
                Loc::new(recvs[r as usize], (1 - r as usize) * msg),
                msg,
                Channel::Cma,
                &[],
                0,
            );
        }
        (b.finish().freeze(), sends, recvs)
    }

    #[test]
    fn correct_allgather_verifies_in_both_modes() {
        let (sch, s, r) = manual_allgather(64);
        verify_allgather(&sch, &s, &r, 64, Mode::Single).unwrap();
        verify_allgather(&sch, &s, &r, 64, Mode::Threaded(4)).unwrap();
    }

    #[test]
    fn broken_allgather_is_caught() {
        // Forget the peer transfer for rank 1.
        let grid = ProcGrid::single_node(2);
        let msg = 32;
        let mut b = ScheduleBuilder::new(grid, "broken");
        let sends: Vec<_> = (0..2)
            .map(|r| b.private_buf(RankId(r), msg, format!("s{r}")))
            .collect();
        let recvs: Vec<_> = (0..2)
            .map(|r| b.private_buf(RankId(r), 2 * msg, format!("r{r}")))
            .collect();
        for r in 0..2usize {
            b.copy(
                RankId(r as u32),
                Loc::new(sends[r], 0),
                Loc::new(recvs[r], r * msg),
                msg,
                &[],
                0,
            );
        }
        b.transfer(
            RankId(1),
            RankId(0),
            Loc::new(sends[1], 0),
            Loc::new(recvs[0], msg),
            msg,
            Channel::Cma,
            &[],
            0,
        );
        let sch = b.finish().freeze();
        let err = verify_allgather(&sch, &sends, &recvs, msg, Mode::Single).unwrap_err();
        assert!(matches!(err, VerifyError::Mismatch { rank: 1, .. }));
    }

    #[test]
    fn patterns_differ_across_ranks_and_positions() {
        let a = rank_pattern(0, 256);
        let b = rank_pattern(1, 256);
        assert_ne!(a, b);
        assert_ne!(a[0..128], a[128..256]);
    }

    #[test]
    fn rank_values_are_exact_small_floats() {
        let v = rank_values_f32(3, 30);
        assert_eq!(v[0], 4.0);
        assert_eq!(v[13], 4.0);
        assert_eq!(v[1], 8.0);
    }

    #[test]
    fn manual_allreduce_two_ranks() {
        use mha_sched::{DType, RedOp};
        let grid = ProcGrid::single_node(2);
        let elems = 16;
        let bytes = elems * 4;
        let mut b = ScheduleBuilder::new(grid, "ar");
        let sends: Vec<_> = (0..2)
            .map(|r| b.private_buf(RankId(r), bytes, format!("s{r}")))
            .collect();
        let recvs: Vec<_> = (0..2)
            .map(|r| b.private_buf(RankId(r), bytes, format!("r{r}")))
            .collect();
        for r in 0..2usize {
            // recv = own send
            let c = b.copy(
                RankId(r as u32),
                Loc::new(sends[r], 0),
                Loc::new(recvs[r], 0),
                bytes,
                &[],
                0,
            );
            // tmp = peer's send, then recv += tmp
            let tmp = b.private_buf(RankId(r as u32), bytes, format!("t{r}"));
            let t = b.transfer(
                RankId(1 - r as u32),
                RankId(r as u32),
                Loc::new(sends[1 - r], 0),
                Loc::new(tmp, 0),
                bytes,
                Channel::Cma,
                &[],
                0,
            );
            b.reduce(
                RankId(r as u32),
                Loc::new(recvs[r], 0),
                Loc::new(tmp, 0),
                bytes,
                DType::F32,
                RedOp::Sum,
                &[c, t],
                1,
            );
        }
        let sch = b.finish().freeze();
        verify_allreduce_sum_f32(&sch, &sends, &recvs, elems, Mode::Single).unwrap();
        verify_allreduce_sum_f32(&sch, &sends, &recvs, elems, Mode::Threaded(3)).unwrap();
    }
}
