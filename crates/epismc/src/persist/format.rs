//! The versioned, checksummed binary record format for run snapshots.
//!
//! One record holds one [`RunSnapshot`]: every scalar the sequential
//! calibrator needs to rebuild a window result, plus the full posterior
//! ensemble with its sharing structure intact. Layout (little-endian
//! throughout):
//!
//! ```text
//! magic u32 | version u16 | window u32 | payload_len u64 | payload | crc32 u32
//! ```
//!
//! The CRC covers every byte before it (header included). Decoding
//! validates in a fixed order — length, magic, **version before CRC**
//! (so a record written by a newer format is reported as
//! [`SmcError::UnsupportedFormat`], not as corruption), then CRC, then
//! payload structure — and any failure yields a typed error, never a
//! wrong ensemble.
//!
//! Sharing survives the round trip: trajectory segments and checkpoints
//! are pooled by allocation identity at encode time (each distinct
//! segment/checkpoint/theta serializes once, however many particles
//! reference it) and re-interned at decode time, so a resumed ensemble
//! has the same structural-sharing telemetry as the original.

use std::sync::Arc;

use episim::output::{DailySeries, SharedTrajectory};

use crate::ckpool;
use crate::error::SmcError;
use crate::particle::{Particle, ParticleEnsemble};
use crate::sis::TrajectoryTelemetry;
use crate::window::TimeWindow;

use super::RunSnapshot;

/// Record magic: the bytes `EPSN` read as a little-endian u32.
pub const MAGIC: u32 = 0x4E53_5045;

/// Current record format version. Bump on any layout change; decoders
/// reject every version they do not know.
///
/// Version history:
/// - 1: initial layout, 16 telemetry words.
/// - 2: appended `stream_setup_nanos` and `serial_nanos` telemetry words
///   (decoders migrate v1 records by defaulting both to 0).
/// - 3: appended `fused_scores` and `batched_draws` telemetry words
///   (older records migrate with both defaulted to 0).
/// - 4: appended the `encode_nanos` telemetry word (the encode half of
///   what `persist_nanos` used to aggregate; older records migrate
///   with it defaulted to 0).
/// - 5: appended the `observed_fingerprint` word after the ensemble
///   (the stream-metadata hash of the observed data slice the window
///   was scored against; older records migrate with the 0 = "not
///   recorded" sentinel, which skips validation on reopen).
/// - 6: dropped the wall-clock word and every timing and scheduling
///   telemetry word; the telemetry block is the ten deterministic
///   counters of `telemetry_words`, so a record is a pure function of
///   (configuration, seed, observed data, window index). Older records
///   decode with their timing and scheduling words read and discarded.
pub const FORMAT_VERSION: u16 = 6;

/// Oldest record version this build can still decode (typed migration:
/// words a version lacks default to 0, words v6 dropped are discarded).
pub const MIN_SUPPORTED_VERSION: u16 = 1;

/// Fixed header length: magic + version + window index + payload length.
pub const HEADER_LEN: usize = 4 + 2 + 4 + 8;

/// Trailing checksum length.
pub const TRAILER_LEN: usize = 4;

/// Sentinel index meaning "no parent" / "no origin checkpoint".
const NONE_IDX: u32 = u32::MAX;

const CRC_POLY: u32 = 0xEDB8_8320;

/// Slice-by-8 lookup tables: `CRC_TABLES[0]` is the classic byte-at-a-
/// time table; table `j` advances a byte's contribution `j` positions
/// further through the register, so eight bytes fold in one step.
const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                CRC_POLY ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut i = 0usize;
    while i < 256 {
        let mut c = tables[0][i];
        let mut j = 1;
        while j < 8 {
            c = tables[0][(c & 0xFF) as usize] ^ (c >> 8);
            tables[j][i] = c;
            j += 1;
        }
        i += 1;
    }
    tables
}

/// CRC-32 (IEEE 802.3) over `data`, folding eight bytes per step
/// (slice-by-8). Bit-identical to the byte-at-a-time definition — the
/// known-vector test pins it — but ~4x faster, which matters because
/// every persisted snapshot is checksummed on the encode hot path.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for ch in &mut chunks {
        c ^= u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]);
        let hi = u32::from_le_bytes([ch[4], ch[5], ch[6], ch[7]]);
        c = CRC_TABLES[7][(c & 0xFF) as usize]
            ^ CRC_TABLES[6][((c >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((c >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][((c >> 24) & 0xFF) as usize]
            ^ CRC_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[0][((hi >> 24) & 0xFF) as usize];
    }
    for &b in chunks.remainder() {
        c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

fn corrupt(msg: impl Into<String>) -> SmcError {
    SmcError::Corrupt(msg.into())
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Interning index from allocation identity (a pointer rendered as
/// `usize`) to pool slot. Encoding a large resampled posterior performs
/// several lookups per particle against pools of only ~`n_params`
/// distinct entries, so this is a flat linear-probing table with a
/// multiply-shift hash instead of an ordered map — the lookups sit on
/// the background writer's critical path, and on a saturated host every
/// microsecond the writer spends here is a microsecond the window loop
/// cannot overlap with I/O. The map is only ever queried and inserted,
/// never iterated, so pool order (first-encounter) is unaffected.
struct PtrIndex {
    /// `(key + 1, value)` pairs; key 0 marks an empty slot, which is
    /// safe because keys are addresses of live allocations, never null.
    slots: Vec<(usize, u32)>,
    mask: usize,
    len: usize,
}

impl PtrIndex {
    fn with_capacity(n: usize) -> Self {
        // Keep load factor under 1/2 so probe chains stay short.
        let cap = (n.max(8) * 2).next_power_of_two();
        Self {
            slots: vec![(0, 0); cap],
            mask: cap - 1,
            len: 0,
        }
    }

    fn slot_of(&self, key: usize) -> usize {
        // Fibonacci multiply-shift: spreads the low entropy of aligned
        // heap addresses across the table without a full hasher.
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) & self.mask
    }

    fn get(&self, key: usize) -> Option<u32> {
        let tagged = key + 1;
        let mut i = self.slot_of(key);
        loop {
            let (k, v) = self.slots[i];
            if k == tagged {
                return Some(v);
            }
            if k == 0 {
                return None;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Insert `key -> value`; the caller checks `get` first, so keys are
    /// always fresh.
    fn insert(&mut self, key: usize, value: u32) {
        if self.len * 2 >= self.slots.len() {
            self.grow();
        }
        let tagged = key + 1;
        let mut i = self.slot_of(key);
        while self.slots[i].0 != 0 {
            i = (i + 1) & self.mask;
        }
        self.slots[i] = (tagged, value);
        self.len += 1;
    }

    fn grow(&mut self) {
        let doubled = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![(0, 0); doubled]);
        self.mask = self.slots.len() - 1;
        for (tagged, v) in old {
            if tagged != 0 {
                let mut i = self.slot_of(tagged - 1);
                while self.slots[i].0 != 0 {
                    i = (i + 1) & self.mask;
                }
                self.slots[i] = (tagged, v);
            }
        }
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

/// The deterministic telemetry counters in record order — every word a
/// v6 record persists. Persisting another counter means appending here
/// *and* in [`telemetry_from_words`] and bumping [`FORMAT_VERSION`]; a
/// counter that depends on the thread shape must never be added.
fn telemetry_words(t: &TrajectoryTelemetry) -> [u64; 10] {
    [
        t.shared_bytes as u64,
        t.flat_bytes as u64,
        t.unique_segments as u64,
        t.segment_refs as u64,
        t.days_simulated,
        t.unique_checkpoints as u64,
        t.checkpoint_refs as u64,
        t.records_written,
        t.fused_scores,
        t.batched_draws,
    ]
}

/// Inverse of [`telemetry_words`]; the counters a record does not carry
/// stay 0.
fn telemetry_from_words(w: [u64; 10]) -> TrajectoryTelemetry {
    TrajectoryTelemetry {
        shared_bytes: w[0] as usize,
        flat_bytes: w[1] as usize,
        unique_segments: w[2] as usize,
        segment_refs: w[3] as usize,
        days_simulated: w[4],
        unique_checkpoints: w[5] as usize,
        checkpoint_refs: w[6] as usize,
        records_written: w[7],
        fused_scores: w[8],
        batched_draws: w[9],
        ..TrajectoryTelemetry::default()
    }
}

fn write_telemetry(out: &mut Vec<u8>, t: &TrajectoryTelemetry) {
    for w in telemetry_words(t) {
        put_u64(out, w);
    }
}

fn write_ensemble(out: &mut Vec<u8>, ensemble: &ParticleEnsemble) {
    let particles = ensemble.particles();

    // Global column-name table (one output schema per ensemble).
    let names: Vec<String> = particles
        .first()
        .map(|p| p.trajectory.names().to_vec())
        .unwrap_or_default();
    put_u32(out, names.len() as u32);
    for n in &names {
        put_str(out, n);
    }

    // Segment pool: every distinct trajectory segment once, in first-
    // encounter order walking each particle's chain root-first — a
    // topological order, so a segment's parent always precedes it.
    let mut seg_index = PtrIndex::with_capacity(particles.len() / 4);
    let mut seg_records: Vec<u8> = Vec::new();
    let mut n_segs = 0u32;
    for p in particles {
        // A seen head id means the entire chain is already interned
        // (heads are inserted last, after their whole chain): resampled
        // duplicates — the bulk of a posterior — skip the chain walk.
        if seg_index.get(p.trajectory.head_id()).is_some() {
            continue;
        }
        let mut parent_idx = NONE_IDX;
        for (id, series) in p.trajectory.segments() {
            if let Some(idx) = seg_index.get(id) {
                parent_idx = idx;
                continue;
            }
            let idx = n_segs;
            seg_index.insert(id, idx);
            n_segs += 1;
            put_u32(&mut seg_records, parent_idx);
            put_u32(&mut seg_records, series.start_day());
            put_u32(&mut seg_records, series.len() as u32);
            for col in 0..names.len() {
                for &v in series.column(col).unwrap_or_default() {
                    put_u64(&mut seg_records, v);
                }
            }
            parent_idx = idx;
        }
    }
    put_u32(out, n_segs);
    out.extend_from_slice(&seg_records);

    // Theta pool: one vector per proposal, shared by its replicates.
    let mut theta_index = PtrIndex::with_capacity(particles.len() / 4);
    let mut theta_records: Vec<u8> = Vec::new();
    let theta_dim = particles.first().map_or(0, |p| p.theta.len());
    let mut n_thetas = 0u32;
    for p in particles {
        let id = Arc::as_ptr(&p.theta) as *const f64 as usize;
        if theta_index.get(id).is_some() {
            continue;
        }
        theta_index.insert(id, n_thetas);
        n_thetas += 1;
        for &v in p.theta.iter() {
            put_f64(&mut theta_records, v);
        }
    }
    put_u32(out, n_thetas);
    put_u32(out, theta_dim as u32);
    out.extend_from_slice(&theta_records);

    // Checkpoint pool: each distinct allocation (current state and
    // origin alike) serializes once via the interning module's
    // sanctioned byte path.
    let mut ck_index = PtrIndex::with_capacity(particles.len() / 4);
    let mut ck_records: Vec<u8> = Vec::new();
    let mut n_cks = 0u32;
    for p in particles {
        for ck in std::iter::once(&p.checkpoint).chain(p.origin.as_ref()) {
            let id = Arc::as_ptr(ck) as usize;
            if ck_index.get(id).is_some() {
                continue;
            }
            ck_index.insert(id, n_cks);
            n_cks += 1;
            put_bytes(&mut ck_records, &ckpool::encode(ck));
        }
    }
    put_u32(out, n_cks);
    out.extend_from_slice(&ck_records);

    // Particles: pool references plus per-particle scalars.
    put_u32(out, particles.len() as u32);
    for p in particles {
        let theta_id = Arc::as_ptr(&p.theta) as *const f64 as usize;
        let head_id = p.trajectory.head_id();
        put_u32(out, theta_index.get(theta_id).unwrap_or(NONE_IDX));
        put_f64(out, p.rho);
        put_u64(out, p.seed);
        put_f64(out, p.log_weight);
        put_u32(out, seg_index.get(head_id).unwrap_or(NONE_IDX));
        let ck_id = Arc::as_ptr(&p.checkpoint) as usize;
        put_u32(out, ck_index.get(ck_id).unwrap_or(NONE_IDX));
        let origin_idx = p
            .origin
            .as_ref()
            .and_then(|o| ck_index.get(Arc::as_ptr(o) as usize))
            .unwrap_or(NONE_IDX);
        put_u32(out, origin_idx);
    }
}

/// Encode a snapshot into one framed, checksummed record.
pub fn encode_record(snap: &RunSnapshot) -> Vec<u8> {
    // Seed the payload with the fixed scalar/telemetry prefix plus the
    // dominant variable cost (40 bytes of pool references per particle);
    // pool bytes still grow the buffer, but the per-particle tail — the
    // bulk of a large posterior — lands without reallocation.
    let mut payload = Vec::with_capacity(256 + snap.posterior.len() * 40);
    put_u64(&mut payload, snap.seed);
    put_u64(&mut payload, snap.fingerprint);
    put_u32(&mut payload, snap.window_index);
    put_u32(&mut payload, snap.window.start);
    put_u32(&mut payload, snap.window.end);
    put_f64(&mut payload, snap.ess);
    put_f64(&mut payload, snap.log_marginal);
    put_u64(&mut payload, snap.unique_ancestors);
    put_u64(&mut payload, snap.iterations);
    write_telemetry(&mut payload, &snap.telemetry);
    write_ensemble(&mut payload, &snap.posterior);
    // v5: appended after the ensemble so every older field keeps its
    // offset and the version-gated read stays a pure suffix check.
    put_u64(&mut payload, snap.observed_fingerprint);

    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + TRAILER_LEN);
    put_u32(&mut out, MAGIC);
    put_u16(&mut out, FORMAT_VERSION);
    put_u32(&mut out, snap.window_index);
    put_u64(&mut out, payload.len() as u64);
    out.extend_from_slice(&payload);
    let crc = crc32(&out);
    put_u32(&mut out, crc);
    out
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Bounds-checked little-endian cursor over a record payload. Every read
/// is validated against the remaining bytes, so truncated or
/// length-inflated records surface as [`SmcError::Corrupt`] instead of
/// panicking slices.
struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.data.len().saturating_sub(self.pos)
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], SmcError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or_else(|| corrupt(format!("length overflow reading {what}")))?;
        let slice = self
            .data
            .get(self.pos..end)
            .ok_or_else(|| corrupt(format!("record truncated reading {what}")))?;
        self.pos = end;
        Ok(slice)
    }

    fn u16(&mut self, what: &str) -> Result<u16, SmcError> {
        let s = self.take(2, what)?;
        Ok(u16::from_le_bytes([s[0], s[1]]))
    }

    fn u32(&mut self, what: &str) -> Result<u32, SmcError> {
        let s = self.take(4, what)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    fn u64(&mut self, what: &str) -> Result<u64, SmcError> {
        let s = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7],
        ]))
    }

    fn f64(&mut self, what: &str) -> Result<f64, SmcError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// Validate that `count` items of at least `per_item` bytes each can
    /// still fit — the guard that keeps a corrupted count field from
    /// driving a huge allocation before the data runs out.
    fn expect_items(&self, count: usize, per_item: usize, what: &str) -> Result<(), SmcError> {
        let need = count
            .checked_mul(per_item)
            .ok_or_else(|| corrupt(format!("item count overflow in {what}")))?;
        if need > self.remaining() {
            return Err(corrupt(format!(
                "record claims {count} {what} but only {} bytes remain",
                self.remaining()
            )));
        }
        Ok(())
    }

    fn str(&mut self, what: &str) -> Result<String, SmcError> {
        let len = self.u32(what)? as usize;
        let raw = self.take(len, what)?;
        String::from_utf8(raw.to_vec()).map_err(|_| corrupt(format!("invalid utf8 in {what}")))
    }
}

/// Read the telemetry block (and, before v6, the wall-clock word in
/// front of it), keeping only the deterministic counters.
fn read_telemetry(r: &mut Reader<'_>, version: u16) -> Result<TrajectoryTelemetry, SmcError> {
    if version >= 6 {
        let mut words = [0u64; 10];
        for w in &mut words {
            *w = r.u64("telemetry")?;
        }
        return Ok(telemetry_from_words(words));
    }
    // v1–v5: the wall-clock word, then 16 telemetry words; v2 appended
    // 2 (timings), v3 appended 2 (`fused_scores`, `batched_draws`) and
    // v4 appended 1 (a timing). Timing and scheduling words are read and
    // discarded; counters a version lacks stay 0 (a faithful "not
    // recorded" value).
    let n_legacy = match version {
        1 => 16,
        2 => 18,
        3 => 20,
        _ => 21,
    };
    r.u64("wall nanos")?;
    let mut l = [0u64; 21];
    for w in &mut l[..n_legacy] {
        *w = r.u64("telemetry")?;
    }
    // Legacy positions: 0–3 footprint, 5 days_simulated, 9–10
    // checkpoints, 15 records_written, 18–19 fused/batched.
    Ok(telemetry_from_words([
        l[0], l[1], l[2], l[3], l[5], l[9], l[10], l[15], l[18], l[19],
    ]))
}

fn read_ensemble(r: &mut Reader<'_>) -> Result<ParticleEnsemble, SmcError> {
    let n_names = r.u32("name count")? as usize;
    r.expect_items(n_names, 4, "column names")?;
    let mut names = Vec::with_capacity(n_names);
    for _ in 0..n_names {
        names.push(r.str("column name")?);
    }

    // Rebuild the segment pool in record order. Parents always precede
    // children (topological encode order), and contiguity/emptiness are
    // validated here so reconstruction can never trip `append`'s
    // panicking contract on corrupted input.
    let n_segs = r.u32("segment count")? as usize;
    r.expect_items(n_segs, 12, "segments")?;
    let mut traj_pool: Vec<SharedTrajectory> = Vec::with_capacity(n_segs);
    for i in 0..n_segs {
        let parent = r.u32("segment parent")?;
        let start_day = r.u32("segment start day")?;
        let n_days = r.u32("segment length")? as usize;
        let cells = n_days
            .checked_mul(names.len())
            .ok_or_else(|| corrupt("segment size overflow"))?;
        r.expect_items(cells, 8, "segment values")?;
        let mut columns = Vec::with_capacity(names.len());
        for _ in 0..names.len() {
            let mut col = Vec::with_capacity(n_days);
            for _ in 0..n_days {
                col.push(r.u64("segment value")?);
            }
            columns.push(col);
        }
        let series = DailySeries::from_columns(names.clone(), start_day, columns)
            .map_err(|e| corrupt(format!("segment {i}: {e}")))?;
        let traj = if parent == NONE_IDX {
            SharedTrajectory::root(series)
        } else {
            let parent_traj = traj_pool
                .get(parent as usize)
                .ok_or_else(|| corrupt(format!("segment {i} references parent {parent} >= {i}")))?;
            if n_days == 0 {
                return Err(corrupt(format!("segment {i} is an empty non-root segment")));
            }
            if parent_traj.is_empty() {
                return Err(corrupt(format!("segment {i} descends from an empty root")));
            }
            let expected = parent_traj.start_day() as usize + parent_traj.len();
            if expected != start_day as usize {
                return Err(corrupt(format!(
                    "segment {i} starts at day {start_day}, parent chain ends before day {expected}"
                )));
            }
            parent_traj.append(series)
        };
        traj_pool.push(traj);
    }

    let n_thetas = r.u32("theta count")? as usize;
    let theta_dim = r.u32("theta dim")? as usize;
    let theta_cells = n_thetas
        .checked_mul(theta_dim)
        .ok_or_else(|| corrupt("theta pool overflow"))?;
    r.expect_items(theta_cells, 8, "theta values")?;
    let mut theta_pool: Vec<Arc<[f64]>> = Vec::with_capacity(n_thetas);
    for _ in 0..n_thetas {
        let mut v = Vec::with_capacity(theta_dim);
        for _ in 0..theta_dim {
            v.push(r.f64("theta value")?);
        }
        theta_pool.push(Arc::from(v));
    }

    let n_cks = r.u32("checkpoint count")? as usize;
    r.expect_items(n_cks, 4, "checkpoints")?;
    let mut ck_pool: Vec<ckpool::SharedCheckpoint> = Vec::with_capacity(n_cks);
    for i in 0..n_cks {
        let len = r.u32("checkpoint length")? as usize;
        let raw = r.take(len, "checkpoint bytes")?;
        let ck = ckpool::decode(raw).map_err(|e| corrupt(format!("checkpoint {i}: {e}")))?;
        ck_pool.push(ckpool::share(ck));
    }

    let n_particles = r.u32("particle count")? as usize;
    r.expect_items(n_particles, 40, "particles")?;
    let mut particles = Vec::with_capacity(n_particles);
    for i in 0..n_particles {
        let theta_idx = r.u32("particle theta index")? as usize;
        let rho = r.f64("particle rho")?;
        let seed = r.u64("particle seed")?;
        let log_weight = r.f64("particle log weight")?;
        let head_idx = r.u32("particle trajectory head")? as usize;
        let ck_idx = r.u32("particle checkpoint index")? as usize;
        let origin_raw = r.u32("particle origin index")?;
        let theta = theta_pool
            .get(theta_idx)
            .ok_or_else(|| corrupt(format!("particle {i}: theta index {theta_idx} out of pool")))?;
        let trajectory = traj_pool.get(head_idx).ok_or_else(|| {
            corrupt(format!(
                "particle {i}: trajectory head {head_idx} out of pool"
            ))
        })?;
        let checkpoint = ck_pool.get(ck_idx).ok_or_else(|| {
            corrupt(format!(
                "particle {i}: checkpoint index {ck_idx} out of pool"
            ))
        })?;
        let origin = if origin_raw == NONE_IDX {
            None
        } else {
            Some(Arc::clone(ck_pool.get(origin_raw as usize).ok_or_else(
                || {
                    corrupt(format!(
                        "particle {i}: origin index {origin_raw} out of pool"
                    ))
                },
            )?))
        };
        particles.push(Particle {
            theta: Arc::clone(theta),
            rho,
            seed,
            log_weight,
            trajectory: trajectory.clone(),
            checkpoint: Arc::clone(checkpoint),
            origin,
        });
    }
    Ok(ParticleEnsemble::from_vec(particles))
}

/// Decode one framed record back into a [`RunSnapshot`].
///
/// # Errors
/// [`SmcError::UnsupportedFormat`] for an unknown format version (checked
/// before the checksum, so version bumps are reported as such);
/// [`SmcError::Corrupt`] for any length, magic, checksum, or structural
/// failure. Never returns a silently wrong snapshot.
pub fn decode_record(data: &[u8]) -> Result<RunSnapshot, SmcError> {
    if data.len() < HEADER_LEN + TRAILER_LEN {
        return Err(corrupt(format!(
            "record of {} bytes is shorter than the {}-byte envelope",
            data.len(),
            HEADER_LEN + TRAILER_LEN
        )));
    }
    let mut header = Reader::new(data);
    let magic = header.u32("magic")?;
    if magic != MAGIC {
        return Err(corrupt(format!(
            "bad magic {magic:#010x} (expected {MAGIC:#010x})"
        )));
    }
    let version = header.u16("version")?;
    if !(MIN_SUPPORTED_VERSION..=FORMAT_VERSION).contains(&version) {
        return Err(SmcError::UnsupportedFormat(format!(
            "record format version {version} (this build reads versions \
             {MIN_SUPPORTED_VERSION}..={FORMAT_VERSION})"
        )));
    }
    let header_window = header.u32("window index")?;
    let payload_len = header.u64("payload length")? as usize;
    let expected_len = HEADER_LEN
        .checked_add(payload_len)
        .and_then(|n| n.checked_add(TRAILER_LEN))
        .ok_or_else(|| corrupt("payload length overflow"))?;
    if data.len() != expected_len {
        return Err(corrupt(format!(
            "record is {} bytes but header claims {expected_len}",
            data.len()
        )));
    }
    let body_end = data.len() - TRAILER_LEN;
    let stored_crc = u32::from_le_bytes([
        data[body_end],
        data[body_end + 1],
        data[body_end + 2],
        data[body_end + 3],
    ]);
    let actual_crc = crc32(&data[..body_end]);
    if stored_crc != actual_crc {
        return Err(corrupt(format!(
            "checksum mismatch: stored {stored_crc:#010x}, computed {actual_crc:#010x}"
        )));
    }

    let mut r = Reader::new(&data[HEADER_LEN..body_end]);
    let seed = r.u64("seed")?;
    let fingerprint = r.u64("fingerprint")?;
    let window_index = r.u32("window index")?;
    if window_index != header_window {
        return Err(corrupt(format!(
            "header window {header_window} != payload window {window_index}"
        )));
    }
    let w_start = r.u32("window start")?;
    let w_end = r.u32("window end")?;
    if w_start > w_end {
        return Err(corrupt(format!(
            "window start {w_start} is after window end {w_end}"
        )));
    }
    let window = TimeWindow::new(w_start, w_end);
    let ess = r.f64("ess")?;
    let log_marginal = r.f64("log marginal")?;
    let unique_ancestors = r.u64("unique ancestors")?;
    let iterations = r.u64("iterations")?;
    let telemetry = read_telemetry(&mut r, version)?;
    let posterior = read_ensemble(&mut r)?;
    let observed_fingerprint = if version >= 5 {
        r.u64("observed fingerprint")?
    } else {
        0 // pre-v5 records never recorded it; 0 skips validation
    };
    if r.remaining() != 0 {
        return Err(corrupt(format!(
            "{} trailing bytes after the ensemble",
            r.remaining()
        )));
    }
    Ok(RunSnapshot {
        seed,
        fingerprint,
        window_index,
        window,
        ess,
        log_marginal,
        unique_ancestors,
        iterations,
        observed_fingerprint,
        telemetry,
        posterior,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn ptr_index_survives_growth_and_collisions() {
        // Aligned-address-like keys (multiples of 8 and 4096) stress the
        // hash's low-entropy input; inserting past the initial capacity
        // forces at least one grow + rehash.
        let mut idx = PtrIndex::with_capacity(4);
        let keys: Vec<usize> = (1..200).map(|i| i * 4096 + 8).collect();
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(idx.get(k), None);
            idx.insert(k, i as u32);
        }
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(idx.get(k), Some(i as u32));
        }
        assert_eq!(idx.get(7), None);
    }

    #[test]
    fn magic_spells_epsn() {
        assert_eq!(&MAGIC.to_le_bytes(), b"EPSN");
    }

    #[test]
    fn short_records_are_corrupt_not_panics() {
        for n in 0..(HEADER_LEN + TRAILER_LEN) {
            let err = decode_record(&vec![0u8; n]).unwrap_err();
            assert!(matches!(err, SmcError::Corrupt(_)), "{n}: {err}");
        }
    }

    #[test]
    fn bad_magic_is_reported_before_anything_else() {
        let data = vec![0u8; HEADER_LEN + TRAILER_LEN];
        let err = decode_record(&data).unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");
    }
}
