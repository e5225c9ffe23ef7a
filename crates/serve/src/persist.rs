//! Binary persistence codecs for the durable serving layer.
//!
//! Everything a crashed server needs to resume bit-identically is
//! serialized here through [`tagnn_durable::codec`]: WAL record payloads
//! (one accepted [`InferRequest`] per record) and checkpoint blobs (the
//! full engine image — every stream's roller and engine session, the WAL
//! offsets the checkpoint covers, and a config stamp so a checkpoint is
//! never restored under a different topology/model).
//!
//! All numbers are little-endian; floats travel as raw bits, so NaN
//! payloads and signed zeros survive the round trip — the encode →
//! decode → encode cycle is byte-identical (pinned by the proptests in
//! `tests/recovery_differential.rs`). Decoders bound every allocation
//! through [`ByteReader::get_count`], so a corrupt length prefix yields a
//! typed [`CodecError`], never an unbounded allocation or a panic.

use tagnn_durable::codec::{ByteReader, ByteWriter, CodecError};
use tagnn_graph::delta::GraphUpdate;
use tagnn_graph::incremental::{ClassifierStateExport, MaintainerState, MaintainerStats};
use tagnn_graph::{Csr, Snapshot};
use tagnn_models::{EngineState, ModelKind, VertexStateExport};
use tagnn_tensor::dispatch::{Kernel, LayerChoice};
use tagnn_tensor::DenseMatrix;

use crate::config::ServeConfig;
use crate::core::InferRequest;
use crate::event::EdgeEvent;
use crate::roller::{RollerState, ShardedRollerState};
use crate::shard::{LanesState, SealStats};

/// Upper bound on decoded vertex universes (16M vertices).
const MAX_VERTICES: usize = 1 << 24;
/// Upper bound on decoded per-request / per-tick event batches.
const MAX_EVENTS: usize = 1 << 22;
/// Upper bound on decoded stream counts in one checkpoint.
const MAX_STREAMS: usize = 1 << 20;
/// Upper bound on decoded layer counts (models here have ≤ 4 layers).
const MAX_LAYERS: usize = 256;
/// Upper bound on decoded shard counts.
const MAX_SHARDS: usize = 1 << 16;

/// Checkpoint blob format version.
pub const CHECKPOINT_VERSION: u32 = 1;

/// The boot parameters a checkpoint must agree on to be restorable: the
/// fields that decide served *bits*. A stamp mismatch means the operator
/// changed the deployment under the data directory — recovery refuses
/// the checkpoint rather than resuming into silently different outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigStamp {
    /// Model family being served.
    pub model: ModelKind,
    /// Vertex universe size.
    pub universe: u64,
    /// Feature dimensionality D.
    pub feature_dim: u64,
    /// Model hidden dimensionality.
    pub hidden: u64,
    /// Window size K.
    pub window: u64,
    /// Weight-initialisation seed.
    pub seed: u64,
    /// Engine shard count (decides WAL segment count and lane topology).
    pub shards: u64,
    /// Whether per-stream incremental planning is on.
    pub incremental_planning: bool,
}

impl ConfigStamp {
    /// The stamp of a boot configuration.
    pub fn of(cfg: &ServeConfig) -> Self {
        Self {
            model: cfg.model,
            universe: cfg.universe as u64,
            feature_dim: cfg.feature_dim as u64,
            hidden: cfg.hidden as u64,
            window: cfg.window as u64,
            seed: cfg.seed,
            shards: cfg.shards as u64,
            incremental_planning: cfg.incremental_planning,
        }
    }
}

/// One complete checkpoint: the image the recovery path restores before
/// replaying the WAL suffix.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointBlob {
    /// Boot parameters the image was captured under.
    pub stamp: ConfigStamp,
    /// Per-shard WAL byte offsets this checkpoint covers: replay starts
    /// here. `wal_offsets[s]` is the synced length of `wal-<s>.log` at
    /// capture time.
    pub wal_offsets: Vec<u64>,
    /// Windows rolled across all streams at capture time (drives the
    /// checkpoint cadence counter across restarts).
    pub windows_rolled: u64,
    /// Per-stream roller state, sorted by stream id.
    pub rollers: Vec<(u64, ShardedRollerState)>,
    /// Per-stream engine-session state, sorted by stream id.
    pub sessions: Vec<(u64, EngineState)>,
}

// ---------------------------------------------------------------------
// events & requests (WAL payloads)
// ---------------------------------------------------------------------

fn put_event(w: &mut ByteWriter, e: &EdgeEvent) {
    match e {
        EdgeEvent::AddEdge { src, dst } => {
            w.put_u8(0);
            w.put_u32(*src);
            w.put_u32(*dst);
        }
        EdgeEvent::RemoveEdge { src, dst } => {
            w.put_u8(1);
            w.put_u32(*src);
            w.put_u32(*dst);
        }
        EdgeEvent::AddVertex { v } => {
            w.put_u8(2);
            w.put_u32(*v);
        }
        EdgeEvent::RemoveVertex { v } => {
            w.put_u8(3);
            w.put_u32(*v);
        }
        EdgeEvent::UpdateFeature { v, feature } => {
            w.put_u8(4);
            w.put_u32(*v);
            w.put_f32_slice(feature);
        }
        EdgeEvent::Tick => w.put_u8(5),
    }
}

fn get_event(r: &mut ByteReader<'_>) -> Result<EdgeEvent, CodecError> {
    Ok(match r.get_u8()? {
        0 => EdgeEvent::AddEdge {
            src: r.get_u32()?,
            dst: r.get_u32()?,
        },
        1 => EdgeEvent::RemoveEdge {
            src: r.get_u32()?,
            dst: r.get_u32()?,
        },
        2 => EdgeEvent::AddVertex { v: r.get_u32()? },
        3 => EdgeEvent::RemoveVertex { v: r.get_u32()? },
        4 => EdgeEvent::UpdateFeature {
            v: r.get_u32()?,
            feature: r.get_f32_slice()?,
        },
        5 => EdgeEvent::Tick,
        _ => return Err(CodecError::Invalid("event tag")),
    })
}

fn put_update(w: &mut ByteWriter, u: &GraphUpdate) {
    match u {
        GraphUpdate::AddEdge { src, dst } => {
            w.put_u8(0);
            w.put_u32(*src);
            w.put_u32(*dst);
        }
        GraphUpdate::RemoveEdge { src, dst } => {
            w.put_u8(1);
            w.put_u32(*src);
            w.put_u32(*dst);
        }
        GraphUpdate::AddVertex { v } => {
            w.put_u8(2);
            w.put_u32(*v);
        }
        GraphUpdate::RemoveVertex { v } => {
            w.put_u8(3);
            w.put_u32(*v);
        }
        GraphUpdate::MutateFeature { v, feature } => {
            w.put_u8(4);
            w.put_u32(*v);
            w.put_f32_slice(feature);
        }
    }
}

fn get_update(r: &mut ByteReader<'_>) -> Result<GraphUpdate, CodecError> {
    Ok(match r.get_u8()? {
        0 => GraphUpdate::AddEdge {
            src: r.get_u32()?,
            dst: r.get_u32()?,
        },
        1 => GraphUpdate::RemoveEdge {
            src: r.get_u32()?,
            dst: r.get_u32()?,
        },
        2 => GraphUpdate::AddVertex { v: r.get_u32()? },
        3 => GraphUpdate::RemoveVertex { v: r.get_u32()? },
        4 => GraphUpdate::MutateFeature {
            v: r.get_u32()?,
            feature: r.get_f32_slice()?,
        },
        _ => return Err(CodecError::Invalid("update tag")),
    })
}

/// Encodes one accepted request as a WAL record payload.
pub fn encode_request(req: &InferRequest) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(req.stream);
    w.put_bool(req.flush);
    w.put_u32(req.events.len() as u32);
    for e in &req.events {
        put_event(&mut w, e);
    }
    w.into_bytes()
}

/// Decodes a WAL record payload back into the request it logged.
pub fn decode_request(bytes: &[u8]) -> Result<InferRequest, CodecError> {
    let mut r = ByteReader::new(bytes);
    let stream = r.get_u64()?;
    let flush = r.get_bool()?;
    let n = r.get_count(MAX_EVENTS)?;
    let mut events = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        events.push(get_event(&mut r)?);
    }
    r.finish()?;
    Ok(InferRequest {
        stream,
        events,
        flush,
    })
}

// ---------------------------------------------------------------------
// snapshots & roller state
// ---------------------------------------------------------------------

fn put_snapshot(w: &mut ByteWriter, s: &Snapshot) {
    let n = s.num_vertices();
    w.put_u32(n as u32);
    w.put_u32(s.feature_dim() as u32);
    w.put_bool_slice(s.active());
    w.put_f32_slice(s.features().as_slice());
    for v in 0..n {
        let nbrs = s.neighbors(v as u32);
        w.put_u32(nbrs.len() as u32);
        for &t in nbrs {
            w.put_u32(t);
        }
    }
}

fn get_snapshot(r: &mut ByteReader<'_>) -> Result<Snapshot, CodecError> {
    let n = r.get_count(MAX_VERTICES)?;
    let dim = r.get_count(MAX_VERTICES)?;
    let active = r.get_bool_slice()?;
    let feats = r.get_f32_slice()?;
    let expected_feats = n
        .checked_mul(dim)
        .ok_or(CodecError::Invalid("snapshot shape"))?;
    if active.len() != n || feats.len() != expected_feats {
        return Err(CodecError::Invalid("snapshot shape"));
    }
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for v in 0..n {
        let deg = r.get_count(n)?;
        for _ in 0..deg {
            let t = r.get_u32()?;
            if t as usize >= n {
                return Err(CodecError::Invalid("neighbor out of universe"));
            }
            edges.push((v as u32, t));
        }
    }
    // Live snapshots only ever hold canonical (sorted, deduped) neighbor
    // lists, which `from_edges` reproduces exactly — the round trip is
    // bit-identical for every snapshot a server can actually reach.
    let csr = Csr::from_edges(n, &edges);
    let features = DenseMatrix::from_vec(n, dim, feats);
    Snapshot::try_new(csr, features, active).map_err(|_| CodecError::Invalid("snapshot invariant"))
}

fn put_maintainer(w: &mut ByteWriter, m: &MaintainerState) {
    match &m.forming {
        None => w.put_bool(false),
        Some(c) => {
            w.put_bool(true);
            w.put_u64(c.ticks);
            w.put_bool_slice(&c.feature_unstable);
            w.put_bool_slice(&c.topo_unstable);
            w.put_bool(c.poisoned);
        }
    }
    w.put_u64(m.stats.ticks_absorbed);
    w.put_u64(m.stats.windows_sealed);
    w.put_u64(m.stats.fallbacks);
    w.put_u64(m.stats.dirty_vertices);
    w.put_u64(m.stats.patched_vertices);
}

fn get_maintainer(r: &mut ByteReader<'_>) -> Result<MaintainerState, CodecError> {
    let forming = if r.get_bool()? {
        Some(ClassifierStateExport {
            ticks: r.get_u64()?,
            feature_unstable: r.get_bool_slice()?,
            topo_unstable: r.get_bool_slice()?,
            poisoned: r.get_bool()?,
        })
    } else {
        None
    };
    let stats = MaintainerStats {
        ticks_absorbed: r.get_u64()?,
        windows_sealed: r.get_u64()?,
        fallbacks: r.get_u64()?,
        dirty_vertices: r.get_u64()?,
        patched_vertices: r.get_u64()?,
    };
    Ok(MaintainerState { forming, stats })
}

fn put_roller(w: &mut ByteWriter, s: &RollerState) {
    w.put_u32(s.window as u32);
    w.put_u32(s.feature_dim as u32);
    put_snapshot(w, &s.current);
    w.put_u32(s.pending.len() as u32);
    for u in &s.pending {
        put_update(w, u);
    }
    w.put_u32(s.sealed.len() as u32);
    for snap in &s.sealed {
        put_snapshot(w, snap);
    }
    w.put_u64(s.seq);
    w.put_u64(s.ticks);
    match &s.maintainer {
        None => w.put_bool(false),
        Some(m) => {
            w.put_bool(true);
            put_maintainer(w, m);
        }
    }
}

fn get_roller(r: &mut ByteReader<'_>) -> Result<RollerState, CodecError> {
    let window = r.get_count(MAX_VERTICES)?;
    let feature_dim = r.get_count(MAX_VERTICES)?;
    let current = get_snapshot(r)?;
    let n_pending = r.get_count(MAX_EVENTS)?;
    let mut pending = Vec::with_capacity(n_pending.min(4096));
    for _ in 0..n_pending {
        pending.push(get_update(r)?);
    }
    let n_sealed = r.get_count(window.max(1))?;
    let mut sealed = Vec::with_capacity(n_sealed);
    for _ in 0..n_sealed {
        sealed.push(get_snapshot(r)?);
    }
    let seq = r.get_u64()?;
    let ticks = r.get_u64()?;
    let maintainer = if r.get_bool()? {
        Some(get_maintainer(r)?)
    } else {
        None
    };
    Ok(RollerState {
        window,
        feature_dim,
        current,
        pending,
        sealed,
        seq,
        ticks,
        maintainer,
    })
}

fn put_lanes(w: &mut ByteWriter, l: &LanesState) {
    w.put_u32(l.lanes.len() as u32);
    for lane in &l.lanes {
        w.put_u32(lane.len() as u32);
        for (seq, e) in lane {
            w.put_u64(*seq);
            put_event(w, e);
        }
    }
    w.put_u64(l.arrival);
    w.put_u64_slice(&l.routed);
}

fn get_lanes(r: &mut ByteReader<'_>) -> Result<LanesState, CodecError> {
    let shards = r.get_count(MAX_SHARDS)?;
    let mut lanes = Vec::with_capacity(shards);
    for _ in 0..shards {
        let n = r.get_count(MAX_EVENTS)?;
        let mut lane = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            let seq = r.get_u64()?;
            lane.push((seq, get_event(r)?));
        }
        lanes.push(lane);
    }
    let arrival = r.get_u64()?;
    let routed = r.get_u64_slice()?;
    if routed.len() != shards {
        return Err(CodecError::Invalid("lanes routed length"));
    }
    Ok(LanesState {
        lanes,
        arrival,
        routed,
    })
}

/// Encodes one stream's sharded-roller state (exposed for the byte-
/// identity proptests).
pub fn encode_sharded_roller(s: &ShardedRollerState) -> Vec<u8> {
    let mut w = ByteWriter::new();
    put_sharded_roller(&mut w, s);
    w.into_bytes()
}

/// Decodes [`encode_sharded_roller`]'s output.
pub fn decode_sharded_roller(bytes: &[u8]) -> Result<ShardedRollerState, CodecError> {
    let mut r = ByteReader::new(bytes);
    let s = get_sharded_roller(&mut r)?;
    r.finish()?;
    Ok(s)
}

fn put_sharded_roller(w: &mut ByteWriter, s: &ShardedRollerState) {
    put_roller(w, &s.inner);
    put_lanes(w, &s.lanes);
    w.put_u64(s.seal_totals.merged_events);
    w.put_u64(s.seal_totals.cross_shard_edges);
}

fn get_sharded_roller(r: &mut ByteReader<'_>) -> Result<ShardedRollerState, CodecError> {
    let inner = get_roller(r)?;
    let lanes = get_lanes(r)?;
    let seal_totals = SealStats {
        merged_events: r.get_u64()?,
        cross_shard_edges: r.get_u64()?,
    };
    Ok(ShardedRollerState {
        inner,
        lanes,
        seal_totals,
    })
}

// ---------------------------------------------------------------------
// engine-session state
// ---------------------------------------------------------------------

fn kernel_tag(k: Kernel) -> u8 {
    match k {
        Kernel::Dense => 0,
        Kernel::Spmm => 1,
        Kernel::DeltaSkip => 2,
    }
}

fn kernel_from_tag(t: u8) -> Result<Kernel, CodecError> {
    Ok(match t {
        0 => Kernel::Dense,
        1 => Kernel::Spmm,
        2 => Kernel::DeltaSkip,
        _ => return Err(CodecError::Invalid("kernel tag")),
    })
}

/// Encodes one engine session's exported state (exposed for the byte-
/// identity proptests).
pub fn encode_engine_state(s: &EngineState) -> Vec<u8> {
    let mut w = ByteWriter::new();
    put_engine_state(&mut w, s);
    w.into_bytes()
}

/// Decodes [`encode_engine_state`]'s output.
pub fn decode_engine_state(bytes: &[u8]) -> Result<EngineState, CodecError> {
    let mut r = ByteReader::new(bytes);
    let s = get_engine_state(&mut r)?;
    r.finish()?;
    Ok(s)
}

fn put_engine_state(w: &mut ByteWriter, s: &EngineState) {
    w.put_u64(s.windows);
    w.put_u32(s.vertices.len() as u32);
    for v in &s.vertices {
        w.put_f32_slice(&v.h);
        w.put_f32_slice(&v.c);
        w.put_f32_slice(&v.x_pre);
        w.put_f32_slice(&v.last_input);
        w.put_bool(v.has_input);
    }
    match &s.choices {
        None => w.put_bool(false),
        Some(choices) => {
            w.put_bool(true);
            w.put_u32(choices.len() as u32);
            for c in choices {
                w.put_bool(c.transform_first);
                w.put_u8(kernel_tag(c.kernel));
                w.put_f64(c.density);
            }
        }
    }
}

fn get_engine_state(r: &mut ByteReader<'_>) -> Result<EngineState, CodecError> {
    let windows = r.get_u64()?;
    let n = r.get_count(MAX_VERTICES)?;
    let mut vertices = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        vertices.push(VertexStateExport {
            h: r.get_f32_slice()?,
            c: r.get_f32_slice()?,
            x_pre: r.get_f32_slice()?,
            last_input: r.get_f32_slice()?,
            has_input: r.get_bool()?,
        });
    }
    let choices = if r.get_bool()? {
        let k = r.get_count(MAX_LAYERS)?;
        let mut cs = Vec::with_capacity(k);
        for _ in 0..k {
            cs.push(LayerChoice {
                transform_first: r.get_bool()?,
                kernel: kernel_from_tag(r.get_u8()?)?,
                density: r.get_f64()?,
            });
        }
        Some(cs)
    } else {
        None
    };
    Ok(EngineState {
        windows,
        vertices,
        choices,
    })
}

// ---------------------------------------------------------------------
// checkpoint blob
// ---------------------------------------------------------------------

fn model_tag(m: ModelKind) -> u8 {
    match m {
        ModelKind::CdGcn => 0,
        ModelKind::GcLstm => 1,
        ModelKind::TGcn => 2,
    }
}

fn model_from_tag(t: u8) -> Result<ModelKind, CodecError> {
    Ok(match t {
        0 => ModelKind::CdGcn,
        1 => ModelKind::GcLstm,
        2 => ModelKind::TGcn,
        _ => return Err(CodecError::Invalid("model tag")),
    })
}

fn put_stamp(w: &mut ByteWriter, s: &ConfigStamp) {
    w.put_u8(model_tag(s.model));
    w.put_u64(s.universe);
    w.put_u64(s.feature_dim);
    w.put_u64(s.hidden);
    w.put_u64(s.window);
    w.put_u64(s.seed);
    w.put_u64(s.shards);
    w.put_bool(s.incremental_planning);
}

fn get_stamp(r: &mut ByteReader<'_>) -> Result<ConfigStamp, CodecError> {
    Ok(ConfigStamp {
        model: model_from_tag(r.get_u8()?)?,
        universe: r.get_u64()?,
        feature_dim: r.get_u64()?,
        hidden: r.get_u64()?,
        window: r.get_u64()?,
        seed: r.get_u64()?,
        shards: r.get_u64()?,
        incremental_planning: r.get_bool()?,
    })
}

/// Encodes a full checkpoint blob (the payload handed to
/// [`tagnn_durable::CheckpointStore::write`], which adds its own header
/// and CRC).
pub fn encode_checkpoint(blob: &CheckpointBlob) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u32(CHECKPOINT_VERSION);
    put_stamp(&mut w, &blob.stamp);
    w.put_u64_slice(&blob.wal_offsets);
    w.put_u64(blob.windows_rolled);
    w.put_u32(blob.rollers.len() as u32);
    for (stream, roller) in &blob.rollers {
        w.put_u64(*stream);
        put_sharded_roller(&mut w, roller);
    }
    w.put_u32(blob.sessions.len() as u32);
    for (stream, session) in &blob.sessions {
        w.put_u64(*stream);
        put_engine_state(&mut w, session);
    }
    w.into_bytes()
}

/// Decodes [`encode_checkpoint`]'s output, rejecting unknown versions
/// and trailing garbage.
pub fn decode_checkpoint(bytes: &[u8]) -> Result<CheckpointBlob, CodecError> {
    let mut r = ByteReader::new(bytes);
    let version = r.get_u32()?;
    if version != CHECKPOINT_VERSION {
        return Err(CodecError::Invalid("checkpoint version"));
    }
    let stamp = get_stamp(&mut r)?;
    let wal_offsets = r.get_u64_slice()?;
    let windows_rolled = r.get_u64()?;
    let n_rollers = r.get_count(MAX_STREAMS)?;
    let mut rollers = Vec::with_capacity(n_rollers.min(4096));
    for _ in 0..n_rollers {
        let stream = r.get_u64()?;
        rollers.push((stream, get_sharded_roller(&mut r)?));
    }
    let n_sessions = r.get_count(MAX_STREAMS)?;
    let mut sessions = Vec::with_capacity(n_sessions.min(4096));
    for _ in 0..n_sessions {
        let stream = r.get_u64()?;
        sessions.push((stream, get_engine_state(&mut r)?));
    }
    r.finish()?;
    Ok(CheckpointBlob {
        stamp,
        wal_offsets,
        windows_rolled,
        rollers,
        sessions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::events_from_graph;
    use crate::roller::WindowRoller;
    use crate::shard::{ShardLanes, ShardRouter};
    use tagnn_graph::generate::GeneratorConfig;
    use tagnn_models::StatefulModel;
    use tagnn_models::{ConcurrentEngine, DgnnModel, SkipConfig};

    #[test]
    fn request_round_trips_byte_identically() {
        let req = InferRequest {
            stream: 42,
            events: vec![
                EdgeEvent::AddEdge { src: 0, dst: 1 },
                EdgeEvent::UpdateFeature {
                    v: 3,
                    feature: vec![f32::NAN, -0.0, 1.5],
                },
                EdgeEvent::Tick,
                EdgeEvent::RemoveVertex { v: 2 },
            ],
            flush: true,
        };
        let bytes = encode_request(&req);
        let back = decode_request(&bytes).unwrap();
        // PartialEq fails on NaN; compare re-encoded bytes instead, which
        // is the actual durability contract.
        assert_eq!(bytes, encode_request(&back));
        assert_eq!(back.stream, 42);
        assert!(back.flush);
        assert_eq!(back.events.len(), 4);
    }

    #[test]
    fn corrupt_request_bytes_never_panic() {
        let req = InferRequest {
            stream: 1,
            events: vec![EdgeEvent::AddEdge { src: 0, dst: 1 }],
            flush: false,
        };
        let good = encode_request(&req);
        // Truncations at every prefix length.
        for cut in 0..good.len() {
            let _ = decode_request(&good[..cut]);
        }
        // Single-byte corruption at every position: must return, never
        // panic or over-allocate.
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0xFF;
            let _ = decode_request(&bad);
        }
    }

    #[test]
    fn live_roller_state_round_trips_exactly() {
        let g = GeneratorConfig::tiny().generate();
        let events: Vec<EdgeEvent> = events_from_graph(&g).into_iter().flatten().collect();
        let router = ShardRouter::hash(g.num_vertices(), 2);
        let inner =
            WindowRoller::new(g.num_vertices(), g.feature_dim(), 3).with_incremental_planning();
        let mut roller = crate::roller::ShardedRoller::new(inner, router);
        for e in &events[..events.len() / 2] {
            roller.apply(e).unwrap();
        }
        let state = roller.export_state();
        let bytes = encode_sharded_roller(&state);
        let back = decode_sharded_roller(&bytes).unwrap();
        assert_eq!(state, back);
        assert_eq!(bytes, encode_sharded_roller(&back));
    }

    #[test]
    fn live_engine_state_round_trips_exactly() {
        let g = GeneratorConfig::tiny().generate();
        let model = DgnnModel::new(ModelKind::GcLstm, g.feature_dim(), 5, 7);
        let engine = ConcurrentEngine::with_window(model, SkipConfig::paper_default(), 3);
        let mut session = engine.session(g.num_vertices());
        let refs: Vec<&Snapshot> = g.snapshots()[..3].iter().collect();
        let plan = tagnn_graph::WindowPlanner::new(3).plan_window(&refs, 0);
        session.process_window_with(&refs, &plan, SkipConfig::paper_default());
        let state = session.export_state();
        let bytes = encode_engine_state(&state);
        let back = decode_engine_state(&bytes).unwrap();
        assert_eq!(state, back);
        assert_eq!(bytes, encode_engine_state(&back));
    }

    #[test]
    fn checkpoint_blob_round_trips_and_rejects_bad_version() {
        let router = ShardRouter::hash(8, 2);
        let inner = WindowRoller::new(8, 2, 2);
        let roller = crate::roller::ShardedRoller::new(inner, router);
        let mut lanes_probe = ShardLanes::new(ShardRouter::hash(8, 2));
        lanes_probe.admit(EdgeEvent::AddEdge { src: 0, dst: 1 });
        let blob = CheckpointBlob {
            stamp: ConfigStamp::of(&ServeConfig::default()),
            wal_offsets: vec![100, 222],
            windows_rolled: 9,
            rollers: vec![(0, roller.export_state())],
            sessions: vec![],
        };
        let bytes = encode_checkpoint(&blob);
        let back = decode_checkpoint(&bytes).unwrap();
        assert_eq!(blob, back);
        assert_eq!(bytes, encode_checkpoint(&back));

        let mut bad = bytes.clone();
        bad[0] = 0xFF; // version
        assert!(decode_checkpoint(&bad).is_err());
        // Trailing garbage is rejected, not silently ignored.
        let mut padded = bytes;
        padded.push(0);
        assert!(decode_checkpoint(&padded).is_err());
    }
}
