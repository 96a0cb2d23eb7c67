//! The decode service: cross-client batching into packed tiles over a
//! persistent decode-worker pool.
//!
//! One *batcher* thread collects shots submitted by any number of client
//! sessions and packs them — across clients — into [`SyndromeTile`]s of
//! at most `tile_words × 64` lanes. Full tiles (or partial ones, once
//! the batch window expires or a flush arrives) flow over a bounded
//! channel into persistent decode workers, each owning one decoder
//! instance, one [`DecodeScratch`] arena, and one
//! [`TileScratch`](astrea_core::TileScratch) (whose HW ≤ 2 screen cache
//! and [`HardSyndromeCache`](astrea_core::HardSyndromeCache) warm across
//! the whole service lifetime — the correlated, long-running streams the
//! hard cache was built for). Workers decode tiles with the fused
//! classify+extract pass ([`decode_tile_with_predictions`]) and route
//! each lane's [`Prediction`] back to the session that submitted it.
//!
//! # Exactness
//!
//! Every shot is decoded independently by a deterministic decoder (the
//! screen and hard caches only replay it), so a shot's prediction is a
//! pure function of its fired-detector list — independent of which
//! clients share a tile, how tiles are cut, and which worker decodes
//! them. Per-client responses are re-ordered by submission sequence
//! number, so each client observes exactly the stream
//! [`decode_slice`](astrea_core::decode_slice) would have produced for
//! its shots alone; the aggregate [`ServiceStats`] are sums
//! and maxima and equal the offline totals. The serving equivalence
//! suite enforces both bit-for-bit.
//!
//! # Backpressure
//!
//! Admission control is per client: a session holds `max_inflight`
//! credits, one per shot submitted and not yet consumed, and its
//! [`SubmitPolicy`](crate::SubmitPolicy) decides whether an exhausted
//! budget blocks or rejects. Because workers deliver responses into
//! per-client queues whose occupancy the credit budget bounds, a slow or
//! stalled client can never block a worker — other clients' responses
//! keep flowing. The tile channel between batcher and workers is bounded
//! too ([`ServeConfig::tile_queue_depth`]), so a saturated pool pushes
//! back on the batcher rather than buffering unboundedly.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use astrea_core::batch::BatchDecoderFactory;
use astrea_core::pipeline::{decode_tile_with_predictions, StreamOutcome, TileScratch};
use astrea_core::{PipelineCounters, DEFAULT_CHANNEL_DEPTH, DEFAULT_HARD_CACHE_ENTRIES};
use decoding_graph::{DecodeScratch, DecodingContext, Prediction};
use qec_circuit::{BitTable, SyndromeTile};

use crate::session::{ClientSession, Credits, ReceiveHandle, SubmitHandle, SubmitPolicy};

/// A response routed back to a session: the shot's submission sequence
/// number and its prediction.
pub(crate) type Reply = (u64, Prediction);

/// One shot staged for cross-client batching.
pub(crate) struct ShotRequest {
    /// The submitting session's response channel.
    pub reply: mpsc::Sender<Reply>,
    /// Per-session submission sequence number.
    pub seq: u64,
    /// Sorted fired-detector indices.
    pub dets: Vec<u32>,
    /// Actual observable-flip mask (0 when unknown; only used for the
    /// service's aggregate failure accounting).
    pub actual: u32,
}

/// Messages from sessions (and the service handle) to the batcher.
pub(crate) enum BatchMsg {
    /// Stage one shot.
    Shot(ShotRequest),
    /// Emit the staged partial tile immediately.
    Flush,
    /// Emit the staged partial tile and stop accepting work.
    Shutdown,
}

/// One packed tile plus the route of every lane back to its client.
struct ServeTileMsg {
    tile: SyndromeTile,
    /// `routes[lane]` is the reply channel and sequence number of the
    /// shot in that lane.
    routes: Vec<(mpsc::Sender<Reply>, u64)>,
}

/// Shape of a [`DecodeService`]. Every field is a performance or
/// batching knob: results are bit-identical for any configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Persistent decode workers (at least one).
    pub workers: usize,
    /// Packed words per serving tile (≤ 64·`tile_words` shots batched
    /// per decode call). Serving tiles default smaller than the bulk
    /// pipeline's so partial flushes stay cheap at low offered rates.
    pub tile_words: usize,
    /// Bound on tiles buffered between the batcher and the workers.
    pub tile_queue_depth: usize,
    /// How long the first staged shot of a tile may wait for co-batched
    /// traffic before a partial tile is emitted. `Duration::ZERO` means
    /// eager: emit as soon as the request queue is momentarily empty.
    pub batch_window: Duration,
    /// Per-session credit budget: shots submitted but not yet consumed
    /// by the client. Bounds per-client memory end to end and is the
    /// lever the [`SubmitPolicy`](crate::SubmitPolicy) acts on.
    pub max_inflight: usize,
    /// Per-worker capacity of the hard-syndrome prediction cache
    /// (0 disables it).
    pub hard_cache_entries: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            tile_words: 4,
            tile_queue_depth: DEFAULT_CHANNEL_DEPTH,
            batch_window: Duration::ZERO,
            max_inflight: 4096,
            hard_cache_entries: DEFAULT_HARD_CACHE_ENTRIES,
        }
    }
}

/// Aggregate accounting across every worker of a service: the same
/// totals the offline paths produce ([`StreamOutcome`]) plus the
/// per-stage [`PipelineCounters`] and the number of tiles decoded.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Latency statistics, failures, and deferrals over every decoded
    /// shot — bit-identical to offline
    /// [`decode_slice`](astrea_core::decode_slice) totals for the same
    /// shots.
    pub outcome: StreamOutcome,
    /// Per-stage shot counters (screen, closed form, hard cache, DP,
    /// sparse blossom), summed across workers.
    pub counters: PipelineCounters,
    /// Tiles decoded by the pool.
    pub tiles: u64,
}

/// Per-worker accounting slot, republished after every tile.
#[derive(Debug, Clone, Default)]
struct WorkerSlot {
    outcome: StreamOutcome,
    counters: PipelineCounters,
    tiles: u64,
}

/// A long-running decode service (see the [module docs](self)).
///
/// Construction spawns the batcher and the worker pool; sessions are
/// handed out with [`DecodeService::session`] and the in-process API on
/// [`ClientSession`]. [`DecodeService::shutdown`] (also run on drop)
/// flushes staged work, drains the tile queue, and joins every thread —
/// no worker outlives the service.
pub struct DecodeService {
    req: mpsc::Sender<BatchMsg>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    stats: Arc<Mutex<Vec<WorkerSlot>>>,
    num_detectors: usize,
    obs_mask: u32,
    max_inflight: usize,
}

impl DecodeService {
    /// Spawns the batcher and `config.workers` decode workers, each
    /// building its own decoder from `factory` against `ctx` (see
    /// [`BatchDecoderFactory`]).
    pub fn new(
        ctx: Arc<DecodingContext>,
        config: ServeConfig,
        factory: Arc<BatchDecoderFactory>,
    ) -> DecodeService {
        let num_detectors = ctx.dem().num_detectors();
        let num_observables = ctx.dem().num_observables().min(32);
        let obs_mask = if num_observables == 32 {
            u32::MAX
        } else {
            (1u32 << num_observables) - 1
        };
        let workers = config.workers.max(1);
        let (req_tx, req_rx) = mpsc::channel::<BatchMsg>();
        let (tile_tx, tile_rx) = mpsc::sync_channel::<ServeTileMsg>(config.tile_queue_depth.max(1));
        let tile_rx = Arc::new(Mutex::new(tile_rx));
        let stats = Arc::new(Mutex::new(vec![WorkerSlot::default(); workers]));
        let mut handles = Vec::with_capacity(workers + 1);

        let batch_window = config.batch_window;
        let capacity = config.tile_words.max(1) * 64;
        handles.push(
            std::thread::Builder::new()
                .name("astrea-serve-batcher".into())
                .spawn(move || {
                    run_batcher(
                        req_rx,
                        tile_tx,
                        capacity,
                        batch_window,
                        num_detectors,
                        num_observables,
                    )
                })
                .expect("failed to spawn serve batcher"),
        );

        for w in 0..workers {
            let ctx = Arc::clone(&ctx);
            let factory = Arc::clone(&factory);
            let tile_rx = Arc::clone(&tile_rx);
            let stats = Arc::clone(&stats);
            let hard_cache_entries = config.hard_cache_entries;
            handles.push(
                std::thread::Builder::new()
                    .name(format!("astrea-serve-{w}"))
                    .spawn(move || {
                        let mut decoder = factory(&ctx);
                        let mut scratch = DecodeScratch::new();
                        let mut tiles = TileScratch::with_hard_cache(hard_cache_entries);
                        let mut out = StreamOutcome::default();
                        let mut preds: Vec<Prediction> = Vec::new();
                        let mut decoded = 0u64;
                        loop {
                            // Take the lock only to pull the next tile;
                            // decoding runs unlocked so workers overlap.
                            let msg = tile_rx.lock().expect("serve tile queue poisoned").recv();
                            let Ok(ServeTileMsg { tile, routes }) = msg else {
                                break;
                            };
                            preds.clear();
                            preds.resize(tile.num_shots(), Prediction::identity());
                            decode_tile_with_predictions(
                                decoder.as_mut(),
                                &mut scratch,
                                &mut tiles,
                                &tile,
                                &mut out,
                                &mut preds,
                            );
                            decoded += 1;
                            // Publish accounting before routing replies:
                            // once a client holds this tile's response,
                            // stats() must already include the tile.
                            {
                                let mut slots = stats.lock().expect("serve stats poisoned");
                                slots[w] = WorkerSlot {
                                    outcome: out.clone(),
                                    counters: *tiles.counters(),
                                    tiles: decoded,
                                };
                            }
                            for (lane, (reply, seq)) in routes.into_iter().enumerate() {
                                // A send error means the client hung up
                                // mid-stream; its prediction is dropped
                                // and everyone else's keeps flowing.
                                let _ = reply.send((seq, preds[lane]));
                            }
                        }
                    })
                    .expect("failed to spawn serve worker"),
            );
        }

        DecodeService {
            req: req_tx,
            handles: Mutex::new(handles),
            stats,
            num_detectors,
            obs_mask,
            max_inflight: config.max_inflight.max(1),
        }
    }

    /// Opens a new client session with the given backpressure policy.
    ///
    /// Sessions are independent: each gets its own response channel,
    /// credit budget, and sequence numbering, and observes its shots'
    /// predictions in submission order whatever the cross-client
    /// batching does.
    pub fn session(&self, policy: SubmitPolicy) -> ClientSession {
        let credits = Arc::new(Credits::new(self.max_inflight));
        let (reply_tx, reply_rx) = mpsc::channel::<Reply>();
        ClientSession::new(
            SubmitHandle::new(
                self.req.clone(),
                reply_tx,
                Arc::clone(&credits),
                policy,
                self.num_detectors,
                self.obs_mask,
            ),
            ReceiveHandle::new(reply_rx, credits),
        )
    }

    /// Number of detectors per syndrome the service decodes.
    pub fn num_detectors(&self) -> usize {
        self.num_detectors
    }

    /// Asks the batcher to emit the staged partial tile immediately —
    /// the service-wide version of [`ClientSession::flush`].
    pub fn flush(&self) {
        let _ = self.req.send(BatchMsg::Flush);
    }

    /// Aggregate accounting across every worker, as of the last tile
    /// each one finished.
    pub fn stats(&self) -> ServiceStats {
        let slots = self.stats.lock().expect("serve stats poisoned");
        let mut total = ServiceStats::default();
        for s in slots.iter() {
            total.outcome.merge(&s.outcome);
            total.counters.merge(&s.counters);
            total.tiles += s.tiles;
        }
        total
    }

    /// Stops the service: staged shots are flushed, queued tiles are
    /// decoded and their responses delivered, and every thread is
    /// joined. Safe to call more than once; also runs on drop.
    ///
    /// Shots already accepted by the batcher are never lost, but a
    /// submission racing this call can be rejected with
    /// [`SubmitError::Closed`](crate::SubmitError::Closed).
    pub fn shutdown(&self) {
        let _ = self.req.send(BatchMsg::Shutdown);
        let handles: Vec<JoinHandle<()>> = {
            let mut guard = self.handles.lock().expect("serve handles poisoned");
            guard.drain(..).collect()
        };
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for DecodeService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Packs staged shots into one tile and ships it; `staged` is left empty
/// and reusable. A send error (every worker gone) drops the shots.
fn emit(
    staged: &mut Vec<ShotRequest>,
    tile_tx: &mpsc::SyncSender<ServeTileMsg>,
    num_detectors: usize,
    num_observables: usize,
) {
    if staged.is_empty() {
        return;
    }
    let n = staged.len();
    let mut det = BitTable::new(num_detectors, n);
    let mut obs = BitTable::new(num_observables, n);
    let mut routes = Vec::with_capacity(n);
    for (lane, shot) in staged.drain(..).enumerate() {
        for &d in &shot.dets {
            det.set(d as usize, lane, true);
        }
        for b in 0..num_observables {
            if shot.actual >> b & 1 == 1 {
                obs.set(b, lane, true);
            }
        }
        routes.push((shot.reply, shot.seq));
    }
    let _ = tile_tx.send(ServeTileMsg {
        tile: SyndromeTile::new(0, det, obs),
        routes,
    });
}

/// The batcher loop: stage shots, emit on full tile / window expiry /
/// flush / shutdown. Exits when told to shut down or when every request
/// sender (the service handle and all sessions) is gone.
fn run_batcher(
    req_rx: mpsc::Receiver<BatchMsg>,
    tile_tx: mpsc::SyncSender<ServeTileMsg>,
    capacity: usize,
    batch_window: Duration,
    num_detectors: usize,
    num_observables: usize,
) {
    let mut staged: Vec<ShotRequest> = Vec::with_capacity(capacity);
    let mut deadline = Instant::now();
    loop {
        let msg = if staged.is_empty() {
            match req_rx.recv() {
                Ok(m) => Some(m),
                Err(_) => break,
            }
        } else {
            let left = deadline.saturating_duration_since(Instant::now());
            match req_rx.recv_timeout(left) {
                Ok(m) => Some(m),
                Err(RecvTimeoutError::Timeout) => None,
                Err(RecvTimeoutError::Disconnected) => {
                    emit(&mut staged, &tile_tx, num_detectors, num_observables);
                    break;
                }
            }
        };
        match msg {
            Some(BatchMsg::Shot(shot)) => {
                if staged.is_empty() {
                    deadline = Instant::now() + batch_window;
                }
                staged.push(shot);
                if staged.len() >= capacity {
                    emit(&mut staged, &tile_tx, num_detectors, num_observables);
                }
            }
            Some(BatchMsg::Flush) | None => {
                emit(&mut staged, &tile_tx, num_detectors, num_observables);
            }
            Some(BatchMsg::Shutdown) => {
                // Drain already-queued submissions so every accepted
                // shot still gets decoded and answered.
                while let Ok(m) = req_rx.try_recv() {
                    if let BatchMsg::Shot(shot) = m {
                        staged.push(shot);
                        if staged.len() >= capacity {
                            emit(&mut staged, &tile_tx, num_detectors, num_observables);
                        }
                    }
                }
                emit(&mut staged, &tile_tx, num_detectors, num_observables);
                break;
            }
        }
    }
    // Dropping tile_tx here lets the workers drain the queue and exit.
}
