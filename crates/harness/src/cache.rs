//! Digest-keyed on-disk outcome cache for incremental sweeps.
//!
//! Every sweep leg is a pure function of its spec: the simulator is
//! deterministic, so a completed [`RunOutcome`]/`TrafficOutcome` can be
//! persisted once and replayed forever — re-running a sweep after a
//! config tweak only simulates the legs whose digests changed. This
//! module provides the three pieces the executor ([`crate::exec`])
//! composes:
//!
//! 1. **Keys** — [`run_spec_digest`]/[`traffic_spec_digest`] fold every
//!    field that feeds the simulation (config digest, model, flavour,
//!    workload, ops, seed, run mode) through the same FNV-1a used by
//!    `SimConfig::digest`. Any spec change ⇒ a different key ⇒ a miss.
//! 2. **Codecs** — [`encode_outcome`]/[`decode_outcome`] (and the
//!    traffic pair) render an outcome as one `key=value` line and parse
//!    it back **exactly**: histograms as sparse bucket lists, the one
//!    `f64` by bit pattern. A decoded outcome compares equal to the
//!    original, so tables built from cached legs are byte-identical.
//! 3. **Store** — [`OutcomeCache`] holds one checksummed file per key,
//!    written atomically (temp file + rename). A truncated, corrupted
//!    or wrong-format entry fails the checksum or the strict decode and
//!    is treated as a miss — the leg is re-simulated, never mis-read.

use crate::runner::{RunManifest, RunOutcome, RunSpec};
use crate::traffic::{TrafficOutcome, TrafficSpec};
use asap_sim_core::{LogHistogram, Stats};
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// 64-bit FNV-1a over a string — the same hash family (offset basis,
/// prime) as `SimConfig::digest`, reused for cache keys and entry
/// checksums so the whole cache stack is zero-dependency.
pub fn fnv1a(text: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Cache key of a closed-loop sweep leg. `mode` distinguishes run
/// styles that share a spec but execute differently: `"complete"` for
/// [`crate::run_once`], `"window=<cycles>"` for a windowed leg (see
/// [`crate::exec::Leg::digest`]). Every field that can change the
/// outcome is folded in.
pub fn run_spec_digest(spec: &RunSpec, mode: &str) -> u64 {
    fnv1a(&format!(
        "run cfg={:016x} model={} flavor={} workload={} threads={} ops={} seed={} mode={mode}",
        spec.config.digest(),
        spec.model,
        spec.flavor,
        spec.workload,
        spec.config.num_cores,
        spec.ops_per_thread,
        spec.seed,
    ))
}

/// Cache key of an open-loop traffic leg: the full [`TrafficSpec`],
/// floats by bit pattern. Only generated banks are cacheable — replayed
/// trace files are outside the digest and must bypass the cache.
pub fn traffic_spec_digest(spec: &TrafficSpec) -> u64 {
    fnv1a(&format!(
        "traffic cfg={:016x} model={} flavor={} app={} requests={} arrival={} gap={} \
         zipf={:016x} keys={} update={:016x} seed={} think={}",
        spec.config.digest(),
        spec.model,
        spec.flavor,
        spec.app,
        spec.traffic.requests,
        spec.traffic.arrival,
        spec.traffic.mean_gap,
        spec.traffic.zipf_theta.to_bits(),
        spec.traffic.key_space,
        spec.traffic.update_fraction.to_bits(),
        spec.traffic.seed,
        spec.think,
    ))
}

// -------------------------------------------------------------------
// Outcome codecs
// -------------------------------------------------------------------

/// Render a [`LogHistogram`] as `sum;min;max;buckets` — the exact
/// aggregates plus the sparse `bucket:count,…` list (`-` if empty),
/// everything `from_parts` needs.
fn enc_log(h: &LogHistogram) -> String {
    let pairs = h.nonzero_buckets();
    let buckets = if pairs.is_empty() {
        "-".to_string()
    } else {
        pairs
            .iter()
            .map(|&(b, c)| format!("{b}:{c}"))
            .collect::<Vec<_>>()
            .join(",")
    };
    format!("{};{};{};{}", h.sum(), h.min_raw(), h.max(), buckets)
}

/// Parse [`enc_log`]'s form; `from_parts` rejects anything no record
/// stream produces (zero counts, out-of-range buckets).
fn dec_log(s: &str) -> Option<LogHistogram> {
    let mut it = s.splitn(4, ';');
    let sum: u128 = it.next()?.parse().ok()?;
    let min_raw: u64 = it.next()?.parse().ok()?;
    let max: u64 = it.next()?.parse().ok()?;
    let buckets = match it.next()? {
        "-" => Vec::new(),
        list => list
            .split(',')
            .map(|p| {
                let (b, c) = p.split_once(':')?;
                Some((b.parse().ok()?, c.parse().ok()?))
            })
            .collect::<Option<Vec<_>>>()?,
    };
    LogHistogram::from_parts(&buckets, sum, min_raw, max)
}

/// The 26 scalar counters of [`Stats`], applied to a macro so the
/// encoder and decoder can never drift apart (adding a field to one
/// side without the other is a compile error here, not a silent skew).
macro_rules! stats_scalar_fields {
    ($mac:ident!($($extra:tt)*)) => {
        $mac!(
            $($extra)*
            cycles_blocked, cycles_stalled, dfence_stalled, entries_inserted,
            inter_t_epoch_conflict, tot_spec_writes, total_undo, ofence_stalled,
            nvm_writes, nvm_reads, xpbuffer_hits, total_delay, nacks,
            commit_msgs, cdr_msgs, pb_coalesced, wpq_coalesced,
            mc_suppressed_writes, epochs_created, epochs_committed,
            total_cycles, ops_completed, loads, stores, global_ts_reads,
            flush_hints
        );
    };
}

/// Render a completed run as one `key=value` line (space-separated; no
/// value contains a space). Exact: the one float travels by bit
/// pattern, histograms as sparse bucket lists.
pub fn encode_outcome(o: &RunOutcome) -> String {
    let mut out = format!(
        "kind=run cycles={} ops={} rtmax={} mwrites={} mutil={:016x} alldone={} \
         model={} flavor={} workload={} threads={} opst={} seed={} cfg={:016x} wallns={}",
        o.cycles,
        o.ops,
        o.rt_max_occupancy,
        o.media_writes,
        o.media_utilization.to_bits(),
        o.all_done as u8,
        o.manifest.model,
        o.manifest.flavor,
        o.manifest.workload,
        o.manifest.threads,
        o.manifest.ops_per_thread,
        o.manifest.seed,
        o.manifest.config_digest,
        o.manifest.wall.as_nanos().min(u64::MAX as u128),
    );
    macro_rules! push {
        ($o:expr, $($f:ident),+ $(,)?) => {
            $(out.push_str(&format!(" {}={}", stringify!($f), $o.stats.$f));)+
        };
    }
    stats_scalar_fields!(push!(o,));
    out.push_str(&format!(" pb_occ={}", enc_log(&o.stats.pb_occupancy)));
    out
}

/// Split a `key=value` line into a map, rejecting duplicates.
fn token_map(line: &str) -> Option<HashMap<&str, &str>> {
    let mut m = HashMap::new();
    for tok in line.split_whitespace() {
        let (k, v) = tok.split_once('=')?;
        if m.insert(k, v).is_some() {
            return None;
        }
    }
    Some(m)
}

/// Parse a line produced by [`encode_outcome`]. Strict: every expected
/// key must be present exactly once and nothing else may appear —
/// unknown keys, duplicates, or any malformed value return `None` (the
/// cache treats that entry as a miss and re-simulates the leg).
pub fn decode_outcome(line: &str) -> Option<RunOutcome> {
    let mut m = token_map(line)?;
    if m.remove("kind")? != "run" {
        return None;
    }
    let mut stats = Stats::new();
    macro_rules! read {
        ($m:expr, $($f:ident),+ $(,)?) => {
            $(stats.$f = $m.remove(stringify!($f))?.parse().ok()?;)+
        };
    }
    stats_scalar_fields!(read!(m,));
    stats.pb_occupancy = dec_log(m.remove("pb_occ")?)?;
    let manifest = RunManifest {
        model: m.remove("model")?.parse().ok()?,
        flavor: m.remove("flavor")?.parse().ok()?,
        workload: m.remove("workload")?.parse().ok()?,
        threads: m.remove("threads")?.parse().ok()?,
        ops_per_thread: m.remove("opst")?.parse().ok()?,
        seed: m.remove("seed")?.parse().ok()?,
        config_digest: u64::from_str_radix(m.remove("cfg")?, 16).ok()?,
        wall: Duration::from_nanos(m.remove("wallns")?.parse().ok()?),
    };
    let out = RunOutcome {
        cycles: m.remove("cycles")?.parse().ok()?,
        ops: m.remove("ops")?.parse().ok()?,
        stats,
        rt_max_occupancy: m.remove("rtmax")?.parse().ok()?,
        media_writes: m.remove("mwrites")?.parse().ok()?,
        media_utilization: f64::from_bits(u64::from_str_radix(m.remove("mutil")?, 16).ok()?),
        all_done: match m.remove("alldone")? {
            "0" => false,
            "1" => true,
            _ => return None,
        },
        manifest,
    };
    m.is_empty().then_some(out)
}

/// Render a completed traffic leg as one `key=value` line.
pub fn encode_traffic(o: &TrafficOutcome) -> String {
    format!(
        "kind=traffic cycles={} requests={} cfg={:016x} lt={} lq={} ls={}",
        o.cycles,
        o.requests,
        o.config_digest,
        enc_log(&o.lat.total),
        enc_log(&o.lat.queueing),
        enc_log(&o.lat.service),
    )
}

/// Parse a line produced by [`encode_traffic`]; same strictness
/// contract as [`decode_outcome`].
pub fn decode_traffic(line: &str) -> Option<TrafficOutcome> {
    let mut m = token_map(line)?;
    if m.remove("kind")? != "traffic" {
        return None;
    }
    let out = TrafficOutcome {
        cycles: m.remove("cycles")?.parse().ok()?,
        requests: m.remove("requests")?.parse().ok()?,
        config_digest: u64::from_str_radix(m.remove("cfg")?, 16).ok()?,
        lat: asap_sim_core::LatencySplit {
            total: dec_log(m.remove("lt")?)?,
            queueing: dec_log(m.remove("lq")?)?,
            service: dec_log(m.remove("ls")?)?,
        },
    };
    m.is_empty().then_some(out)
}

// -------------------------------------------------------------------
// On-disk store
// -------------------------------------------------------------------

/// First line of every cache entry file.
const ENTRY_HEADER: &str = "# asap-outcome v1";

/// Hit/miss/store counters of an [`OutcomeCache`], for reports and the
/// CI cache-stats artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Probes answered from disk.
    pub hits: u64,
    /// Probes that found no (valid) entry.
    pub misses: u64,
    /// Entries written.
    pub stores: u64,
}

/// A directory of checksummed outcome entries, one file per 64-bit key
/// (`<key:016x>.entry`). Concurrency-safe by construction: writes go to
/// a pid-suffixed temp file then `rename` (atomic on POSIX), so a
/// reader never observes a half-written entry and two processes
/// storing the same key just race to an identical file.
#[derive(Debug)]
pub struct OutcomeCache {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
}

impl OutcomeCache {
    /// Open (creating if needed) the cache directory.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<OutcomeCache> {
        std::fs::create_dir_all(dir.as_ref())?;
        Ok(OutcomeCache {
            dir: dir.as_ref().to_path_buf(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
        })
    }

    /// The directory backing this cache.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of `key`'s entry file.
    pub fn entry_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.entry"))
    }

    /// Load the payload stored under `key`. Any failure — no file, bad
    /// header, truncation, checksum mismatch — is a miss (`None`);
    /// corruption can cost a re-run but never a wrong result.
    pub fn load(&self, key: u64) -> Option<String> {
        let payload = std::fs::read_to_string(self.entry_path(key))
            .ok()
            .and_then(|text| Self::parse_entry(&text));
        match &payload {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        payload
    }

    /// Validate an entry file and extract its payload.
    fn parse_entry(text: &str) -> Option<String> {
        let mut lines = text.lines();
        if lines.next()? != ENTRY_HEADER {
            return None;
        }
        let body: Vec<&str> = lines.collect();
        let (last, payload_lines) = body.split_last()?;
        let sum = u64::from_str_radix(last.strip_prefix("# end ")?, 16).ok()?;
        let payload = payload_lines.join("\n");
        (fnv1a(&payload) == sum).then_some(payload)
    }

    /// Atomically persist `payload` under `key` (trailing newlines are
    /// trimmed; payloads may span multiple lines but must not contain
    /// lines starting with `# end `).
    pub fn store(&self, key: u64, payload: &str) -> io::Result<()> {
        let payload = payload.trim_end_matches('\n');
        let text = format!("{ENTRY_HEADER}\n{payload}\n# end {:016x}\n", fnv1a(payload));
        let tmp = self
            .dir
            .join(format!("{key:016x}.tmp.{}", std::process::id()));
        std::fs::write(&tmp, text)?;
        std::fs::rename(&tmp, self.entry_path(key))?;
        self.stores.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Counters since `open`.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Leg;
    use crate::runner::run_once;
    use asap_sim_core::{Cycle, Flavor, ModelKind, SimConfig};
    use asap_workloads::WorkloadKind;

    fn tiny_spec() -> RunSpec {
        RunSpec {
            config: SimConfig::paper(),
            model: ModelKind::Asap,
            flavor: Flavor::Release,
            workload: WorkloadKind::Queue,
            ops_per_thread: 12,
            seed: 42,
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("asap-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a("a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn outcome_codec_round_trips_exactly() {
        let out = run_once(&tiny_spec());
        let line = encode_outcome(&out);
        assert!(!line.contains('\n'));
        let back = decode_outcome(&line).expect("own encoding must decode");
        assert_eq!(back, out, "decoded outcome must compare equal");
        // The float survives by bit pattern, beyond PartialEq's ULP.
        assert_eq!(
            back.media_utilization.to_bits(),
            out.media_utilization.to_bits()
        );
        assert_eq!(back.manifest.wall, out.manifest.wall);
    }

    #[test]
    fn decode_rejects_tampered_lines() {
        let line = encode_outcome(&run_once(&tiny_spec()));
        assert!(decode_outcome("").is_none());
        assert!(decode_outcome("kind=run").is_none(), "missing fields");
        assert!(decode_outcome(&format!("{line} extra=1")).is_none());
        assert!(decode_outcome(&format!("{line} cycles=7")).is_none());
        assert!(decode_outcome(&line.replace("kind=run", "kind=x")).is_none());
        assert!(decode_outcome(&line[..line.len() / 2]).is_none());
        assert!(decode_outcome(&line.replace("alldone=1", "alldone=2")).is_none());
    }

    #[test]
    fn dense_occupancy_format_is_a_miss() {
        // An entry written before PB occupancy became a `LogHistogram`:
        // dense `value:count` buckets and three more occupancy keys.
        let old = "kind=run cycles=25394 ops=48 rtmax=0 mwrites=172 \
            mutil=3fc381c8cbb8244b alldone=1 model=hops flavor=RP workload=cceh \
            threads=4 opst=12 seed=42 cfg=b406ffbf70e597b2 wallns=603148 \
            cycles_blocked=29580 cycles_stalled=0 dfence_stalled=40092 \
            entries_inserted=172 inter_t_epoch_conflict=1 tot_spec_writes=0 \
            total_undo=0 ofence_stalled=0 nvm_writes=172 nvm_reads=83 \
            xpbuffer_hits=0 total_delay=0 nacks=0 commit_msgs=0 cdr_msgs=0 \
            pb_coalesced=0 wpq_coalesced=0 mc_suppressed_writes=0 \
            epochs_created=266 epochs_committed=266 total_cycles=25394 \
            ops_completed=48 loads=261 stores=172 global_ts_reads=1 \
            flush_hints=0 pb_occ=0:58830,1:12513,2:10836,3:10793,4:8604 \
            rt_occ=0:1 et_occ=1:4 wpq_occ=-";
        assert!(decode_outcome(old).is_none(), "unknown occupancy keys");
        // Without them the dense `pb_occ` still does not parse.
        let pb_only = old.split(" rt_occ=").next().unwrap();
        assert!(decode_outcome(pb_only).is_none(), "dense pb_occ");
    }

    #[test]
    fn run_digest_is_sensitive_to_every_axis() {
        let base = tiny_spec();
        let d = run_spec_digest(&base, "complete");
        assert_eq!(d, run_spec_digest(&base.clone(), "complete"));

        let mut seed = base.clone();
        seed.seed = 43;
        let mut model = base.clone();
        model.model = ModelKind::Hops;
        let mut flavor = base.clone();
        flavor.flavor = Flavor::Epoch;
        let mut ops = base.clone();
        ops.ops_per_thread = 13;
        let mut work = base.clone();
        work.workload = WorkloadKind::Heap;
        let mut cfg = base.clone();
        cfg.config.rt_entries = base.config.rt_entries + 1;
        let digests = [
            run_spec_digest(&seed, "complete"),
            run_spec_digest(&model, "complete"),
            run_spec_digest(&flavor, "complete"),
            run_spec_digest(&ops, "complete"),
            run_spec_digest(&work, "complete"),
            run_spec_digest(&cfg, "complete"),
            Leg::windowed(base.clone(), Cycle(200_000)).digest(),
        ];
        for (i, &other) in digests.iter().enumerate() {
            assert_ne!(d, other, "axis {i} must change the digest");
        }
    }

    #[test]
    fn store_load_round_trip_and_corruption_is_a_miss() {
        let dir = tmpdir("store");
        let cache = OutcomeCache::open(&dir).unwrap();
        let key = 0xdead_beef_0042u64;
        assert_eq!(cache.load(key), None, "empty cache misses");
        cache.store(key, "kind=test payload=1").unwrap();
        assert_eq!(cache.load(key).as_deref(), Some("kind=test payload=1"));

        // Truncate the entry: checksum line is gone → miss.
        let path = cache.entry_path(key);
        let full = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert_eq!(cache.load(key), None, "truncated entry must miss");

        // Flip a payload byte but keep the shape → checksum miss.
        std::fs::write(&path, full.replace("payload=1", "payload=2")).unwrap();
        assert_eq!(cache.load(key), None, "corrupted entry must miss");

        // Garbage file → miss, never an error.
        std::fs::write(&path, "not a cache entry at all").unwrap();
        assert_eq!(cache.load(key), None);

        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.stores), (1, 4, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn multi_line_payloads_round_trip() {
        let dir = tmpdir("multiline");
        let cache = OutcomeCache::open(&dir).unwrap();
        let payload = "line_one 1\nline_two 2\nline_three 3";
        cache.store(7, payload).unwrap();
        assert_eq!(cache.load(7).as_deref(), Some(payload));
        // A trailing newline is normalized away, not corrupting.
        cache.store(8, "x 1\n").unwrap();
        assert_eq!(cache.load(8).as_deref(), Some("x 1"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
