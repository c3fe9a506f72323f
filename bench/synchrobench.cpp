// synchrobench — a CLI reproducing the paper's artifact runner (Appendix A).
//
// The original artifact drives all experiments through a synchrobench fork:
// scenarios like `-a 0 -u 100` (put-only) or `--buffer -c -a 100`
// (zero-copy descending scans), competitors OakMap / JavaSkipListMap /
// OffHeapList, and a summary.csv with the columns
//
//   Scenario | Bench | Heap size | Direct Mem | #Threads | Final Size | Throughput
//
// This binary accepts the same vocabulary (plus explicit memory knobs) and
// prints that table; `--csv FILE` also appends machine-readable rows.
//
//   ./synchrobench -b OakMap -t "1 4 8" -u 5 --buffer -d 2000 -i 100000
//   ./synchrobench --scenario 4f   # canned paper scenarios: 4a..4f
//
// With no arguments it runs a quick sweep of all canned scenarios over all
// competitors.  Exits non-zero when any point ran out of memory (each such
// point is named on stderr with the resource that ran out), so a sweep
// never reports a 0 Mops point as success.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "benchcore/adapters.hpp"
#include "benchcore/driver.hpp"

using namespace oak::bench;

namespace {

struct Options {
  std::vector<std::string> benches{"OakMap", "JavaSkipListMap", "OffHeapList"};
  std::vector<unsigned> threads{1, 2, 4, 8};
  std::size_t size = 100'000;
  std::size_t keySize = 100;
  std::size_t valueSize = 1024;
  unsigned updatePct = 0;    // -u : put percentage
  unsigned removePct = 0;    // -r : remove percentage
  unsigned computePct = 0;   // -c with -s: in-place updates
  unsigned scanPct = 0;      // -s : scan percentage
  bool valueJitter = false;  // --churn: puts draw jittered value sizes
  double zipfTheta = 0;      // --zipf: skewed key choice (0 = uniform)
  bool snapshotScans = false;  // snapshot-churn: scans pin an MVCC version
  int maintThreads = -1;     // --maint-threads: background rebalance workers
  unsigned offHeapSlackPct = 6;  // arena headroom over raw data
  bool generationalValues = false;  // recycle value headers (churn preset)
  bool descending = false;   // -a 100 with scans
  bool zeroCopy = false;     // --buffer
  bool stream = false;       // --stream-iteration
  std::uint32_t durationMs = 300;  // -d
  std::size_t scanLength = 1000;
  std::size_t ramMb = 0;     // 0 = auto (3x raw)
  std::vector<std::size_t> shards{1};  // --shards: Oak range-partition sweep
  std::string scenario = "custom";
  std::string csvPath;
  std::string storageDir;    // --storage-dir: Oak runs durable (WAL + mmap)
  std::string fsyncPolicy = "never";  // --fsync: never | interval | every-commit
};

void usage() {
  std::puts(
      "synchrobench (Oak-C++ artifact runner)\n"
      "  -b  <list>   benches: OakMap JavaSkipListMap OffHeapList (quoted list)\n"
      "  -t  <list>   thread counts, e.g. \"1 4 8\"\n"
      "  -i  <n>      key range (warm-up fills 50%)\n"
      "  -k/-v <n>    key/value size in bytes (default 100/1024)\n"
      "  -u  <pct>    put percentage (rest are gets)\n"
      "  -r  <pct>    remove percentage\n"
      "  -s  <pct>    scan percentage\n"
      "  -c           make -s scans in-place computes instead\n"
      "  -a  <pct>    with -s: percentage of scans that run descending\n"
      "  -d  <ms>     duration per point\n"
      "  -L  <n>      scan length (default 1000)\n"
      "  -m  <MiB>    total RAM budget (default 3x raw data, at least 64)\n"
      "  --shards <list>      Oak shard counts to sweep, e.g. \"1 4 8\" (default 1)\n"
      "  --buffer             use the zero-copy API\n"
      "  --stream-iteration   use the Stream scan API\n"
      "  --churn              delete/resize churn preset (50%% put w/ jittered\n"
      "                       values, 30%% remove, 20%% get) — the magazine\n"
      "                       allocator's target workload\n"
      "  --no-magazines       pre-PR first-fit slow path (A/B baseline)\n"
      "  --zipf <theta>       zipfian key skew (YCSB formula; 0.99 typical)\n"
      "  --maint-threads <n>  background maintenance workers for Oak\n"
      "                       (0 = inline rebalance on mutators, -1 = env/auto)\n"
      "  --scenario <4a..4f|churn|zipf|snapshot-churn|recovery|compaction>\n"
      "                       canned scenario\n"
      "  --no-snapshot-scans  snapshot-churn baseline: same mix, scans\n"
      "                       don't pin a version (A/B for the p99 gate)\n"
      "  --storage-dir <dir>  Oak runs durable: mmap arenas + WAL + checkpoints\n"
      "                       under <dir> (wiped per point; sweeps reuse it)\n"
      "  --fsync <policy>     WAL sync for durable runs: never (default),\n"
      "                       interval, every-commit\n"
      "  --csv <file>         append rows as CSV\n"
      "\n"
      "  --scenario recovery runs the durability A/B instead of a mix sweep:\n"
      "  ingests an in-memory map and a durable one (then checkpoints it),\n"
      "  times paired put-only tail reps on both, alternating which runs\n"
      "  first, then closes and reopens the durable map in-process.  Emits\n"
      "  one machine-readable RECOVERY line (bench_smoke's cold-restart and\n"
      "  put-p99 gates read it); put_p99_ratio is the median per-pair ratio.\n"
      "\n"
      "  --scenario compaction runs the relocation A/B: wave-shaped churn\n"
      "  carves sparse arenas in two maps, relocation off and armed, then\n"
      "  paired churn-stage reps run on both, alternating which runs first.\n"
      "  Emits one COMPACTION line (bench_smoke gates the median per-pair\n"
      "  put p99 ratio and the arena reclaim).\n");
}

void applyScenario(Options& o) {
  // The artifact's scenario strings (Appendix A.7).
  if (o.scenario == "4a") {            // "-a 0 -u 100"
    o.updatePct = 100;
  } else if (o.scenario == "4b") {     // "--buffer -u 0 -s 100 -c"
    o.zeroCopy = true;
    o.scanPct = 100;
    o.computePct = 100;
  } else if (o.scenario == "4c") {     // "--buffer" (gets) — zc vs copy is -b
    o.zeroCopy = true;
  } else if (o.scenario == "4c-copy") {
    o.zeroCopy = false;
  } else if (o.scenario == "4d") {     // "--buffer -a 0 -u 5"
    o.zeroCopy = true;
    o.updatePct = 5;
  } else if (o.scenario == "4e") {     // "--buffer -c" (ascending entry scan)
    o.zeroCopy = true;
    o.scanPct = 100;
  } else if (o.scenario == "4e-stream") {
    o.zeroCopy = true;
    o.scanPct = 100;
    o.stream = true;
  } else if (o.scenario == "4f") {     // "--buffer -c -a 100" (descending)
    o.zeroCopy = true;
    o.scanPct = 100;
    o.descending = true;
  } else if (o.scenario == "4f-stream") {
    o.zeroCopy = true;
    o.scanPct = 100;
    o.descending = true;
    o.stream = true;
  } else if (o.scenario == "churn") {
    // Delete/resize churn: every put overwrites with a jittered value size
    // (resize -> free + alloc) and removes keep the free path hot.  This is
    // the workload whose recycled-slice traffic the size-class magazines
    // absorb; compare with --no-magazines for the first-fit baseline.
    o.zeroCopy = true;
    o.updatePct = 50;
    o.removePct = 30;
    o.valueJitter = true;
    // Deletes and resizes fragment the first-fit arenas; give the off-heap
    // pool real headroom so the gate measures recycling, not OOM churn.
    o.offHeapSlackPct = 50;
    // Removes dominate this mix; immortal headers (the paper's evaluated
    // default) would leak one slice per remove and drown the measurement.
    o.generationalValues = true;
  } else if (o.scenario == "zipf") {
    // Skewed put-heavy mix for the maintenance A/B: zipfian key choice
    // concentrates writes on the low end of the range, so rebalance (and,
    // when sharded, split/merge) pressure lands on a few hot chunks.  The
    // remove leg matters — pure overwrites reuse the sorted prefix and
    // stop triggering rebalances once the range is populated; remove +
    // reinsert keeps every hot chunk accumulating unsorted entries, which
    // is exactly the work the background pool exists to absorb.  Compare
    // --maint-threads 0 (inline, the seed's behavior) against N > 0 and
    // watch the put p99 in the METRICS line.
    o.zeroCopy = true;
    o.updatePct = 40;
    o.removePct = 20;
    o.zipfTheta = 0.99;
    o.offHeapSlackPct = 50;
    o.generationalValues = true;
  } else if (o.scenario == "snapshot-churn") {
    // Long snapshot scans racing zipfian writers (ISSUE 8).  Each scan pins
    // an MVCC read version for its whole walk, so every overwrite of a
    // scanned key chains the superseded value until version GC catches up —
    // the worst case for both the write path (chain pushes) and the arena
    // (retained versions).  The METRICS line carries the writer's put p99
    // and the whole-scan p50/p99; bench_smoke gates the put p99 against a
    // --no-snapshot-scans baseline of the same mix.
    o.zeroCopy = true;
    o.updatePct = 40;
    o.removePct = 10;
    o.scanPct = 10;
    o.zipfTheta = 0.99;
    o.snapshotScans = true;
    // Retained version chains live in the same arena as the data; give
    // them real headroom on top of the churn slack.
    o.offHeapSlackPct = 75;
    o.generationalValues = true;
  }
}

Mix mixFor(const Options& o) {
  Mix m;
  m.putPct = o.updatePct;
  m.removePct = o.removePct;
  if (o.scanPct > 0 && o.computePct > 0) {
    m.computePct = o.computePct;  // "-s 100 -c": in-place updates
  } else if (o.scanPct > 0) {
    (o.descending ? m.scanDescPct : m.scanAscPct) = o.scanPct;
  }
  m.streamScans = o.stream;
  m.valueJitter = o.valueJitter;
  m.zipfTheta = o.zipfTheta;
  m.snapshotScans = o.snapshotScans;
  return m;
}

/// The point's BenchConfig as the command line sets it; the scenarios
/// override what they fix themselves.
BenchConfig configFor(const Options& o, unsigned threads, std::size_t shards) {
  BenchConfig cfg;
  cfg.keyRange = o.size;
  cfg.keyBytes = o.keySize;
  cfg.valueBytes = o.valueSize;
  cfg.threads = threads;
  cfg.durationMs = o.durationMs;
  cfg.scanLength = o.scanLength;
  cfg.shards = shards;
  cfg.offHeapSlackPct = o.offHeapSlackPct;
  cfg.generationalValues = o.generationalValues;
  cfg.maintThreads = o.maintThreads;
  return cfg;
}

/// Runs every (shards, threads) point of one competitor; returns how many
/// points ran out of memory.
template <class Adapter, class... Args>
int runBench(const Options& o, const std::string& bench,
             const std::vector<std::size_t>& shards, Args&&... args) {
  int oomPoints = 0;
  std::ofstream csv;
  if (!o.csvPath.empty()) csv.open(o.csvPath, std::ios::app);
  for (std::size_t sh : shards) {
    for (unsigned t : o.threads) {
      BenchConfig cfg = configFor(o, t, sh);
      // Auto budget: 3x raw (Fig. 4's ratio), floored so that at a tiny -i
      // the heap's share still holds the chunk metadata.
      cfg.totalRamBytes = o.ramMb != 0
                              ? (o.ramMb << 20)
                              : std::max(cfg.rawDataBytes() * 3, std::size_t{64} << 20);
      if (!o.storageDir.empty() && bench == "OakMap") {
        // Each point gets a fresh subtree so a sweep never recovers the
        // previous point's data (repeats inside one point still share it —
        // use repeats 1 for clean durable numbers).
        cfg.storageDir = o.storageDir + "/" + bench + "-x" + std::to_string(sh) +
                         "-t" + std::to_string(t);
        std::error_code ec;
        std::filesystem::remove_all(cfg.storageDir, ec);
        cfg.fsyncPolicy = o.fsyncPolicy;
      }
      const RamSplit split = splitRam(cfg, bench != "JavaSkipListMap");
      std::string label = bench;
      if (sh > 1) label += "-x" + std::to_string(sh);
      const PointResult r =
          runPoint<Adapter>(cfg, mixFor(o), std::forward<Args>(args)...);
      // The artifact's summary.csv layout.
      std::printf("%-14s %-18s %8zum %8zum %9u %12zu %14.6f\n", o.scenario.c_str(),
                  label.c_str(), split.heapBytes >> 20, split.offHeapBytes >> 20, t,
                  r.finalSize, r.kops / 1e3 /* Mops, like the artifact */);
      printMetricsLine(label.c_str(), static_cast<double>(t), r);
      std::fflush(stdout);
      if (r.oom) {
        std::fprintf(stderr, "synchrobench: point %s %s t=%u ran out of memory (%s)\n",
                     o.scenario.c_str(), label.c_str(), t, oomKindName(r.oomKind));
        ++oomPoints;
      }
      if (csv.is_open()) {
        csv << o.scenario << ',' << label << ',' << (split.heapBytes >> 20)
            << "m," << (split.offHeapBytes >> 20) << "m," << t << ','
            << r.finalSize << ',' << r.kops / 1e3 << '\n';
      }
    }
  }
  return oomPoints;
}

/// Runs every requested competitor; returns the number of failed points
/// (out of memory, or an unknown bench name).
int runAll(const Options& o) {
  std::printf("%-14s %-18s %9s %9s %9s %12s %14s\n", "Scenario", "Bench",
              "Heap", "DirectMem", "#Threads", "Final Size", "Mops/sec");
  const std::vector<std::size_t> one{1};
  int failed = 0;
  for (const std::string& b : o.benches) {
    if (b == "OakMap") {
      // Only Oak understands sharding; the baselines run once.
      failed += runBench<OakAdapter>(o, b, o.shards, /*copyApi=*/!o.zeroCopy);
    } else if (b == "JavaSkipListMap") {
      failed += runBench<OnHeapAdapter>(o, b, one);
    } else if (b == "OffHeapList") {
      failed += runBench<OffHeapAdapter>(o, b, one);
    } else {
      std::fprintf(stderr, "unknown bench: %s\n", b.c_str());
      ++failed;
    }
  }
  return failed;
}

// ------------------------------------------------- paired scenarios
// The recovery and compaction scenarios are put-latency A/Bs, not mix
// sweeps.  Each prepares both of its maps up front, then benchcore's
// pairedAB interleaves op-bounded, put-sampled sustainedStage reps on the
// two, alternating which side runs first.  Percentiles are exact (every
// sampled put), unlike the bucketed histogram in the METRICS line: the gates
// want both sides measured identically and precisely.

/// Stage reps per side of a paired A/B.
constexpr int kPairedReps = 5;

/// One rep of `mix` on `a`, seeded per rep so each pair replays the same
/// key sequence on both sides.  Adds the rep's ChunkWalker problems to
/// `verrors` and reports an OOM on stderr.
ExactPercentiles pairedRep(OakAdapter& a, const BenchConfig& cfg, const Mix& mix,
                           int rep, const char* scenario, std::size_t& verrors,
                           bool& oom) {
  BenchConfig c = cfg;
  c.seed += static_cast<std::uint64_t>(rep);
  const PointResult r = sustainedStage(a, c, mix);
  verrors += r.validationErrors;
  if (r.oom) {
    std::fprintf(stderr, "%s bench: stage rep %d ran out of memory (%s)\n",
                 scenario, rep, oomKindName(r.oomKind));
    oom = true;
  }
  return r.put;
}

// ------------------------------------------------- recovery scenario
// Durability A/B + cold-restart measurement.  An in-memory map and a
// durable one (mmap arenas + WAL) both ingest the full range, and the
// durable one checkpoints.  Paired tail reps of random overwrite puts then
// time the put path without and with the WAL; every durable tail put lands
// in the WAL past the checkpoint.  Finally the durable map is closed and
// reopened in-process, which replays exactly that tail.  Emits one RECOVERY
// line; bench_smoke gates put-p99-with-WAL against the baseline and the
// reopen against re-ingest.
int runRecovery(const Options& o) {
  namespace fs = std::filesystem;
  auto msSince = [](double t0) { return (nowSeconds() - t0) * 1e3; };

  BenchConfig cfg = configFor(
      o, o.threads.empty() || o.threads.front() == 0 ? 1 : o.threads.front(),
      o.shards.empty() ? 1 : o.shards.front());
  // Checkpoints retain a pinned snapshot while overwrites keep landing, so
  // the arena briefly holds both versions of the hottest values.
  cfg.offHeapSlackPct = o.offHeapSlackPct < 50 ? 50 : o.offHeapSlackPct;
  cfg.generationalValues = true;
  // Auto budget: 3x raw, floored so the heap share (splitRam keeps >= 1/8
  // for metadata) still fits the GC's committed headroom at small -i.
  cfg.totalRamBytes = o.ramMb != 0
                          ? (o.ramMb << 20)
                          : std::max(cfg.rawDataBytes() * 3,
                                     std::size_t{256} << 20);

  const std::size_t pairs = cfg.keyRange;
  // The WAL tail is the timed put stage, split over the paired reps; keep
  // it a strict subset of the range so recovery provably replays less than
  // it bulk-loads.  The first quarter of each rep's puts is warm-up: at a
  // few thousand puts per rep, the cold start of each rep's fresh threads
  // would otherwise reach the p99.
  std::size_t tail = pairs / 20;
  if (tail < 1000) tail = 1000;
  if (tail >= pairs) tail = pairs / 2 + 1;
  const std::size_t tailPerRep = (tail + kPairedReps - 1) / kPairedReps;
  Mix tailMix;
  tailMix.putPct = 100;
  tailMix.opsPerThread = (tailPerRep + cfg.threads - 1) / cfg.threads;
  const std::uint64_t tailPuts = kPairedReps * cfg.threads * tailMix.opsPerThread;

  std::string dir = o.storageDir;
  if (dir.empty()) {
    dir = (fs::temp_directory_path() / "oak-synchrobench-recovery").string();
  }
  std::error_code ec;
  fs::remove_all(dir, ec);

  std::printf("recovery bench: %zu pairs (%zuB keys, %zuB values), "
              "%u threads, %zu shard(s), fsync=%s, dir=%s\n",
              pairs, cfg.keyBytes, cfg.valueBytes, cfg.threads, cfg.shards,
              o.fsyncPolicy.c_str(), dir.c_str());

  // ---- prepare: in-memory baseline (A), durable ingest + checkpoint (B)
  BenchConfig dcfg = cfg;
  dcfg.storageDir = dir;
  dcfg.fsyncPolicy = o.fsyncPolicy;
  auto mem = std::make_unique<OakAdapter>(cfg);
  double memIngestKops = 0;
  OomKind kind = OomKind::None;
  if (!ingestStage(*mem, cfg, pairs, &memIngestKops, &kind)) {
    std::fprintf(stderr, "recovery bench: baseline ingest OOM (%s)\n",
                 oomKindName(kind));
    return 1;
  }
  auto dur = std::make_unique<OakAdapter>(dcfg);
  double t0 = nowSeconds();
  double ingestKops = 0;
  if (!ingestStage(*dur, dcfg, pairs, &ingestKops, &kind)) {
    std::fprintf(stderr, "recovery bench: durable ingest OOM (%s)\n",
                 oomKindName(kind));
    return 1;
  }
  const double ingestMs = msSince(t0);
  t0 = nowSeconds();
  const std::uint64_t cpPairs = dur->checkpointNow();
  const double checkpointMs = msSince(t0);

  // ---- paired tail reps: in-memory vs WAL-on puts.  Both maps stay
  // resident, so each rep starts with both quiesced (version GC run,
  // maintenance queues drained): neither side's background work may run
  // while the other side is timed.
  std::size_t verrors = 0;
  bool oom = false;
  auto quiesceBoth = [&] {
    for (OakAdapter* m : {mem.get(), dur.get()}) {
      m->collectVersionsNow();
      m->drainMaintenance();
      m->quiesce();
    }
  };
  const PairedAB ab = pairedAB(
      kPairedReps,
      [&](int rep) {
        quiesceBoth();
        return pairedRep(*mem, cfg, tailMix, rep, "recovery", verrors, oom);
      },
      [&](int rep) {
        quiesceBoth();
        return pairedRep(*dur, dcfg, tailMix, rep, "recovery", verrors, oom);
      });
  mem.reset();

  // ---- close the durable map
  dur->syncWal();
  const oak::obs::Metrics m = dur->metrics();
  if (validationEnabled()) verrors += dur->validateStructure();
  t0 = nowSeconds();
  dur.reset();  // destructor unmaps the arenas and closes the WAL fd
  const double closeMs = msSince(t0);

  // ---- cold restart: reopen the same directory in-process
  double reopenMs = 0;
  std::uint64_t replayed = 0, recoveryMs = 0;
  std::size_t finalSize = 0;
  {
    t0 = nowSeconds();
    OakAdapter a(dcfg);
    reopenMs = msSince(t0);
    replayed = a.recoveryReplayedRecords();
    recoveryMs = a.recoveryMillis();
    finalSize = a.finalSize();
    if (validationEnabled()) verrors += a.validateStructure();
  }

  std::printf(
      "RECOVERY {\"pairs\":%zu,\"tail_puts\":%llu,\"threads\":%u,"
      "\"shards\":%zu,\"value_bytes\":%zu,\"fsync\":\"%s\","
      "\"base_ingest_kops\":%.1f,\"base_put_p50_ns\":%.0f,"
      "\"base_put_p99_ns\":%.0f,"
      "\"wal_ingest_kops\":%.1f,\"wal_ingest_ms\":%.0f,"
      "\"wal_put_p50_ns\":%.0f,\"wal_put_p99_ns\":%.0f,"
      "\"put_p99_ratio\":%.4f,\"put_p99_ratio_spread\":%.4f,"
      "\"checkpoint_pairs\":%llu,\"checkpoint_ms\":%.0f,"
      "\"checkpoints\":%llu,\"wal_appends\":%llu,\"wal_bytes\":%llu,"
      "\"close_ms\":%.0f,\"reopen_ms\":%.0f,\"recovery_ms\":%llu,"
      "\"replayed_records\":%llu,\"final_size\":%zu,"
      "\"validation_errors\":%zu}\n",
      pairs, static_cast<unsigned long long>(tailPuts), cfg.threads, cfg.shards,
      cfg.valueBytes, o.fsyncPolicy.c_str(), memIngestKops, ab.a.p50, ab.a.p99,
      ingestKops, ingestMs, ab.b.p50, ab.b.p99, ab.ratio, ab.ratioSpread,
      static_cast<unsigned long long>(cpPairs), checkpointMs,
      static_cast<unsigned long long>(m.checkpoints),
      static_cast<unsigned long long>(m.walAppends),
      static_cast<unsigned long long>(m.walBytes), closeMs, reopenMs,
      static_cast<unsigned long long>(recoveryMs),
      static_cast<unsigned long long>(replayed), finalSize, verrors);
  std::fflush(stdout);
  return verrors == 0 && !oom ? 0 : 1;
}

// ------------------------------------------------- compaction scenario
// Relocation A/B (DESIGN.md §13).  Both maps run the same wave-shaped
// churn — bulk put the whole range with jittered sizes, bulk remove 4/5.
// That is the shape that actually carves arenas below the occupancy
// threshold; steady interleaved churn never does, because first-fit
// refills the holes as fast as removes open them.  Map A runs with
// relocation off — the put baseline and the no-evacuation arena high-water
// mark.  Map B runs with background compaction armed, so its sampled puts
// race the evacuation passes the waves' garbage triggers; afterwards it
// settles with explicit compactNow() rounds and reports the reclaimed
// arena count.  Emits one COMPACTION line; bench_smoke gates the paired
// put p99 ratio and that evacuation really moved slices and retired arenas.

/// Churn waves before the sampled reps.
constexpr int kCompactionWaves = 3;

// One map's lifecycle: ingest, churn waves, paired stage reps, settle.
struct CompactionRun {
  explicit CompactionRun(const BenchConfig& c) : cfg(c), a(c) {}

  // Ingest + churn waves: every id gets a fresh jittered-size value
  // (resize = free + alloc), then 4/5 of the range is bulk-removed.  The
  // version-GC drain matters: removed values stay live in their chains
  // until collected, and slices the collector hasn't freed don't count
  // against occupancy.
  bool prepare() {
    double ingestKops = 0;
    OomKind kind = OomKind::None;
    if (!ingestStage(a, cfg, cfg.keyRange / 2, &ingestKops, &kind)) {
      std::fprintf(stderr, "compaction bench: ingest OOM (%s)\n",
                   oomKindName(kind));
      oom = true;
      return false;
    }
    std::vector<std::byte> key(cfg.keyBytes);
    const std::size_t jitterStep = cfg.valueBytes / 8 < 8 ? 8 : cfg.valueBytes / 8;
    std::vector<std::byte> value(cfg.valueBytes / 2 + 8 * jitterStep, std::byte{0x44});
    oak::XorShift rng(cfg.seed * 104729 + 17);
    for (int w = 0; w < kCompactionWaves; ++w) {
      for (std::uint64_t id = 0; id < cfg.keyRange; ++id) {
        makeKey({key.data(), key.size()}, id);
        std::size_t vlen = cfg.valueBytes / 2 + jitterStep * rng.nextBounded(9);
        if (vlen < 8) vlen = 8;
        oak::storeUnaligned<std::uint64_t>(value.data(), id);
        a.put({key.data(), key.size()}, {value.data(), vlen});
      }
      for (std::uint64_t id = 0; id < cfg.keyRange; ++id) {
        if ((id + static_cast<std::uint64_t>(w)) % 5 == 0) continue;
        makeKey({key.data(), key.size()}, id);
        a.remove({key.data(), key.size()});
      }
      drain();
    }
    return true;
  }

  ExactPercentiles stageRep(const Mix& mix, int rep) {
    const ExactPercentiles p = pairedRep(a, cfg, mix, rep, "compaction", verrors, oom);
    drain();
    return p;
  }

  // Map B catches up at quiescent points — the off-hot-path slot the
  // background service targets.  The bulk of the relocation work happens
  // here, between waves and stage reps, exactly as deployed: evacuation
  // fires when occupancy probes find whole arenas of slack, not raced
  // head-to-head against every put.
  void drain() {
    a.collectVersionsNow();
    a.quiesce();
    if (cfg.compaction) {
      for (int r = 0; r < 2; ++r) retired += a.compactNow();
    }
  }

  void settle() {
    if (cfg.compaction) {
      // Settle: quiescent relocation passes so the final footprint is
      // deterministic (the background trigger is amortized and may not
      // have caught the last rep's garbage yet).
      for (int r = 0; r < 4; ++r) retired += a.compactNow();
    }
    a.quiesce();
    after = a.metrics();
    if (validationEnabled()) verrors += a.validateStructure();
  }

  BenchConfig cfg;
  OakAdapter a;
  std::size_t retired = 0;  ///< arenas retired by compactNow
  std::size_t verrors = 0;
  bool oom = false;
  oak::obs::Metrics after{};  ///< snapshot after settling
};

int runCompaction(const Options& o) {
  BenchConfig cfg = configFor(
      o, o.threads.empty() ? 2 : std::max(1u, o.threads.front()),
      o.shards.empty() ? 1 : o.shards.front());
  cfg.generationalValues = true;
  // Pace background evacuation through the maintenance rate limiter (each
  // queued evacuation run declares 1 MiB): the gate certifies the armed,
  // paced relocator the product ships, not an unthrottled storm racing the
  // sampled stage.  Catch-up and settle passes call compactNow() directly
  // and stay unthrottled.
  cfg.maintRateLimitBytesPerSec = 1u << 20;
  // Evacuation scores whole blocks; 1 MiB arenas give it real granularity
  // at smoke scale (an 8 MiB block hosts the entire surviving live set and
  // never drops below the threshold).
  cfg.blockBytes = 1u << 20;
  cfg.compactionOccupancy = 0.6;
  // The wave high-water mark holds the full range live at once plus the
  // pre-remove copies; budget the pool for that, not the surviving 1/5.
  cfg.offHeapSlackPct = 150;
  cfg.totalRamBytes = std::max(cfg.rawDataBytes() * 4, std::size_t{256} << 20);

  std::printf("compaction bench: %zu keys (%zuB keys, %zuB values), %d waves "
              "then %d paired stage reps, %zu shard(s), %zuKiB blocks\n",
              cfg.keyRange, cfg.keyBytes, cfg.valueBytes, kCompactionWaves,
              kPairedReps, cfg.shards, cfg.blockBytes >> 10);

  // Steady-state churn (put/remove/get, jittered sizes) on cfg.threads
  // mutators with the relocator still armed.  Steady churn keeps arenas
  // dense — first-fit refills holes as fast as removes open them — so the
  // armed trigger mostly declines after its occupancy probe and only
  // occasionally finds a real victim; the sampled puts measure that product
  // steady state, against map A's identical mix on a fragmented,
  // never-compacted map.  The first quarter of each worker's ops is
  // warm-up: evacuation flushed the size-class magazines, and the refill
  // transient is not the cost the gate is after.
  Mix mix;
  mix.putPct = 50;
  mix.removePct = 30;
  mix.valueJitter = true;
  mix.opsPerThread = 4 * cfg.keyRange / cfg.threads;

  // A: relocation off.  B: background compaction armed.
  BenchConfig on = cfg;
  on.compaction = true;
  CompactionRun a(cfg);
  CompactionRun b(on);
  PairedAB ab;
  if (a.prepare() && b.prepare()) {
    ab = pairedAB(
        kPairedReps, [&](int rep) { return a.stageRep(mix, rep); },
        [&](int rep) { return b.stageRep(mix, rep); });
    a.settle();
    b.settle();
  }
  using oak::obs::Counter;
  std::printf(
      "COMPACTION {\"pairs\":%zu,\"waves\":%d,\"sampled_puts\":%llu,"
      "\"threads\":%u,\"shards\":%zu,\"value_bytes\":%zu,\"block_bytes\":%zu,"
      "\"base_put_p50_ns\":%.0f,\"base_put_p99_ns\":%.0f,"
      "\"base_arena_blocks\":%llu,\"base_footprint_bytes\":%llu,"
      "\"compact_put_p50_ns\":%.0f,\"compact_put_p99_ns\":%.0f,"
      "\"put_p99_ratio\":%.4f,\"put_p99_ratio_spread\":%.4f,"
      "\"arena_blocks_after\":%llu,\"footprint_after\":%llu,"
      "\"arenas_retired\":%zu,\"evacuation_runs\":%llu,"
      "\"arenas_evacuated\":%llu,\"slices_relocated\":%llu,"
      "\"bytes_relocated\":%llu,\"validation_errors\":%zu}\n",
      cfg.keyRange, kCompactionWaves,
      static_cast<unsigned long long>(ab.b.samples), cfg.threads, cfg.shards,
      cfg.valueBytes, cfg.blockBytes, ab.a.p50, ab.a.p99,
      static_cast<unsigned long long>(a.after.alloc.arenaBlocks),
      static_cast<unsigned long long>(a.after.alloc.footprintBytes),
      ab.b.p50, ab.b.p99, ab.ratio, ab.ratioSpread,
      static_cast<unsigned long long>(b.after.alloc.arenaBlocks),
      static_cast<unsigned long long>(b.after.alloc.footprintBytes), b.retired,
      static_cast<unsigned long long>(b.after.registry.counter(Counter::EvacuationRuns)),
      static_cast<unsigned long long>(b.after.registry.counter(Counter::ArenasEvacuated)),
      static_cast<unsigned long long>(b.after.registry.counter(Counter::SlicesRelocated)),
      static_cast<unsigned long long>(b.after.registry.counter(Counter::BytesRelocated)),
      a.verrors + b.verrors);
  std::fflush(stdout);
  return a.verrors + b.verrors == 0 && !a.oom && !b.oom ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  o.size = envSize("OAK_BENCH_SIZE", o.size);
  o.durationMs = static_cast<std::uint32_t>(
      envSize("OAK_BENCH_DURATION_MS", o.durationMs));

  bool anyArg = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    anyArg = true;
    if (a == "-b") {
      o.benches = splitList(next());
    } else if (a == "-t") {
      o.threads.clear();
      for (auto& s : splitList(next())) {
        o.threads.push_back(static_cast<unsigned>(std::stoul(s)));
      }
    } else if (a == "-i") {
      o.size = std::stoull(next());
    } else if (a == "-k") {
      o.keySize = std::stoull(next());
    } else if (a == "-v") {
      o.valueSize = std::stoull(next());
    } else if (a == "-u") {
      o.updatePct = static_cast<unsigned>(std::stoul(next()));
    } else if (a == "-r") {
      o.removePct = static_cast<unsigned>(std::stoul(next()));
    } else if (a == "-s") {
      o.scanPct = static_cast<unsigned>(std::stoul(next()));
    } else if (a == "-c") {
      o.computePct = 100;
    } else if (a == "-a") {
      o.descending = std::stoul(next()) >= 50;
    } else if (a == "-d") {
      o.durationMs = static_cast<std::uint32_t>(std::stoul(next()));
    } else if (a == "-L") {
      o.scanLength = std::stoull(next());
    } else if (a == "-m") {
      o.ramMb = std::stoull(next());
    } else if (a == "--shards") {
      o.shards.clear();
      for (auto& s : splitList(next())) o.shards.push_back(std::stoull(s));
      if (o.shards.empty()) o.shards.push_back(1);
    } else if (a == "--buffer") {
      o.zeroCopy = true;
    } else if (a == "--stream-iteration") {
      o.stream = true;
    } else if (a == "--churn") {
      o.scenario = "churn";
      applyScenario(o);
    } else if (a == "--no-magazines") {
      oak::mem::FirstFitAllocator::setMagazinesDefaultEnabled(false);
    } else if (a == "--no-snapshot-scans") {
      o.snapshotScans = false;  // after --scenario snapshot-churn
    } else if (a == "--zipf") {
      o.zipfTheta = std::stod(next());
    } else if (a == "--maint-threads") {
      o.maintThreads = std::stoi(next());
    } else if (a == "--scenario") {
      o.scenario = next();
      applyScenario(o);
    } else if (a == "--storage-dir") {
      o.storageDir = next();
    } else if (a == "--fsync") {
      o.fsyncPolicy = next();
    } else if (a == "--csv") {
      o.csvPath = next();
    } else if (a == "-h" || a == "--help") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", a.c_str());
      usage();
      return 2;
    }
  }

  if (o.scenario == "recovery") return runRecovery(o);
  if (o.scenario == "compaction") return runCompaction(o);

  if (!anyArg) {
    // Quick sweep of all canned scenarios (CI-friendly defaults).
    Options quick = o;
    quick.size = envSize("OAK_BENCH_SIZE", 20'000);
    quick.durationMs = static_cast<std::uint32_t>(
        envSize("OAK_BENCH_DURATION_MS", 120));
    quick.threads = envThreadList("OAK_BENCH_THREADS", {1, 4});
    int failed = 0;
    for (const char* sc : {"4a", "4c", "4c-copy", "4d", "4e", "4e-stream",
                           "4f", "4f-stream"}) {
      Options run = quick;
      run.scenario = sc;
      applyScenario(run);
      failed += runAll(run);
    }
    return failed == 0 ? 0 : 1;
  }
  return runAll(o) == 0 ? 0 : 1;
}
