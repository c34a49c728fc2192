#include "sim/shape_sweep.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <map>
#include <mutex>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "serve/io.h"
#include "sim/crc32c.h"
#include "sim/fnv.h"
#include "sim/serial.h"

namespace syscomm::sim {

namespace {

// Journal framing (format v3): a fixed little-endian header naming
// the sweep configuration, then self-delimiting records — kind byte,
// record-version byte, u64 payload length, payload, and a trailing
// CRC32C over everything before it. A record torn by a crash (or a
// concurrent writer's partial flush) or bit-flipped at rest fails its
// CRC and everything from it on is ignored — the rows it would have
// carried simply re-run, which is safe because runs are
// deterministic. All scalars are fixed little-endian (sim/serial.h),
// so a journal written on any host resumes on any other.
constexpr std::uint32_t kJournalMagic = 0x4c4a5353u; // "SSJL"
// 2 added the per-request fault-plan digest and the opt-in
// programVersion tag to the config digest. 3 is the portable format:
// little-endian scalars, per-record version byte, CRC32C framing.
constexpr std::uint32_t kJournalVersion = 3;
constexpr std::uint8_t kRecVersion = 1;
constexpr std::uint8_t kRecRowDone = 1;
constexpr std::uint8_t kRecCheckpoint = 2;
/**
 * Shard-range record (written once, right after the header, only by
 * sharded runs): grid numShapes, numRequests, then the half-open
 * [shardBegin, shardEnd) cell range this journal's process owns.
 * Pre-shard readers CRC-validate and skip it — the v3 framing's
 * forward-compatibility path — so an old `inspectSweepJournal` still
 * counts a shard journal's rows; only resume (which must not mix
 * shards) rejects on mismatch.
 */
constexpr std::uint8_t kRecShardRange = 3;
/** kind + record version + payload length + trailing CRC32C. */
constexpr std::size_t kRecordOverhead = 1 + 1 + 8 + 4;
/** magic + format version + config digest. */
constexpr std::size_t kJournalHeader = 4 + 4 + 8;
/** Widest ladder mergeSweepJournals sizes a digest table for. */
constexpr std::size_t kMaxMergeShapes = std::size_t{1} << 20;

std::uint64_t
fnvBytes(std::uint64_t h, const std::uint8_t* data, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        h = fnv(h, data[i]);
    return h;
}

/** Header image for a fresh journal (little-endian throughout). */
std::vector<std::uint8_t>
journalHeaderBytes(std::uint64_t cfg)
{
    std::vector<std::uint8_t> bytes;
    ByteWriter w(bytes);
    w.put(kJournalMagic);
    w.put(kJournalVersion);
    w.put(cfg);
    return bytes;
}

// ---------------------------------------------------------------------
// Record codec: the encoder (beginRecord/endRecord and the record
// builders) and the one decoder (checkRecord + decodeRecord) that
// readJournal folds for every reader — resume, inspect and merge.
// ---------------------------------------------------------------------

/** Overwrite 8 bytes at @p at with @p value, little-endian. */
void
patchU64(std::vector<std::uint8_t>& bytes, std::size_t at,
         std::uint64_t value)
{
    for (std::size_t b = 0; b < sizeof value; ++b)
        bytes[at + b] = static_cast<std::uint8_t>(value >> (8 * b));
}

/** Start a frame: kind, record version, payload-length slot. */
void
beginRecord(std::vector<std::uint8_t>& frame, std::uint8_t kind)
{
    ByteWriter w(frame);
    w.put(kind);
    w.put(kRecVersion);
    w.put(std::uint64_t{0});
}

/**
 * Close a frame: patch the payload length, append the CRC32C over
 * everything before it. One buffer per record, so the append is a
 * single write op — exactly the granularity the fault-injecting Io
 * tears.
 */
void
endRecord(std::vector<std::uint8_t>& frame)
{
    patchU64(frame, 2, frame.size() - (kRecordOverhead - 4));
    ByteWriter(frame).put(crc32c(frame.data(), frame.size()));
}

/** Grid dimensions and owned cell range of a kRecShardRange record. */
struct ShardRange
{
    std::size_t numShapes = 0;
    std::size_t numRequests = 0;
    std::size_t begin = 0;
    std::size_t end = 0;
};

std::vector<std::uint8_t>
shardRangeRecord(const ShardRange& shard)
{
    std::vector<std::uint8_t> frame;
    beginRecord(frame, kRecShardRange);
    ByteWriter w(frame);
    w.put(static_cast<std::uint64_t>(shard.numShapes));
    w.put(static_cast<std::uint64_t>(shard.numRequests));
    w.put(static_cast<std::uint64_t>(shard.begin));
    w.put(static_cast<std::uint64_t>(shard.end));
    endRecord(frame);
    return frame;
}

std::vector<std::uint8_t>
rowDoneRecord(std::size_t shape, std::size_t request,
              std::uint64_t machine_digest, const RunResult& result)
{
    std::vector<std::uint8_t> frame;
    beginRecord(frame, kRecRowDone);
    ByteWriter w(frame);
    w.put(static_cast<std::uint64_t>(shape));
    w.put(static_cast<std::uint64_t>(request));
    w.put(machine_digest);
    saveRunResult(w, result);
    endRecord(frame);
    return frame;
}

/**
 * A checkpoint record of @p session's paused machine, its state
 * serialized straight into the frame — a checkpoint can be tens of MB
 * on large machines and is never copied. Empty when the session
 * cannot checkpoint.
 */
std::vector<std::uint8_t>
checkpointRecord(std::size_t shape, std::size_t request,
                 Cycle pause_cycle, const SimSession& session)
{
    std::vector<std::uint8_t> frame;
    beginRecord(frame, kRecCheckpoint);
    ByteWriter w(frame);
    w.put(static_cast<std::uint64_t>(shape));
    w.put(static_cast<std::uint64_t>(request));
    w.put(pause_cycle);
    const std::size_t lenAt = frame.size();
    w.put(std::uint64_t{0}); // state length, patched below
    if (!session.saveCheckpoint(frame))
        return {};
    patchU64(frame, lenAt, frame.size() - lenAt - sizeof(std::uint64_t));
    endRecord(frame);
    return frame;
}

/**
 * Validate the frame at @p at. Returns false on a torn or corrupt
 * frame (the walk must stop). On success sets @p kind,
 * @p rec_version, @p payload / @p len and @p next.
 */
bool
checkRecord(const std::vector<std::uint8_t>& bytes, std::size_t at,
            std::uint8_t& kind, std::uint8_t& rec_version,
            const std::uint8_t*& payload, std::size_t& len,
            std::size_t& next)
{
    ByteReader r(bytes.data() + at, bytes.size() - at);
    kind = r.get<std::uint8_t>();
    rec_version = r.get<std::uint8_t>();
    const auto n = r.get<std::uint64_t>();
    if (!r.ok() || r.remaining() < 4 || n > r.remaining() - 4)
        return false; // torn tail
    len = static_cast<std::size_t>(n);
    payload = bytes.data() + at + (kRecordOverhead - 4);
    ByteReader crc(payload + len, 4);
    if (crc32c(bytes.data() + at, kRecordOverhead - 4 + len) !=
        crc.get<std::uint32_t>())
        return false; // corrupt frame
    next = at + kRecordOverhead + len;
    return true;
}

/**
 * One decoded record: the shard range (kRecShardRange), the cell
 * (row-done, checkpoint), digest and result (row-done), or pause
 * cycle and machine state — a view into the journal image, never a
 * copy (checkpoint).
 */
struct JournalRecord
{
    ShardRange shard;
    std::size_t shape = 0;
    std::size_t request = 0;
    std::uint64_t machineDigest = 0;
    RunResult result;
    Cycle pauseCycle = 0;
    const std::uint8_t* state = nullptr;
    std::size_t stateLen = 0;
};

/**
 * Decode the payload of a CRC-valid frame of a known kind. False when
 * it does not decode — damage the CRC could not see (or a writer
 * bug), treated exactly like a corrupt frame.
 */
bool
decodeRecord(std::uint8_t kind, const std::uint8_t* payload,
             std::size_t len, JournalRecord& rec)
{
    ByteReader r(payload, len);
    if (kind == kRecShardRange) {
        rec.shard.numShapes = r.get<std::uint64_t>();
        rec.shard.numRequests = r.get<std::uint64_t>();
        rec.shard.begin = r.get<std::uint64_t>();
        rec.shard.end = r.get<std::uint64_t>();
        return r.ok();
    }
    rec.shape = r.get<std::uint64_t>();
    rec.request = r.get<std::uint64_t>();
    if (kind == kRecRowDone) {
        rec.machineDigest = r.get<std::uint64_t>();
        return loadRunResult(r, rec.result);
    }
    rec.pauseCycle = r.get<Cycle>();
    const auto stateLen = r.get<std::uint64_t>();
    if (!r.ok() || rec.pauseCycle < 0 || stateLen != r.remaining())
        return false;
    rec.state = payload + (len - r.remaining());
    rec.stateLen = static_cast<std::size_t>(stateLen);
    return true;
}

using GridKey = std::pair<std::size_t, std::size_t>; // (shape, request)

/** A row's latest checkpoint: a view into the journal image. */
struct JournalCheckpoint
{
    Cycle pauseCycle = 0;
    const std::uint8_t* state = nullptr;
    std::size_t stateLen = 0;
    CheckpointInfo info;
};

/** What a journal image replays to. */
struct JournalReplay
{
    std::uint64_t configDigest = 0;
    /** Header plus every record before the first torn, corrupt or
     *  undecodable one. */
    std::size_t validPrefix = 0;
    bool sharded = false;
    ShardRange shard;
    /** Finished rows; a later record for the same cell wins. */
    std::map<GridKey, SweepMergeRow> rows;
    /** Unfinished rows' latest checkpoint whose header peeks. */
    std::map<GridKey, JournalCheckpoint> inflight;
};

/**
 * Replay a journal image — the one fold behind resume, inspect and
 * merge, so all three agree on every image. Returns false when the
 * header is not a v3 journal. The walk stops at the first torn,
 * corrupt or undecodable record; a CRC-valid frame of an unknown kind
 * or record version skips (forward compatibility). Cells outside the
 * grid — @p num_shapes x @p num_requests when the caller knows it,
 * else the shard-range record's, else unbounded — are skipped.
 * Checkpoint views point into @p image.
 */
bool
readJournal(const std::vector<std::uint8_t>& image,
            std::size_t num_shapes, std::size_t num_requests,
            JournalReplay& out)
{
    out = JournalReplay{};
    ByteReader header(image.data(), image.size());
    if (header.get<std::uint32_t>() != kJournalMagic ||
        header.get<std::uint32_t>() != kJournalVersion)
        return false;
    out.configDigest = header.get<std::uint64_t>();
    if (!header.ok())
        return false;
    out.validPrefix = kJournalHeader;

    const bool gridGiven = num_shapes > 0;
    JournalRecord rec;
    std::uint8_t kind;
    std::uint8_t recVersion;
    const std::uint8_t* payload;
    std::size_t len;
    std::size_t next;
    for (std::size_t at = kJournalHeader;
         checkRecord(image, at, kind, recVersion, payload, len, next);
         at = next) {
        const bool known = recVersion == kRecVersion &&
                           kind >= kRecRowDone && kind <= kRecShardRange;
        if (known && !decodeRecord(kind, payload, len, rec))
            break;
        out.validPrefix = next;
        if (!known)
            continue;
        if (kind == kRecShardRange) {
            out.sharded = true;
            out.shard = rec.shard;
            if (!gridGiven) {
                num_shapes = rec.shard.numShapes;
                num_requests = rec.shard.numRequests;
            }
            continue;
        }
        if (num_shapes > 0 &&
            (rec.shape >= num_shapes || rec.request >= num_requests))
            continue;
        const GridKey key{rec.shape, rec.request};
        if (kind == kRecRowDone) {
            SweepMergeRow& row = out.rows[key];
            row.shape = rec.shape;
            row.request = rec.request;
            row.machineDigest = rec.machineDigest;
            row.result = std::move(rec.result);
            out.inflight.erase(key);
            continue;
        }
        JournalCheckpoint ck{rec.pauseCycle, rec.state, rec.stateLen, {}};
        if (out.rows.count(key) == 0 &&
            peekCheckpointInfo(ck.state, ck.stateLen, ck.info))
            out.inflight[key] = std::move(ck); // latest wins
    }
    return true;
}

std::uint64_t
fnvString(std::uint64_t h, const std::string& s)
{
    h = fnv(h, s.size());
    return fnvBytes(h, reinterpret_cast<const std::uint8_t*>(s.data()),
                    s.size());
}

/**
 * Digest of everything that defines the sweep — the program (cells,
 * messages, and every op's kind/message; compute *functions* are
 * code and cannot be hashed, the one acknowledged blind spot), the
 * topology, the session options that shape results (memory model,
 * label override; the kernel is excluded because results are
 * bit-identical across kernels by contract), the shape ladder, the
 * request batch — including each request's fault-plan digest, so a
 * faulted sweep never resumes an unfaulted journal or vice versa —
 * and the caller's opt-in programVersion tag (the escape hatch for
 * the compute-callback blind spot; see ShapeSweepOptions). A journal
 * written for any other sweep must never be resumed; run() restarts
 * the file when this digest disagrees with the header.
 */
std::uint64_t
configDigest(const Program& program, const Topology& topo,
             const SessionOptions& session,
             const std::string& program_version,
             const std::vector<ShapeSpec>& shapes,
             const std::vector<RunRequest>& requests)
{
    std::uint64_t h = kFnvOffsetBasis;
    h = fnv(h, static_cast<std::uint64_t>(program.numCells()));
    h = fnv(h, static_cast<std::uint64_t>(program.numMessages()));
    for (MessageId m = 0; m < program.numMessages(); ++m)
        h = fnv(h, static_cast<std::uint64_t>(program.messageLength(m)));
    for (CellId c = 0; c < program.numCells(); ++c) {
        const std::vector<Op>& ops = program.cellOps(c);
        h = fnv(h, ops.size());
        for (const Op& op : ops) {
            h = fnv(h, static_cast<std::uint64_t>(op.kind));
            h = fnv(h, static_cast<std::uint64_t>(op.msg));
        }
    }
    h = fnv(h, session.memoryToMemory ? 1 : 0);
    h = fnv(h, static_cast<std::uint64_t>(session.memAccessCost));
    h = fnv(h, session.labels.size());
    for (std::int64_t label : session.labels)
        h = fnv(h, static_cast<std::uint64_t>(label));
    h = fnvString(h, program_version);
    h = fnv(h, static_cast<std::uint64_t>(topo.numCells()));
    h = fnv(h, static_cast<std::uint64_t>(topo.numLinks()));
    for (LinkIndex l = 0; l < topo.numLinks(); ++l) {
        h = fnv(h, static_cast<std::uint64_t>(topo.link(l).a));
        h = fnv(h, static_cast<std::uint64_t>(topo.link(l).b));
    }
    h = fnv(h, shapes.size());
    for (const ShapeSpec& s : shapes) {
        h = fnvString(h, s.name);
        h = fnv(h, static_cast<std::uint64_t>(s.queuesPerLink));
        h = fnv(h, static_cast<std::uint64_t>(s.queueCapacity));
        h = fnv(h, static_cast<std::uint64_t>(s.extensionCapacity));
        h = fnv(h, static_cast<std::uint64_t>(s.extensionPenalty));
    }
    h = fnv(h, requests.size());
    for (const RunRequest& r : requests) {
        h = fnv(h, static_cast<std::uint64_t>(r.policy));
        h = fnv(h, r.seed);
        h = fnv(h, static_cast<std::uint64_t>(r.maxCycles));
        h = fnv(h, static_cast<std::uint64_t>(r.collect));
        h = fnv(h, static_cast<std::uint64_t>(r.pauseAt));
        // A fault plan is part of what the row computes; its digest
        // covers every event (cycle, kind, target, argument).
        h = fnv(h, r.faults != nullptr ? r.faults->digest()
                                       : std::uint64_t{0});
        h = fnv(h, r.labels.size());
        for (std::int64_t label : r.labels)
            h = fnv(h, static_cast<std::uint64_t>(label));
    }
    return h;
}

void
truncateFile(serve::Io& io, const std::string& path, std::size_t size)
{
    std::string error;
    io.truncate(path, size, error);
    // Best-effort: on failure the stranded tail costs re-computation
    // of the rows behind it, never correctness (their records are
    // simply not found and the rows re-run deterministically).
}

std::vector<std::uint8_t>
readWholeFile(serve::Io& io, const std::string& path)
{
    std::string text;
    std::string error;
    if (!io.readFile(path, text, error))
        return {};
    return {text.begin(), text.end()};
}

} // namespace

/**
 * Crash-resume journal: the rows and mid-run checkpoints loaded from
 * a previous invocation, plus the append handle the current one
 * writes through. Appends are serialized by the mutex (workers on
 * different shapes commit rows concurrently) and flushed per record
 * so a kill loses at most the record being written — which the
 * per-record digest detects on the next load.
 */
struct ShapeSweep::Journal
{
    std::mutex mutex;
    serve::Io* io = nullptr;
    serve::IoFile* file = nullptr;
    bool fsyncEveryRecord = false;
    /** Records this run() may still write; 0 = unlimited. */
    std::size_t budget = 0;
    std::size_t written = 0;
    bool stopped = false;
    /** First append/open failure: journaling degraded to off. */
    bool failed = false;
    std::string failure;

    /** The journal image the checkpoint views below point into. */
    std::vector<std::uint8_t> image;
    /** Grid index -> finished row replayed from a previous run. */
    std::unordered_map<std::size_t, ShapeSweepRow> done;
    /** Grid index -> latest mid-run machine checkpoint. */
    std::unordered_map<std::size_t, JournalCheckpoint> checkpoints;

    ~Journal()
    {
        if (file != nullptr)
            io->close(file);
    }

    /**
     * Append one framed record; returns false once the record budget
     * is exhausted (the record that hit the limit is still written,
     * so a resume finds it). An IO *failure* does not return false —
     * stopping the sweep would turn a disk problem into lost compute.
     * Instead journaling latches off (failed/failure, surfaced as
     * ShapeSweepResult::journalError) and the sweep runs on; the rows
     * a crash would now lose simply recompute on the next resume.
     * Frames are built (and CRC'd) by the caller, outside the mutex,
     * so a multi-MB checkpoint never stalls other workers' commits.
     */
    bool
    append(const std::vector<std::uint8_t>& frame)
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (stopped)
            return false;
        if (failed)
            return true;
        std::string error;
        if (!io->write(file, frame.data(), frame.size(), error) ||
            !io->flush(file, error) ||
            (fsyncEveryRecord && !io->sync(file, error))) {
            failed = true;
            failure = error;
            return true;
        }
        ++written;
        if (budget > 0 && written >= budget)
            stopped = true;
        return !stopped;
    }

    /**
     * Adopt a journal image. Returns false when the header does not
     * name this exact sweep, or when the journal's shard-range record
     * disagrees with this run's shard (a sharded journal must never
     * resume an unsharded run, a different shard, or a different
     * grid — then the caller restarts the file). Otherwise every
     * sound record is replayed, and @p valid_prefix reports how many
     * leading bytes were sound so the caller can truncate the tail
     * away before appending (appending *after* garbage would strand
     * every later record behind it on the next load).
     */
    bool
    load(std::vector<std::uint8_t> bytes, std::uint64_t cfg,
         bool sharded, const ShardRange& shard,
         std::size_t& valid_prefix)
    {
        valid_prefix = 0;
        JournalReplay replay;
        if (!readJournal(bytes, shard.numShapes, shard.numRequests,
                         replay) ||
            replay.configDigest != cfg || replay.sharded != sharded ||
            (sharded && (replay.shard.numShapes != shard.numShapes ||
                         replay.shard.numRequests != shard.numRequests ||
                         replay.shard.begin != shard.begin ||
                         replay.shard.end != shard.end)))
            return false;
        valid_prefix = replay.validPrefix;
        for (auto& [key, jrow] : replay.rows) {
            ShapeSweepRow& row = done[key.first * shard.numRequests +
                                      key.second];
            row.shape = key.first;
            row.request = key.second;
            row.machineDigest = jrow.machineDigest;
            row.result = std::move(jrow.result);
            row.fromJournal = true;
            row.finished = true;
        }
        for (auto& [key, ck] : replay.inflight)
            checkpoints[key.first * shard.numRequests + key.second] =
                std::move(ck);
        // Moving the vector keeps its buffer, so the views stay valid.
        if (!checkpoints.empty())
            image = std::move(bytes);
        return true;
    }
};

/**
 * A bounded pool of sessions over one shape. Work-stealing hands out
 * (shape × request) cells, so several workers can land on the same
 * shape at once; each checks a session out per cell (building one
 * lazily while under the bound, blocking for a peer's check-in at
 * it). SimSession::run() fully resets machine state, so *which*
 * pooled session a cell gets cannot affect its result — the
 * bit-identity suite runs the same grid at 1 and N workers and
 * compares digests. Sessions persist in `idle` across run() calls:
 * the compile-once/run-many caching the sweep always had, just N-wide.
 */
struct ShapeSweep::ShapePool
{
    std::mutex mutex;
    std::condition_variable cv;
    std::vector<std::unique_ptr<SimSession>> idle;
    /** Sessions ever built; construction is gated by the bound. */
    int built = 0;

    template <typename Make>
    std::unique_ptr<SimSession>
    checkout(int bound, Make&& make)
    {
        std::unique_lock<std::mutex> lock(mutex);
        for (;;) {
            if (!idle.empty()) {
                std::unique_ptr<SimSession> s = std::move(idle.back());
                idle.pop_back();
                return s;
            }
            if (built < bound) {
                ++built;
                lock.unlock();
                // Construct outside the lock — building a session
                // over a big machine allocates arenas and must not
                // stall peers returning theirs.
                try {
                    return make();
                } catch (...) {
                    lock.lock();
                    --built;
                    lock.unlock();
                    cv.notify_one();
                    throw;
                }
            }
            cv.wait(lock);
        }
    }

    void
    checkin(std::unique_ptr<SimSession> s)
    {
        {
            std::lock_guard<std::mutex> lock(mutex);
            idle.push_back(std::move(s));
        }
        cv.notify_one();
    }
};

ShapeSweep::ShapeSweep(const Program& program, SharedTopology topo,
                       std::vector<ShapeSpec> shapes,
                       ShapeSweepOptions options)
    : program_(program),
      topo_(std::move(topo)),
      shapes_(std::move(shapes)),
      options_(std::move(options))
{
    specs_.reserve(shapes_.size());
    for (const ShapeSpec& shape : shapes_)
        specs_.push_back(shape.machine(topo_));
    pools_.reserve(shapes_.size());
    for (std::size_t s = 0; s < shapes_.size(); ++s)
        pools_.push_back(std::make_unique<ShapePool>());
}

ShapeSweep::ShapeSweep(std::shared_ptr<const CompiledProgram> compiled,
                       std::vector<ShapeSpec> shapes,
                       ShapeSweepOptions options)
    : ShapeSweep(compiled->program(), compiled->sharedTopo(),
                 std::move(shapes), std::move(options))
{
    compiled_ = std::move(compiled);
}

ShapeSweep::~ShapeSweep() = default;

ShapeSweepResult
ShapeSweep::run(const std::vector<RunRequest>& requests)
{
    using Clock = std::chrono::steady_clock;
    const auto t0 = Clock::now();

    ShapeSweepResult out;
    out.numShapes = shapes_.size();
    out.numRequests = requests.size();
    out.requests = requests;
    out.rows.resize(shapes_.size() * requests.size());
    for (std::size_t s = 0; s < shapes_.size(); ++s) {
        for (std::size_t r = 0; r < requests.size(); ++r) {
            out.rows[s * requests.size() + r].shape = s;
            out.rows[s * requests.size() + r].request = r;
        }
    }

    // The whole point: one compile pass serves every shape.
    if (!compiled_) {
        compiled_ = CompiledProgram::compile(
            program_, topo_, options_.session.labels,
            options_.session.precomputeLabels);
    }

    // Multi-process sharding: this run owns the half-open cell range
    // [shardBegin, shardEnd) of the shape-major grid; an unsharded
    // run owns all of it.
    const std::size_t totalCells = shapes_.size() * requests.size();
    const bool sharded = options_.shardEnd > options_.shardBegin;
    const std::size_t shardBegin =
        sharded ? std::min(options_.shardBegin, totalCells) : 0;
    const std::size_t shardEnd =
        sharded ? std::min(options_.shardEnd, totalCells) : totalCells;
    const ShardRange shard{shapes_.size(), requests.size(), shardBegin,
                           shardEnd};
    out.sharded = sharded;
    out.shardBegin = shardBegin;
    out.shardEnd = shardEnd;

    std::unique_ptr<Journal> journal;
    std::string journalOpenError;
    if (!options_.journalPath.empty() && !requests.empty()) {
        journal = std::make_unique<Journal>();
        journal->io = options_.io != nullptr ? options_.io
                                             : &serve::Io::system();
        journal->fsyncEveryRecord = options_.fsyncEveryRecord;
        journal->budget = options_.stopAfterJournalRecords;
        serve::Io& io = *journal->io;
        const std::uint64_t cfg = configDigest(
            program_, topo_, options_.session, options_.programVersion,
            shapes_, requests);
        std::vector<std::uint8_t> bytes =
            readWholeFile(io, options_.journalPath);
        const std::size_t fileSize = bytes.size();
        std::size_t validPrefix = 0;
        if (!bytes.empty() &&
            journal->load(std::move(bytes), cfg, sharded, shard,
                          validPrefix)) {
            // A kill mid-append leaves a torn record; cut it off
            // before appending, or every record this run writes
            // would sit behind garbage and be unreachable on the
            // next load.
            if (validPrefix < fileSize)
                truncateFile(io, options_.journalPath, validPrefix);
            journal->file = io.openWrite(options_.journalPath,
                                         /*append=*/true,
                                         journalOpenError);
        } else {
            // Fresh sweep (or a journal for some other sweep):
            // restart the file with this sweep's header.
            journal->file = io.openWrite(options_.journalPath,
                                         /*append=*/false,
                                         journalOpenError);
            if (journal->file != nullptr) {
                std::vector<std::uint8_t> header =
                    journalHeaderBytes(cfg);
                if (sharded) {
                    // The shard record rides the header write: it is
                    // part of what names this journal, not a row, so
                    // it never consumes the record budget and is
                    // present from the first byte of a shard file.
                    const std::vector<std::uint8_t> rec =
                        shardRangeRecord(shard);
                    header.insert(header.end(), rec.begin(),
                                  rec.end());
                }
                if (!io.write(journal->file, header.data(),
                              header.size(), journalOpenError) ||
                    !io.flush(journal->file, journalOpenError)) {
                    io.close(journal->file);
                    journal->file = nullptr;
                }
            }
        }
        if (journal->file == nullptr) {
            // Unwritable path or failed header write: sweep without
            // resume, surfaced below as journalError.
            journal.reset();
            out.journalError = true;
            out.journalErrorText = journalOpenError.empty()
                                       ? "journal open failed"
                                       : journalOpenError;
        }
    }

    if (journal) {
        for (auto& [idx, row] : journal->done) {
            out.rows[idx] = std::move(row);
            ++out.rowsFromJournal;
        }
    }

    // Work items are (shape × request) grid cells — the finest unit
    // that preserves per-run determinism — restricted to this
    // shard's range; cells satisfied by the journal dispatch
    // nothing. Cell granularity is what fixes the inverted scaling
    // curve: under the old whole-shape dispatch a ladder with one
    // giant rung parked every other worker behind the thread that
    // claimed it.
    std::vector<std::size_t> work;
    for (std::size_t idx = shardBegin; idx < shardEnd; ++idx) {
        if (!out.rows[idx].finished)
            work.push_back(idx);
    }
    const int workers = clampWorkers(options_.numWorkers, work.size());
    // Sessions checked out per cell, at most this many live per
    // shape. More than one per worker can never run concurrently.
    int sessionBound = options_.maxSessionsPerShape > 0
                           ? options_.maxSessionsPerShape
                           : workers;
    sessionBound = std::min(sessionBound, workers);
    if (sessionBound < 1)
        sessionBound = 1;

    std::atomic<std::size_t> restored{0};
    std::atomic<bool> stop{false};
    const std::atomic<bool>* externalStop = options_.stopFlag;
    auto stopRequested = [&] {
        return stop.load(std::memory_order_relaxed) ||
               (externalStop != nullptr &&
                externalStop->load(std::memory_order_relaxed));
    };

    // One grid cell, start to finish, on whatever worker stole it. A
    // session is checked out of the shape's pool for the duration
    // (RAII check-in, exception-safe); SimSession::run() resets all
    // machine state, so the cell's result is independent of which
    // pooled instance it got.
    auto runCell = [&](std::size_t idx) {
        if (stopRequested())
            return;
        const std::size_t s = idx / requests.size();
        const std::size_t r = idx % requests.size();
        ShapeSweepRow& row = out.rows[idx];
        if (row.finished)
            return;
        ShapePool& shapePool = *pools_[s];
        struct Lease
        {
            ShapePool& pool;
            std::unique_ptr<SimSession> session;
            ~Lease()
            {
                if (session)
                    pool.checkin(std::move(session));
            }
        } lease{shapePool,
                shapePool.checkout(sessionBound, [&] {
                    return std::make_unique<SimSession>(
                        compiled_, specs_[s], options_.session);
                })};
        SimSession& session = *lease.session;
        const RunRequest& request = requests[r];
        // Only stats-only rows are journaled/checkpointed; rows
        // materializing result vectors simply re-run on resume
        // (equally bit-identical, just not incremental). An
        // attached RunObserver disqualifies a row the same way:
        // a journal-replayed row executes nothing, so its
        // callbacks would silently never fire.
        const bool journalRow = journal != nullptr &&
                                request.collect == Collect::kNone &&
                                request.observer == nullptr &&
                                request.pauseAt == 0;
        RunResult res;
        if (journalRow && options_.checkpointEvery > 0) {
            const Cycle every = options_.checkpointEvery;
            // The next pause point after @p at; 0 (run to the end)
            // where the sum would overflow — only a damaged journal
            // carries such a pause cycle.
            auto nextPause = [every](Cycle at) {
                return at > std::numeric_limits<Cycle>::max() - every
                           ? Cycle{0}
                           : at + every;
            };
            auto ck = journal->checkpoints.find(idx);
            if (ck != journal->checkpoints.end() &&
                session.restoreCheckpoint(request, ck->second.state,
                                          ck->second.stateLen)) {
                ++restored;
                res = session.resume(nextPause(ck->second.pauseCycle));
            } else {
                // No checkpoint (or a stale/corrupt one the
                // session rejected): run from the start.
                RunRequest first = request;
                first.pauseAt = every;
                res = session.run(first);
            }
            while (res.status == RunStatus::kPaused) {
                const std::vector<std::uint8_t> frame =
                    checkpointRecord(s, r, res.cycles, session);
                if (!frame.empty()) {
                    if (!journal->append(frame)) {
                        // Budget exhausted mid-run: the row is
                        // checkpointed; the resume picks it up.
                        stop.store(true, std::memory_order_relaxed);
                        return;
                    }
                    // A drain parks here: the checkpoint just
                    // appended is the state the resume restores.
                    if (stopRequested())
                        return;
                }
                res = session.resume(nextPause(res.cycles));
            }
        } else {
            res = session.run(request);
        }
        row.result = std::move(res);
        row.machineDigest = session.machineDigest();
        row.finished = true;
        if (journalRow) {
            if (!journal->append(rowDoneRecord(s, r, row.machineDigest,
                                               row.result))) {
                stop.store(true, std::memory_order_relaxed);
                return;
            }
        }
    };

    pool_.dispatch(workers, work.size(), [&](int, std::size_t workIdx) {
        runCell(work[workIdx]);
    });

    if (journal && journal->failed) {
        out.journalError = true;
        out.journalErrorText = journal->failure;
    }
    out.checkpointsRestored = restored.load();
    out.complete = true;
    for (std::size_t idx = shardBegin; idx < shardEnd; ++idx) {
        if (!out.rows[idx].finished) {
            out.complete = false;
            break;
        }
    }
    out.workersUsed = workers;
    out.wallSeconds =
        std::chrono::duration<double>(Clock::now() - t0).count();
    return out;
}

bool
inspectSweepJournal(const std::string& path, SweepJournalInfo& out)
{
    out = SweepJournalInfo{};
    const std::vector<std::uint8_t> bytes =
        readWholeFile(serve::Io::system(), path);
    // The inspector knows neither the sweep's config nor (for an
    // unsharded journal) its grid, so it replays without either;
    // otherwise it sees exactly what a resume would replay.
    JournalReplay replay;
    if (!readJournal(bytes, 0, 0, replay))
        return false;
    out.configDigest = replay.configDigest;
    out.rowsDone = replay.rows.size();
    out.inflight.reserve(replay.inflight.size());
    for (auto& [key, ck] : replay.inflight) {
        SweepJournalRow row;
        row.shape = key.first;
        row.request = key.second;
        row.info = std::move(ck.info);
        out.inflight.push_back(std::move(row));
    }
    out.sharded = replay.sharded;
    out.numShapes = replay.shard.numShapes;
    out.numRequests = replay.shard.numRequests;
    out.shardBegin = replay.shard.begin;
    out.shardEnd = replay.shard.end;
    return true;
}

bool
mergeSweepJournals(const std::vector<std::string>& paths,
                   SweepMergeResult& out, std::string& error)
{
    out = SweepMergeResult{};
    error.clear();
    if (paths.empty()) {
        error = "no journals to merge";
        return false;
    }

    bool haveCfg = false;
    std::map<GridKey, SweepMergeRow> rows;
    for (const std::string& path : paths) {
        const std::vector<std::uint8_t> bytes =
            readWholeFile(serve::Io::system(), path);
        // Each file replays exactly as a resume would: torn/corrupt
        // tails stop its walk (its missing rows simply are not
        // merged) and in-flight checkpoints are not merge material.
        JournalReplay replay;
        if (!readJournal(bytes, 0, 0, replay)) {
            error = path + ": not a v3 sweep journal";
            return false;
        }
        if (!haveCfg) {
            out.configDigest = replay.configDigest;
            haveCfg = true;
        } else if (replay.configDigest != out.configDigest) {
            error = path +
                    ": config digest mismatch — the journals "
                    "describe different sweeps";
            return false;
        }
        if (replay.sharded) {
            if (out.numShapes != 0 &&
                (out.numShapes != replay.shard.numShapes ||
                 out.numRequests != replay.shard.numRequests)) {
                error = path +
                        ": shard-range grid dimensions "
                        "disagree with an earlier journal";
                return false;
            }
            out.numShapes = replay.shard.numShapes;
            out.numRequests = replay.shard.numRequests;
        }
        for (auto& [key, jrow] : replay.rows) {
            auto it = rows.find(key);
            if (it == rows.end()) {
                rows.emplace(key, std::move(jrow));
                continue;
            }
            // The per-rung cross-check: overlapping shards must agree
            // bit-for-bit — a disagreement is a determinism
            // violation, never silently resolved.
            if (it->second.machineDigest != jrow.machineDigest ||
                it->second.result.status != jrow.result.status ||
                it->second.result.cycles != jrow.result.cycles) {
                error = path + ": row (" + std::to_string(key.first) +
                        ", " + std::to_string(key.second) +
                        ") disagrees with another journal "
                        "(machine digest or result differs)";
                return false;
            }
            ++it->second.sources;
            ++out.duplicateRows;
        }
    }

    out.rows.reserve(rows.size());
    std::size_t maxShape = 0;
    for (auto& [key, row] : rows) {
        maxShape = std::max(maxShape, row.shape);
        out.rows.push_back(std::move(row));
    }
    if (out.numShapes != 0 && out.numRequests != 0) {
        for (const SweepMergeRow& row : out.rows) {
            if (row.shape >= out.numShapes ||
                row.request >= out.numRequests) {
                error = "row (" + std::to_string(row.shape) + ", " +
                        std::to_string(row.request) +
                        ") lies outside the recorded " +
                        std::to_string(out.numShapes) + "x" +
                        std::to_string(out.numRequests) + " grid";
                return false;
            }
        }
        out.complete =
            out.rows.size() == out.numShapes * out.numRequests;
    }

    const std::size_t numDigests =
        out.numShapes != 0 ? out.numShapes
        : out.rows.empty() ? 0
                           : maxShape + 1;
    // One digest slot per rung: a damaged shape index or grid record
    // must not size the table.
    if (numDigests > kMaxMergeShapes) {
        error = "a " + std::to_string(numDigests) +
                "-shape grid is beyond what sweep-merge accepts (" +
                std::to_string(kMaxMergeShapes) + " shapes)";
        return false;
    }
    out.shapeDigests.assign(numDigests, kFnvOffsetBasis);
    // Rows are in grid order already (map iteration), so each rung's
    // fold sees its digests in request order — the same fold over an
    // unsharded run's rows compares equal iff the sharded sweep is
    // bit-identical to it.
    for (const SweepMergeRow& row : out.rows) {
        out.shapeDigests[row.shape] =
            fnv(out.shapeDigests[row.shape], row.machineDigest);
    }
    return true;
}

SweepSummary
ShapeSweepResult::shapeSummary(std::size_t shape) const
{
    // Unfinished rows (a stopped partial sweep) are excluded rather
    // than reported as fabricated config errors.
    std::vector<const RunResult*> results(numRequests);
    for (std::size_t r = 0; r < numRequests; ++r) {
        const ShapeSweepRow& shapeRow = row(shape, r);
        if (shapeRow.finished)
            results[r] = &shapeRow.result;
    }
    return summarizeSweep(results, requests);
}

std::string
ShapeSweepResult::str(const std::vector<ShapeSpec>& shapes) const
{
    std::ostringstream os;
    os << "shape sweep: " << numShapes << " shapes x " << numRequests
       << " requests on " << workersUsed << " worker(s) in "
       << wallSeconds << "s";
    if (rowsFromJournal > 0 || checkpointsRestored > 0) {
        os << " (resumed: " << rowsFromJournal << " rows, "
           << checkpointsRestored << " checkpoints)";
    }
    if (!complete)
        os << " [partial]";
    os << "\n";
    for (std::size_t s = 0; s < numShapes; ++s) {
        SweepSummary summary = shapeSummary(s);
        os << "  "
           << (s < shapes.size() ? shapes[s].name
                                 : "#" + std::to_string(s))
           << ": ";
        for (int st = 0; st < kNumRunStatuses; ++st) {
            if (st > 0)
                os << ", ";
            os << runStatusName(static_cast<RunStatus>(st)) << " "
               << summary.statusCounts[st];
        }
        os << "; p50 " << summary.p50Cycles << " max "
           << summary.maxCycles << "\n";
    }
    return os.str();
}

} // namespace syscomm::sim
