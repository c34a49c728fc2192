/**
 * @file
 * Format-v3 portability and self-validation coverage:
 *
 *  - sim/serial.h emits fixed little-endian bytes with golden
 *    byte-level expectations, and the byte-swapped-writer simulation
 *    (a big-endian host modelled end to end) produces identical
 *    streams — the wire order is defined by value, not by host;
 *  - a sweep journal and a session checkpoint written under the
 *    byte-swapped simulation are byte-identical to native ones and
 *    read back / resume identically;
 *  - peekCheckpointInfo survives ~1k seeded truncations and bit
 *    flips without ever reading out of bounds (the ASan job turns
 *    "never" into a hard guarantee) and rejects torn headers, and
 *    restore refuses every header peek refuses and every bit flip
 *    from the header through the policy state;
 *  - ~1k seeded journal payload mutations, each frame's CRC32C
 *    recomputed so the damage reaches the decoder: resume, inspect
 *    and merge never crash and agree on the finished rows.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/mix.h"
#include "serve/io.h"
#include "sim/crc32c.h"
#include "sim/serial.h"
#include "sim/session.h"
#include "sim/shape_sweep.h"
#include "test_support.h"

namespace syscomm {
namespace {

using sim::ByteReader;
using sim::ByteWriter;
using sim::CheckpointInfo;
using sim::RunRequest;
using sim::RunResult;
using sim::RunStatus;
using sim::ShapeSpec;
using sim::ShapeSweep;
using sim::ShapeSweepOptions;
using sim::ShapeSweepResult;
using sim::SimSession;

/** RAII guard so a failing test cannot leak the global flag. */
struct SwappedWriter
{
    SwappedWriter() { sim::setByteSwappedWriterSimulation(true); }
    ~SwappedWriter() { sim::setByteSwappedWriterSimulation(false); }
};

std::string
tempPath(const std::string& name)
{
    return testing::TempDir() + name;
}

Program
longRunProgram()
{
    Program p(4);
    MessageId id = p.declareMessage("S", 0, 3);
    for (int w = 0; w < 30; ++w) {
        for (int g = 0; g < 6; ++g)
            p.compute(0,
                      [](CellContext& ctx) { ctx.local(0) += 1.0; });
        p.write(0, id);
    }
    for (int w = 0; w < 30; ++w)
        p.read(3, id);
    return p;
}

// ---------------------------------------------------------------------
// Scalar wire format
// ---------------------------------------------------------------------

TEST(PortableFormat, ScalarsEncodeLittleEndianByteForByte)
{
    std::vector<std::uint8_t> out;
    ByteWriter w(out);
    w.put(std::uint32_t{0x11223344});
    w.put(std::int64_t{-2});
    w.put(std::uint8_t{0xab});
    w.put(true);
    w.put(1.0); // IEEE-754: 0x3ff0000000000000

    const std::uint8_t want[] = {
        0x44, 0x33, 0x22, 0x11,                         // u32 LE
        0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, // -2 LE
        0xab,                                           // u8
        0x01,                                           // bool
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x3f, // 1.0 LE
    };
    ASSERT_EQ(out.size(), sizeof(want));
    for (std::size_t i = 0; i < sizeof(want); ++i)
        EXPECT_EQ(out[i], want[i]) << "byte " << i;
}

TEST(PortableFormat, ByteSwappedWriterProducesIdenticalBytes)
{
    const auto encodeAll = [] {
        std::vector<std::uint8_t> out;
        ByteWriter w(out);
        w.put(std::uint64_t{0x0102030405060708ull});
        w.put(std::int32_t{-123456});
        w.put(std::int16_t{-2});
        w.put(std::uint8_t{7});
        w.put(false);
        w.put(3.14159265358979);
        w.put(sim::RunStatus::kDeadlocked); // enums travel as values
        w.putVector(std::vector<double>{1.5, -2.5, 0.0});
        w.putVector(std::vector<std::uint8_t>{1, 2, 3});
        w.putString("portable");
        return out;
    };
    const std::vector<std::uint8_t> native = encodeAll();
    std::vector<std::uint8_t> swapped;
    {
        SwappedWriter guard;
        swapped = encodeAll();
    }
    EXPECT_EQ(native, swapped);

    // And the stream decodes back to the same values either way.
    ByteReader r(native.data(), native.size());
    EXPECT_EQ(r.get<std::uint64_t>(), 0x0102030405060708ull);
    EXPECT_EQ(r.get<std::int32_t>(), -123456);
    EXPECT_EQ(r.get<std::int16_t>(), -2);
    EXPECT_EQ(r.get<std::uint8_t>(), 7);
    EXPECT_EQ(r.get<bool>(), false);
    EXPECT_EQ(r.get<double>(), 3.14159265358979);
    EXPECT_EQ(r.get<sim::RunStatus>(), sim::RunStatus::kDeadlocked);
    std::vector<double> doubles;
    EXPECT_TRUE(r.getVector(doubles));
    EXPECT_EQ(doubles, (std::vector<double>{1.5, -2.5, 0.0}));
    std::vector<std::uint8_t> bytes;
    EXPECT_TRUE(r.getVector(bytes));
    EXPECT_EQ(bytes, (std::vector<std::uint8_t>{1, 2, 3}));
    std::string s;
    EXPECT_TRUE(r.getString(s));
    EXPECT_EQ(s, "portable");
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.remaining(), 0u);
}

TEST(PortableFormat, Crc32cMatchesKnownVectors)
{
    // RFC 3720 test vector: 32 zero bytes.
    std::uint8_t zeros[32] = {};
    EXPECT_EQ(sim::crc32c(zeros, sizeof(zeros)), 0x8a9136aau);
    // "123456789" — the classic check value for CRC-32C.
    const char* digits = "123456789";
    EXPECT_EQ(sim::crc32c(digits, 9), 0xe3069283u);
    // Chaining across a split equals one shot.
    const std::uint32_t head = sim::crc32c(digits, 4);
    EXPECT_EQ(sim::crc32c(digits + 4, 5, head), 0xe3069283u);
}

// ---------------------------------------------------------------------
// Whole-artifact identity under the byte-swapped writer
// ---------------------------------------------------------------------

TEST(PortableFormat, CheckpointBytesIdenticalUnderByteSwappedWriter)
{
    Program p = longRunProgram();
    MachineSpec spec;
    spec.topo = Topology::linearArray(4);
    spec.queuesPerLink = 2;
    RunRequest paused;
    paused.pauseAt = 60;

    SimSession native(p, spec);
    ASSERT_EQ(native.run(paused).status, RunStatus::kPaused);
    std::vector<std::uint8_t> nativeBytes;
    ASSERT_TRUE(native.saveCheckpoint(nativeBytes));

    std::vector<std::uint8_t> swappedBytes;
    {
        SwappedWriter guard;
        SimSession swapped(p, spec);
        ASSERT_EQ(swapped.run(paused).status, RunStatus::kPaused);
        ASSERT_TRUE(swapped.saveCheckpoint(swappedBytes));
    }
    EXPECT_EQ(nativeBytes, swappedBytes);

    // The "foreign" checkpoint restores and finishes identically.
    SimSession heir(p, spec);
    ASSERT_TRUE(heir.restoreCheckpoint({}, swappedBytes));
    SimSession oracle(p, spec);
    expectSameRunResult(heir.resume(), oracle.run({}),
                        "byte-swapped checkpoint restore");
    EXPECT_EQ(heir.machineDigest(), oracle.machineDigest());
}

TEST(PortableFormat, SweepJournalIdenticalUnderByteSwappedWriter)
{
    Program p = longRunProgram();
    Topology topo = Topology::linearArray(4);
    std::vector<ShapeSpec> shapes;
    for (int queues : {1, 2}) {
        ShapeSpec shape;
        shape.name = "q" + std::to_string(queues);
        shape.queuesPerLink = queues;
        shapes.push_back(std::move(shape));
    }
    std::vector<RunRequest> requests(1);

    ShapeSweepOptions options;
    options.numWorkers = 1;
    options.checkpointEvery = 40; // several checkpoint records
    options.journalPath = tempPath("portable_native.journal");
    ShapeSweep nativeSweep(p, topo, shapes, options);
    const ShapeSweepResult nativeResult = nativeSweep.run(requests);
    ASSERT_TRUE(nativeResult.complete);
    ASSERT_FALSE(nativeResult.journalError)
        << nativeResult.journalErrorText;

    options.journalPath = tempPath("portable_swapped.journal");
    ShapeSweepResult swappedResult;
    {
        SwappedWriter guard;
        ShapeSweep swappedSweep(p, topo, shapes, options);
        swappedResult = swappedSweep.run(requests);
    }
    ASSERT_TRUE(swappedResult.complete);

    std::string nativeBytes;
    std::string swappedBytes;
    std::string error;
    ASSERT_TRUE(serve::Io::system().readFile(
        tempPath("portable_native.journal"), nativeBytes, error));
    ASSERT_TRUE(serve::Io::system().readFile(
        tempPath("portable_swapped.journal"), swappedBytes, error));
    ASSERT_FALSE(nativeBytes.empty());
    EXPECT_EQ(nativeBytes, swappedBytes);

    // The "foreign-written" journal replays on this host: a second
    // run over it serves every row from the journal, bit-identically.
    ShapeSweep reader(p, topo, shapes, options);
    const ShapeSweepResult replayed = reader.run(requests);
    ASSERT_TRUE(replayed.complete);
    EXPECT_EQ(replayed.rowsFromJournal, replayed.rows.size());
    ASSERT_EQ(replayed.rows.size(), nativeResult.rows.size());
    for (std::size_t i = 0; i < replayed.rows.size(); ++i) {
        EXPECT_EQ(replayed.rows[i].machineDigest,
                  nativeResult.rows[i].machineDigest)
            << "row " << i;
    }
}

// ---------------------------------------------------------------------
// peekCheckpointInfo bounds fuzz
// ---------------------------------------------------------------------

TEST(PortableFormat, PeekCheckpointInfoParsesAndRejectsTornHeaders)
{
    Program p = longRunProgram();
    MachineSpec spec;
    spec.topo = Topology::linearArray(4);
    spec.queuesPerLink = 2;
    SimSession session(p, spec);
    RunRequest paused;
    paused.pauseAt = 60;
    ASSERT_EQ(session.run(paused).status, RunStatus::kPaused);
    std::vector<std::uint8_t> bytes;
    ASSERT_TRUE(session.saveCheckpoint(bytes));

    CheckpointInfo info;
    ASSERT_TRUE(
        sim::peekCheckpointInfo(bytes.data(), bytes.size(), info));
    EXPECT_EQ(info.machineDigest, session.machineDigest());
    EXPECT_EQ(info.cycles, 60);
    EXPECT_EQ(info.writeSeq.size(), info.readSeq.size());

    // Degenerate inputs.
    EXPECT_FALSE(sim::peekCheckpointInfo(nullptr, 0, info));
    EXPECT_FALSE(sim::peekCheckpointInfo(bytes.data(), 0, info));
    EXPECT_FALSE(sim::peekCheckpointInfo(bytes.data(), 4, info));
}

TEST(PortableFormat, PeekCheckpointInfoSurvivesTruncationAndBitFlipFuzz)
{
    Program p = longRunProgram();
    MachineSpec spec;
    spec.topo = Topology::linearArray(4);
    spec.queuesPerLink = 2;
    SimSession session(p, spec);
    RunRequest paused;
    paused.pauseAt = 60;
    ASSERT_EQ(session.run(paused).status, RunStatus::kPaused);
    std::vector<std::uint8_t> bytes;
    ASSERT_TRUE(session.saveCheckpoint(bytes));
    constexpr std::size_t kFixedHeader = 4 + 4 + 8 + 1 + 8 + 8 + 8;

    // 500 seeded truncations: any prefix must parse or reject, never
    // read past the buffer (the ASan CI job enforces "never").
    CheckpointInfo info;
    for (std::uint64_t trial = 0; trial < 500; ++trial) {
        const std::size_t cut =
            static_cast<std::size_t>(mix64(0x7c0ffee + trial) %
                                     (bytes.size() + 1));
        const bool parsed =
            sim::peekCheckpointInfo(bytes.data(), cut, info);
        if (cut < kFixedHeader) {
            EXPECT_FALSE(parsed) << "cut " << cut;
        }
        if (parsed) {
            EXPECT_EQ(info.writeSeq.size(), info.readSeq.size());
        }
    }

    // 500 seeded bit flips (plus a truncation half the time): parse
    // or reject cleanly; a parse must still return sane vectors.
    for (std::uint64_t trial = 0; trial < 500; ++trial) {
        std::vector<std::uint8_t> mutated = bytes;
        const std::uint64_t h = mix64(0xb17f11b + trial);
        mutated[static_cast<std::size_t>(h % mutated.size())] ^=
            static_cast<std::uint8_t>(1u << (mix64(h) % 8));
        std::size_t size = mutated.size();
        if (trial % 2 == 1)
            size = static_cast<std::size_t>(mix64(h ^ 0x5eed) %
                                            (mutated.size() + 1));
        const bool parsed =
            sim::peekCheckpointInfo(mutated.data(), size, info);
        if (parsed) {
            EXPECT_EQ(info.writeSeq.size(), info.readSeq.size());
            EXPECT_GE(info.resumeFrom, 0);
            EXPECT_GE(info.cycles, 0);
        }
    }
}

TEST(PortableFormat, RestoreRefusesWhatPeekRefuses)
{
    Program p = longRunProgram();
    MachineSpec spec;
    spec.topo = Topology::linearArray(4);
    spec.queuesPerLink = 2;
    SimSession session(p, spec);
    RunRequest paused;
    paused.pauseAt = 60;
    ASSERT_EQ(session.run(paused).status, RunStatus::kPaused);
    std::vector<std::uint8_t> bytes;
    ASSERT_TRUE(session.saveCheckpoint(bytes));

    // resumeFrom sits at byte 25 of the header, cycles at byte 33.
    for (std::size_t at : {std::size_t{25}, std::size_t{33}}) {
        std::vector<std::uint8_t> mutated = bytes;
        const std::uint64_t minus5 = static_cast<std::uint64_t>(-5);
        for (std::size_t b = 0; b < 8; ++b)
            mutated[at + b] = static_cast<std::uint8_t>(minus5 >> (8 * b));
        CheckpointInfo info;
        EXPECT_FALSE(sim::peekCheckpointInfo(mutated.data(),
                                             mutated.size(), info))
            << "byte " << at;
        SimSession heir(p, spec);
        EXPECT_FALSE(heir.restoreCheckpoint({}, mutated)) << "byte " << at;
        EXPECT_FALSE(heir.paused());
    }
    SimSession heir(p, spec);
    EXPECT_TRUE(heir.restoreCheckpoint({}, bytes));
}

TEST(PortableFormat, RestoreRefusesEveryBitFlipBeforeTheMachinePools)
{
    // The machine digest covers the pools and stream positions; the
    // prefix digest must cover the rest. Flip one bit in every byte
    // from the header through the policy state (and the digest that
    // follows it): restore must refuse each one — a damaged statistic
    // used to restore cleanly and report wrong numbers.
    Program p = longRunProgram();
    MachineSpec spec;
    spec.topo = Topology::linearArray(4);
    spec.queuesPerLink = 2;
    SimSession session(p, spec);
    RunRequest paused;
    paused.pauseAt = 60;
    ASSERT_EQ(session.run(paused).status, RunStatus::kPaused);
    std::vector<std::uint8_t> bytes;
    ASSERT_TRUE(session.saveCheckpoint(bytes));

    // Walk the layout to the end of the prefix digest: magic, version,
    // machine digest, kernel flag, fault-plan digest, resumeFrom and
    // cycles; the two stream-position vectors; the statistics (15
    // scalars, then the per-cell blocked cycles); the policy state.
    ByteReader r(bytes.data(), bytes.size());
    r.get<std::uint32_t>();
    r.get<std::uint32_t>();
    r.get<std::uint64_t>();
    r.get<std::uint8_t>();
    r.get<std::uint64_t>();
    r.get<std::int64_t>();
    r.get<std::int64_t>();
    std::vector<int> seq;
    ASSERT_TRUE(r.getVector(seq) && r.getVector(seq));
    for (int k = 0; k < 15; ++k)
        r.get<std::int64_t>();
    std::vector<std::int64_t> blocked;
    ASSERT_TRUE(r.getVector(blocked));
    EXPECT_EQ(blocked.size(), 4u);
    std::vector<std::uint64_t> policyState;
    ASSERT_TRUE(r.getVector(policyState));
    r.get<std::uint64_t>();
    ASSERT_TRUE(r.ok());
    const std::size_t prefixEnd = bytes.size() - r.remaining();

    for (std::size_t at = 0; at < prefixEnd; ++at) {
        std::vector<std::uint8_t> mutated = bytes;
        mutated[at] ^= static_cast<std::uint8_t>(1u << (at % 8));
        SimSession heir(p, spec);
        EXPECT_FALSE(heir.restoreCheckpoint({}, mutated)) << "byte " << at;
        EXPECT_FALSE(heir.paused()) << "byte " << at;
    }
    SimSession heir(p, spec);
    EXPECT_TRUE(heir.restoreCheckpoint({}, bytes));
}

// ---------------------------------------------------------------------
// Sweep journal fuzz: payload damage the CRC cannot see
// ---------------------------------------------------------------------

/**
 * Mutate one frame's payload of @p image (a byte changed, or the
 * payload cut short) and re-frame it with a valid CRC32C. Frames are
 * picked uniformly so the small row-done and shard-range records are
 * hit as often as the large checkpoints; half the byte edits land in
 * a payload's first 64 bytes, where the record and checkpoint-header
 * fields live.
 */
std::vector<std::uint8_t>
mutateJournal(const std::vector<std::uint8_t>& image, std::uint64_t seed)
{
    std::vector<std::uint8_t> out = image;
    const std::vector<JournalFrame> frames = journalFrames(out);
    if (frames.empty())
        return out;
    const std::uint64_t h = mix64(seed);
    const JournalFrame& frame = frames[h % frames.size()];
    if (frame.len == 0)
        return out;
    const std::uint64_t g = mix64(h);
    if (g % 4 == 0) {
        reframe(out, frame, static_cast<std::size_t>(mix64(g) % frame.len));
        return out;
    }
    const std::size_t span =
        g % 4 == 1 ? std::min<std::size_t>(frame.len, 64) : frame.len;
    const std::size_t at =
        frame.payloadAt() + static_cast<std::size_t>(mix64(g) % span);
    out[at] ^= static_cast<std::uint8_t>(1 + mix64(g ^ 0xf1) % 255);
    reframe(out, frame, frame.len);
    return out;
}

/**
 * One fuzz campaign over a 1x3 journal stopped mid-sweep (two rows
 * finished, the third checkpointed in flight). A sharded journal
 * records its grid, so all three readers bound rows by the same grid
 * and must agree exactly. An unsharded journal does not: only the
 * resume knows the grid and drops rows a mutation moved out of it, so
 * there the resume replays at most what inspect and merge count.
 */
void
fuzzJournal(bool sharded, std::uint64_t seed_base)
{
    Program p = longRunProgram();
    Topology topo = Topology::linearArray(4);
    std::vector<ShapeSpec> shapes(1);
    std::vector<RunRequest> requests(3);
    for (std::size_t r = 0; r < requests.size(); ++r) {
        requests[r].policy = sim::PolicyKind::kRandom;
        requests[r].seed = 1 + r;
    }
    const std::string path = tempPath(
        sharded ? "fuzz_sharded.journal" : "fuzz_unsharded.journal");
    std::remove(path.c_str());

    ShapeSweepOptions options;
    options.numWorkers = 1;
    options.journalPath = path;
    options.checkpointEvery = 40;
    if (sharded) {
        options.shardBegin = 0;
        options.shardEnd = requests.size();
    }
    ShapeSweepOptions stopped = options;
    stopped.stopAfterJournalRecords = 14;
    {
        ShapeSweep sweep(p, topo, shapes, stopped);
        ASSERT_FALSE(sweep.run(requests).complete);
    }
    const std::vector<std::uint8_t> image = readBytes(path);
    sim::SweepJournalInfo baseline;
    ASSERT_TRUE(sim::inspectSweepJournal(path, baseline));
    ASSERT_EQ(baseline.rowsDone, 2u);
    ASSERT_EQ(baseline.inflight.size(), 1u);

    for (std::uint64_t trial = 0; trial < 500; ++trial) {
        const std::string what = "trial " + std::to_string(trial);
        writeBytes(path, mutateJournal(image, seed_base + trial));

        sim::SweepJournalInfo info;
        ASSERT_TRUE(sim::inspectSweepJournal(path, info)) << what;
        sim::SweepMergeResult merged;
        std::string error;
        const bool mergedOk =
            sim::mergeSweepJournals({path}, merged, error);
        if (mergedOk) {
            EXPECT_EQ(merged.rows.size(), info.rowsDone) << what;
        }

        ShapeSweep sweep(p, topo, shapes, options);
        const ShapeSweepResult resumed = sweep.run(requests);
        EXPECT_TRUE(resumed.complete) << what;
        EXPECT_FALSE(resumed.str(shapes).empty());

        if (!sharded) {
            EXPECT_LE(resumed.rowsFromJournal, info.rowsDone) << what;
            continue;
        }
        // A damaged shard-range record names another shard, which a
        // resume rightly refuses (the file restarts).
        const bool ownShard = info.sharded && info.numShapes == 1 &&
                              info.numRequests == requests.size() &&
                              info.shardBegin == 0 &&
                              info.shardEnd == requests.size();
        EXPECT_EQ(resumed.rowsFromJournal, ownShard ? info.rowsDone : 0u)
            << what;
        if (ownShard) {
            EXPECT_TRUE(mergedOk) << what << ": " << error;
        }
    }
    std::remove(path.c_str());
}

TEST(PortableFormat, ShardedJournalFuzzReadersAgree)
{
    fuzzJournal(/*sharded=*/true, 0x5a4d0000);
}

TEST(PortableFormat, UnshardedJournalFuzzNeverCrashes)
{
    fuzzJournal(/*sharded=*/false, 0x0a4d0000);
}

} // namespace
} // namespace syscomm
