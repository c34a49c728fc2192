#pragma once

/**
 * @file
 * Shared test helpers. expectSameRunResult is THE field-by-field
 * RunResult comparator for every bit-identity suite (session reuse,
 * sweep==serial, kernel equivalence, the sampled oracle, arena
 * stress): one copy means a field added to RunResult gets compared
 * everywhere or nowhere — never silently skipped by one suite. The
 * journal-frame helpers let the journal tests damage a record under
 * a valid CRC, in both the shape-sweep and the portable-format suite.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "sim/crc32c.h"
#include "sim/session.h"

namespace syscomm {

/** Field-by-field equality of two results (bit-identical contract). */
inline void
expectSameRunResult(const sim::RunResult& a, const sim::RunResult& b,
                    const std::string& ctx)
{
    ASSERT_EQ(b.status, a.status)
        << ctx << " a=" << a.statusStr() << " b=" << b.statusStr();
    EXPECT_EQ(b.cycles, a.cycles) << ctx;
    EXPECT_EQ(b.error, a.error) << ctx;
    EXPECT_TRUE(b.stats == a.stats)
        << ctx << "\na:\n"
        << a.stats.summary() << "b:\n"
        << b.stats.summary();
    EXPECT_EQ(b.events, a.events) << ctx;
    EXPECT_EQ(b.releases, a.releases) << ctx;
    EXPECT_EQ(b.received, a.received) << ctx;
    EXPECT_EQ(b.msgTiming, a.msgTiming) << ctx;
    EXPECT_EQ(b.labelsUsed, a.labelsUsed) << ctx;
    EXPECT_EQ(b.deadlock.deadlocked, a.deadlock.deadlocked) << ctx;
    EXPECT_EQ(b.deadlock.render(), a.deadlock.render()) << ctx;
    EXPECT_EQ(b.audit.compatible, a.audit.compatible) << ctx;
    EXPECT_EQ(b.audit.violations.size(), a.audit.violations.size()) << ctx;
}

inline std::vector<std::uint8_t>
readBytes(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

inline void
writeBytes(const std::string& path, const std::vector<std::uint8_t>& bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

/**
 * One CRC-framed record of a v3 sweep journal image: kind byte,
 * record-version byte, u64 LE payload length, payload, CRC32C. The
 * tests walk frames themselves so they can damage a payload and
 * re-frame it with a valid CRC — the damage a CRC cannot catch.
 */
struct JournalFrame
{
    std::size_t at = 0;
    std::uint8_t kind = 0;
    std::size_t len = 0;

    std::size_t payloadAt() const { return at + 10; }
};

/** The frames after the 16-byte journal header, up to a torn tail. */
inline std::vector<JournalFrame>
journalFrames(const std::vector<std::uint8_t>& image)
{
    std::vector<JournalFrame> frames;
    std::size_t at = 16;
    while (image.size() >= at + 14) {
        std::uint64_t len = 0;
        for (int b = 0; b < 8; ++b)
            len |= std::uint64_t{image[at + 2 + b]} << (8 * b);
        if (len > image.size() - at - 14)
            break;
        frames.push_back({at, image[at], static_cast<std::size_t>(len)});
        at += 14 + static_cast<std::size_t>(len);
    }
    return frames;
}

/**
 * Rewrite @p frame of @p image in place with its payload cut to
 * @p new_len bytes (<= the old length; equal just refreshes the
 * CRC after a payload edit), length field and CRC32C recomputed.
 */
inline void
reframe(std::vector<std::uint8_t>& image, const JournalFrame& frame,
        std::size_t new_len)
{
    const std::size_t end = frame.payloadAt() + frame.len + 4;
    image.erase(image.begin() + static_cast<std::ptrdiff_t>(
                                    frame.payloadAt() + new_len),
                image.begin() + static_cast<std::ptrdiff_t>(end));
    for (int b = 0; b < 8; ++b)
        image[frame.at + 2 + b] =
            static_cast<std::uint8_t>(std::uint64_t{new_len} >> (8 * b));
    const std::uint32_t crc =
        sim::crc32c(image.data() + frame.at, 10 + new_len);
    const std::uint8_t le[4] = {
        static_cast<std::uint8_t>(crc), static_cast<std::uint8_t>(crc >> 8),
        static_cast<std::uint8_t>(crc >> 16),
        static_cast<std::uint8_t>(crc >> 24)};
    image.insert(image.begin() +
                     static_cast<std::ptrdiff_t>(frame.payloadAt() + new_len),
                 le, le + 4);
}

} // namespace syscomm
