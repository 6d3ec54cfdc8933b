/**
 * @file
 * Unit and property tests for the uarch substrates: caches (including a
 * randomized differential test against a flat reference memory), branch
 * predictors, BTB, RAS, and configuration plumbing.
 */

#include <gtest/gtest.h>

#include "base/rng.hh"
#include "isa/memory.hh"
#include "uarch/branch.hh"
#include "uarch/cache.hh"

namespace merlin::uarch
{
namespace
{

isa::SegmentedMemory
flatMemory(std::uint64_t size = 1 << 20)
{
    isa::SegmentedMemory m;
    m.addSegment(0x10000, size, isa::PermRead | isa::PermWrite);
    return m;
}

TEST(CacheConfig, Geometry)
{
    CacheConfig c{64 * 1024, 4, 64, 3};
    EXPECT_EQ(c.numSets(), 256u);
    EXPECT_EQ(c.wordsPerLine(), 8u);
    EXPECT_EQ(c.totalWords(), 8192u);
}

TEST(Cache, HitAfterMiss)
{
    auto mem = flatMemory();
    Cache l1("l1", CacheConfig{16 * 1024, 4, 64, 3}, nullptr, &mem);
    auto r1 = l1.access(0x10040, false);
    EXPECT_FALSE(r1.hit);
    auto r2 = l1.access(0x10044, false);
    EXPECT_TRUE(r2.hit);
    EXPECT_EQ(r2.set, r1.set);
    EXPECT_EQ(r2.way, r1.way);
    EXPECT_LT(r2.latency, r1.latency);
}

TEST(Cache, ReadBytesSeesMemoryContent)
{
    auto mem = flatMemory();
    mem.write(0x10100, 8, 0x1122334455667788ULL);
    Cache l1("l1", CacheConfig{16 * 1024, 4, 64, 3}, nullptr, &mem);
    auto r = l1.access(0x10100, false);
    EXPECT_EQ(l1.readBytes(r.set, r.way, 0x100 & 63, 8),
              0x1122334455667788ULL);
    EXPECT_EQ(l1.readBytes(r.set, r.way, (0x100 & 63) + 2, 2), 0x5566ULL);
}

TEST(Cache, WriteBackOnEviction)
{
    auto mem = flatMemory();
    CacheConfig cfg{4 * 1024, 4, 64, 3}; // 16 sets: easy to thrash
    Cache l1("l1", cfg, nullptr, &mem);

    auto r = l1.access(0x10000, true);
    l1.writeBytes(r.set, r.way, 0, 8, 0xdeadbeef);
    // Memory must NOT see the write yet (write-back).
    std::uint64_t v = 0;
    mem.read(0x10000, 8, v);
    EXPECT_EQ(v, 0u);

    // Evict by touching 4 more lines mapping to the same set.
    for (int i = 1; i <= 4; ++i)
        l1.access(0x10000 + i * 4096, false);
    mem.read(0x10000, 8, v);
    EXPECT_EQ(v, 0xdeadbeefULL);
    EXPECT_GE(l1.writebacks(), 1u);
}

TEST(Cache, WroteBackOnlyOnDirtyVictimMiss)
{
    auto mem = flatMemory();
    CacheConfig cfg{4 * 1024, 4, 64, 3}; // 16 sets, 4 ways
    Cache l1("l1", cfg, nullptr, &mem);

    // A clean miss into an empty set, then a hit (read and write).
    auto r = l1.access(0x10000, false);
    EXPECT_FALSE(r.hit);
    EXPECT_FALSE(r.wroteBack);
    r = l1.access(0x10000, true);
    EXPECT_TRUE(r.hit);
    EXPECT_FALSE(r.wroteBack);

    // Three clean misses fill the set; the next miss evicts the LRU
    // line, 0x10000, which the write above made dirty.
    for (int i = 1; i <= 3; ++i) {
        r = l1.access(0x10000 + i * 4096, false);
        EXPECT_FALSE(r.hit);
        EXPECT_FALSE(r.wroteBack) << i;
    }
    r = l1.access(0x10000 + 4 * 4096, false);
    EXPECT_FALSE(r.hit);
    EXPECT_TRUE(r.wroteBack);
    EXPECT_EQ(l1.writebacks(), 1u);

    // Evicting a clean line is a miss without a write-back.
    r = l1.access(0x10000 + 5 * 4096, false);
    EXPECT_FALSE(r.hit);
    EXPECT_FALSE(r.wroteBack);
    EXPECT_EQ(l1.writebacks(), 1u);
}

TEST(Cache, FlipBitCorruptsAndRefillHeals)
{
    auto mem = flatMemory();
    mem.write(0x10000, 8, 0xff);
    CacheConfig cfg{4 * 1024, 4, 64, 3};
    Cache l1("l1", cfg, nullptr, &mem);
    auto r = l1.access(0x10000, false);
    l1.xorWord(l1.wordIndex(r.set, r.way, 0), 1);
    EXPECT_EQ(l1.readBytes(r.set, r.way, 0, 8), 0xfeULL);
    // Clean line: eviction drops the corruption; refill restores.
    for (int i = 1; i <= 4; ++i)
        l1.access(0x10000 + i * 4096, false);
    auto r2 = l1.access(0x10000, false);
    EXPECT_EQ(l1.readBytes(r2.set, r2.way, 0, 8), 0xffULL);
}

TEST(Cache, TwoLevelPropagation)
{
    auto mem = flatMemory();
    mem.write(0x10000, 8, 42);
    Cache l2("l2", CacheConfig{64 * 1024, 8, 64, 12}, nullptr, &mem);
    Cache l1("l1", CacheConfig{4 * 1024, 4, 64, 3}, &l2, nullptr);
    auto r = l1.access(0x10000, false);
    EXPECT_EQ(l1.readBytes(r.set, r.way, 0, 8), 42u);
    EXPECT_EQ(l2.misses(), 1u);
    // L1 miss that hits in L2 is cheaper than memory.
    for (int i = 1; i <= 4; ++i)
        l1.access(0x10000 + i * 4096, false);
    auto r2 = l1.access(0x10000, false);
    EXPECT_FALSE(r2.hit);
    EXPECT_LT(r2.latency, 3u + 12u + 80u);
}

/** Differential property test: cache hierarchy == flat memory. */
TEST(CacheProperty, RandomOpsMatchFlatMemory)
{
    Rng rng(123);
    auto mem = flatMemory(1 << 16);
    auto ref = flatMemory(1 << 16);
    Cache l2("l2", CacheConfig{16 * 1024, 8, 64, 12}, nullptr, &mem);
    Cache l1("l1", CacheConfig{2 * 1024, 2, 64, 3}, &l2, nullptr);

    for (unsigned op = 0; op < 20000; ++op) {
        const unsigned sizes[] = {1, 2, 4, 8};
        const unsigned size = sizes[rng.nextBelow(4)];
        Addr addr = 0x10000 + (rng.nextBelow((1 << 16) - 8) & ~(size - 1));
        if (rng.nextBelow(2)) {
            std::uint64_t val = rng.next();
            auto r = l1.access(addr, true);
            l1.writeBytes(r.set, r.way, addr & 63, size, val);
            ref.write(addr, size, val);
        } else {
            auto r = l1.access(addr, false);
            std::uint64_t got = l1.readBytes(r.set, r.way, addr & 63,
                                             size);
            std::uint64_t want = 0;
            ref.read(addr, size, want);
            if (size < 8)
                want &= (1ULL << (size * 8)) - 1;
            ASSERT_EQ(got, want) << "op " << op << " addr " << std::hex
                                 << addr;
        }
    }
}

TEST(Tournament, LearnsAlwaysTaken)
{
    CoreConfig cfg;
    TournamentPredictor tp(cfg);
    const Addr pc = 0x1000;
    int correct = 0;
    for (int i = 0; i < 64; ++i) {
        auto st = tp.predict(pc);
        if (st.taken)
            ++correct;
        tp.update(pc, true, st);
    }
    // Warm-up costs ~12 iterations (local history must saturate before
    // a trained counter is reused); afterwards it must stay taken.
    EXPECT_GT(correct, 45);
}

TEST(Tournament, LearnsAlternatingPattern)
{
    CoreConfig cfg;
    TournamentPredictor tp(cfg);
    const Addr pc = 0x2000;
    int correct = 0;
    for (int i = 0; i < 256; ++i) {
        bool actual = (i & 1) != 0;
        auto st = tp.predict(pc);
        if (st.taken == actual)
            ++correct;
        tp.update(pc, actual, st);
    }
    // The local component's history should capture period-2 patterns.
    EXPECT_GT(correct, 180);
}

TEST(Tournament, HistoryRepairAfterSquash)
{
    CoreConfig cfg;
    TournamentPredictor tp(cfg);
    auto st = tp.predict(0x3000);
    const std::uint32_t polluted = tp.globalHistory();
    // Pretend the branch was mispredicted: repair with the actual.
    tp.repairHistory(st, !st.taken);
    EXPECT_NE(tp.globalHistory(), polluted);
    EXPECT_EQ(tp.globalHistory() & 1u,
              static_cast<std::uint32_t>(!st.taken));
}

TEST(Btb, StoresAndEvicts)
{
    Btb btb(16);
    EXPECT_FALSE(btb.lookup(0x1000).has_value());
    btb.update(0x1000, 0x2000);
    ASSERT_TRUE(btb.lookup(0x1000).has_value());
    EXPECT_EQ(*btb.lookup(0x1000), 0x2000u);
    // Aliasing entry replaces (direct mapped).
    btb.update(0x1000 + 16 * 8, 0x3000);
    EXPECT_FALSE(btb.lookup(0x1000).has_value());
}

TEST(Ras, PushPopNesting)
{
    Ras ras(8);
    ras.push(0x100);
    ras.push(0x200);
    EXPECT_EQ(ras.pop(), 0x200u);
    EXPECT_EQ(ras.pop(), 0x100u);
}

TEST(Ras, SnapshotRestore)
{
    Ras ras(8);
    ras.push(0x100);
    auto snap = ras.snapshot();
    ras.push(0x200);
    ras.pop();
    ras.pop(); // now corrupted past the snapshot
    ras.restore(snap);
    EXPECT_EQ(ras.pop(), 0x100u);
}

TEST(CoreConfig, FluentVariants)
{
    CoreConfig base;
    auto rf = base.withRegisterFile(64);
    EXPECT_EQ(rf.numPhysIntRegs, 64u);
    EXPECT_EQ(base.numPhysIntRegs, 256u);
    auto sq = base.withStoreQueue(16);
    EXPECT_EQ(sq.sqEntries, 16u);
    EXPECT_EQ(sq.lqEntries, 16u);
    auto l1 = base.withL1dKb(32);
    EXPECT_EQ(l1.l1d.sizeBytes, 32u * 1024);
    EXPECT_NE(base.summary().find("RF=256"), std::string::npos);
}

} // namespace
} // namespace merlin::uarch
