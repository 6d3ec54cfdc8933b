/**
 * @file
 * Distributed-dispatch tests: SpecSelector parsing and partition
 * laws (disjoint + complete for both modes), the headline scatter/
 * gather property — per-worker shard spills merged back are
 * byte-identical to the single-host store for any worker count,
 * job count and gather order — and the --select x --resume rules
 * (foreign entries skipped, overlapping worker stores refused).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "base/logging.hh"
#include "io/result_store.hh"
#include "sched/selector.hh"
#include "sched/suite.hh"

namespace merlin::sched
{
namespace
{

using io::Json;

// ------------------------------------------------------ SpecSelector

TEST(SpecSelector, ParsesStrictIOverN)
{
    const auto s =
        SpecSelector::parse("2/5", SpecSelector::Mode::RoundRobin);
    EXPECT_EQ(s.index, 2u);
    EXPECT_EQ(s.count, 5u);
    EXPECT_EQ(s.mode, SpecSelector::Mode::RoundRobin);
    EXPECT_EQ(s.describe(), "2/5 round-robin");

    const auto h = SpecSelector::parse("0/1", SpecSelector::Mode::Hash);
    EXPECT_EQ(h.describe(), "0/1 hash");
}

TEST(SpecSelector, RejectsGarbageAndOutOfRange)
{
    const auto parse = [](const char *text) {
        return SpecSelector::parse(text,
                                   SpecSelector::Mode::RoundRobin);
    };
    // i >= n and n == 0 are usage errors, not empty selections.
    EXPECT_THROW(parse("3/3"), FatalError);
    EXPECT_THROW(parse("5/3"), FatalError);
    EXPECT_THROW(parse("0/0"), FatalError);
    // Not i/n at all.
    EXPECT_THROW(parse(""), FatalError);
    EXPECT_THROW(parse("1"), FatalError);
    EXPECT_THROW(parse("1/"), FatalError);
    EXPECT_THROW(parse("/3"), FatalError);
    EXPECT_THROW(parse("1/2/3"), FatalError);
    // The strict integer rules: sign, whitespace, junk, overflow.
    EXPECT_THROW(parse("-1/3"), FatalError);
    EXPECT_THROW(parse("+1/3"), FatalError);
    EXPECT_THROW(parse(" 1/3"), FatalError);
    EXPECT_THROW(parse("1/3x"), FatalError);
    EXPECT_THROW(parse("0x1/3"), FatalError);
    EXPECT_THROW(parse("1/99999999999999999999"), FatalError);
}

TEST(SpecSelector, JsonRoundTrip)
{
    SpecSelector s;
    s.mode = SpecSelector::Mode::Hash;
    s.index = 3;
    s.count = 7;
    const SpecSelector r =
        SpecSelector::fromJson(Json::parse(s.toJson().dump()));
    EXPECT_TRUE(s == r);
    EXPECT_THROW(SpecSelector::fromJson(
                     Json::parse("{\"mode\":\"hash\",\"index\":7,"
                                 "\"count\":7}")),
                 FatalError);
    EXPECT_THROW(SpecSelector::fromJson(
                     Json::parse("{\"mode\":\"quux\",\"index\":0,"
                                 "\"count\":1}")),
                 FatalError);
}

/** A spread of distinct specs, cheap to hash (never run). */
std::vector<CampaignSpec>
manySpecs(std::size_t n)
{
    std::vector<CampaignSpec> specs;
    for (std::size_t i = 0; i < n; ++i) {
        CampaignSpec s;
        s.workload = i % 2 ? "fft" : "qsort";
        s.seed = i + 1;
        specs.push_back(s);
    }
    return specs;
}

TEST(SpecSelector, PartitionIsDisjointAndCompleteInBothModes)
{
    const auto specs = manySpecs(23);
    for (const auto mode : {SpecSelector::Mode::RoundRobin,
                            SpecSelector::Mode::Hash}) {
        for (std::uint64_t n : {1u, 2u, 3u, 5u}) {
            for (std::size_t i = 0; i < specs.size(); ++i) {
                unsigned owners = 0;
                for (std::uint64_t w = 0; w < n; ++w) {
                    SpecSelector sel;
                    sel.mode = mode;
                    sel.index = w;
                    sel.count = n;
                    owners += sel.selects(i, specs[i].key()) ? 1 : 0;
                }
                // Every spec belongs to exactly one worker.
                EXPECT_EQ(owners, 1u)
                    << "mode " << (mode == SpecSelector::Mode::Hash)
                    << " n " << n << " spec " << i;
            }
        }
    }
}

TEST(SpecSelector, HashShareIsInvariantToManifestPosition)
{
    const auto specs = manySpecs(12);
    SpecSelector sel;
    sel.mode = SpecSelector::Mode::Hash;
    sel.index = 1;
    sel.count = 3;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        // Moving the spec anywhere in the manifest changes nothing.
        EXPECT_EQ(sel.selects(i, specs[i].key()),
                  sel.selects((i + 7) % specs.size(), specs[i].key()));
    }
}

TEST(SpecSelector, PlanStyleManifestRoundTripsTheSelection)
{
    // What `suite --plan n` emits: a manifest whose campaigns are the
    // selection's specs, fully resolved.  Parsing it back must yield
    // exactly the selected spec keys, so running a per-worker
    // manifest equals running the full manifest under --select.
    const auto specs = manySpecs(9);
    SpecSelector sel;
    sel.index = 1;
    sel.count = 2;
    Json camps = Json::array();
    std::vector<std::string> want;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (sel.selects(i, specs[i].key())) {
            camps.push(specs[i].toJson());
            want.push_back(specs[i].key());
        }
    }
    Json manifest = Json::object();
    manifest.set("campaigns", camps);
    const auto parsed = parseManifest(Json::parse(manifest.dump(2)));
    ASSERT_EQ(parsed.size(), want.size());
    for (std::size_t i = 0; i < parsed.size(); ++i)
        EXPECT_EQ(parsed[i].key(), want[i]);
}

// ------------------------------------------- scatter/gather suites

/** Four small campaigns spanning structures — fast enough to run the
 *  partition matrix below. */
std::vector<CampaignSpec>
suiteSpecs()
{
    std::vector<CampaignSpec> specs;
    CampaignSpec s;
    s.workload = "qsort";
    s.structure = uarch::Structure::RegisterFile;
    s.regs = 128;
    s.window = 0;
    s.sampling = core::specFixed(120);
    s.seed = 9;
    specs.push_back(s);

    s = CampaignSpec{};
    s.workload = "fft";
    s.structure = uarch::Structure::RegisterFile;
    s.window = 0;
    s.sampling = core::specFixed(120);
    s.seed = 9;
    specs.push_back(s);

    s = CampaignSpec{};
    s.workload = "qsort";
    s.structure = uarch::Structure::StoreQueue;
    s.sqEntries = 16;
    s.window = 0;
    s.sampling = core::specFixed(120);
    s.seed = 9;
    specs.push_back(s);

    s = CampaignSpec{};
    s.workload = "fft";
    s.structure = uarch::Structure::StoreQueue;
    s.sqEntries = 16;
    s.window = 0;
    s.sampling = core::specFixed(120);
    s.seed = 9;
    specs.push_back(s);
    return specs;
}

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

class DispatchFixture : public ::testing::Test
{
  protected:
    std::string
    scratch(const std::string &name)
    {
        const std::string p = testing::TempDir() + "merlin_sel_" + name;
        created_.push_back(p);
        return p;
    }

    void
    TearDown() override
    {
        for (const std::string &p : created_) {
            std::error_code ec;
            std::filesystem::remove_all(p, ec);
        }
    }

    std::vector<std::string> created_;
};

/**
 * The acceptance property: split the suite --select i/n across n
 * "workers", each spilling its own shards; merging the shards (in
 * forward or reverse gather order) reproduces the single-host store
 * byte-for-byte, for n in {1,2,3} x jobs in {1,4} and both modes.
 */
TEST_F(DispatchFixture, MergedWorkerShardsMatchSingleHostBytes)
{
    const auto specs = suiteSpecs();

    SuiteOptions ref_opts;
    ref_opts.jobs = 2;
    ref_opts.storePath = scratch("ref.json");
    SuiteScheduler(specs, ref_opts).run();
    const std::string ref = fileBytes(ref_opts.storePath);

    for (const auto mode : {SpecSelector::Mode::RoundRobin,
                            SpecSelector::Mode::Hash}) {
        for (std::uint64_t n : {1u, 2u, 3u}) {
            for (unsigned jobs : {1u, 4u}) {
                const std::string tag =
                    std::to_string(static_cast<int>(mode)) + "_" +
                    std::to_string(n) + "_" + std::to_string(jobs);
                std::vector<std::string> shard_dirs;
                std::uint64_t selected_total = 0;
                for (std::uint64_t w = 0; w < n; ++w) {
                    SuiteOptions opts;
                    opts.jobs = jobs;
                    opts.shardDir =
                        scratch(tag + "_w" + std::to_string(w));
                    SpecSelector sel;
                    sel.mode = mode;
                    sel.index = w;
                    sel.count = n;
                    opts.select = sel;
                    SuiteResult r = SuiteScheduler(specs, opts).run();
                    std::uint64_t mine = 0;
                    for (std::size_t i = 0; i < specs.size(); ++i)
                        mine += r.selected[i] ? 1 : 0;
                    selected_total += mine;
                    // Hash shares can legitimately be empty; gather
                    // only the workers that spilled something (what
                    // tools/dispatch.sh does after checking worker
                    // exit codes).
                    if (mine > 0)
                        shard_dirs.push_back(opts.shardDir);
                }
                EXPECT_EQ(selected_total, specs.size())
                    << tag << ": shares are not a partition";

                // Gather forward and reverse: same bytes either way.
                for (const bool reverse : {false, true}) {
                    auto inputs = shard_dirs;
                    if (reverse)
                        std::reverse(inputs.begin(), inputs.end());
                    const std::string merged_path = scratch(
                        tag + (reverse ? "_rev" : "_fwd") + ".json");
                    io::ResultStore merged(merged_path);
                    io::mergeStoreFiles(merged,
                                        io::gatherStoreFiles(inputs));
                    merged.save();
                    EXPECT_EQ(fileBytes(merged_path), ref)
                        << tag << (reverse ? " reverse" : " forward");
                }
            }
        }
    }
}

/**
 * Regression (--select x --resume): a worker resuming from a store
 * that contains out-of-selection entries — here a full single-host
 * store copied to every worker — must treat them as foreign: serve
 * its own share from the cache, spill ONLY its share as shards, and
 * drop the foreign entries from its store instead of re-serializing
 * them, so the gathered shards still merge to the single-host bytes.
 */
TEST_F(DispatchFixture, ResumeSkipsForeignEntriesInsteadOfRespilling)
{
    const auto specs = suiteSpecs();

    SuiteOptions ref_opts;
    ref_opts.jobs = 2;
    ref_opts.storePath = scratch("seed_ref.json");
    SuiteScheduler(specs, ref_opts).run();
    const std::string ref = fileBytes(ref_opts.storePath);

    std::vector<std::string> shard_dirs;
    for (std::uint64_t w = 0; w < 2; ++w) {
        SuiteOptions opts;
        opts.jobs = 2;
        opts.reuseCached = true;
        opts.storePath =
            scratch("seed_w" + std::to_string(w) + ".json");
        opts.shardDir = scratch("seed_shards" + std::to_string(w));
        SpecSelector sel;
        sel.index = w;
        sel.count = 2;
        opts.select = sel;
        // Seed the worker store with the FULL single-host store.
        std::filesystem::copy_file(ref_opts.storePath, opts.storePath);

        SuiteResult r = SuiteScheduler(specs, opts).run();
        shard_dirs.push_back(opts.shardDir);

        // Every selected spec came from the cache; nothing re-ran.
        EXPECT_EQ(r.campaignsRun, 0u);
        std::size_t mine = 0;
        for (std::size_t i = 0; i < specs.size(); ++i) {
            if (r.selected[i]) {
                ++mine;
                EXPECT_TRUE(r.cached[i]);
            }
        }

        // The shard directory holds exactly this worker's share —
        // foreign entries were not re-spilled.
        std::size_t shards = 0;
        for (const auto &e :
             std::filesystem::directory_iterator(opts.shardDir)) {
            (void)e;
            ++shards;
        }
        EXPECT_EQ(shards, mine) << "worker " << w;

        // And the worker store was canonicalized: only its share,
        // with the selection recorded.
        io::ResultStore worker(opts.storePath);
        ASSERT_TRUE(worker.load());
        EXPECT_EQ(worker.size(), mine);
        ASSERT_TRUE(worker.selection().has_value());
        EXPECT_TRUE(SpecSelector::fromJson(*worker.selection()) == sel);
    }

    // Foreign-entry handling must not have cost us completeness.
    const std::string merged_path = scratch("seed_merged.json");
    io::ResultStore merged(merged_path);
    io::mergeStoreFiles(merged, io::gatherStoreFiles(shard_dirs));
    merged.save();
    EXPECT_EQ(fileBytes(merged_path), ref);
}

TEST_F(DispatchFixture, ResumingAnotherWorkersStoreIsRefused)
{
    const auto specs = suiteSpecs();

    SuiteOptions opts;
    opts.jobs = 2;
    opts.reuseCached = true;
    opts.storePath = scratch("overlap.json");
    SpecSelector sel;
    sel.index = 0;
    sel.count = 2;
    opts.select = sel;
    SuiteScheduler(specs, opts).run();

    // Same store, different share: refused, not silently mixed.
    SuiteOptions other = opts;
    other.select->index = 1;
    EXPECT_THROW(SuiteScheduler(specs, other).run(), FatalError);

    // Different worker count too.
    other.select->index = 0;
    other.select->count = 3;
    EXPECT_THROW(SuiteScheduler(specs, other).run(), FatalError);

    // The rightful owner still resumes cleanly, fully cached.
    SuiteResult again = SuiteScheduler(specs, opts).run();
    EXPECT_EQ(again.campaignsRun, 0u);

    // And a selection-free run promotes the store back to a plain
    // single-host store (selection cleared, missing share re-run).
    SuiteOptions full = opts;
    full.select.reset();
    SuiteResult whole = SuiteScheduler(specs, full).run();
    EXPECT_GT(whole.campaignsRun, 0u);
    io::ResultStore store(opts.storePath);
    ASSERT_TRUE(store.load());
    EXPECT_FALSE(store.selection().has_value());
    EXPECT_EQ(store.size(), specs.size());
}

} // namespace
} // namespace merlin::sched
