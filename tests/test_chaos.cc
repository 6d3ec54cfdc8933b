/**
 * @file
 * Chaos tests for the fault-tolerance layer: a suite process is
 * SIGKILLed at randomized-but-seeded points mid-campaign, then resumed
 * (--resume semantics: reuseCached + the outcome journal), and the
 * final store must be BYTE-identical to an uninterrupted run's — the
 * determinism contract must survive arbitrary crash/resume schedules.
 *
 * Mechanics: each interrupted attempt runs in a fork()ed child (the
 * parent holds no live pool threads at fork time — every scheduler
 * joins its pool before run() returns), which calls _exit() so no
 * gtest/atexit state of the parent image runs twice.  The parent
 * sleeps a seeded random delay and SIGKILLs the child, exactly like a
 * machine loss mid-dispatch.  Where the kill lands — before the first
 * injection, mid-campaign (journal replay), between store save and
 * journal cleanup (stale-journal removal), or after everything — is
 * intentionally left to timing: every landing point must produce the
 * same final bytes, and the seeds make a given machine's schedule
 * repeatable enough to rerun a failure.
 */

#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>

#include <csignal>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>
#include <unistd.h>

#include "io/result_store.hh"
#include "sched/suite.hh"

namespace merlin::sched
{
namespace
{

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/**
 * Two estimate campaigns big enough (~2000 injections each) that a
 * kill a few dozen milliseconds in lands mid-injection-loop, which is
 * the case the journal exists for.
 */
std::vector<CampaignSpec>
chaosSpecs()
{
    std::vector<CampaignSpec> specs;
    CampaignSpec s;
    s.workload = "qsort";
    s.structure = uarch::Structure::RegisterFile;
    s.regs = 128;
    s.window = 0;
    s.sampling = core::specFixed(2000);
    s.seed = 7;
    specs.push_back(s);

    s = CampaignSpec{};
    s.workload = "fft";
    s.structure = uarch::Structure::StoreQueue;
    s.sqEntries = 16;
    s.window = 0;
    s.sampling = core::specFixed(2000);
    s.seed = 7;
    specs.push_back(s);
    return specs;
}

class ChaosFixture : public ::testing::Test
{
  protected:
    std::string
    storePath(const std::string &name)
    {
        std::string p = testing::TempDir() + "merlin_chaos_" + name;
        cleanup_.push_back(p);
        // The journal directory a store-only run places next to the
        // store file, and the atomic-save temp file.
        cleanup_.push_back(p + ".journal");
        cleanup_.push_back(p + ".tmp");
        return p;
    }

    void
    TearDown() override
    {
        for (const std::string &p : cleanup_) {
            std::error_code ec;
            std::filesystem::remove_all(p, ec);
        }
    }

    /**
     * Run the suite once in a forked child and SIGKILL it after a
     * seeded random delay.  @return true when the child finished
     * (exited cleanly) before the kill landed.
     */
    bool
    runAndKill(const std::vector<CampaignSpec> &specs,
               const SuiteOptions &opts, std::mt19937 &rng)
    {
        const pid_t pid = fork();
        if (pid == 0) {
            // Child: run the suite and leave through _exit so the
            // parent's gtest machinery never runs in this copy.
            try {
                SuiteScheduler(specs, opts).run();
            } catch (...) {
                _exit(2);
            }
            _exit(0);
        }
        EXPECT_GT(pid, 0);
        std::uniform_int_distribution<int> delay_ms(5, 120);
        std::this_thread::sleep_for(
            std::chrono::milliseconds(delay_ms(rng)));
        kill(pid, SIGKILL); // ESRCH when already done — fine
        int status = 0;
        EXPECT_EQ(waitpid(pid, &status, 0), pid);
        EXPECT_FALSE(WIFEXITED(status) && WEXITSTATUS(status) == 2)
            << "suite raised in the child";
        return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }

    std::vector<std::string> cleanup_;
};

/**
 * The headline property: kill a suite mid-campaign several times,
 * resuming after each kill, and the store the final clean run writes
 * is byte-identical to an uninterrupted single-run store — for a
 * serial and a parallel worker pool.
 */
TEST_F(ChaosFixture, KilledAndResumedStoreIsByteIdentical)
{
    const auto specs = chaosSpecs();

    SuiteOptions ref;
    ref.jobs = 1;
    ref.storePath = storePath("ref.json");
    SuiteScheduler(specs, ref).run();
    const std::string want = fileBytes(ref.storePath);

    for (const unsigned jobs : {1u, 4u}) {
        SuiteOptions opts;
        opts.jobs = jobs;
        opts.reuseCached = true; // --resume
        opts.storePath =
            storePath("kill-j" + std::to_string(jobs) + ".json");

        std::mt19937 rng(0xC0FFEE + jobs);
        bool finished = false;
        for (int round = 0; round < 4 && !finished; ++round)
            finished = runAndKill(specs, opts, rng);
        if (!finished) {
            // Every attempt died: one clean in-process run completes
            // the suite from whatever the journals preserved.
            SuiteScheduler(specs, opts).run();
        }

        EXPECT_EQ(fileBytes(opts.storePath), want)
            << "resumed store diverged with jobs=" << jobs;
        // The journal has nothing left to protect once the store
        // landed: resume must have cleaned up after itself.
        EXPECT_FALSE(std::filesystem::exists(opts.storePath + ".journal")
                     && !std::filesystem::is_empty(
                         opts.storePath + ".journal"))
            << "stale journal left behind with jobs=" << jobs;
    }
}

/**
 * The distributed variant: one of the workers (disjoint --select
 * shares, each into a private store) is killed mid-run and re-run
 * with --resume; merging the worker stores must still reproduce the
 * single-host store byte-for-byte.  One worker per campaign, so every
 * share is non-empty.
 */
TEST_F(ChaosFixture, KilledWorkerShareMergesByteIdentical)
{
    const auto specs = chaosSpecs();

    SuiteOptions ref;
    ref.jobs = 1;
    ref.storePath = storePath("share-ref.json");
    SuiteScheduler(specs, ref).run();
    const std::string want = fileBytes(ref.storePath);

    std::mt19937 rng(0xBADF00D);
    std::vector<std::string> worker_stores;
    for (std::uint64_t w = 0; w < 2; ++w) {
        SuiteOptions opts;
        opts.jobs = 2;
        opts.reuseCached = true;
        opts.storePath =
            storePath("worker-" + std::to_string(w) + ".json");
        const auto share = selectSpecs(specs, SpecSelector{w, 2});
        worker_stores.push_back(opts.storePath);

        // Worker 1 is the casualty: killed mid-run, then re-run.
        bool finished = w != 1;
        if (w == 1)
            finished = runAndKill(share, opts, rng);
        if (!finished || w != 1)
            SuiteScheduler(share, opts).run();
    }

    io::ResultStore merged(storePath("share-merged.json"));
    io::mergeStoreFiles(merged, worker_stores);
    merged.save();
    EXPECT_EQ(fileBytes(merged.path()), want);
}

} // namespace
} // namespace merlin::sched
