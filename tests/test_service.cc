/**
 * @file
 * CampaignService tests: the process-lifetime campaign engine behind
 * merlin_serve and (as a thin wrapper) the batch suite.  The headline
 * property is single-flight coalescing — N concurrent submissions of
 * one spec cost ONE simulation, and every subscriber receives the
 * byte-identical result — plus warm-cache serving, queued-submission
 * cancellation, shutdown refusal, and batch-wrapper equivalence.
 */

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "io/result_store.hh"
#include "obs/metrics.hh"
#include "sched/service.hh"
#include "sched/suite.hh"

namespace merlin::sched
{
namespace
{

/** One small, fast campaign (same shape the suite tests use). */
CampaignSpec
smallSpec(std::uint64_t seed = 7)
{
    CampaignSpec s;
    s.workload = "qsort";
    s.structure = uarch::Structure::RegisterFile;
    s.regs = 128;
    s.window = 0;
    s.sampling = core::specFixed(150);
    s.seed = seed;
    return s;
}

CampaignService::Config
memoryConfig(unsigned jobs, bool paused)
{
    CampaignService::Config cfg;
    cfg.jobs = jobs;
    cfg.startPaused = paused;
    return cfg;
}

TEST(CampaignService, SingleFlightCoalescesIdenticalSpecs)
{
    // The satellite acceptance test: N threads submit the same spec;
    // inject.runs is paid once and every subscriber's result dump is
    // byte-identical.
    constexpr int kClients = 6;
    auto &injectRuns = obs::Registry::global().counter("inject.runs");
    const std::uint64_t runs0 = injectRuns.total();

    CampaignService svc(memoryConfig(2, /*paused=*/true));
    const CampaignSpec spec = smallSpec();

    std::vector<CampaignService::TicketPtr> tickets(kClients);
    {
        // Concurrent submissions while the (paused) service cannot
        // settle any of them: all six must land on ONE job.
        std::vector<std::thread> threads;
        for (int i = 0; i < kClients; ++i) {
            threads.emplace_back([&, i] {
                CampaignService::SubmitOptions opts;
                opts.client = "client-" + std::to_string(i);
                tickets[i] = svc.submit(spec, opts);
            });
        }
        for (auto &t : threads)
            t.join();
    }
    for (const auto &t : tickets)
        ASSERT_NE(t, nullptr);

    svc.resume();
    std::vector<std::string> dumps;
    int coalesced = 0;
    for (const auto &t : tickets) {
        ASSERT_EQ(t->wait(), CampaignService::State::Done);
        const auto &o = t->outcome();
        EXPECT_FALSE(o.cached);
        coalesced += o.coalesced ? 1 : 0;
        dumps.push_back(io::resultToJson(o.result).dump());
    }
    // One primary, kClients - 1 subscribers; identical bytes for all.
    EXPECT_EQ(coalesced, kClients - 1);
    for (const auto &d : dumps)
        EXPECT_EQ(d, dumps.front());

    const auto stats = svc.stats();
    EXPECT_EQ(stats.submitted, std::uint64_t(kClients));
    EXPECT_EQ(stats.executed, 1u);
    EXPECT_EQ(stats.coalesced, std::uint64_t(kClients - 1));
    EXPECT_EQ(stats.cacheHits, 0u);

    // The simulation ran once: the global injection counter moved by
    // exactly one campaign's run count.
    const std::uint64_t moved = injectRuns.total() - runs0;
    const auto w = workloads::buildWorkload(spec.workload);
    core::Campaign direct(w.program, spec.campaignConfig(w));
    direct.run();
    EXPECT_EQ(moved, direct.runner().injectionStats().runs);
}

TEST(CampaignService, WarmCacheServesRepeatSubmissionWithoutRunning)
{
    auto &injectRuns = obs::Registry::global().counter("inject.runs");
    CampaignService svc(memoryConfig(2, /*paused=*/false));
    const CampaignSpec spec = smallSpec(11);

    CampaignService::SubmitOptions opts;
    opts.reuseCached = true;
    auto cold = svc.submit(spec, opts);
    ASSERT_NE(cold, nullptr);
    ASSERT_EQ(cold->wait(), CampaignService::State::Done);
    EXPECT_FALSE(cold->outcome().cached);

    // Same spec again: a store hit, zero additional injections, and
    // the identical result bytes.
    const std::uint64_t runs0 = injectRuns.total();
    auto warm = svc.submit(spec, opts);
    ASSERT_NE(warm, nullptr);
    ASSERT_EQ(warm->wait(), CampaignService::State::Done);
    EXPECT_TRUE(warm->outcome().cached);
    EXPECT_EQ(injectRuns.total() - runs0, 0u);
    EXPECT_EQ(io::resultToJson(warm->outcome().result).dump(),
              io::resultToJson(cold->outcome().result).dump());

    const auto stats = svc.stats();
    EXPECT_EQ(stats.executed, 1u);
    EXPECT_EQ(stats.cacheHits, 1u);

    // keyState: a settled key reads Done (from the store).
    CampaignService::State st;
    ASSERT_TRUE(svc.keyState(spec.key(), st));
    EXPECT_EQ(st, CampaignService::State::Done);
    EXPECT_FALSE(svc.keyState("0000000000000000", st));
}

TEST(CampaignService, CancelRemovesQueuedSubmission)
{
    CampaignService svc(memoryConfig(1, /*paused=*/true));
    CampaignService::SubmitOptions opts;
    auto ticket = svc.submit(smallSpec(13), opts);
    ASSERT_NE(ticket, nullptr);
    EXPECT_EQ(ticket->state(), CampaignService::State::Queued);

    EXPECT_TRUE(svc.cancel(ticket));
    EXPECT_EQ(ticket->wait(), CampaignService::State::Cancelled);
    // Cancelling a settled ticket is a no-op, not an error.
    EXPECT_FALSE(svc.cancel(ticket));

    svc.resume();
    svc.drain();
    EXPECT_EQ(svc.stats().cancelled, 1u);
    EXPECT_EQ(svc.stats().executed, 0u);
}

TEST(CampaignService, ShutdownRefusesNewSubmissionsAndCancelsQueued)
{
    CampaignService svc(memoryConfig(1, /*paused=*/true));
    CampaignService::SubmitOptions opts;
    auto queued = svc.submit(smallSpec(17), opts);
    ASSERT_NE(queued, nullptr);

    svc.beginShutdown(/*cancel_queued=*/true);
    EXPECT_TRUE(svc.draining());
    EXPECT_EQ(svc.submit(smallSpec(19), opts), nullptr);
    EXPECT_EQ(queued->wait(), CampaignService::State::Cancelled);
    svc.resume();
    svc.drain();
}

TEST(CampaignService, SubscribeAttachesToInflightKey)
{
    CampaignService svc(memoryConfig(1, /*paused=*/true));
    const CampaignSpec spec = smallSpec(23);
    CampaignService::SubmitOptions opts;
    auto primary = svc.submit(spec, opts);
    ASSERT_NE(primary, nullptr);

    auto sub = svc.subscribe(spec.key());
    ASSERT_NE(sub, nullptr);
    EXPECT_EQ(sub->key(), primary->key());
    EXPECT_EQ(svc.subscribe("0000000000000000"), nullptr);

    svc.resume();
    ASSERT_EQ(primary->wait(), CampaignService::State::Done);
    ASSERT_EQ(sub->wait(), CampaignService::State::Done);
    EXPECT_TRUE(sub->outcome().coalesced);
    EXPECT_EQ(io::resultToJson(sub->outcome().result).dump(),
              io::resultToJson(primary->outcome().result).dump());
}

TEST(CampaignService, UnknownWorkloadFailsTheTicketNotTheService)
{
    CampaignService svc(memoryConfig(1, /*paused=*/false));
    CampaignSpec bad = smallSpec();
    bad.workload = "no-such-workload";
    CampaignService::SubmitOptions opts;
    auto ticket = svc.submit(bad, opts);
    ASSERT_NE(ticket, nullptr);
    EXPECT_EQ(ticket->wait(), CampaignService::State::Failed);
    EXPECT_NE(ticket->error(), nullptr);

    // The service survives: the next submission runs normally.
    auto good = svc.submit(smallSpec(29), opts);
    ASSERT_NE(good, nullptr);
    EXPECT_EQ(good->wait(), CampaignService::State::Done);
    EXPECT_EQ(svc.stats().failed, 1u);
}

TEST(CampaignService, BatchWrapperMatchesDirectServiceSubmissions)
{
    // The refactor contract seen from above: SuiteScheduler (now a
    // submit-all-and-wait wrapper) returns the same result bytes as
    // direct service submissions of the same specs.
    std::vector<CampaignSpec> specs{smallSpec(31), smallSpec(37)};
    specs[1].workload = "fft";

    SuiteOptions sopts;
    sopts.jobs = 2;
    SuiteResult batch = SuiteScheduler(specs, sopts).run();

    CampaignService svc(memoryConfig(2, /*paused=*/false));
    for (std::size_t i = 0; i < specs.size(); ++i) {
        CampaignService::SubmitOptions opts;
        auto t = svc.submit(specs[i], opts);
        ASSERT_NE(t, nullptr);
        ASSERT_EQ(t->wait(), CampaignService::State::Done);
        EXPECT_EQ(io::resultToJson(t->outcome().result).dump(),
                  io::resultToJson(batch.results[i]).dump())
            << "spec " << i;
    }
}

} // namespace
} // namespace merlin::sched
