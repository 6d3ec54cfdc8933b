/**
 * @file
 * ThreadPool tests: completion, exception propagation, reuse across
 * waves; TaskGroup tests: subset completion on a shared pool, nested
 * help-running waits (the suite scheduler's deadlock-freedom),
 * per-group exception isolation.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "base/logging.hh"
#include "base/threadpool.hh"

namespace merlin::base
{
namespace
{

TEST(ThreadPool, HardwareThreadsIsPositive)
{
    EXPECT_GE(ThreadPool::hardwareThreads(), 1u);
}

TEST(ThreadPool, ThreadCountAboveTheCapIsFatalByName)
{
    // Checked without constructing a pool, so a broken cap cannot
    // start a thousand threads.
    EXPECT_EQ(ThreadPool::checkThreads(0, "--jobs"), 0u);
    EXPECT_EQ(ThreadPool::checkThreads(ThreadPool::kMaxThreads, "--jobs"),
              ThreadPool::kMaxThreads);
    const unsigned over = ThreadPool::kMaxThreads + 1;
    try {
        ThreadPool::checkThreads(over, "--jobs");
        FAIL() << "over-cap thread count accepted";
    } catch (const FatalError &e) {
        const std::string want =
            "--jobs: " + std::to_string(over) + " exceeds";
        EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
            << e.what();
    }
}

TEST(ThreadPool, RunsEverySubmittedTask)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    std::atomic<int> hits{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&hits] { ++hits; });
    pool.wait();
    EXPECT_EQ(hits.load(), 100);
}

TEST(ThreadPool, WaitRethrowsFirstTaskException)
{
    ThreadPool pool(2);
    pool.submit([] { throw std::runtime_error("boom"); });
    EXPECT_THROW(pool.wait(), std::runtime_error);
    // The pool stays usable after an exception.
    std::atomic<int> hits{0};
    pool.submit([&hits] { ++hits; });
    pool.wait();
    EXPECT_EQ(hits.load(), 1);
}

TEST(ThreadPool, ReusableAcrossWaves)
{
    ThreadPool pool(3);
    std::uint64_t total = 0;
    for (int wave = 0; wave < 5; ++wave) {
        std::atomic<std::uint64_t> sum{0};
        for (std::uint64_t i = 0; i < 50; ++i)
            pool.submit([&sum, i] { sum += i; });
        pool.wait();
        total += sum.load();
    }
    EXPECT_EQ(total, 5u * (49u * 50u / 2));
}

TEST(ThreadPool, DestructorDrainsPendingTasks)
{
    std::atomic<int> hits{0};
    {
        ThreadPool pool(1);
        for (int i = 0; i < 20; ++i)
            pool.submit([&hits] { ++hits; });
    }
    EXPECT_EQ(hits.load(), 20);
}

TEST(TaskGroup, WaitsForItsOwnTasksOnly)
{
    ThreadPool pool(4);
    std::atomic<int> a{0}, b{0};
    TaskGroup ga(pool), gb(pool);
    for (int i = 0; i < 50; ++i)
        ga.submit([&a] { ++a; });
    for (int i = 0; i < 30; ++i)
        gb.submit([&b] { ++b; });
    ga.wait();
    EXPECT_EQ(a.load(), 50);
    gb.wait();
    EXPECT_EQ(b.load(), 30);
    pool.wait();
}

TEST(TaskGroup, RunOneExecutesQueuedTaskOnCaller)
{
    // A pool whose only worker is pinned on a task: runOne() must let
    // the caller drain the queue itself.  The started-latch guarantees
    // the WORKER holds the pinned task before anything else is queued
    // (otherwise the caller's runOne() could pop it and spin forever).
    ThreadPool pool(1);
    std::atomic<bool> started{false}, release{false};
    pool.submit([&] {
        started = true;
        while (!release.load())
            std::this_thread::yield();
    });
    while (!started.load())
        std::this_thread::yield();
    std::atomic<int> hits{0};
    pool.submit([&hits] { ++hits; });
    while (pool.runOne())
        ;
    EXPECT_EQ(hits.load(), 1);
    release = true;
    pool.wait();
}

TEST(TaskGroup, NestedWaitOnSingleWorkerPoolDoesNotDeadlock)
{
    // The suite-scheduler shape: a pool task fans a batch into the
    // SAME pool through a group and waits on it.  With one worker this
    // only terminates because wait() help-runs queued tasks.
    ThreadPool pool(1);
    std::atomic<int> inner_hits{0};
    TaskGroup outer(pool);
    outer.submit([&] {
        TaskGroup inner(pool);
        for (int i = 0; i < 25; ++i)
            inner.submit([&inner_hits] { ++inner_hits; });
        inner.wait();
    });
    outer.wait();
    EXPECT_EQ(inner_hits.load(), 25);
}

TEST(TaskGroup, ManyGroupsStealFromOneQueue)
{
    // Several "campaigns" multiplexed on one pool: every group's tasks
    // complete no matter which group's wait() help-runs them.
    ThreadPool pool(2);
    constexpr int kGroups = 6, kTasks = 40;
    std::atomic<int> done{0};
    std::vector<std::unique_ptr<TaskGroup>> groups;
    for (int g = 0; g < kGroups; ++g)
        groups.push_back(std::make_unique<TaskGroup>(pool));
    for (int g = 0; g < kGroups; ++g)
        for (int t = 0; t < kTasks; ++t)
            groups[static_cast<std::size_t>(g)]->submit(
                [&done] { ++done; });
    for (auto &g : groups)
        g->wait();
    EXPECT_EQ(done.load(), kGroups * kTasks);
}

TEST(TaskGroup, ExceptionStaysWithinItsGroup)
{
    ThreadPool pool(2);
    TaskGroup bad(pool), good(pool);
    std::atomic<int> hits{0};
    bad.submit([] { throw std::runtime_error("campaign failed"); });
    for (int i = 0; i < 10; ++i)
        good.submit([&hits] { ++hits; });
    EXPECT_THROW(bad.wait(), std::runtime_error);
    good.wait(); // must NOT rethrow the other group's error
    EXPECT_EQ(hits.load(), 10);
    pool.wait(); // group errors never leak into the pool either
}

TEST(TaskGroup, NonStandardExceptionsReachTheWaiter)
{
    // The catch-all path: a worker throwing something outside the
    // std::exception hierarchy must surface at wait(), not terminate
    // the process (the quarantine guard depends on this for its
    // catch (...) clause).
    ThreadPool pool(2);
    TaskGroup group(pool);
    group.submit([] { throw 42; });
    EXPECT_THROW(group.wait(), int);
    // The group (and pool) stay usable afterwards.
    std::atomic<int> hits{0};
    group.submit([&hits] { ++hits; });
    group.wait();
    EXPECT_EQ(hits.load(), 1);

    pool.submit([] { throw 'x'; });
    EXPECT_THROW(pool.wait(), char);
    pool.wait(); // the error was consumed by the first wait
}

} // namespace
} // namespace merlin::base
